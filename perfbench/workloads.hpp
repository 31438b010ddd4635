#pragma once

// The benchmark's workloads. Each is a fixed-size batch job built from a
// seed: construction is the set-up (config, inputs, tensors), `run()` is the
// one timed call, and `outcome()` reads what the call did and checks it,
// outside the timed interval.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/spans.hpp"
#include "src/control/selection.hpp"
#include "src/dataplane/config.hpp"
#include "src/ml/tensor.hpp"
#include "src/workload/device_tier.hpp"
#include "src/workload/population.hpp"

namespace perfbench {

/// What one timed call did, read once from the layers' outputs. Counters a
/// workload does not exercise stay zero.
struct Counts {
  std::uint64_t uploads = 0;  ///< client uploads launched
  std::uint64_t folded = 0;   ///< uploads folded into a global model
  std::uint64_t rounds = 0;   ///< rounds (or async model versions) completed
  double sim_secs = 0.0;      ///< simulated time of the last completion
  // sim
  std::uint64_t events = 0;
  std::uint64_t windows = 0;
  std::uint64_t windows_skipped = 0;
  std::uint64_t cross_posts = 0;
  double barrier_idle_s = 0.0;
  // systems
  std::uint64_t spawned = 0;
  std::uint64_t reused = 0;
  std::uint64_t replans = 0;
  std::uint64_t leaf_drains = 0;
  // dataplane (client lifecycle)
  std::uint64_t chunks_sent = 0;
  std::uint64_t chunks_resent = 0;
  std::uint64_t disconnects = 0;
  std::uint64_t resumed = 0;
  // shm / fl (fold-real only: the campaigns keep their stores internal)
  std::uint64_t shm_puts = 0;
  std::uint64_t shm_recycled = 0;
  double shm_peak_mb = 0.0;
  std::uint64_t tensor_folds = 0;  ///< real-tensor FedAvg folds
};

struct Outcome {
  std::uint64_t digest = 0;  ///< bit-exact digest of the per-round results
  Counts counts;
  std::string error;  ///< empty when the workload's own check passed
};

/// The workload's inputs, as the per-layer probes replay them.
struct ProbeInputs {
  std::uint64_t seed = 0;
  std::size_t model_bytes = 0;
  lifl::dp::DataPlaneConfig plane;
  std::size_t clients_per_group = 0;
  lifl::wl::TierMix tiers;
  lifl::wl::ArrivalProcess::Config arrivals;
  lifl::ctrl::SelectorPolicy selector = lifl::ctrl::SelectorPolicy::kRandom;
  /// The workload calls a client-selection strategy once per upload.
  bool selection = false;
  std::size_t groups = 1;
  std::size_t per_group_target = 1;  ///< uploads per group per round
  std::uint32_t updates_per_leaf = 1;
  std::uint32_t middle_fanin = 8;
  /// Real client tensors (fold-real); empty for the logical campaigns.
  std::vector<std::shared_ptr<const lifl::ml::Tensor>> tensors;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// The timed call: runs the whole batch job once. `spans` is null in the
  /// timed runs.
  virtual void run(Spans* spans) = 0;
  /// Digest, counts and the workload's own check for the last `run()`.
  virtual Outcome outcome() const = 0;
  virtual ProbeInputs probe_inputs() const = 0;
};

/// Set up a workload by name (null if unknown). `shards` overrides the
/// campaign's shard count; 0 keeps the workload's own.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed,
                                        std::size_t shards = 0);

}  // namespace perfbench
