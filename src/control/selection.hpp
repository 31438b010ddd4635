#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string_view>

#include "src/control/ewma.hpp"
#include "src/sim/random.hpp"
#include "src/workload/population.hpp"

namespace lifl::ctrl {

/// Which client-selection strategy a campaign runs.
enum class SelectorPolicy : std::uint8_t {
  kRandom,       ///< today's oracle: uniform hash over the population
  kScored,       ///< Apodotiko-style EWMA score of per-tier duration/success
  kClusterScan,  ///< FedLesScan-style straggler-cluster down-weighting
};

inline const char* selector_policy_name(SelectorPolicy p) noexcept {
  switch (p) {
    case SelectorPolicy::kRandom:
      return "random";
    case SelectorPolicy::kScored:
      return "scored";
    case SelectorPolicy::kClusterScan:
      return "cluster-scan";
  }
  return "?";
}

/// Parse "random" / "scored" / "cluster" / "cluster-scan". Returns false on
/// anything else.
bool parse_selector_policy(std::string_view s, SelectorPolicy& out) noexcept;

/// One tier's behavioral telemetry: EWMA of observed completion duration
/// and of the success indicator (1 = delivered, 0 = failed/timed out).
/// Serialized into campaign snapshots, so resume is bit-exact.
struct TierScore {
  double dur = 0.0;
  bool dur_init = false;
  double succ = 0.0;
  bool succ_init = false;
};

/// A pluggable client-selection strategy. `pick` is a pure function of
/// (strategy seed, learned tier scores, round, seq, probe) — no internal
/// RNG stream — so K-shard campaigns stay bitwise equal to 1-shard and
/// checkpoint replay re-derives identical cohorts once the scores are
/// restored. `probe` > 0 asks for an alternative draw when the previous
/// candidate was refused (e.g. its offline queue is full).
class SelectionStrategy {
 public:
  struct Config {
    std::uint64_t seed = 1u;
    /// EWMA smoothing for the per-tier duration/success telemetry.
    double alpha = 0.3;
    /// Scored: weight ∝ share * (score/best)^gamma — larger gamma leans
    /// harder into the fastest tier.
    double score_gamma = 2.0;
    /// Scored: tiers scoring below this fraction of the best tier are
    /// excluded outright (straggler tail elimination).
    double exclude_below = 0.05;
    /// Cluster-scan: residual weight multiplier kept on the straggler
    /// cluster (a trickle, so its behavior stays observable).
    double scan_weight = 0.02;
    /// Cluster-scan: a tier whose duration EWMA exceeds `straggler_factor`
    /// x the fastest tier's is clustered as a straggler.
    double straggler_factor = 2.5;
  };

/// Field-table rows (src/systems/campaign_config.hpp).
#define LIFL_SELECTION_FIELDS(X)              \
  X(seed, nullptr, kAny, true)                \
  X(alpha, nullptr, kUnit, true)              \
  X(score_gamma, nullptr, kNonNeg, true)      \
  X(exclude_below, nullptr, kUnitOpen, true)  \
  X(scan_weight, nullptr, kNonNeg, true)      \
  X(straggler_factor, nullptr, kAbove1, true)

  /// Snapshot of the learned state (per-tier scores).
  struct State {
    std::array<TierScore, wl::kTierCount> scores{};
  };

  explicit SelectionStrategy(Config cfg) : cfg_(cfg) {}
  virtual ~SelectionStrategy() = default;

  virtual SelectorPolicy policy() const noexcept = 0;

  /// Pick a population index for upload `seq` of `round`. `probe` = 0 is
  /// the primary draw; `probe` = k the k-th deterministic redraw.
  virtual std::size_t pick(const wl::ClientPopulation& pop,
                           std::uint64_t round, std::uint64_t seq,
                           std::uint64_t probe) const = 0;

  /// Feed back one observed client outcome: `secs` from selection to
  /// delivery (ignored on failure), `success` whether it delivered.
  virtual void report(wl::DeviceTier tier, double secs, bool success) = 0;

  virtual State state() const { return State{}; }
  virtual void restore(const State&) {}

  const Config& config() const noexcept { return cfg_; }

 protected:
  /// FaultPlan-style stateless draw key: every pick seeds a fresh Rng from
  /// a SplitMix64-style mix of (seed, tag, round, seq, probe).
  std::uint64_t key(std::uint64_t tag, std::uint64_t a, std::uint64_t b,
                    std::uint64_t c) const noexcept {
    std::uint64_t x = cfg_.seed;
    for (std::uint64_t v : {tag, a, b, c}) {
      x ^= v + 0x9E3779B97F4A7C15ull + (x << 6) + (x >> 2);
      x *= 0xBF58476D1CE4E5B9ull;
      x ^= x >> 29;
    }
    return x;
  }

  Config cfg_;
};

/// Build a strategy for one campaign group. `group` perturbs the draw seed
/// so groups pick decorrelated cohorts from their own populations.
std::unique_ptr<SelectionStrategy> make_selection_strategy(
    SelectorPolicy policy, SelectionStrategy::Config cfg,
    std::uint64_t group);

}  // namespace lifl::ctrl
