#include "perfbench/workloads.hpp"

#include <array>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "perfbench/common.hpp"
#include "src/dataplane/dataplane.hpp"
#include "src/fl/aggregator_runtime.hpp"
#include "src/sim/node.hpp"
#include "src/sim/random.hpp"
#include "src/sim/simulator.hpp"
#include "src/systems/sharded_campaign.hpp"

namespace perfbench {

using namespace lifl;

namespace {

// ------------------------------------------------------------ campaigns

/// The 1M-client mobile campaign of `examples/mega_campaign`: 8 groups,
/// 4 rounds x 248,000 logical 100 kB uploads, diurnal open-loop arrivals.
sys::ShardedCampaignConfig mega_campaign_config(std::uint64_t seed) {
  sys::ShardedCampaignConfig cfg;
  cfg.shards = 1;
  cfg.groups = 8;
  cfg.rounds = 4;
  cfg.updates_per_leaf = 500;
  cfg.leaves_per_group = 62;
  cfg.model_bytes = 100'000;
  cfg.population = 1'000'000;
  cfg.peak_per_sec = 2500.0;
  cfg.ramp_secs = 60.0;
  cfg.diurnal_amplitude = 0.3;
  cfg.diurnal_period_secs = 600.0;
  cfg.gateway_queues = 0;
  cfg.replan_interval_secs = 5.0;
  cfg.async_deadline_secs = 2.0;
  cfg.seed = seed;
  return cfg;
}

/// `planned-1m`: the planned streaming hierarchy on one shard.
sys::ShardedCampaignConfig planned_1m(std::uint64_t seed) {
  sys::ShardedCampaignConfig cfg = mega_campaign_config(seed);
  cfg.hierarchy = sys::HierarchyMode::kPlanned;
  return cfg;
}

/// `async-edge-4shard`: one continuous async stream over tiered, flaky
/// clients with scored selection and stragglers, on 4 adaptive shards.
sys::ShardedCampaignConfig async_edge_4shard(std::uint64_t seed) {
  sys::ShardedCampaignConfig cfg = mega_campaign_config(seed);
  cfg.hierarchy = sys::HierarchyMode::kAsync;
  cfg.shards = 4;
  cfg.sync_mode = sim::SyncMode::kAdaptive;
  cfg.device_tiers = {0.4, 0.3, 0.3};
  cfg.lifecycle.disconnect_rate = 0.2;
  cfg.lifecycle.offline_base_secs = 0.05;
  cfg.lifecycle.offline_cap_secs = 1.0;
  cfg.selector = ctrl::SelectorPolicy::kScored;
  cfg.straggler_fraction = 0.1;
  return cfg;
}

/// The one place the benchmark reads `ShardedCampaignResult`.
Outcome summarize(const sys::ShardedCampaignConfig& cfg,
                  const sys::ShardedCampaignResult& r) {
  Outcome o;
  Digest d;
  d.values(r.round_completed_at);
  d.values(r.round_samples);
  d.values(r.round_weight);
  o.digest = d.value();

  Counts& c = o.counts;
  for (const sys::ShardedGroupStats& g : r.groups) c.uploads += g.uploads;
  c.rounds = r.round_completed_at.size();
  // Every completed round (async: model version) is a top aggregate whose
  // goal is exactly uploads_per_round() folded client updates.
  c.folded = c.rounds * cfg.uploads_per_round();
  c.sim_secs =
      r.round_completed_at.empty() ? 0.0 : r.round_completed_at.back();
  c.events = r.events;
  c.windows = r.windows;
  c.windows_skipped = r.windows_skipped;
  c.cross_posts = r.cross_posts;
  for (double s : r.shard_idle_secs) c.barrier_idle_s += s;
  c.spawned = r.spawned_total;
  c.reused = r.reused_total;
  c.replans = r.replans;
  c.leaf_drains = r.leaf_drains;
  c.chunks_sent = r.chunks_sent;
  c.chunks_resent = r.chunks_resent;
  c.disconnects = r.disconnects;
  c.resumed = r.resumed_uploads;

  char buf[160];
  if (c.rounds != cfg.rounds) {
    std::snprintf(buf, sizeof buf, "%llu of %zu rounds completed",
                  static_cast<unsigned long long>(c.rounds), cfg.rounds);
    o.error = buf;
  } else if (c.folded != c.uploads) {
    std::snprintf(buf, sizeof buf, "%llu uploads launched, %llu folded",
                  static_cast<unsigned long long>(c.uploads),
                  static_cast<unsigned long long>(c.folded));
    o.error = buf;
  } else if (c.disconnects != c.resumed) {
    std::snprintf(buf, sizeof buf, "%llu disconnects but %llu resumed",
                  static_cast<unsigned long long>(c.disconnects),
                  static_cast<unsigned long long>(c.resumed));
    o.error = buf;
  }
  for (std::uint64_t s : r.round_samples) {
    if (s == 0) o.error = "a round folded zero samples";
  }
  return o;
}

class CampaignWorkload final : public Workload {
 public:
  explicit CampaignWorkload(sys::ShardedCampaignConfig cfg)
      : cfg_(std::move(cfg)) {}

  void run(Spans* spans) override {
    SpanScope s(spans, "systems.run_sharded_campaign");
    result_ = sys::run_sharded_campaign(cfg_);
  }

  Outcome outcome() const override { return summarize(cfg_, result_); }

  ProbeInputs probe_inputs() const override {
    ProbeInputs p;
    p.seed = cfg_.seed;
    p.model_bytes = cfg_.model_bytes;
    p.plane = dp::lifl_plane();
    p.clients_per_group = cfg_.population / cfg_.groups;
    p.tiers = cfg_.device_tiers;
    const double per_group =
        cfg_.peak_per_sec / static_cast<double>(cfg_.groups);
    p.arrivals = {per_group, cfg_.ramp_secs, cfg_.diurnal_amplitude,
                  cfg_.diurnal_period_secs};
    p.selector = cfg_.selector;
    p.selection = cfg_.device_tiers.enabled() || cfg_.lifecycle.enabled() ||
                  cfg_.selector != ctrl::SelectorPolicy::kRandom;
    p.groups = cfg_.groups;
    p.per_group_target = cfg_.per_group_target();
    p.updates_per_leaf = cfg_.updates_per_leaf;
    p.middle_fanin = cfg_.middle_fanin;
    return p;
  }

 private:
  sys::ShardedCampaignConfig cfg_;
  sys::ShardedCampaignResult result_;
};

// ------------------------------------------------------------- fold-real

/// `fold-real`: a two-level tree over the LIFL plane with real tensors.
/// 8 nodes x 4 leaves per node, each leaf folding 32 uploads, 4 rounds.
/// Every upload carries one of 16 pre-generated 256K-float (1 MB) client
/// tensors, a 16 MB working set. With 4 MB tensors (64 MB) the fold kernels
/// stream from DRAM, and on a shared host the run medians swung about twice
/// as far with the neighbours' memory traffic (1.3-2.7 s per call, against
/// 0.31-0.40 s at 1 MB in the same hour).
class FoldRealWorkload final : public Workload {
 public:
  static constexpr std::size_t kNodes = 8;
  static constexpr std::size_t kLeavesPerNode = 4;
  static constexpr std::uint32_t kUpdatesPerLeaf = 32;
  static constexpr std::uint32_t kRounds = 4;
  static constexpr std::size_t kTensors = 16;
  static constexpr std::size_t kTensorLen = 1u << 18;
  static constexpr std::uint64_t kUploadsPerRound =
      kNodes * kLeavesPerNode * kUpdatesPerLeaf;
  static constexpr double kTolerance = 1e-6;

  explicit FoldRealWorkload(std::uint64_t seed) : seed_(seed) {
    sim::Rng tensor_rng(seed);
    for (std::size_t j = 0; j < kTensors; ++j) {
      tensors_.push_back(std::make_shared<const ml::Tensor>(
          ml::Tensor::randn(tensor_rng, kTensorLen, 0.05f)));
    }
    sim::Rng pop_rng(seed ^ 0x5bd1e995ull);
    population_ = wl::ClientPopulation::synthetic(kUploadsPerRound * kRounds,
                                                  /*mobile=*/true, pop_rng);
  }

  void run(Spans* spans) override;
  Outcome outcome() const override;

  ProbeInputs probe_inputs() const override {
    ProbeInputs p;
    p.seed = seed_;
    p.model_bytes = kTensorLen * sizeof(float);
    p.plane = dp::lifl_plane(/*real_payloads=*/true);
    p.clients_per_group = population_.size();
    p.arrivals = arrivals_;
    p.groups = kNodes;
    p.per_group_target = kLeavesPerNode * kUpdatesPerLeaf;
    p.updates_per_leaf = kUpdatesPerLeaf;
    p.tensors = tensors_;
    return p;
  }

 private:
  /// Per-round record of what was uploaded and what the top produced.
  struct Round {
    std::array<double, kTensors> weight{};  ///< Σ samples per tensor
    std::shared_ptr<const ml::Tensor> global;
    std::uint64_t samples = 0;
    std::uint32_t folded = 0;
    double completed_at = -1.0;
  };

  /// Open-loop arrivals for one round: one pending arrival at a time.
  struct Arrivals {
    FoldRealWorkload* w;
    sim::Simulator* sim;
    dp::DataPlane* plane;
    Spans* spans;
    Round* round;
    std::uint32_t version;
    double epoch;
    std::uint64_t first_client;
    std::uint64_t launched = 0;

    void schedule(double prev_rel) {
      if (launched >= kUploadsPerRound) return;
      double next_rel;
      {
        SpanScope s(spans, "workload.next_after");
        next_rel = w->arrival_process_.next_after(prev_rel, w->arrival_rng_);
      }
      const std::uint64_t k = launched++;
      sim->schedule_at(epoch + next_rel,
                       [this, k, next_rel] { arrive(k, next_rel); });
    }

    void arrive(std::uint64_t k, double rel) {
      SpanScope s(spans, "bench.arrival");
      const std::size_t idx = first_client + k;
      wl::ClientProfile profile;
      {
        SpanScope p(spans, "workload.population");
        profile = w->population_[idx];
      }
      const std::size_t j = idx % kTensors;
      round->weight[j] += profile.samples;
      fl::ModelUpdate u;
      u.model_version = version;
      u.producer = profile.id;
      u.sample_count = profile.samples;
      u.logical_bytes = kTensorLen * sizeof(float);
      u.tensor = w->tensors_[j];
      {
        SpanScope p(spans, "dataplane.client_upload");
        plane->client_upload(static_cast<sim::NodeId>(k % kNodes),
                             std::move(u), profile.uplink_bytes_per_sec);
      }
      schedule(rel);
    }
  };

  std::uint64_t seed_;
  std::vector<std::shared_ptr<const ml::Tensor>> tensors_;
  wl::ClientPopulation population_;
  wl::ArrivalProcess::Config arrivals_{/*peak_per_sec=*/400.0,
                                       /*ramp_secs=*/0.0,
                                       /*diurnal_amplitude=*/0.3,
                                       /*diurnal_period_secs=*/60.0};
  wl::ArrivalProcess arrival_process_{arrivals_};
  sim::Rng arrival_rng_{0};
  std::array<Round, kRounds> rounds_{};
  Counts counts_;
};

void FoldRealWorkload::run(Spans* spans) {
  SpanScope root(spans, "bench.fold_real");
  rounds_ = {};
  arrival_rng_ = sim::Rng(seed_ ^ 0x2545f4914f6cdd1dull);
  sim::Simulator sim;
  sim::Cluster cluster(sim, kNodes);
  dp::DataPlane plane(cluster, dp::lifl_plane(/*real_payloads=*/true),
                      sim::Rng(seed_ + 12));
  const std::size_t bytes = kTensorLen * sizeof(float);

  for (std::uint32_t r = 1; r <= kRounds; ++r) {
    SpanScope round_span(spans, "bench.round");
    Round& round = rounds_[r - 1];
    std::vector<std::unique_ptr<fl::AggregatorRuntime>> aggs;
    {
      SpanScope s(spans, "fl.start_runtimes");
      fl::AggregatorRuntime::Config tc;
      tc.id = 1;
      tc.node = 0;
      tc.role = fl::AggRole::kTop;
      tc.goal = static_cast<std::uint32_t>(kNodes * kLeavesPerNode);
      tc.result_bytes = bytes;
      tc.expected_version = r;
      tc.on_result = [spans, &round, &sim](fl::ModelUpdate u) {
        SpanScope cb(spans, "bench.on_result");
        round.global = u.tensor;
        round.samples = u.sample_count;
        round.folded = u.updates_folded;
        round.completed_at = sim.now();
      };
      aggs.push_back(std::make_unique<fl::AggregatorRuntime>(plane, tc));
      aggs.back()->start();
      fl::ParticipantId next_id = 10;
      for (std::size_t n = 0; n < kNodes; ++n) {
        for (std::size_t l = 0; l < kLeavesPerNode; ++l) {
          fl::AggregatorRuntime::Config lc;
          lc.id = next_id++;
          lc.node = static_cast<sim::NodeId>(n);
          lc.role = fl::AggRole::kLeaf;
          lc.goal = kUpdatesPerLeaf;
          lc.consumer = 1;
          lc.result_bytes = bytes;
          lc.pull_from_pool = true;
          lc.expected_version = r;
          aggs.push_back(std::make_unique<fl::AggregatorRuntime>(plane, lc));
          aggs.back()->start();
        }
      }
    }
    Arrivals arrivals{this,     &sim,     &plane,
                      spans,    &round,   r,
                      sim.now(), (r - 1) * kUploadsPerRound};
    arrivals.schedule(0.0);
    {
      SpanScope s(spans, "sim.run");
      sim.run();
    }
  }

  counts_ = {};
  counts_.uploads = kUploadsPerRound * kRounds;
  counts_.events = sim.dispatched();
  for (std::size_t n = 0; n < kNodes; ++n) {
    const shm::ObjectStoreStats& st =
        plane.env(static_cast<sim::NodeId>(n)).store.stats();
    counts_.shm_puts += st.puts;
    counts_.shm_recycled += st.recycled_buffers;
    counts_.shm_peak_mb += static_cast<double>(st.peak_bytes) / (1 << 20);
  }
}

Outcome FoldRealWorkload::outcome() const {
  Outcome o;
  o.counts = counts_;
  Counts& c = o.counts;
  Digest d;
  std::vector<double> exact(kTensorLen);
  char buf[160];
  for (std::uint32_t r = 0; r < kRounds; ++r) {
    const Round& round = rounds_[r];
    if (!round.global) {
      std::snprintf(buf, sizeof buf, "round %u produced no global model",
                    r + 1);
      o.error = buf;
      return o;
    }
    ++c.rounds;
    c.folded += round.folded;
    c.sim_secs = round.completed_at;
    // Leaves fold one upload each; the top folds one partial per leaf.
    c.tensor_folds += round.folded + kNodes * kLeavesPerNode;
    d.bytes(&round.completed_at, sizeof round.completed_at);
    d.bytes(&round.samples, sizeof round.samples);
    d.bytes(round.global->data(), round.global->bytes());

    // The exact FedAvg mean, in double, from what the round uploaded.
    double total = 0.0;
    for (double w : round.weight) total += w;
    std::fill(exact.begin(), exact.end(), 0.0);
    for (std::size_t j = 0; j < kTensors; ++j) {
      const double a = round.weight[j] / total;
      const float* t = tensors_[j]->data();
      for (std::size_t k = 0; k < kTensorLen; ++k) exact[k] += a * t[k];
    }
    double worst = 0.0;
    const float* g = round.global->data();
    for (std::size_t k = 0; k < kTensorLen; ++k) {
      worst = std::max(worst, std::fabs(static_cast<double>(g[k]) - exact[k]));
    }
    if (round.global->size() != kTensorLen || !(worst <= kTolerance) ||
        static_cast<double>(round.samples) != total) {
      std::snprintf(buf, sizeof buf,
                    "round %u: global model is %.3g from the exact mean",
                    r + 1, worst);
      o.error = buf;
    }
  }
  o.digest = d.value();
  if (o.error.empty() && c.folded != c.uploads) {
    std::snprintf(buf, sizeof buf, "%llu uploads launched, %llu folded",
                  static_cast<unsigned long long>(c.uploads),
                  static_cast<unsigned long long>(c.folded));
    o.error = buf;
  }
  return o;
}

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed,
                                        std::size_t shards) {
  std::unique_ptr<Workload> w;
  if (name == "planned-1m" || name == "async-edge-4shard") {
    sys::ShardedCampaignConfig cfg =
        name == "planned-1m" ? planned_1m(seed) : async_edge_4shard(seed);
    if (shards > 0) cfg.shards = shards;
    w = std::make_unique<CampaignWorkload>(std::move(cfg));
  } else if (name == "fold-real") {
    w = std::make_unique<FoldRealWorkload>(seed);
  }
  return w;
}

}  // namespace perfbench
