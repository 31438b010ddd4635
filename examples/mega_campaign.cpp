// Million-client FL campaign — the scale the ROADMAP's north star asks for
// and the reason the event core is a calendar queue rather than one big
// heap.
//
// A population of 1,000,000 phone-class clients is described *lazily*: the
// ClientPopulation holds an RNG root and derives a client's profile from
// its index on demand, so the campaign never materializes a million
// ClientProfiles. Uploads are driven open-loop by an ArrivalProcess
// (Poisson, linear ramp, diurnal wave) that keeps exactly one pending
// arrival event; peak resident state is O(active clients) — in-flight
// uploads plus the aggregation hierarchy — not O(population).
//
// Each round, the arriving updates land on an 8-node LIFL cluster and flow
// through a two-level hierarchy (per-node leaf aggregators pulling from the
// node pool, one top aggregator), under eager and under lazy timing
// (Fig. 1). The example reports per-round wall time, simulated time, event
// throughput, and the process's peak RSS as evidence of the O(active)
// memory claim.
//
// With `--shards=K` the campaign runs on the sharded simulator core: the 8
// nodes become 8 independent groups dealt onto K worker threads, leaf
// aggregates cross groups through conservative-time-window mailboxes, and
// the results are identical for every K (the group wiring, not the thread
// count, defines the model) — see src/systems/sharded_campaign.
//
// With `--hierarchy=planned` the sharded campaign runs the streaming
// hierarchy orchestrator (src/systems/streaming_hierarchy): planner-driven
// multi-level trees sized from EWMA'd pending estimates, mid-round
// re-planning (`--replan-interval=SECS`), and warm cross-round instance
// reuse (`--reuse=0` disables it for the churn A/B) — steady-state rounds
// spawn zero new aggregator runtimes. `--hierarchy=fixed` keeps the
// two-level destroy-and-respawn baseline.
//
// With `--hierarchy=async` the round barrier disappears entirely
// (HierarchyMode::kAsync): the campaign is one continuous stream, leaves
// are FedBuff buffers sealing on count or `--async-deadline=SECS`, folds
// are FedAsync staleness-weighted against the broadcast server version,
// and `rounds` counts emitted model versions. `--stragglers=F` delays that
// fraction of uploads by `--straggler-delay=SECS` (both modes — the
// sync-vs-async A/B knob of bench/fig9_time_to_accuracy).
//
// With `--device-tiers=F,M,I` the population splits into flagship /
// mid-range / IoT compute+uplink classes (shares summing to 1), and
// `--disconnect-rate=F` runs the flaky client lifecycle on top: sessions
// disconnect mid-upload at the tier-scaled rate, park the update in a
// bounded offline queue, and resume chunk-wise from the last acked offset.
// `--selector=random|scored|cluster` picks the client-selection strategy
// (scored/cluster learn per-tier completion telemetry and steer away from
// straggler tiers). The summary then adds a per-tier participation table.
//
// With `--sync-mode=conservative|adaptive` the sharded core picks its
// barrier discipline (src/sim/sharded_simulator): fixed conservative
// windows, or promise-widened adaptive windows that skip the empty
// barriers of diurnal troughs. Results are bitwise identical across both
// and across shard counts; the summary reports windows skipped.
//
// With `--trace=FILE.json` the run records a sim-time trace (round spans,
// aggregator lifecycle, upload sessions, barrier windows) into per-shard
// ring buffers (`--trace-ring-kb=N` caps each ring) and exports Chrome
// trace-event JSON loadable at https://ui.perfetto.dev; `--metrics=F.jsonl`
// writes per-round rows plus a registry summary. Recording is passive:
// results are bitwise identical with and without it.
//
// Build & run:  cmake -B build && cmake --build build -j
//               ./build/examples/mega_campaign            # full 1M clients
//               ./build/examples/mega_campaign 100000     # quicker slice
//               ./build/examples/mega_campaign --shards=4 # threaded core
//               ./build/examples/mega_campaign --shards=4 --hierarchy=planned
//               ./build/examples/mega_campaign --shards=4 --hierarchy=async
//               ./build/examples/mega_campaign --device-tiers=0.4,0.3,0.3 \
//                   --disconnect-rate=0.2 --selector=scored

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "src/dataplane/config.hpp"
#include "src/dataplane/dataplane.hpp"
#include "src/fl/aggregator_runtime.hpp"
#include "src/sim/node.hpp"
#include "src/sim/random.hpp"
#include "src/sim/simulator.hpp"
#include "src/systems/sharded_campaign.hpp"
#include "src/systems/table.hpp"
#include "src/workload/population.hpp"

namespace {

using namespace lifl;

struct CampaignConfig {
  std::size_t population = 1'000'000;
  std::size_t nodes = 8;
  std::size_t rounds = 4;
  std::uint32_t updates_per_leaf = 500;
  std::size_t leaves_per_node = 62;
  std::size_t model_bytes = 100'000;  ///< compressed mobile update
  wl::ArrivalProcess::Config arrivals{/*peak_per_sec=*/2500.0,
                                      /*ramp_secs=*/60.0,
                                      /*diurnal_amplitude=*/0.3,
                                      /*diurnal_period_secs=*/600.0};

  std::size_t uploads_per_round() const {
    return nodes * leaves_per_node * updates_per_leaf;
  }
};

struct RoundStats {
  double sim_secs = 0;
  double wall_secs = 0;
  std::uint64_t events = 0;
  std::uint64_t uploads = 0;
  double top_busy = 0;
};

/// Peak resident set size of this process (kB), from /proc/self/status.
long peak_rss_kb() {
  FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return -1;
  char line[256];
  long kb = -1;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kb = std::strtol(line + 6, nullptr, 10);
      break;
    }
  }
  std::fclose(f);
  return kb;
}

std::vector<RoundStats> run_campaign(const CampaignConfig& cfg,
                                     fl::AggTiming timing) {
  sim::Simulator sim;
  sim::Cluster cluster(sim, cfg.nodes);
  dp::DataPlane plane(cluster, dp::lifl_plane(), sim::Rng(12));
  sim::Rng rng(2026);
  wl::ClientPopulation population =
      wl::ClientPopulation::synthetic(cfg.population, /*mobile=*/true, rng);
  wl::ArrivalProcess arrivals(cfg.arrivals);

  std::vector<RoundStats> stats;
  std::uint64_t participant_counter = 0;

  for (std::size_t round = 1; round <= cfg.rounds; ++round) {
    const double round_started = sim.now();
    const std::uint64_t events_before = sim.dispatched();
    const auto wall0 = std::chrono::steady_clock::now();

    // Two-level hierarchy: per-node leaves pulling from the node pool, one
    // top aggregator collecting the leaf partials.
    std::vector<std::unique_ptr<fl::AggregatorRuntime>> aggs;
    bool round_done = false;
    fl::AggregatorRuntime::Config tc;
    tc.id = 1;
    tc.node = 0;
    tc.role = fl::AggRole::kTop;
    tc.timing = timing;
    tc.goal = static_cast<std::uint32_t>(cfg.nodes * cfg.leaves_per_node);
    tc.result_bytes = cfg.model_bytes;
    tc.expected_version = static_cast<std::uint32_t>(round);
    tc.on_result = [&round_done](fl::ModelUpdate) { round_done = true; };
    aggs.push_back(std::make_unique<fl::AggregatorRuntime>(plane, tc));
    aggs.back()->start();
    fl::ParticipantId next_id = 10;
    for (std::size_t n = 0; n < cfg.nodes; ++n) {
      for (std::size_t l = 0; l < cfg.leaves_per_node; ++l) {
        fl::AggregatorRuntime::Config lc;
        lc.id = next_id++;
        lc.node = static_cast<sim::NodeId>(n);
        lc.role = fl::AggRole::kLeaf;
        lc.timing = timing;
        lc.goal = cfg.updates_per_leaf;
        lc.consumer = 1;
        lc.result_bytes = cfg.model_bytes;
        lc.pull_from_pool = true;
        lc.expected_version = static_cast<std::uint32_t>(round);
        aggs.push_back(std::make_unique<fl::AggregatorRuntime>(plane, lc));
        aggs.back()->start();
      }
    }

    // Open-loop arrivals: one pending arrival event at any time; each
    // arrival derives the client's profile from its index on demand.
    const std::uint64_t target = cfg.uploads_per_round();
    std::uint64_t launched = 0;
    const double epoch = sim.now();
    auto spawn_next = std::make_shared<std::function<void(double)>>();
    *spawn_next = [&, epoch](double prev_rel) {
      if (launched >= target) return;
      ++launched;
      const double next_rel = arrivals.next_after(prev_rel, rng);
      // A pseudo-random permutation walks the population without repeats.
      const std::size_t idx = static_cast<std::size_t>(
          (participant_counter++ * 2654435761ull) % cfg.population);
      const wl::ClientProfile profile = population[idx];
      const auto node =
          static_cast<sim::NodeId>(participant_counter % cfg.nodes);
      sim.schedule_at(epoch + next_rel, [&, node, profile, round,
                                         prev = next_rel] {
        fl::ModelUpdate u;
        u.model_version = static_cast<std::uint32_t>(round);
        u.producer = profile.id;
        u.sample_count = profile.samples;
        u.logical_bytes = cfg.model_bytes;
        plane.client_upload(node, std::move(u), profile.uplink_bytes_per_sec);
        (*spawn_next)(prev);
      });
    };
    (*spawn_next)(0.0);

    sim.run();
    if (!round_done) {
      std::fprintf(stderr, "round %zu did not complete\n", round);
      std::exit(1);
    }

    RoundStats rs;
    rs.sim_secs = sim.now() - round_started;
    rs.wall_secs = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - wall0)
                       .count();
    rs.events = sim.dispatched() - events_before;
    rs.uploads = launched;
    rs.top_busy = aggs.front()->busy_secs();
    stats.push_back(rs);
  }
  return stats;
}

/// Campaign checkpoint/restore knobs (sharded path only).
struct CheckpointOpts {
  double every_secs = 0.0;   ///< 0 = off
  std::string checkpoint;    ///< latest-blob path (--checkpoint=PATH)
  std::string resume;        ///< resume-blob path (--resume=PATH)
};

/// Async-mode and straggler knobs (sharded path only).
struct AsyncOpts {
  double deadline_secs = 2.0;       ///< leaf-buffer seal deadline (kAsync)
  double straggler_fraction = 0.0;  ///< delayed-upload fraction (both modes)
  double straggler_delay_secs = 60.0;
};

/// Edge-client knobs: tiered populations, flaky lifecycle, selection
/// strategy (sharded path only).
struct EdgeOpts {
  wl::TierMix tiers;              ///< --device-tiers=F,M,I (all-zero = off)
  double disconnect_rate = 0.0;   ///< --disconnect-rate=F
  ctrl::SelectorPolicy selector = ctrl::SelectorPolicy::kRandom;

  bool any() const {
    return tiers.enabled() || disconnect_rate > 0.0 ||
           selector != ctrl::SelectorPolicy::kRandom;
  }
};

/// Observability knobs (sharded path only): Perfetto-loadable trace and
/// per-round JSONL metrics. Recording is passive — a traced run's results
/// are bitwise identical to an untraced one.
struct ObsOpts {
  std::string trace;          ///< --trace=FILE.json
  std::string metrics;        ///< --metrics=FILE.jsonl
  std::size_t ring_kb = 4096; ///< --trace-ring-kb=N per-shard ring cap

  bool any() const { return !trace.empty() || !metrics.empty(); }
};

/// Fault-injection and graceful-degradation knobs (sharded path only).
struct FaultOpts {
  bool enabled = false;         ///< --fault-plan=SEED given
  std::uint64_t seed = 1;       ///< fault schedule seed
  double leaf_crash_rate = -1;  ///< <0: default 0.1 when the plan is on
  double quorum = 1.0;          ///< --quorum=F: seal sync rounds at F
  double round_deadline_secs = 60.0;

  bool any() const { return enabled || quorum < 1.0; }
};

/// Run the campaign on the sharded core and print the per-round table.
int run_sharded(const CampaignConfig& cfg, std::size_t shards,
                sys::HierarchyMode mode, double replan_interval, bool reuse,
                sim::SyncMode sync, const CheckpointOpts& ck,
                const AsyncOpts& as, const FaultOpts& fo, const EdgeOpts& eo,
                const ObsOpts& oo) {
  sys::ShardedCampaignConfig scfg;
  scfg.shards = shards;
  scfg.sync_mode = sync;
  scfg.groups = cfg.nodes;
  scfg.rounds = cfg.rounds;
  scfg.updates_per_leaf = cfg.updates_per_leaf;
  scfg.leaves_per_group = cfg.leaves_per_node;
  scfg.model_bytes = cfg.model_bytes;
  scfg.population = cfg.population;
  scfg.peak_per_sec = cfg.arrivals.peak_per_sec;
  scfg.ramp_secs = cfg.arrivals.ramp_secs;
  scfg.diurnal_amplitude = cfg.arrivals.diurnal_amplitude;
  scfg.diurnal_period_secs = cfg.arrivals.diurnal_period_secs;
  scfg.gateway_queues = 0;  // one RSS queue per gateway core
  scfg.hierarchy = mode;
  scfg.replan_interval_secs = replan_interval;
  scfg.reuse = reuse;
  scfg.checkpoint_every_secs = ck.every_secs;
  scfg.checkpoint_path = ck.checkpoint;
  scfg.resume_path = ck.resume;
  scfg.async_deadline_secs = as.deadline_secs;
  scfg.straggler_fraction = as.straggler_fraction;
  scfg.straggler_delay_secs = as.straggler_delay_secs;
  if (fo.enabled) {
    scfg.fault.seed = fo.seed;
    scfg.fault.leaf_crash_rate =
        fo.leaf_crash_rate >= 0.0 ? fo.leaf_crash_rate : 0.1;
  }
  if (fo.quorum < 1.0) {
    scfg.quorum = fo.quorum;
    scfg.round_deadline_secs = fo.round_deadline_secs;
  }
  scfg.device_tiers = eo.tiers;
  scfg.selector = eo.selector;
  scfg.obs.trace = !oo.trace.empty();
  scfg.obs.metrics = !oo.metrics.empty();
  scfg.obs.trace_ring_kb = oo.ring_kb;
  if (eo.disconnect_rate > 0.0) {
    scfg.lifecycle.disconnect_rate = eo.disconnect_rate;
    scfg.lifecycle.offline_base_secs = 0.05;
    scfg.lifecycle.offline_cap_secs = 1.0;
  }

  const bool planned = mode == sys::HierarchyMode::kPlanned;
  const bool is_async = mode == sys::HierarchyMode::kAsync;
  const char* sync_name =
      sync == sim::SyncMode::kConservative ? "conservative" : "adaptive";
  std::printf(
      "Sharded mega campaign: %zu mobile clients, %zu node groups on %zu "
      "shard threads, %zu %s x %zu uploads, %s hierarchy%s, %s sync\n\n",
      scfg.population, scfg.groups, shards, scfg.rounds,
      is_async ? "model versions" : "rounds", scfg.uploads_per_round(),
      is_async ? "async (FedBuff stream)"
               : (planned ? "planned (streaming)" : "fixed"),
      planned && !reuse ? " (reuse off)" : "", sync_name);
  if (as.straggler_fraction > 0.0) {
    std::printf("stragglers: %.0f%% of uploads delayed %.0f s\n\n",
                100.0 * as.straggler_fraction, as.straggler_delay_secs);
  }
  if (fo.enabled) {
    std::printf(
        "fault plan: seed %llu, %.0f%% leaf crash rate — crashed "
        "aggregators recover losslessly from their pool leases\n\n",
        static_cast<unsigned long long>(scfg.fault.seed),
        100.0 * scfg.fault.leaf_crash_rate);
  }
  if (fo.quorum < 1.0) {
    std::printf("quorum: rounds seal at %.0f%% after a %.0f s deadline\n\n",
                100.0 * fo.quorum, fo.round_deadline_secs);
  }
  if (eo.tiers.enabled()) {
    std::printf(
        "device tiers: %.0f%% flagship / %.0f%% mid-range / %.0f%% IoT, "
        "%s selection\n\n",
        100.0 * eo.tiers.flagship, 100.0 * eo.tiers.mid,
        100.0 * eo.tiers.iot, ctrl::selector_policy_name(eo.selector));
  }
  if (eo.disconnect_rate > 0.0) {
    std::printf(
        "flaky lifecycle: %.0f%% base mid-upload disconnect rate — parked "
        "updates resume chunk-wise from the last acked offset\n\n",
        100.0 * eo.disconnect_rate);
  }

  const auto r = sys::run_sharded_campaign(scfg);
  sys::Table t({is_async ? "version" : "round", "duration(sim s)",
                "samples", "eff weight", "spawned", "reused", "refolded"});
  for (std::size_t i = 0; i < r.round_completed_at.size(); ++i) {
    t.row({std::to_string(i + 1),
           sys::fmt(r.round_completed_at[i] - r.round_started_at[i], 2),
           std::to_string(r.round_samples[i]),
           sys::fmt(r.round_weight[i], 0),
           std::to_string(r.round_spawned[i]),
           std::to_string(r.round_reused[i]),
           std::to_string(r.round_refolded[i])});
  }
  t.print(is_async
              ? "Asynchronous stream (seal on count/deadline; weights "
                "FedAsync staleness-discounted; zero steady-state spawns)"
              : (planned ? "Streaming hierarchy orchestrator (plan -> arm "
                           "-> stream -> re-plan; zero steady-state spawns)"
                         : "Fixed two-level hierarchy (per-round churn "
                           "baseline)"));
  std::printf(
      "%llu events in %.2f s wall (%.2fM events/s aggregate), "
      "%llu windows, %llu cross-shard posts\n",
      static_cast<unsigned long long>(r.events), r.wall_secs,
      r.events / r.wall_secs / 1e6,
      static_cast<unsigned long long>(r.windows),
      static_cast<unsigned long long>(r.cross_posts));
  if (sync != sim::SyncMode::kConservative) {
    std::printf("%s sync: %llu windows skipped\n", sync_name,
                static_cast<unsigned long long>(r.windows_skipped));
  }
  if (planned || is_async) {
    std::printf(
        "orchestrator: %llu spawned / %llu reused runtimes, %llu re-plans, "
        "%llu partial drains, peak %u leaves/group\n",
        static_cast<unsigned long long>(r.spawned_total),
        static_cast<unsigned long long>(r.reused_total),
        static_cast<unsigned long long>(r.replans),
        static_cast<unsigned long long>(r.leaf_drains), r.peak_leaves);
  }
  if (fo.any()) {
    std::printf(
        "recovery: %llu leaf / %llu middle / %llu top crashes, %llu updates "
        "re-folded, %llu partials re-injected, %llu upload retries, "
        "%llu quorum seals (%llu uploads abandoned), %.3f s cold-start "
        "billed\n",
        static_cast<unsigned long long>(r.leaf_crashes),
        static_cast<unsigned long long>(r.middle_crashes),
        static_cast<unsigned long long>(r.top_crashes),
        static_cast<unsigned long long>(r.refolded_updates),
        static_cast<unsigned long long>(r.reinjected_partials),
        static_cast<unsigned long long>(r.upload_retries),
        static_cast<unsigned long long>(r.quorum_seals),
        static_cast<unsigned long long>(r.quorum_abandoned),
        r.recovery_secs);
  }
  if (eo.tiers.enabled()) {
    sys::Table tt({"tier", "selected", "completed", "success", "disconnects",
                   "stragglers"});
    for (std::size_t i = 0; i < wl::kTierCount; ++i) {
      const auto& ts = r.tiers[i];
      const double success =
          ts.selected > 0 ? static_cast<double>(ts.completed) /
                                static_cast<double>(ts.selected)
                          : 0.0;
      tt.row({wl::tier_name(static_cast<wl::DeviceTier>(i)),
              std::to_string(ts.selected), std::to_string(ts.completed),
              sys::fmt(100.0 * success, 1) + "%",
              std::to_string(ts.disconnects),
              std::to_string(ts.stragglers)});
    }
    tt.print("Per-tier participation");
  }
  if (eo.disconnect_rate > 0.0) {
    std::printf(
        "lifecycle: %llu disconnects, %llu resumed, %llu chunks acked "
        "(%llu re-sent), %llu redraws, offline-queue peak %llu, "
        "%.1f s gate wait\n",
        static_cast<unsigned long long>(r.disconnects),
        static_cast<unsigned long long>(r.resumed_uploads),
        static_cast<unsigned long long>(r.chunks_sent),
        static_cast<unsigned long long>(r.chunks_resent),
        static_cast<unsigned long long>(r.selection_redraws),
        static_cast<unsigned long long>(r.offline_queue_peak),
        r.gate_wait_secs);
  }
  if (ck.every_secs > 0.0) {
    std::printf(
        "checkpoints: %llu marks billed, %llu blobs written (%llu bytes, "
        "%.3f s encode wall)%s%s\n",
        static_cast<unsigned long long>(r.checkpoint_marks),
        static_cast<unsigned long long>(r.checkpoints_written),
        static_cast<unsigned long long>(r.checkpoint_bytes),
        r.checkpoint_encode_secs,
        ck.checkpoint.empty() ? "" : ", latest at ",
        ck.checkpoint.empty() ? "" : ck.checkpoint.c_str());
  }
  if (!oo.trace.empty()) {
    sys::write_campaign_trace(r, oo.trace);
    std::printf(
        "trace: %llu events recorded (%llu dropped) -> %s — open in "
        "https://ui.perfetto.dev\n",
        static_cast<unsigned long long>(r.obs->trace().recorded_events()),
        static_cast<unsigned long long>(r.obs->trace().dropped_events()),
        oo.trace.c_str());
  }
  if (!oo.metrics.empty()) {
    sys::write_campaign_metrics_jsonl(r, oo.metrics);
    std::printf("metrics: per-round JSONL -> %s\n", oo.metrics.c_str());
  }
  const long rss = peak_rss_kb();
  if (rss > 0) std::printf("peak RSS: %.1f MB\n", rss / 1024.0);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  CampaignConfig cfg;
  std::size_t shards = 0;  // 0 = classic unsharded path
  bool hierarchy_flag = false;
  sys::HierarchyMode mode = sys::HierarchyMode::kFixed;
  double replan_interval = 5.0;
  bool reuse = true;
  bool sync_flag = false;
  sim::SyncMode sync = sim::SyncMode::kConservative;
  CheckpointOpts ck;
  AsyncOpts as;
  FaultOpts fo;
  EdgeOpts eo;
  ObsOpts oo;
  const auto usage = [&argv] {
    std::fprintf(stderr,
                 "usage: %s [population >= 1000] [--shards=K] "
                 "[--hierarchy=fixed|planned|async] [--replan-interval=SECS] "
                 "[--sync-mode=conservative|adaptive] "
                 "[--reuse=0|1] [--checkpoint=PATH] [--resume=PATH] "
                 "[--checkpoint-every=SECS] [--async-deadline=SECS] "
                 "[--stragglers=FRACTION] [--straggler-delay=SECS] "
                 "[--fault-plan=SEED] [--leaf-crash-rate=F] [--quorum=F] "
                 "[--device-tiers=F,M,I] [--disconnect-rate=F] "
                 "[--selector=random|scored|cluster] [--trace=FILE.json] "
                 "[--metrics=FILE.jsonl] [--trace-ring-kb=N]\n",
                 argv[0]);
    return 2;
  };
  for (int a = 1; a < argc; ++a) {
    if (std::strncmp(argv[a], "--shards=", 9) == 0) {
      char* end = nullptr;
      shards = std::strtoul(argv[a] + 9, &end, 10);
      if (end == argv[a] + 9 || *end != '\0' || shards == 0) return usage();
      continue;
    }
    if (std::strncmp(argv[a], "--hierarchy=", 12) == 0) {
      hierarchy_flag = true;
      if (std::strcmp(argv[a] + 12, "planned") == 0) {
        mode = sys::HierarchyMode::kPlanned;
      } else if (std::strcmp(argv[a] + 12, "fixed") == 0) {
        mode = sys::HierarchyMode::kFixed;
      } else if (std::strcmp(argv[a] + 12, "async") == 0) {
        mode = sys::HierarchyMode::kAsync;
      } else {
        return usage();
      }
      continue;
    }
    if (std::strncmp(argv[a], "--sync-mode=", 12) == 0) {
      sync_flag = true;
      if (std::strcmp(argv[a] + 12, "conservative") == 0) {
        sync = sim::SyncMode::kConservative;
      } else if (std::strcmp(argv[a] + 12, "adaptive") == 0) {
        sync = sim::SyncMode::kAdaptive;
      } else {
        return usage();
      }
      continue;
    }
    if (std::strncmp(argv[a], "--async-deadline=", 17) == 0) {
      char* end = nullptr;
      as.deadline_secs = std::strtod(argv[a] + 17, &end);
      if (end == argv[a] + 17 || *end != '\0' ||
          !std::isfinite(as.deadline_secs) || as.deadline_secs < 0.0) {
        return usage();
      }
      continue;
    }
    if (std::strncmp(argv[a], "--stragglers=", 13) == 0) {
      char* end = nullptr;
      as.straggler_fraction = std::strtod(argv[a] + 13, &end);
      if (end == argv[a] + 13 || *end != '\0' ||
          !std::isfinite(as.straggler_fraction) ||
          as.straggler_fraction < 0.0 || as.straggler_fraction > 1.0) {
        return usage();
      }
      continue;
    }
    if (std::strncmp(argv[a], "--straggler-delay=", 18) == 0) {
      char* end = nullptr;
      as.straggler_delay_secs = std::strtod(argv[a] + 18, &end);
      if (end == argv[a] + 18 || *end != '\0' ||
          !std::isfinite(as.straggler_delay_secs) ||
          as.straggler_delay_secs < 0.0) {
        return usage();
      }
      continue;
    }
    if (std::strncmp(argv[a], "--replan-interval=", 18) == 0) {
      char* end = nullptr;
      replan_interval = std::strtod(argv[a] + 18, &end);
      if (end == argv[a] + 18 || *end != '\0' || replan_interval < 0.0) {
        return usage();
      }
      continue;
    }
    if (std::strncmp(argv[a], "--checkpoint-every=", 19) == 0) {
      char* end = nullptr;
      ck.every_secs = std::strtod(argv[a] + 19, &end);
      if (end == argv[a] + 19 || *end != '\0' ||
          !std::isfinite(ck.every_secs) || ck.every_secs <= 0.0) {
        return usage();
      }
      continue;
    }
    if (std::strncmp(argv[a], "--checkpoint=", 13) == 0) {
      ck.checkpoint = argv[a] + 13;
      if (ck.checkpoint.empty()) return usage();
      continue;
    }
    if (std::strncmp(argv[a], "--resume=", 9) == 0) {
      ck.resume = argv[a] + 9;
      if (ck.resume.empty()) return usage();
      continue;
    }
    if (std::strncmp(argv[a], "--fault-plan=", 13) == 0) {
      char* end = nullptr;
      fo.seed = std::strtoull(argv[a] + 13, &end, 10);
      if (end == argv[a] + 13 || *end != '\0') return usage();
      fo.enabled = true;
      continue;
    }
    if (std::strncmp(argv[a], "--leaf-crash-rate=", 18) == 0) {
      char* end = nullptr;
      fo.leaf_crash_rate = std::strtod(argv[a] + 18, &end);
      if (end == argv[a] + 18 || *end != '\0' ||
          !std::isfinite(fo.leaf_crash_rate) || fo.leaf_crash_rate < 0.0 ||
          fo.leaf_crash_rate > 1.0) {
        return usage();
      }
      fo.enabled = true;
      continue;
    }
    if (std::strncmp(argv[a], "--quorum=", 9) == 0) {
      char* end = nullptr;
      fo.quorum = std::strtod(argv[a] + 9, &end);
      if (end == argv[a] + 9 || *end != '\0' || !std::isfinite(fo.quorum) ||
          fo.quorum <= 0.0 || fo.quorum > 1.0) {
        return usage();
      }
      continue;
    }
    if (std::strncmp(argv[a], "--device-tiers=", 15) == 0) {
      char* end = nullptr;
      const char* p = argv[a] + 15;
      eo.tiers.flagship = std::strtod(p, &end);
      if (end == p || *end != ',') return usage();
      p = end + 1;
      eo.tiers.mid = std::strtod(p, &end);
      if (end == p || *end != ',') return usage();
      p = end + 1;
      eo.tiers.iot = std::strtod(p, &end);
      if (end == p || *end != '\0' || !eo.tiers.enabled()) return usage();
      continue;
    }
    if (std::strncmp(argv[a], "--disconnect-rate=", 18) == 0) {
      char* end = nullptr;
      eo.disconnect_rate = std::strtod(argv[a] + 18, &end);
      if (end == argv[a] + 18 || *end != '\0' ||
          !std::isfinite(eo.disconnect_rate) || eo.disconnect_rate < 0.0 ||
          eo.disconnect_rate >= 1.0) {
        return usage();
      }
      continue;
    }
    if (std::strncmp(argv[a], "--selector=", 11) == 0) {
      if (!ctrl::parse_selector_policy(argv[a] + 11, eo.selector)) {
        return usage();
      }
      continue;
    }
    if (std::strncmp(argv[a], "--trace=", 8) == 0) {
      oo.trace = argv[a] + 8;
      if (oo.trace.empty()) return usage();
      continue;
    }
    if (std::strncmp(argv[a], "--metrics=", 10) == 0) {
      oo.metrics = argv[a] + 10;
      if (oo.metrics.empty()) return usage();
      continue;
    }
    if (std::strncmp(argv[a], "--trace-ring-kb=", 16) == 0) {
      char* end = nullptr;
      oo.ring_kb = std::strtoul(argv[a] + 16, &end, 10);
      if (end == argv[a] + 16 || *end != '\0' || oo.ring_kb == 0) {
        return usage();
      }
      continue;
    }
    if (std::strncmp(argv[a], "--reuse=", 8) == 0) {
      if (std::strcmp(argv[a] + 8, "0") == 0) {
        reuse = false;
      } else if (std::strcmp(argv[a] + 8, "1") == 0) {
        reuse = true;
      } else {
        return usage();
      }
      continue;
    }
    char* end = nullptr;
    cfg.population = std::strtoul(argv[a], &end, 10);
    if (end == argv[a] || *end != '\0' || cfg.population < 1000) {
      return usage();
    }
    // Keep the hierarchy shape; scale the per-round fan-in to the slice.
    while (cfg.uploads_per_round() * cfg.rounds > cfg.population &&
           cfg.leaves_per_node > 1) {
      cfg.leaves_per_node /= 2;
    }
  }
  // The orchestrator and the checkpoint driver run on the sharded campaign
  // path; --hierarchy / --checkpoint* without --shards mean the 1-shard
  // (plain core) execution of it. A --checkpoint without an explicit
  // cadence checkpoints every 20 simulated seconds.
  const bool ck_flag =
      ck.every_secs > 0.0 || !ck.checkpoint.empty() || !ck.resume.empty();
  if (ck_flag && ck.every_secs <= 0.0) ck.every_secs = 20.0;
  if ((hierarchy_flag || ck_flag || sync_flag ||
       as.straggler_fraction > 0.0 || fo.any() || eo.any() || oo.any()) &&
      shards == 0) {
    shards = 1;
  }
  // Faults require an orchestrated hierarchy (leases live in the group
  // pool) and quorum sealing is a planned-mode feature; default to planned
  // when the fault flags are given without an explicit --hierarchy.
  if (fo.any() && !hierarchy_flag) mode = sys::HierarchyMode::kPlanned;
  // Scored/cluster-scan selection learns per-tier telemetry — default a
  // tier mix when --selector is given without --device-tiers.
  if (eo.selector != ctrl::SelectorPolicy::kRandom && !eo.tiers.enabled()) {
    eo.tiers = {0.4, 0.3, 0.3};
  }
  if (shards > 0) {
    return run_sharded(cfg, shards, mode, replan_interval, reuse, sync, ck,
                       as, fo, eo, oo);
  }

  std::printf(
      "Mega campaign: %zu mobile clients, %zu nodes, %zu rounds x %zu "
      "uploads (%.1f%% of the population participates)\n\n",
      cfg.population, cfg.nodes, cfg.rounds, cfg.uploads_per_round(),
      100.0 * static_cast<double>(cfg.uploads_per_round() * cfg.rounds) /
          static_cast<double>(cfg.population));

  for (const auto timing : {fl::AggTiming::kEager, fl::AggTiming::kLazy}) {
    const char* name = timing == fl::AggTiming::kEager ? "eager" : "lazy";
    const auto stats = run_campaign(cfg, timing);

    sys::Table t({"round", "uploads", "sim(s)", "wall(s)", "events",
                  "events/s(wall)", "top_busy(s)"});
    std::uint64_t total_events = 0;
    double total_wall = 0;
    for (std::size_t i = 0; i < stats.size(); ++i) {
      const auto& r = stats[i];
      t.row({std::to_string(i + 1), std::to_string(r.uploads),
             sys::fmt(r.sim_secs, 1), sys::fmt(r.wall_secs, 2),
             std::to_string(r.events),
             sys::fmt(r.events / r.wall_secs / 1e6, 2) + "M",
             sys::fmt(r.top_busy, 2)});
      total_events += r.events;
      total_wall += r.wall_secs;
    }
    t.print(std::string("LIFL hierarchy, ") + name + " aggregation");
    std::printf("%s totals: %llu events in %.1f s wall (%.2fM events/s)\n\n",
                name, static_cast<unsigned long long>(total_events),
                total_wall, total_events / total_wall / 1e6);
  }

  const long rss = peak_rss_kb();
  if (rss > 0) {
    std::printf(
        "peak RSS: %.1f MB — flat in the population size: profiles are\n"
        "derived per index from the RNG stream and only in-flight uploads\n"
        "and the %zu-instance hierarchy are resident (O(active clients)).\n",
        rss / 1024.0, cfg.nodes * cfg.leaves_per_node + 1);
  }
  return 0;
}
