// Million-client FL campaign — the scale the ROADMAP's north star asks for
// and the reason the event core is a calendar queue rather than one big
// heap.
//
// A population of 1,000,000 phone-class clients is described *lazily*: each
// node group's ClientPopulation holds an RNG root and derives a client's
// profile from its index on demand, so the campaign never materializes a
// million ClientProfiles. Uploads are driven open-loop by one ArrivalProcess
// per group (Poisson, linear ramp, diurnal wave) that keeps exactly one
// pending arrival event; peak resident state is O(active clients) —
// in-flight uploads plus the aggregation hierarchy — not O(population).
//
// Every run goes through `sys::run_sharded_campaign`
// (src/systems/sharded_campaign). By default the arriving updates land on 8
// single-node groups on one shard and flow through a fixed two-level
// hierarchy (per-group leaf aggregators pulling from the node pool, one top
// aggregator on group 0), torn down and respawned each round; the example
// reports per-round simulated time, event throughput, and the process's
// peak RSS as evidence of the O(active) memory claim. Eager vs lazy timing
// (Fig. 1) is reproduced by bench/fig1_eager_lazy.
//
// With `--shards=K` the 8 groups are dealt onto K threads of the sharded
// simulator core, which run barrier-free: each shard runs ahead to the
// horizon its senders' published outbound bounds allow, and leaf
// aggregates cross groups through single-producer mailboxes. The results
// are identical for every K (the group wiring, not the thread count,
// defines the model). The summary adds the cross-shard posts, and the
// horizon refreshes, the ones outbound promises raised and the wall the
// shards spent waiting (process-local: they vary run to run).
//
// With `--hierarchy=planned` the campaign runs the streaming hierarchy
// orchestrator (src/systems/streaming_hierarchy): planner-driven
// multi-level trees sized from EWMA'd pending estimates, mid-round
// re-planning (`--replan-interval=SECS`), and warm cross-round instance
// reuse (`--reuse=0` disables it for the churn A/B) — steady-state rounds
// spawn zero new aggregator runtimes. `--hierarchy=fixed` (the default)
// keeps the two-level destroy-and-respawn baseline.
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
// With `--trace=FILE.json` the run records a sim-time trace (round spans,
// aggregator lifecycle, upload sessions, checkpoint marks) into per-shard
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
//               ./build/examples/mega_campaign --selector=scored  # tiers
//               ./build/examples/mega_campaign --disconnect-rate=0.2

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>

#include "src/systems/campaign_config.hpp"
#include "src/systems/sharded_campaign.hpp"
#include "src/systems/table.hpp"

namespace {

using namespace lifl;

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

/// The 1M-client mobile campaign: 8 node groups, 4 rounds x 248,000
/// compressed 100 kB uploads, diurnal open-loop arrivals, one shard.
sys::ShardedCampaignConfig mega_campaign_config() {
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
  cfg.gateway_queues = 0;  // one RSS queue per gateway core
  cfg.replan_interval_secs = 5.0;
  cfg.async_deadline_secs = 2.0;
  return cfg;
}

/// If `arg` is `prefix` followed by a value, point `*value` at the value.
bool flag(const char* arg, const char* prefix, const char** value) {
  const std::size_t n = std::strlen(prefix);
  if (std::strncmp(arg, prefix, n) != 0) return false;
  *value = arg + n;
  return true;
}

/// Print the per-round table and the campaign summary lines.
void report(const sys::ShardedCampaignConfig& cfg,
            const sys::ShardedCampaignResult& r, const std::string& trace,
            const std::string& metrics) {
  const bool planned = cfg.hierarchy == sys::HierarchyMode::kPlanned;
  const bool is_async = cfg.hierarchy == sys::HierarchyMode::kAsync;
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
      "%llu cross-shard posts\n",
      static_cast<unsigned long long>(r.events), r.wall_secs,
      r.events / r.wall_secs / 1e6,
      static_cast<unsigned long long>(r.cross_posts));
  if (cfg.shards > 1) {
    double waited = 0.0;
    for (double s : r.shard_idle_secs) waited += s;
    const auto [cpu_min, cpu_max] =
        std::minmax_element(r.shard_cpu_secs.begin(), r.shard_cpu_secs.end());
    std::printf(
        "%llu horizon refreshes (%llu raised by outbound promises), "
        "%.3f s waiting for horizons, summed over shards; "
        "shard thread CPU %.3f-%.3f s\n",
        static_cast<unsigned long long>(r.windows),
        static_cast<unsigned long long>(r.windows_skipped), waited, *cpu_min,
        *cpu_max);
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
  if (cfg.fault.enabled() || cfg.quorum < 1.0) {
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
  if (cfg.device_tiers.enabled()) {
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
  if (cfg.lifecycle.enabled()) {
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
  if (cfg.checkpoint_every_secs > 0.0) {
    const bool kept = !cfg.checkpoint_path.empty();
    std::printf(
        "checkpoints: %llu marks billed, %llu blobs written (%llu bytes, "
        "%.3f s encode wall)%s%s\n",
        static_cast<unsigned long long>(r.checkpoint_marks),
        static_cast<unsigned long long>(r.checkpoints_written),
        static_cast<unsigned long long>(r.checkpoint_bytes),
        r.checkpoint_encode_secs, kept ? ", latest at " : "",
        kept ? cfg.checkpoint_path.c_str() : "");
  }
  if (!trace.empty()) {
    sys::write_campaign_trace(r, trace);
    std::printf(
        "trace: %llu events recorded (%llu dropped) -> %s — open in "
        "https://ui.perfetto.dev\n",
        static_cast<unsigned long long>(r.obs->trace().recorded_events()),
        static_cast<unsigned long long>(r.obs->trace().dropped_events()),
        trace.c_str());
  }
  if (!metrics.empty()) {
    sys::write_campaign_metrics_jsonl(r, metrics);
    std::printf("metrics: per-round JSONL -> %s\n", metrics.c_str());
  }
  const long rss = peak_rss_kb();
  if (rss > 0) std::printf("peak RSS: %.1f MB\n", rss / 1024.0);
}

}  // namespace

int main(int argc, char** argv) {
  sys::ShardedCampaignConfig cfg = mega_campaign_config();
  bool hierarchy_flag = false;
  bool fault_flag = false;
  bool leaf_crash_flag = false;
  std::string trace;
  std::string metrics;
  const auto usage = [&argv] {
    std::fprintf(stderr,
                 "usage: %s [population >= 1000] %s "
                 "[--checkpoint-every=SECS] [--device-tiers=F,M,I] "
                 "[--trace=FILE.json] [--metrics=FILE.jsonl]\n",
                 argv[0], sys::campaign_flag_usage().c_str());
    return 2;
  };
  for (int a = 1; a < argc; ++a) {
    const char* arg = argv[a];
    const char* v = nullptr;
    bool ok = true;
    if (flag(arg, "--checkpoint-every=", &v)) {
      ok = sys::parse_finite(v, cfg.checkpoint_every_secs) &&
           cfg.checkpoint_every_secs > 0.0;
    } else if (flag(arg, "--device-tiers=", &v)) {
      char* end = nullptr;
      cfg.device_tiers.flagship = std::strtod(v, &end);
      ok = end != v && *end == ',';
      if (ok) {
        v = end + 1;
        cfg.device_tiers.mid = std::strtod(v, &end);
        ok = end != v && *end == ',';
      }
      if (ok) {
        v = end + 1;
        cfg.device_tiers.iot = std::strtod(v, &end);
        ok = end != v && *end == '\0' && cfg.device_tiers.enabled();
      }
    } else if (flag(arg, "--trace=", &v)) {
      trace = v;
      ok = !trace.empty();
    } else if (flag(arg, "--metrics=", &v)) {
      metrics = v;
      ok = !metrics.empty();
    } else if (flag(arg, "--", &v)) {
      // Every other flag sets one config field through its table row.
      ok = sys::parse_campaign_flag(arg, cfg);
      hierarchy_flag |= flag(arg, "--hierarchy=", &v);
      leaf_crash_flag |= flag(arg, "--leaf-crash-rate=", &v);
      fault_flag |= leaf_crash_flag || flag(arg, "--fault-plan=", &v);
    } else {
      std::uint64_t population = 0;
      ok = sys::parse_unsigned(arg, population) && population >= 1000;
      cfg.population = population;
      // Keep the hierarchy shape; scale the per-round fan-in to the slice.
      while (cfg.uploads_per_round() * cfg.rounds > cfg.population &&
             cfg.leaves_per_group > 1) {
        cfg.leaves_per_group /= 2;
      }
    }
    if (!ok) return usage();
  }
  // A --checkpoint/--resume without an explicit cadence checkpoints every
  // 20 simulated seconds.
  if ((!cfg.checkpoint_path.empty() || !cfg.resume_path.empty()) &&
      cfg.checkpoint_every_secs <= 0.0) {
    cfg.checkpoint_every_secs = 20.0;
  }
  if (fault_flag && !leaf_crash_flag) cfg.fault.leaf_crash_rate = 0.1;
  if (cfg.quorum < 1.0) cfg.round_deadline_secs = 60.0;
  // Faults require an orchestrated hierarchy (leases live in the group
  // pool) and quorum sealing is a planned-mode feature; default to planned
  // when the fault flags are given without an explicit --hierarchy.
  if ((fault_flag || cfg.quorum < 1.0) && !hierarchy_flag) {
    cfg.hierarchy = sys::HierarchyMode::kPlanned;
  }
  if (cfg.lifecycle.disconnect_rate > 0.0) {
    cfg.lifecycle.offline_base_secs = 0.05;
    cfg.lifecycle.offline_cap_secs = 1.0;
  }
  // Scored/cluster-scan selection learns per-tier telemetry — default a
  // tier mix when --selector is given without --device-tiers.
  if (cfg.selector != ctrl::SelectorPolicy::kRandom &&
      !cfg.device_tiers.enabled()) {
    cfg.device_tiers = {0.4, 0.3, 0.3};
  }
  cfg.obs.trace = !trace.empty();
  cfg.obs.metrics = !metrics.empty();
  // Flags that are each in range can still combine into a config the
  // campaign rejects (tier shares that miss 1, quorum outside planned
  // mode, faults on the fixed hierarchy).
  try {
    sys::validate_config(cfg);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return usage();
  }

  const bool is_async = cfg.hierarchy == sys::HierarchyMode::kAsync;
  const bool planned = cfg.hierarchy == sys::HierarchyMode::kPlanned;
  std::printf(
      "Mega campaign: %zu mobile clients, %zu node groups on %zu shard "
      "threads, %zu %s x %zu uploads, %s hierarchy%s\n\n",
      cfg.population, cfg.groups, cfg.shards, cfg.rounds,
      is_async ? "model versions" : "rounds", cfg.uploads_per_round(),
      is_async ? "async (FedBuff stream)"
               : (planned ? "planned (streaming)" : "fixed"),
      planned && !cfg.reuse ? " (reuse off)" : "");
  if (cfg.straggler_fraction > 0.0) {
    std::printf("stragglers: %.0f%% of uploads delayed %.0f s\n\n",
                100.0 * cfg.straggler_fraction, cfg.straggler_delay_secs);
  }
  if (fault_flag) {
    std::printf(
        "fault plan: seed %llu, %.0f%% leaf crash rate — crashed "
        "aggregators recover losslessly from their pool leases\n\n",
        static_cast<unsigned long long>(cfg.fault.seed),
        100.0 * cfg.fault.leaf_crash_rate);
  }
  if (cfg.quorum < 1.0) {
    std::printf("quorum: rounds seal at %.0f%% after a %.0f s deadline\n\n",
                100.0 * cfg.quorum, cfg.round_deadline_secs);
  }
  if (cfg.device_tiers.enabled()) {
    std::printf(
        "device tiers: %.0f%% flagship / %.0f%% mid-range / %.0f%% IoT, "
        "%s selection\n\n",
        100.0 * cfg.device_tiers.flagship, 100.0 * cfg.device_tiers.mid,
        100.0 * cfg.device_tiers.iot, ctrl::selector_policy_name(cfg.selector));
  }
  if (cfg.lifecycle.disconnect_rate > 0.0) {
    std::printf(
        "flaky lifecycle: %.0f%% base mid-upload disconnect rate — parked "
        "updates resume chunk-wise from the last acked offset\n\n",
        100.0 * cfg.lifecycle.disconnect_rate);
  }
  report(cfg, sys::run_sharded_campaign(cfg), trace, metrics);
  return 0;
}
