// Trace-overhead microbench: wall-clock cost of full observability
// (sim-time trace rings + histogram registry) on the million-client
// planned-mode campaign, traced vs untraced.
//
// The workload is the mega-campaign mix of micro_shard_scaling — 8 node
// groups over a 1M-client population driving the streaming-hierarchy
// orchestrator — on the single-threaded core (1 shard), where a wall
// comparison is not confounded by barrier scheduling noise. Observability
// is strictly passive (tests/obs_campaign_test.cpp proves results bitwise
// identical), so the only legitimate cost is the emit path itself: a null
// check plus a 32-byte ring store per event, and interned-id histogram
// observes. This bench holds that cost to a ceiling.
//
// Emits BENCH_trace_overhead.json plus trace_sample.json (the traced
// run's Perfetto-loadable trace; CI uploads both as artifacts). The bench
// fails if the best-of-N traced wall exceeds the best-of-N untraced wall
// by more than 2%, or if the trace does not reconcile with the campaign
// result (round spans vs rounds; spawn/re-arm/re-plan events vs
// spawned_total/reused_total/replans).
// LIFL_TRACE_BENCH_GATE=0 disables the overhead gate (the reconciliation
// checks always run).
//
// Build & run:  cmake -B build && cmake --build build -j
//               ./build/bench/micro_trace_overhead

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "bench/bench_util.hpp"
#include "src/obs/obs.hpp"
#include "src/systems/sharded_campaign.hpp"
#include "src/systems/table.hpp"

using namespace lifl;

namespace {

sys::ShardedCampaignConfig bench_campaign(std::size_t scale, bool traced) {
  sys::ShardedCampaignConfig cfg;
  cfg.shards = 1;
  cfg.groups = 8;
  cfg.rounds = 2;
  cfg.leaves_per_group = 62;
  cfg.updates_per_leaf = static_cast<std::uint32_t>(scale);
  cfg.model_bytes = 100'000;
  cfg.population = 1'000'000;
  cfg.peak_per_sec = 50'000.0;
  cfg.ramp_secs = 1.0;
  cfg.diurnal_amplitude = 0.0;
  cfg.seed = 4242;
  cfg.gateway_cores = 4;
  cfg.gateway_queues = 0;
  cfg.hierarchy = sys::HierarchyMode::kPlanned;
  cfg.obs.trace = traced;
  cfg.obs.metrics = traced;
  return cfg;
}

/// Best-of-`reps` wall seconds for one variant (alternation happens in
/// main so thermal/cache drift hits both variants evenly).
struct Variant {
  double best_wall = 1e300;
  sys::ShardedCampaignResult last;
};

int fail(const char* what) {
  std::fprintf(stderr, "FAIL: %s\n", what);
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t scale = 300;  // updates per leaf => ~298k uploads total
  if (argc > 1) {
    char* end = nullptr;
    scale = std::strtoul(argv[1], &end, 10);
    if (end == argv[1] || *end != '\0' || scale == 0) {
      std::fprintf(stderr, "usage: %s [updates_per_leaf > 0]\n", argv[0]);
      return 2;
    }
  }

  const bench::BenchMeta meta;
  const int reps = 7;
  std::printf(
      "trace-overhead microbench: planned-mode mega-campaign mix, "
      "1M-client population, %zu updates/leaf, best of %d\n\n",
      scale, reps);

  // Interleave traced/untraced reps so machine drift hits both variants
  // alike, then compare best-of walls: scheduler/frequency noise on a
  // shared runner only ever adds time, so each variant's minimum over the
  // reps is the estimate of its noise-free floor.
  Variant off;
  Variant on;
  double off_worst = 0.0;
  for (int i = 0; i < reps; ++i) {
    auto r_off = sys::run_sharded_campaign(bench_campaign(scale, false));
    if (r_off.wall_secs < off.best_wall) off.best_wall = r_off.wall_secs;
    if (r_off.wall_secs > off_worst) off_worst = r_off.wall_secs;
    auto r_on = sys::run_sharded_campaign(bench_campaign(scale, true));
    if (r_on.wall_secs < on.best_wall) on.best_wall = r_on.wall_secs;
    std::printf("  rep %d: untraced %.4fs  traced %.4fs\n", i + 1,
                r_off.wall_secs, r_on.wall_secs);
    if (i + 1 == reps) {
      off.last = std::move(r_off);
      on.last = std::move(r_on);
    }
  }

  // ---- reconciliation: the trace must agree with the result -----------
  if (!on.last.obs) return fail("traced run surfaced no obs state");
  const obs::CampaignObs& co = *on.last.obs;
  if (co.trace().dropped_events() != 0) {
    return fail("default ring dropped events on the bench workload");
  }
  std::uint64_t round_spans = 0, spawns = 0, rearms = 0, replans = 0;
  for (const auto& e : co.trace().merged()) {
    if (e.kind == obs::Ev::kRound && e.dur >= 0.0) ++round_spans;
    if (e.kind == obs::Ev::kAggSpawn) ++spawns;
    if (e.kind == obs::Ev::kAggRearm) ++rearms;
    if (e.kind == obs::Ev::kReplan) ++replans;
  }
  if (round_spans != on.last.round_started_at.size()) {
    return fail("trace round spans != campaign rounds");
  }
  // Group-path churn vs campaign totals. The driver-side top runtime is
  // not on the group emit path, so the trace may undercount by at most
  // one spawn/re-arm per round.
  const std::uint64_t rounds = on.last.round_started_at.size();
  if (spawns > on.last.spawned_total ||
      on.last.spawned_total - spawns > rounds ||
      rearms > on.last.reused_total ||
      on.last.reused_total - rearms > rounds ||
      replans != on.last.replans) {
    return fail("trace churn events != campaign result totals");
  }
  // Passivity spot check (the full matrix lives in obs_campaign_test).
  for (std::size_t r = 0; r < on.last.round_completed_at.size(); ++r) {
    if (on.last.round_completed_at[r] != off.last.round_completed_at[r] ||
        on.last.round_samples[r] != off.last.round_samples[r]) {
      return fail("traced round telemetry diverged from untraced");
    }
  }
  std::printf(
      "reconciled: %llu trace events, %llu round spans, churn events "
      "match result; traced rounds bitwise equal untraced\n",
      static_cast<unsigned long long>(co.trace().recorded_events()),
      static_cast<unsigned long long>(round_spans));

  sys::write_campaign_trace(on.last, "trace_sample.json");
  std::printf("wrote trace_sample.json (open in https://ui.perfetto.dev)\n");

  const double overhead_pct = (on.best_wall / off.best_wall - 1.0) * 100.0;
  sys::Table t({"variant", "best_wall(s)", "events", "trace_events"});
  t.row({"untraced", sys::fmt(off.best_wall, 4),
         std::to_string(off.last.events), "0"});
  t.row({"traced", sys::fmt(on.best_wall, 4),
         std::to_string(on.last.events),
         std::to_string(co.trace().recorded_events())});
  t.print("Full observability (trace + metrics) vs off");
  std::printf("overhead (best of %d each): %+.2f%%\n", reps, overhead_pct);

  FILE* out = std::fopen("BENCH_trace_overhead.json", "w");
  if (out != nullptr) {
    std::fprintf(out, "{\n");
    meta.write_json_fields(out);
    std::fprintf(
        out,
        "  \"bench\": \"trace_overhead\",\n"
        "  \"updates_per_leaf\": %zu,\n"
        "  \"reps\": %d,\n"
        "  \"untraced_wall_secs\": %.6f,\n"
        "  \"traced_wall_secs\": %.6f,\n"
        "  \"overhead_pct\": %.3f,\n"
        "  \"sim_events\": %llu,\n"
        "  \"trace_events\": %llu,\n"
        "  \"trace_dropped\": %llu\n"
        "}\n",
        scale, reps, off.best_wall, on.best_wall, overhead_pct,
        static_cast<unsigned long long>(on.last.events),
        static_cast<unsigned long long>(co.trace().recorded_events()),
        static_cast<unsigned long long>(co.trace().dropped_events()));
    std::fclose(out);
    std::printf("wrote BENCH_trace_overhead.json\n");
  }

  // The gate compares wall clocks, so it is only meaningful when the
  // machine's own run-to-run spread is below the 2% threshold — the
  // spread of the untraced reps estimates that noise floor.
  const double noise_pct = (off_worst / off.best_wall - 1.0) * 100.0;
  bool gate = noise_pct <= 2.0;
  if (const char* env = std::getenv("LIFL_TRACE_BENCH_GATE")) {
    if (std::strcmp(env, "0") == 0) {
      std::printf("gate SKIPPED (LIFL_TRACE_BENCH_GATE=0)\n");
      return 0;
    }
    gate = true;
  }
  if (!gate) {
    std::printf(
        "gate SKIPPED: untraced run-to-run spread %.2f%% swamps the 2%% "
        "threshold (set LIFL_TRACE_BENCH_GATE=1 to force)\n",
        noise_pct);
    return 0;
  }
  if (overhead_pct > 2.0) {
    std::fprintf(stderr,
                 "FAIL: observability overhead %.2f%% exceeds the 2%% "
                 "ceiling the passive emit path is held to\n",
                 overhead_pct);
    return 1;
  }
  std::printf("gate OK: overhead %.2f%% <= 2%%\n", overhead_pct);
  return 0;
}
