// Shard-scaling microbench: aggregate event throughput of the sharded
// simulator core vs shard count, on the mega-campaign event mix.
//
// The workload is the group-partitioned million-client campaign
// (src/systems/sharded_campaign): 8 node groups of LIFL data plane + leaf
// hierarchy ingesting a dense client-upload wave (the fan-in regime of
// §5/Fig. 9), with leaf aggregates crossing groups through the
// promise-widened window mailboxes. The *same* wiring runs at every shard
// count — results are bitwise identical (tests/sharded_sim_test.cpp) — so
// the sweep isolates pure execution scaling: 1 shard is the single-threaded
// calendar core, K shards run K event loops under time-window barriers.
//
// Emits BENCH_shard_scaling.json, including per-shard barrier accounting
// (windows run, empty windows, idle wall seconds) so a regression in load
// balance shows up in the artifact even when aggregate throughput holds.
// CI uploads it as an artifact and the
// bench fails if 4 shards deliver < 3x the 1-shard events/s — on machines
// with >= 4 hardware threads; on smaller machines the gate is skipped
// (physical parallelism cannot be demonstrated without cores) unless
// LIFL_SHARD_BENCH_GATE=1 forces it. LIFL_SHARD_BENCH_GATE=0 disables it.
//
// Build & run:  cmake -B build && cmake --build build -j
//               ./build/bench/micro_shard_scaling

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>
#include <vector>

#include "bench/bench_util.hpp"
#include "src/systems/sharded_campaign.hpp"
#include "src/systems/table.hpp"

using namespace lifl;

namespace {

sys::ShardedCampaignConfig bench_campaign(std::size_t shards,
                                          std::size_t scale) {
  sys::ShardedCampaignConfig cfg;
  cfg.shards = shards;
  cfg.groups = 8;
  cfg.rounds = 2;
  cfg.leaves_per_group = 62;
  cfg.updates_per_leaf = static_cast<std::uint32_t>(scale);
  cfg.model_bytes = 100'000;
  cfg.population = 1'000'000;
  // Dense fan-in: the arrival wave saturates the per-node gateways, the
  // regime the sharded core exists for (events per window >> barrier cost).
  cfg.peak_per_sec = 50'000.0;
  cfg.ramp_secs = 1.0;
  cfg.diurnal_amplitude = 0.0;
  cfg.seed = 4242;
  cfg.gateway_cores = 4;
  cfg.gateway_queues = 0;  // one RSS queue per gateway core
  return cfg;
}

struct Sample {
  std::size_t shards = 0;
  std::uint64_t events = 0;
  double wall_secs = 0.0;
  std::uint64_t windows = 0;
  std::uint64_t windows_skipped = 0;
  std::uint64_t cross_posts = 0;
  // Per-shard barrier accounting: windows a shard participated in, windows
  // where it had nothing to run, and wall seconds it sat idle at barriers.
  std::vector<std::uint64_t> shard_windows;
  std::vector<std::uint64_t> shard_empty_windows;
  std::vector<double> shard_idle_secs;
  double events_per_sec() const { return events / wall_secs; }
};

Sample run_once(std::size_t shards, std::size_t scale) {
  const auto r = sys::run_sharded_campaign(bench_campaign(shards, scale));
  Sample s;
  s.shards = shards;
  s.events = r.events;
  s.wall_secs = r.wall_secs;
  s.windows = r.windows;
  s.windows_skipped = r.windows_skipped;
  s.cross_posts = r.cross_posts;
  s.shard_windows = r.shard_windows;
  s.shard_empty_windows = r.shard_empty_windows;
  s.shard_idle_secs = r.shard_idle_secs;
  return s;
}

/// Best of `reps` (CI runners are noisy; parallel speedups doubly so).
Sample best_of(int reps, std::size_t shards, std::size_t scale) {
  Sample best = run_once(shards, scale);
  for (int i = 1; i < reps; ++i) {
    const Sample s = run_once(shards, scale);
    if (s.events_per_sec() > best.events_per_sec()) best = s;
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t scale = 100;  // updates per leaf => ~99k uploads total
  if (argc > 1) {
    char* end = nullptr;
    scale = std::strtoul(argv[1], &end, 10);
    if (end == argv[1] || *end != '\0' || scale == 0) {
      std::fprintf(stderr, "usage: %s [updates_per_leaf > 0]\n", argv[0]);
      return 2;
    }
  }

  const lifl::bench::BenchMeta meta;
  const unsigned hw = std::thread::hardware_concurrency();
  std::printf(
      "shard-scaling microbench: mega-campaign mix, 8 node groups, "
      "%zu updates/leaf, %u hardware threads\n\n",
      scale, hw);

  // Best-of-3: parallel speedups on shared CI runners are noisy, and the
  // 4-shard sample feeds a hard gate.
  std::vector<Sample> samples;
  for (const std::size_t k : {1, 2, 4, 8}) {
    samples.push_back(best_of(3, k, scale));
  }

  const double base = samples[0].events_per_sec();
  sys::Table t({"shards", "events", "wall(s)", "events/s", "speedup",
                "windows", "skipped", "cross_posts"});
  for (const auto& s : samples) {
    t.row({std::to_string(s.shards), std::to_string(s.events),
           sys::fmt(s.wall_secs, 3),
           sys::fmt(s.events_per_sec() / 1e6, 2) + "M",
           sys::fmt(s.events_per_sec() / base, 2) + "x",
           std::to_string(s.windows), std::to_string(s.windows_skipped),
           std::to_string(s.cross_posts)});
  }
  t.print("Sharded simulator core: aggregate throughput vs shard count");

  FILE* out = std::fopen("BENCH_shard_scaling.json", "w");
  if (out != nullptr) {
    std::fprintf(out, "{\n");
    meta.write_json_fields(out);
    std::fprintf(out,
                 "  \"bench\": \"shard_scaling\",\n"
                 "  \"hardware_threads\": %u,\n"
                 "  \"updates_per_leaf\": %zu,\n"
                 "  \"samples\": [\n",
                 hw, scale);
    for (std::size_t i = 0; i < samples.size(); ++i) {
      const auto& s = samples[i];
      std::fprintf(out,
                   "    {\"shards\": %zu, \"events\": %llu, "
                   "\"wall_secs\": %.6f, \"events_per_sec\": %.0f, "
                   "\"speedup\": %.3f, \"windows\": %llu, "
                   "\"windows_skipped\": %llu, "
                   "\"cross_posts\": %llu,\n     \"per_shard\": [",
                   s.shards, static_cast<unsigned long long>(s.events),
                   s.wall_secs, s.events_per_sec(),
                   s.events_per_sec() / base,
                   static_cast<unsigned long long>(s.windows),
                   static_cast<unsigned long long>(s.windows_skipped),
                   static_cast<unsigned long long>(s.cross_posts));
      for (std::size_t p = 0; p < s.shard_windows.size(); ++p) {
        std::fprintf(
            out,
            "%s{\"windows\": %llu, \"empty_windows\": %llu, "
            "\"idle_secs\": %.6f}",
            p == 0 ? "" : ", ",
            static_cast<unsigned long long>(s.shard_windows[p]),
            static_cast<unsigned long long>(s.shard_empty_windows[p]),
            s.shard_idle_secs[p]);
      }
      std::fprintf(out, "]}%s\n", i + 1 < samples.size() ? "," : "");
    }
    std::fprintf(out, "  ]\n}\n");
    std::fclose(out);
    std::printf("\nwrote BENCH_shard_scaling.json\n");
  }

  // ---- gate: >= 3x at 4 shards, where the hardware can express it.
  const double speedup4 = samples[2].events_per_sec() / base;  // 4 shards
  bool gate = hw >= 4;
  if (const char* env = std::getenv("LIFL_SHARD_BENCH_GATE")) {
    gate = std::strcmp(env, "0") != 0;
  }
  if (!gate) {
    std::printf(
        "gate SKIPPED: %u hardware threads cannot express a 4-shard "
        "speedup (set LIFL_SHARD_BENCH_GATE=1 to force)\n",
        hw);
    return 0;
  }
  if (speedup4 < 3.0) {
    std::fprintf(stderr,
                 "FAIL: 4-shard speedup %.2fx below the 3x floor the "
                 "sharded core is held to\n",
                 speedup4);
    return 1;
  }
  std::printf("gate OK: 4-shard speedup %.2fx >= 3x\n", speedup4);
  return 0;
}
