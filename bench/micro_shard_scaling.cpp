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
// One campaign takes 0.1-0.4 s, too short to beat a shared host's noise, so
// every shard count is sampled for at least 2 s of campaign wall, and the
// 1- and 4-shard campaigns run as interleaved pairs: a slow host phase hits
// both halves of a pair. The gate reads the median pair ratio.
//
// Emits BENCH_shard_scaling.json, including per-shard barrier accounting
// (windows run, empty windows, idle wall seconds) so a regression in load
// balance shows up in the artifact even when aggregate throughput holds.
// CI uploads it as an artifact. Two gates:
//  - exact counts (always on at the default size): the 4-shard campaign
//    opens kWindows4 windows for kCrossPosts4 cross-shard posts, and every
//    run of a shard count reports the same counts;
//  - the median 4-shard / 1-shard events/s ratio is at least 3x — on
//    machines with >= 4 hardware threads; on smaller machines it is
//    skipped (physical parallelism cannot be demonstrated without cores)
//    unless LIFL_SHARD_BENCH_GATE=1 forces it. LIFL_SHARD_BENCH_GATE=0
//    disables it.
//
// Build & run:  cmake -B build && cmake --build build -j
//               ./build/bench/micro_shard_scaling

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>
#include <utility>
#include <vector>

#include "bench/bench_util.hpp"
#include "src/systems/sharded_campaign.hpp"
#include "src/systems/table.hpp"

using namespace lifl;
using bench::median;

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

/// Campaign wall seconds each shard count is sampled for, at least.
constexpr double kMinSampleSecs = 2.0;
constexpr std::size_t kMinRuns = 3;
/// Exact work counts of the 4-shard campaign at the default size.
constexpr std::size_t kDefaultScale = 100;
constexpr std::uint64_t kWindows4 = 6'657;
constexpr std::uint64_t kCrossPosts4 = 744;

/// Every run of one shard count.
struct Series {
  std::vector<Sample> runs;
  double wall = 0.0;  ///< summed campaign wall seconds
  void add(Sample s) {
    wall += s.wall_secs;
    runs.push_back(std::move(s));
  }
  bool full() const {
    return wall >= kMinSampleSecs && runs.size() >= kMinRuns;
  }
  double median_eps() const {
    std::vector<double> v;
    for (const auto& r : runs) v.push_back(r.events_per_sec());
    return median(v);
  }
  double median_wall() const {
    std::vector<double> v;
    for (const auto& r : runs) v.push_back(r.wall_secs);
    return median(v);
  }
  /// The run whose throughput is the median (the upper middle one for an
  /// even count): the per-shard barrier accounting the JSON reports.
  const Sample& median_run() const {
    std::vector<std::size_t> idx(runs.size());
    for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
    std::sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) {
      return runs[a].events_per_sec() < runs[b].events_per_sec();
    });
    return runs[idx[idx.size() / 2]];
  }
  /// Every run opened the same windows for the same posts and events.
  bool counts_agree() const {
    for (const auto& r : runs) {
      if (r.events != runs[0].events || r.windows != runs[0].windows ||
          r.cross_posts != runs[0].cross_posts) {
        return false;
      }
    }
    return true;
  }
};

}  // namespace

int main(int argc, char** argv) {
  std::size_t scale = kDefaultScale;  // updates per leaf => ~99k uploads
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

  // 1 and 4 shards as interleaved pairs until both have their 2 s.
  Series one, four;
  std::vector<double> ratios;
  while (!one.full() || !four.full()) {
    Sample a = run_once(1, scale);
    Sample b = run_once(4, scale);
    ratios.push_back(b.events_per_sec() / a.events_per_sec());
    one.add(std::move(a));
    four.add(std::move(b));
  }
  // 2 and 8 shards are report-only.
  Series two, eight;
  while (!two.full()) two.add(run_once(2, scale));
  while (!eight.full()) eight.add(run_once(8, scale));
  const Series* series[] = {&one, &two, &four, &eight};

  // Counts agree across the runs of a shard count (gate 1 below), so any
  // run's events and windows stand for the series; wall and events/s are
  // the series medians. The one speedup figure is the gated pair median.
  sys::Table t({"shards", "runs", "events", "wall(s)", "events/s",
                "windows", "skipped", "cross_posts"});
  for (const Series* ser : series) {
    const Sample& s = ser->runs[0];
    t.row({std::to_string(s.shards), std::to_string(ser->runs.size()),
           std::to_string(s.events), sys::fmt(ser->median_wall(), 3),
           sys::fmt(ser->median_eps() / 1e6, 2) + "M",
           std::to_string(s.windows), std::to_string(s.windows_skipped),
           std::to_string(s.cross_posts)});
  }
  t.print("Sharded simulator core: median throughput vs shard count");
  const double ratio4 = median(ratios);
  std::printf(
      "\n4-shard / 1-shard over %zu interleaved pairs: median %.2fx "
      "(min %.2fx, max %.2fx)\n",
      ratios.size(), ratio4, *std::min_element(ratios.begin(), ratios.end()),
      *std::max_element(ratios.begin(), ratios.end()));

  FILE* out = std::fopen("BENCH_shard_scaling.json", "w");
  if (out != nullptr) {
    std::fprintf(out, "{\n");
    meta.write_json_fields(out);
    std::fprintf(out,
                 "  \"bench\": \"shard_scaling\",\n"
                 "  \"hardware_threads\": %u,\n"
                 "  \"updates_per_leaf\": %zu,\n"
                 "  \"pairs\": %zu,\n"
                 "  \"median_pair_ratio_4v1\": %.3f,\n"
                 "  \"samples\": [\n",
                 hw, scale, ratios.size(), ratio4);
    for (std::size_t i = 0; i < 4; ++i) {
      const Series& ser = *series[i];
      const auto& s = ser.median_run();
      std::fprintf(out,
                   "    {\"shards\": %zu, \"runs\": %zu, \"events\": %llu, "
                   "\"wall_secs\": %.6f, \"events_per_sec\": %.0f, "
                   "\"windows\": %llu, \"windows_skipped\": %llu, "
                   "\"cross_posts\": %llu,\n     \"per_shard\": [",
                   s.shards, ser.runs.size(),
                   static_cast<unsigned long long>(s.events),
                   ser.median_wall(), ser.median_eps(),
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
      std::fprintf(out, "]}%s\n", i + 1 < 4 ? "," : "");
    }
    std::fprintf(out, "  ]\n}\n");
    std::fclose(out);
    std::printf("\nwrote BENCH_shard_scaling.json\n");
  }

  // ---- gate 1: exact work counts.
  for (const Series* ser : series) {
    if (!ser->counts_agree()) {
      std::fprintf(stderr,
                   "FAIL: %zu-shard runs disagree on events, windows or "
                   "cross posts\n",
                   ser->runs[0].shards);
      return 1;
    }
  }
  if (scale == kDefaultScale) {
    const Sample& s = four.runs[0];
    if (s.windows != kWindows4 || s.cross_posts != kCrossPosts4) {
      std::fprintf(stderr,
                   "FAIL: 4-shard campaign opened %llu windows for %llu "
                   "cross posts; expected exactly %llu for %llu\n",
                   static_cast<unsigned long long>(s.windows),
                   static_cast<unsigned long long>(s.cross_posts),
                   static_cast<unsigned long long>(kWindows4),
                   static_cast<unsigned long long>(kCrossPosts4));
      return 1;
    }
    std::printf(
        "counts OK: 4 shards open %llu windows for %llu cross posts\n",
        static_cast<unsigned long long>(kWindows4),
        static_cast<unsigned long long>(kCrossPosts4));
  }

  // ---- gate 2: >= 3x at 4 shards, where the hardware can express it.
  bool gate = hw >= 4;
  if (const char* env = std::getenv("LIFL_SHARD_BENCH_GATE")) {
    gate = std::strcmp(env, "0") != 0;
  }
  if (!gate) {
    std::printf(
        "speedup gate SKIPPED: %u hardware threads, or disabled "
        "(LIFL_SHARD_BENCH_GATE=1 forces it)\n",
        hw);
    return 0;
  }
  if (ratio4 < 3.0) {
    std::fprintf(stderr,
                 "FAIL: median 4-shard speedup %.2fx below the 3x floor the "
                 "sharded core is held to\n",
                 ratio4);
    return 1;
  }
  std::printf("gate OK: median 4-shard speedup %.2fx >= 3x\n", ratio4);
  return 0;
}
