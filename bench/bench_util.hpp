#pragma once

// Shared helpers for the figure-reproduction benches.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include "src/dataplane/dataplane.hpp"
#include "src/fl/aggregator_runtime.hpp"
#include "src/fl/model_spec.hpp"
#include "src/sim/calibration.hpp"
#include "src/sim/node.hpp"
#include "src/sim/random.hpp"
#include "src/sim/simulator.hpp"
#include "src/systems/table.hpp"

namespace lifl::bench {

/// Peak resident set size of this process, in bytes (0 where unsupported).
inline std::size_t peak_rss_bytes() {
#if defined(__APPLE__)
  struct rusage ru;
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
  return static_cast<std::size_t>(ru.ru_maxrss);  // macOS reports bytes
#elif defined(__unix__)
  struct rusage ru;
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
  return static_cast<std::size_t>(ru.ru_maxrss) * 1024;  // Linux: KiB
#else
  return 0;
#endif
}

/// Median of `v` (the mean of the two middle values for an even count).
inline double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Run-wide metadata every BENCH_*.json records, so the perf trajectory
/// (throughput *and* footprint) is comparable across PRs: construct at the
/// top of main(), call `write_json_fields` while emitting the JSON body.
class BenchMeta {
 public:
  BenchMeta() : start_(std::chrono::steady_clock::now()) {}

  /// Wall-clock seconds since construction.
  double wall_secs() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

  /// Emit the standard `"peak_rss_bytes"` / `"bench_wall_secs"` fields
  /// (with a trailing comma — call just after the opening '{' line).
  void write_json_fields(std::FILE* out) const {
    std::fprintf(out,
                 "  \"peak_rss_bytes\": %zu,\n"
                 "  \"bench_wall_secs\": %.3f,\n",
                 peak_rss_bytes(), wall_secs());
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Timeline row of one aggregator in one round (Fig. 4 / Fig. 7(c) style).
struct AggSpan {
  std::string name;
  double first_arrival = -1;
  double completed = -1;
  double busy = 0;
};

struct RoundTrace {
  double started = 0;
  double completed = 0;     ///< top aggregator done (incl. eval)
  std::vector<AggSpan> spans;
  double duration() const { return completed - started; }
};

/// Runs `rounds` synchronous rounds of the Fig. 4 motivating experiment:
/// `trainers` remote clients train a model (normal(train_mean, train_sd)
/// seconds), upload to one aggregation node, and a fixed hierarchy (either
/// a single aggregator, NH, or 1 top + `leaves` leaf aggregators, WH)
/// aggregates them. Returns one trace per round.
inline std::vector<RoundTrace> run_trainer_rounds(
    dp::DataPlaneConfig plane_cfg, bool hierarchy, int rounds, int trainers,
    std::size_t model_bytes, double train_mean, double train_sd,
    double uplink, std::uint64_t seed, int leaves = 4,
    fl::AggTiming timing = fl::AggTiming::kEager,
    std::uint32_t gateway_cores = 4) {
  sim::Simulator sim;
  sim::Cluster cluster(sim, 1);
  dp::DataPlane plane(cluster, plane_cfg, sim::Rng(seed));
  plane.set_gateway_cores(0, gateway_cores);
  sim::Rng rng(seed * 77 + 1);

  std::vector<RoundTrace> traces;
  for (int r = 1; r <= rounds; ++r) {
    RoundTrace trace;
    trace.started = sim.now();

    // Build the (warm) hierarchy for this round.
    std::vector<std::unique_ptr<fl::AggregatorRuntime>> aggs;
    bool done = false;
    fl::AggregatorRuntime::Config tc;
    tc.id = 1;
    tc.node = 0;
    tc.role = fl::AggRole::kTop;
    tc.timing = timing;
    tc.goal = hierarchy ? leaves : trainers;
    tc.result_bytes = model_bytes;
    tc.pull_from_pool = !hierarchy;
    tc.expected_version = static_cast<std::uint32_t>(r);
    tc.on_result = [&done](fl::ModelUpdate) { done = true; };
    aggs.push_back(std::make_unique<fl::AggregatorRuntime>(plane, tc));
    aggs.back()->start();
    if (hierarchy) {
      const int per_leaf = trainers / leaves;
      for (int l = 0; l < leaves; ++l) {
        fl::AggregatorRuntime::Config lc;
        lc.id = 10 + l;
        lc.node = 0;
        lc.role = fl::AggRole::kLeaf;
        lc.timing = timing;
        lc.goal = per_leaf;
        lc.consumer = 1;
        lc.result_bytes = model_bytes;
        lc.pull_from_pool = true;
        lc.expected_version = static_cast<std::uint32_t>(r);
        aggs.push_back(std::make_unique<fl::AggregatorRuntime>(plane, lc));
        aggs.back()->start();
      }
    }

    // Trainers: local training time, then upload.
    for (int t = 0; t < trainers; ++t) {
      const double delay = std::max(1.0, rng.normal(train_mean, train_sd));
      fl::ModelUpdate u;
      u.model_version = static_cast<std::uint32_t>(r);
      u.producer = 1000 + t;
      u.sample_count = 600;
      u.logical_bytes = model_bytes;
      sim.schedule_after(delay, [&plane, u, uplink]() mutable {
        plane.client_upload(0, std::move(u), uplink);
      });
    }
    sim.run();
    if (!done) {
      std::fprintf(stderr, "round %d did not complete\n", r);
      std::exit(1);
    }
    // Evaluation task (Fig. 4 "Eval." span).
    sim::Node& node = cluster.node(0);
    node.cores().acquire(sim::calib::kEvalSecs, [&node] {
      node.cpu().add(sim::CostTag::kEvaluation,
                     sim::calib::kEvalSecs * node.config().cpu_hz);
    });
    sim.run();

    for (const auto& a : aggs) {
      AggSpan s;
      s.name = a->config().role == fl::AggRole::kTop
                   ? "Top"
                   : "LF" + std::to_string(a->config().id - 9);
      s.first_arrival = a->first_arrival_at();
      s.completed = a->sent_at();
      s.busy = a->busy_secs();
      trace.spans.push_back(s);
    }
    trace.completed = sim.now();
    traces.push_back(trace);
  }
  return traces;
}

/// Prints Fig. 4-style timeline rows for a set of round traces.
inline void print_timeline(const std::string& title,
                           const std::vector<RoundTrace>& traces) {
  sys::Table t({"round", "aggregator", "first_arrival(s)", "agg_done(s)",
                "busy(s)", "round_time(s)"});
  int r = 1;
  for (const auto& trace : traces) {
    for (const auto& s : trace.spans) {
      t.row({std::to_string(r), s.name, sys::fmt(s.first_arrival),
             sys::fmt(s.completed), sys::fmt(s.busy),
             s.name == "Top" ? sys::fmt(trace.duration()) : ""});
    }
    ++r;
  }
  t.print(title);
}

/// Mean round duration across traces.
inline double mean_round_secs(const std::vector<RoundTrace>& traces) {
  double total = 0;
  for (const auto& t : traces) total += t.duration();
  return traces.empty() ? 0.0 : total / traces.size();
}

}  // namespace lifl::bench
