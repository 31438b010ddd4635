// Aggregation-kernel microbench: folds/s and bytes/s of the FedAvg fold
// path over real parameter tensors, seed form vs fused form.
//
//   baseline — the seed's streaming-mean fold: a deep copy to start, then a
//              full `scale` sweep plus a full `axpy` sweep per folded
//              update (two read-modify-write passes over the accumulator).
//   fused    — the production path: sum-form `FedAvgAccumulator`, which
//              parks updates in an 8-slot ring and folds a full ring in
//              ONE accumulator sweep (`axpyn`), pooled zero-alloc
//              buffers, and ONE finalize divide per aggregation goal.
//
// Both paths run on the same dispatched ISA level (`LIFL_KERNEL` selects
// it), so the comparison isolates the *fusion*, not the instruction set.
// A second table A/Bs the dispatch levels themselves on the raw kernels.
//
// Both paths cycle through the same 4 update tensors, so an 8-slot sweep
// reads each of them twice; the second read of a row hits cache. A fold
// over 8 distinct tensors moves more bytes (5 per parameter per fold).
//
// Emits BENCH_agg_kernels.json. CI uploads it as an artifact and the bench
// fails if the fused path folds < 2x the baseline at either size (1M and
// 25M params); set LIFL_AGG_BENCH_GATE=0 to disable the gate (it is on by
// default — the fold path is single-threaded, so the floor needs no
// minimum core count).
//
// Build & run:  cmake -B build && cmake --build build -j
//               ./build/bench/micro_agg_kernels

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <vector>

#include "bench/bench_util.hpp"
#include "src/fl/fedavg.hpp"
#include "src/ml/kernels.hpp"
#include "src/ml/tensor.hpp"
#include "src/ml/tensor_pool.hpp"
#include "src/sim/random.hpp"
#include "src/systems/table.hpp"

using namespace lifl;
namespace k = ml::kernels;

namespace {

double now_secs() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct FoldSample {
  std::size_t params = 0;
  std::uint32_t folds = 0;
  double baseline_secs = 0.0;
  double fused_secs = 0.0;
  std::uint64_t pool_hits = 0;
  std::uint64_t pool_misses = 0;

  double baseline_folds_per_sec() const { return folds / baseline_secs; }
  double fused_folds_per_sec() const { return folds / fused_secs; }
  double speedup() const { return baseline_secs / fused_secs; }
  /// Update-payload bytes folded per second (the figure-of-merit the
  /// aggregation plane is sized by).
  double baseline_gb_per_sec() const {
    return folds * params * sizeof(float) / baseline_secs / 1e9;
  }
  double fused_gb_per_sec() const {
    return folds * params * sizeof(float) / fused_secs / 1e9;
  }
};

/// The seed fold loop, reproduced verbatim: deep-copy first, then
/// scale+axpy (two full sweeps) per update, rescaling the mean every fold.
double run_baseline(const std::vector<std::shared_ptr<const ml::Tensor>>& xs,
                    std::uint32_t folds) {
  const double t0 = now_secs();
  ml::Tensor avg(*xs[0]);  // copy-on-write start of the running average
  std::uint64_t total = 600;
  for (std::uint32_t i = 1; i < folds; ++i) {
    const ml::Tensor& x = *xs[i % xs.size()];
    const std::uint64_t c = 600;
    const float lambda = static_cast<float>(
        static_cast<double>(c) / static_cast<double>(total + c));
    avg.scale(1.0f - lambda);
    avg.axpy(lambda, x);
    total += c;
  }
  // Keep the result observable so the loop cannot be dead-code eliminated.
  volatile float sink = avg[folds % avg.size()];
  (void)sink;
  return now_secs() - t0;
}

/// The production fold path: sum-form accumulator, k-slot ring folded by
/// `axpyn`, pooled buffers, one finalize per goal.
double run_fused(const std::vector<std::shared_ptr<const ml::Tensor>>& xs,
                 std::uint32_t folds) {
  const double t0 = now_secs();
  fl::FedAvgAccumulator acc;
  for (std::uint32_t i = 0; i < folds; ++i) {
    acc.add(xs[i % xs.size()], 600);
  }
  const auto result = acc.result();
  volatile float sink = (*result)[folds % result->size()];
  (void)sink;
  acc.reset();
  return now_secs() - t0;
}

FoldSample measure_folds(std::size_t params, std::uint32_t folds, int reps) {
  sim::Rng rng(11);
  std::vector<std::shared_ptr<const ml::Tensor>> xs;
  for (int i = 0; i < 4; ++i) {
    xs.push_back(std::make_shared<const ml::Tensor>(
        ml::Tensor::randn(rng, params, 0.05f)));
  }
  FoldSample s;
  s.params = params;
  s.folds = folds;
  // Warm both paths once (page faults, pool population), then best-of-reps.
  (void)run_baseline(xs, std::max<std::uint32_t>(folds / 4, 2));
  (void)run_fused(xs, std::max<std::uint32_t>(folds / 4, 2));
  const ml::TensorPoolStats before = ml::TensorPool::global().stats();
  s.baseline_secs = run_baseline(xs, folds);
  s.fused_secs = run_fused(xs, folds);
  for (int r = 1; r < reps; ++r) {
    s.baseline_secs = std::min(s.baseline_secs, run_baseline(xs, folds));
    s.fused_secs = std::min(s.fused_secs, run_fused(xs, folds));
  }
  const ml::TensorPoolStats after = ml::TensorPool::global().stats();
  s.pool_hits = after.pool_hits - before.pool_hits;
  s.pool_misses = after.misses - before.misses;
  return s;
}

struct LevelSample {
  k::Level level;
  double axpy_gb_per_sec = 0.0;
  double dot_gb_per_sec = 0.0;
};

/// Raw-kernel ISA A/B: one axpy sweep and one dot at `params`, per level.
LevelSample measure_level(k::Level level, std::size_t params, int reps) {
  sim::Rng rng(13);
  ml::Tensor acc = ml::Tensor::randn(rng, params, 0.05f);
  const ml::Tensor x = ml::Tensor::randn(rng, params, 0.05f);
  const k::Ops& ops = k::ops_for(level);
  LevelSample s;
  s.level = level;
  const double bytes_axpy = 3.0 * params * sizeof(float);  // r+w acc, r x
  const double bytes_dot = 2.0 * params * sizeof(float);
  double best_axpy = 1e30, best_dot = 1e30;
  volatile double sink = 0.0;
  for (int r = 0; r < reps + 1; ++r) {  // first rep warms, then best-of
    double t0 = now_secs();
    ops.axpy(acc.data(), 1e-6f, x.data(), params);
    const double axpy_secs = now_secs() - t0;
    t0 = now_secs();
    sink = ops.dot(acc.data(), x.data(), params);
    const double dot_secs = now_secs() - t0;
    if (r == 0) continue;
    best_axpy = std::min(best_axpy, axpy_secs);
    best_dot = std::min(best_dot, dot_secs);
  }
  (void)sink;
  s.axpy_gb_per_sec = bytes_axpy / best_axpy / 1e9;
  s.dot_gb_per_sec = bytes_dot / best_dot / 1e9;
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint32_t folds_1m = 64;
  if (argc > 1) {
    char* end = nullptr;
    folds_1m = static_cast<std::uint32_t>(std::strtoul(argv[1], &end, 10));
    if (end == argv[1] || *end != '\0' || folds_1m < 4) {
      std::fprintf(stderr, "usage: %s [folds >= 4]\n", argv[0]);
      return 2;
    }
  }

  const bench::BenchMeta meta;
  const k::Level level = k::level();
  std::printf(
      "aggregation-kernel microbench: kernel level %s (max supported %s, "
      "override with LIFL_KERNEL)\n\n",
      k::level_name(level), k::level_name(k::max_supported()));

  // ---- fold-path comparison at 1M and 25M params.
  std::vector<FoldSample> samples;
  samples.push_back(measure_folds(1'000'000, folds_1m, 3));
  samples.push_back(
      measure_folds(25'000'000, std::max<std::uint32_t>(folds_1m / 8, 4), 2));

  sys::Table t({"params", "folds", "seed folds/s", "fused folds/s", "speedup",
                "seed GB/s", "fused GB/s", "pool hit/miss"});
  for (const auto& s : samples) {
    t.row({std::to_string(s.params), std::to_string(s.folds),
           sys::fmt(s.baseline_folds_per_sec(), 1),
           sys::fmt(s.fused_folds_per_sec(), 1), sys::fmt(s.speedup(), 2) + "x",
           sys::fmt(s.baseline_gb_per_sec(), 2),
           sys::fmt(s.fused_gb_per_sec(), 2),
           std::to_string(s.pool_hits) + "/" + std::to_string(s.pool_misses)});
  }
  t.print("FedAvg fold path: seed scale+axpy vs fused sum-form kernels");

  // ---- raw-kernel ISA ladder at 1M params.
  std::vector<LevelSample> levels;
  for (int l = 0; l <= static_cast<int>(k::max_supported()); ++l) {
    levels.push_back(measure_level(static_cast<k::Level>(l), 1'000'000, 3));
  }
  sys::Table lt({"level", "axpy GB/s", "dot GB/s"});
  for (const auto& s : levels) {
    lt.row({k::level_name(s.level), sys::fmt(s.axpy_gb_per_sec, 2),
            sys::fmt(s.dot_gb_per_sec, 2)});
  }
  lt.print("Raw kernels by dispatch level (1M params)");

  FILE* out = std::fopen("BENCH_agg_kernels.json", "w");
  if (out != nullptr) {
    std::fprintf(out, "{\n");
    meta.write_json_fields(out);
    std::fprintf(out,
                 "  \"bench\": \"agg_kernels\",\n"
                 "  \"kernel_level\": \"%s\",\n"
                 "  \"sizes\": [\n",
                 k::level_name(level));
    for (std::size_t i = 0; i < samples.size(); ++i) {
      const auto& s = samples[i];
      std::fprintf(
          out,
          "    {\"params\": %zu, \"folds\": %u, "
          "\"baseline_folds_per_sec\": %.2f, \"fused_folds_per_sec\": %.2f, "
          "\"speedup\": %.3f, \"baseline_gb_per_sec\": %.3f, "
          "\"fused_gb_per_sec\": %.3f, \"pool_hits\": %llu, "
          "\"pool_misses\": %llu}%s\n",
          s.params, s.folds, s.baseline_folds_per_sec(),
          s.fused_folds_per_sec(), s.speedup(), s.baseline_gb_per_sec(),
          s.fused_gb_per_sec(), static_cast<unsigned long long>(s.pool_hits),
          static_cast<unsigned long long>(s.pool_misses),
          i + 1 < samples.size() ? "," : "");
    }
    std::fprintf(out, "  ],\n  \"levels\": [\n");
    for (std::size_t i = 0; i < levels.size(); ++i) {
      const auto& s = levels[i];
      std::fprintf(out,
                   "    {\"level\": \"%s\", \"axpy_gb_per_sec\": %.3f, "
                   "\"dot_gb_per_sec\": %.3f}%s\n",
                   k::level_name(s.level), s.axpy_gb_per_sec,
                   s.dot_gb_per_sec, i + 1 < levels.size() ? "," : "");
    }
    std::fprintf(out, "  ]\n}\n");
    std::fclose(out);
    std::printf("\nwrote BENCH_agg_kernels.json\n");
  }

  // ---- gate: fused >= 2x seed folds/s at every size.
  bool gate = true;
  if (const char* env = std::getenv("LIFL_AGG_BENCH_GATE")) {
    gate = std::strcmp(env, "0") != 0;
  }
  if (!gate) {
    std::printf("gate SKIPPED (LIFL_AGG_BENCH_GATE=0)\n");
    return 0;
  }
  bool ok = true;
  for (const auto& s : samples) {
    if (s.speedup() < 2.0) {
      std::fprintf(stderr,
                   "FAIL: fused fold speedup %.2fx at %zu params below the "
                   "2x floor the kernels layer is held to\n",
                   s.speedup(), s.params);
      ok = false;
    } else {
      std::printf("gate OK: fused fold speedup %.2fx >= 2x at %zu params\n",
                  s.speedup(), s.params);
    }
  }
  return ok ? 0 : 1;
}
