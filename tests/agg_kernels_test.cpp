// Unit tests for the fused aggregation-kernel layer (ml::kernels): every
// dispatch level must agree with the scalar reference on every op,
// including non-multiple-of-lane-width tails, and the multi-accumulator
// reductions must stay within double-accumulation error bounds.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "src/ml/kernels.hpp"
#include "src/ml/tensor.hpp"
#include "src/sim/random.hpp"

namespace lifl::ml::kernels {
namespace {

std::vector<float> random_vec(sim::Rng& rng, std::size_t n, double sd = 1.0) {
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.normal(0.0, sd));
  return v;
}

/// Sizes that exercise empty, sub-lane, lane-boundary and tail cases for
/// 4/8/16-lane vectorization.
const std::size_t kSizes[] = {0, 1, 3, 4, 7, 8, 15, 16, 17, 63, 64, 65, 1000};

std::vector<Level> available_levels() {
  std::vector<Level> out;
  for (int l = 0; l <= static_cast<int>(max_supported()); ++l) {
    out.push_back(static_cast<Level>(l));
  }
  return out;
}

/// Element-wise closeness: FMA contraction legitimately differs between
/// ISA levels (the baseline ISA has no fma instruction; AVX2/AVX-512 do),
/// so multiply-add ops are compared within a tight relative tolerance.
void expect_close(const std::vector<float>& got, const std::vector<float>& want,
                  const char* what, Level level, std::size_t n) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(got[i], want[i], 1e-5f * (1.0f + std::abs(want[i])))
        << what << " level=" << level_name(level) << " n=" << n << " i=" << i;
  }
}

TEST(AggKernels, AllLevelsMatchScalarOnEveryOp) {
  const Ops& ref = ops_for(Level::kScalar);
  for (const Level level : available_levels()) {
    const Ops& ops = ops_for(level);
    for (const std::size_t n : kSizes) {
      sim::Rng rng(17 + static_cast<std::uint64_t>(n));
      const auto x = random_vec(rng, n);
      const auto base = random_vec(rng, n);
      const float a = 0.75f, b = -1.25f;

      // fill / scale / scale_into are single-rounding ops: bitwise equal.
      auto got = base, want = base;
      ops.fill(got.data(), 3.5f, n);
      ref.fill(want.data(), 3.5f, n);
      EXPECT_EQ(got, want) << "fill level=" << level_name(level) << " n=" << n;

      got = base;
      want = base;
      ops.scale(got.data(), a, n);
      ref.scale(want.data(), a, n);
      EXPECT_EQ(got, want) << "scale level=" << level_name(level) << " n=" << n;

      got.assign(n, -9.0f);
      want.assign(n, -9.0f);
      ops.scale_into(got.data(), a, x.data(), n);
      ref.scale_into(want.data(), a, x.data(), n);
      EXPECT_EQ(got, want) << "scale_into level=" << level_name(level)
                           << " n=" << n;

      got = base;
      want = base;
      ops.axpy(got.data(), a, x.data(), n);
      ref.axpy(want.data(), a, x.data(), n);
      expect_close(got, want, "axpy", level, n);

      got = base;
      want = base;
      ops.axpby(got.data(), a, b, x.data(), n);
      ref.axpby(want.data(), a, b, x.data(), n);
      expect_close(got, want, "axpby", level, n);
    }
  }
}

/// k-way fold inputs: `kMaxFan` distinct random rows, then slot sets that
/// are either all distinct or alias rows across slots. fold-real's pattern
/// is the aliased one (each node sees 2 distinct tensors in every sweep).
struct FanInputs {
  std::vector<std::vector<float>> rows;
  float w[kMaxFan];
  const float* distinct[kMaxFan];
  const float* aliased[kMaxFan];
};

FanInputs fan_inputs(sim::Rng& rng, std::size_t n) {
  FanInputs in;
  for (std::size_t j = 0; j < kMaxFan; ++j) {
    in.rows.push_back(random_vec(rng, n));
    in.w[j] = static_cast<float>(rng.normal(0.0, 1.0));
  }
  for (std::size_t j = 0; j < kMaxFan; ++j) {
    in.distinct[j] = in.rows[j].data();
    in.aliased[j] = in.rows[j % 2].data();
  }
  return in;
}

TEST(AggKernels, AxpynMatchesScalarForEveryFanIn) {
  const Ops& ref = ops_for(Level::kScalar);
  for (const Level level : available_levels()) {
    const Ops& ops = ops_for(level);
    for (const std::size_t n : kSizes) {
      sim::Rng rng(23 + static_cast<std::uint64_t>(n));
      const FanInputs in = fan_inputs(rng, n);
      const auto base = random_vec(rng, n);
      for (const float* const* xs : {in.distinct, in.aliased}) {
        for (std::size_t k = 1; k <= kMaxFan; ++k) {
          auto got = base, want = base;
          ops.axpyn(got.data(), in.w, xs, k, n);
          ref.axpyn(want.data(), in.w, xs, k, n);
          expect_close(got, want, "axpyn", level, n);

          got.assign(n, -9.0f);
          want.assign(n, -9.0f);
          ops.axpyn_into(got.data(), in.w, xs, k, n);
          ref.axpyn_into(want.data(), in.w, xs, k, n);
          expect_close(got, want, "axpyn_into", level, n);
        }
      }
    }
  }
}

TEST(AggKernels, AxpynEqualsRepeatedAxpy) {
  // One k-way sweep folds the same terms as k single-update `axpy` sweeps;
  // only the float grouping differs. Aliased slots count once per slot.
  const std::size_t n = 257;
  for (const Level level : available_levels()) {
    const Ops& ops = ops_for(level);
    sim::Rng rng(53);
    const FanInputs in = fan_inputs(rng, n);
    for (const float* const* xs : {in.distinct, in.aliased}) {
      for (std::size_t k = 1; k <= kMaxFan; ++k) {
        std::vector<float> fan(n, 0.0f), seq(n, 0.0f), into(n, -9.0f);
        ops.axpyn(fan.data(), in.w, xs, k, n);
        ops.axpyn_into(into.data(), in.w, xs, k, n);
        for (std::size_t j = 0; j < k; ++j) {
          ops.axpy(seq.data(), in.w[j], xs[j], n);
        }
        for (std::size_t i = 0; i < n; ++i) {
          EXPECT_NEAR(fan[i], seq[i], 1e-5f * (1.0f + std::abs(seq[i])))
              << "level=" << level_name(level) << " k=" << k << " i=" << i;
          EXPECT_EQ(into[i], fan[i])
              << "level=" << level_name(level) << " k=" << k << " i=" << i;
        }
      }
    }
  }
}

TEST(AggKernels, ReductionsMatchDoubleReferenceEverywhere) {
  for (const Level level : available_levels()) {
    const Ops& ops = ops_for(level);
    for (const std::size_t n : kSizes) {
      sim::Rng rng(31 + static_cast<std::uint64_t>(n));
      const auto x = random_vec(rng, n);
      const auto y = random_vec(rng, n);
      double want_dot = 0.0, want_sq = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        want_dot += static_cast<double>(x[i]) * static_cast<double>(y[i]);
        want_sq += static_cast<double>(x[i]) * static_cast<double>(x[i]);
      }
      // Multi-accumulator association differs from the serial reference by
      // at most a few double ulps of the running sums.
      const double tol = 1e-9 * (1.0 + std::abs(want_dot) + want_sq);
      EXPECT_NEAR(ops.dot(x.data(), y.data(), n), want_dot, tol)
          << "dot level=" << level_name(level) << " n=" << n;
      EXPECT_NEAR(ops.nrm2(x.data(), n), std::sqrt(want_sq), tol)
          << "nrm2 level=" << level_name(level) << " n=" << n;
    }
  }
}

TEST(AggKernels, FusedFormsEqualTheirUnfusedPairs) {
  // axpby(acc,a,b,x) computes the same per-element expression as
  // scale(acc,a); axpy(acc,b,x) — equal within contraction rounding.
  const Ops& ops = ops_for(max_supported());
  sim::Rng rng(47);
  const std::size_t n = 257;
  const auto x = random_vec(rng, n);
  auto fused = random_vec(rng, n);
  auto paired = fused;
  ops.axpby(fused.data(), 0.625f, 0.25f, x.data(), n);  // exact-scale factors
  ops.scale(paired.data(), 0.625f, n);
  ops.axpy(paired.data(), 0.25f, x.data(), n);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(fused[i], paired[i], 1e-6f * (1.0f + std::abs(paired[i])))
        << i;
  }
}

TEST(AggKernels, SelectClampsToSupportAndReportsLevel) {
  const Level prev = level();
  EXPECT_EQ(select(Level::kScalar), Level::kScalar);
  EXPECT_EQ(level(), Level::kScalar);
  // Requesting more than the CPU has falls back to the best available.
  const Level top = select(Level::kAvx512);
  EXPECT_LE(static_cast<int>(top), static_cast<int>(Level::kAvx512));
  EXPECT_EQ(top, max_supported());
  select(prev);
}

TEST(AggKernels, ParseLevelNamesRoundTrip) {
  Level parsed;
  for (const Level l : {Level::kScalar, Level::kWide, Level::kAvx2,
                        Level::kAvx512}) {
    ASSERT_TRUE(parse_level(level_name(l), parsed)) << level_name(l);
    EXPECT_EQ(parsed, l);
  }
  EXPECT_FALSE(parse_level("sse9", parsed));
  EXPECT_FALSE(parse_level("", parsed));
}

// ---- Tensor delegation (the satellite: dot multi-accumulator + __restrict
// scale/fill land in the kernels layer but keep Tensor semantics).

TEST(AggKernels, TensorOpsDelegateWithSameSemantics) {
  sim::Rng rng(7);
  Tensor a = Tensor::randn(rng, 1003, 1.0f);
  Tensor b = Tensor::randn(rng, 1003, 1.0f);

  double want = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    want += static_cast<double>(a[i]) * static_cast<double>(b[i]);
  }
  EXPECT_NEAR(a.dot(b), want, 1e-9 * (1.0 + std::abs(want)));
  EXPECT_NEAR(a.l2norm(), std::sqrt(a.dot(a)), 1e-12);

  Tensor c = a;
  c.scale(0.5f);
  for (std::size_t i = 0; i < 8; ++i) EXPECT_FLOAT_EQ(c[i], a[i] * 0.5f);
  c.fill(2.0f);
  EXPECT_FLOAT_EQ(c[0], 2.0f);
  EXPECT_FLOAT_EQ(c[c.size() - 1], 2.0f);

  // Fused axpby == scale-then-axpy (same per-element expression).
  Tensor f1 = a, f2 = a;
  f1.axpby(0.5f, 0.25f, b);
  f2.scale(0.5f);
  f2.axpy(0.25f, b);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(f1[i], f2[i], 1e-6f * (1.0f + std::abs(f2[i]))) << i;
  }

  EXPECT_THROW(a.dot(Tensor(5)), std::invalid_argument);
  EXPECT_THROW(f1.axpby(1.0f, 1.0f, Tensor(5)), std::invalid_argument);
}

}  // namespace
}  // namespace lifl::ml::kernels
