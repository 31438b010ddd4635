// Unit tests for the ML substrate: tensors and the bulk Gaussian fill, MLP
// (with numerical gradient checks), synthetic non-IID data, local training
// and the accuracy model.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <thread>

#include "src/ml/accuracy_model.hpp"
#include "src/ml/conv.hpp"
#include "src/ml/dataset.hpp"
#include "src/ml/mlp.hpp"
#include "src/ml/sweep_pool.hpp"
#include "src/ml/tensor.hpp"
#include "src/ml/train.hpp"

namespace lifl::ml {
namespace {

// ----------------------------------------------------------------- tensor
TEST(Tensor, ConstructFillAndIndex) {
  Tensor t(4, 2.5f);
  EXPECT_EQ(t.size(), 4u);
  EXPECT_FLOAT_EQ(t[3], 2.5f);
  EXPECT_EQ(t.bytes(), 16u);
}

bool all_bits(const Tensor& t, std::uint32_t bits) {
  for (std::size_t i = 0; i < t.size(); ++i) {
    std::uint32_t b;
    std::memcpy(&b, &t.data()[i], sizeof b);
    if (b != bits) return false;
  }
  return true;
}

// Storage comes from calloc and `Tensor(n)` stores nothing: a block that
// reuses a freed tensor's memory must still read as +0.0 everywhere.
TEST(Tensor, FreshTensorIsZeroWhereAFilledOneWasFreed) {
  constexpr std::size_t kN = (std::size_t{1} << 20) / sizeof(float);
  for (int round = 0; round < 3; ++round) {
    {
      const Tensor filled(kN, 7.0f);
      ASSERT_EQ(filled[kN - 1], 7.0f);
    }
    const Tensor fresh(kN);
    EXPECT_TRUE(all_bits(fresh, 0u)) << "round " << round;
  }
}

TEST(Tensor, FillValueKeepsItsBits) {
  EXPECT_TRUE(all_bits(Tensor(1000, -0.0f), 0x80000000u));
  EXPECT_TRUE(all_bits(Tensor(1000, 1.5f), 0x3fc00000u));
  EXPECT_TRUE(all_bits(Tensor(1000, 0.0f), 0u));
}

TEST(Tensor, AxpyComputesThisPlusAX) {
  Tensor y(3, 1.0f), x(3);
  x[0] = 1;
  x[1] = 2;
  x[2] = 3;
  y.axpy(2.0f, x);
  EXPECT_FLOAT_EQ(y[0], 3.0f);
  EXPECT_FLOAT_EQ(y[1], 5.0f);
  EXPECT_FLOAT_EQ(y[2], 7.0f);
}

TEST(Tensor, AxpySizeMismatchThrows) {
  Tensor y(3), x(4);
  EXPECT_THROW(y.axpy(1.0f, x), std::invalid_argument);
}

TEST(Tensor, ScaleAndFill) {
  Tensor t(3, 2.0f);
  t.scale(1.5f);
  EXPECT_FLOAT_EQ(t[0], 3.0f);
  t.fill(0.0f);
  EXPECT_FLOAT_EQ(t[2], 0.0f);
}

TEST(Tensor, DotAndNorm) {
  Tensor a(2), b(2);
  a[0] = 3;
  a[1] = 4;
  b[0] = 1;
  b[1] = 1;
  EXPECT_DOUBLE_EQ(a.dot(b), 7.0);
  EXPECT_DOUBLE_EQ(a.l2norm(), 5.0);
}

TEST(Tensor, MaxAbsDiff) {
  Tensor a(2), b(2);
  a[0] = 1;
  a[1] = 5;
  b[0] = 1.5;
  b[1] = 4;
  EXPECT_DOUBLE_EQ(Tensor::max_abs_diff(a, b), 1.0);
}

TEST(Tensor, RandnMomentsRoughlyGaussian) {
  sim::Rng rng(42);
  const Tensor t = Tensor::randn(rng, 50000, 2.0f);
  double sum = 0, sq = 0;
  for (std::size_t i = 0; i < t.size(); ++i) {
    sum += t[i];
    sq += static_cast<double>(t[i]) * t[i];
  }
  EXPECT_NEAR(sum / t.size(), 0.0, 0.05);
  EXPECT_NEAR(sq / t.size(), 4.0, 0.1);
}

// --------------------------------------------------------- Gaussian fill
// `fill_normal` promises the bits of the per-element loop it replaced, and
// the generator state that loop leaves (spare included).

std::vector<float> normal_loop(sim::Rng& rng, std::size_t n, double sd) {
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.normal(0.0, sd));
  return v;
}

void expect_same_state(const sim::Rng& a, const sim::Rng& b) {
  const sim::Rng::State x = a.state();
  const sim::Rng::State y = b.state();
  EXPECT_EQ(std::memcmp(x.s, y.s, sizeof x.s), 0);
  EXPECT_EQ(std::memcmp(&x.spare, &y.spare, sizeof x.spare), 0);
  EXPECT_EQ(x.has_spare, y.has_spare);
}

bool same_bits(const float* a, const float* b, std::size_t n) {
  return n == 0 || std::memcmp(a, b, n * sizeof(float)) == 0;
}

TEST(GaussianFill, MatchesTheSequentialLoopBitwise) {
  const std::size_t sizes[] = {0,
                               1,
                               2,
                               3,
                               2 * kSweepChunk - 1,
                               2 * kSweepChunk + 1,
                               kSweepMinSplit - 1,
                               kSweepMinSplit,
                               kSweepMinSplit + 1,
                               kSweepMinSplit + 2,
                               (std::size_t{1} << 18) + 1};
  // Draws before the fill: none, one (spare cached), two (spare spent).
  for (const int warm : {0, 1, 2}) {
    for (const std::size_t n : sizes) {
      sim::Rng fill_rng(1000 + n);
      for (int i = 0; i < warm; ++i) (void)fill_rng.normal();
      ASSERT_EQ(fill_rng.state().has_spare, warm == 1);
      sim::Rng loop_rng = fill_rng;
      std::vector<float> got(n);
      fill_normal(fill_rng, got.data(), n, 0.05f);
      const std::vector<float> want = normal_loop(loop_rng, n, 0.05f);
      EXPECT_TRUE(same_bits(got.data(), want.data(), n))
          << "n=" << n << " warm=" << warm;
      expect_same_state(fill_rng, loop_rng);
    }
  }
}

TEST(GaussianFill, RunsInlineWhileAnotherThreadHoldsThePool) {
  std::atomic<bool> held{false};
  std::atomic<bool> release{false};
  std::thread holder([&] {
    parallel_sweep(4 * kSweepChunk, [&](std::size_t lo, std::size_t) {
      if (lo != 0) return;
      held.store(true);
      while (!release.load()) std::this_thread::yield();
    });
  });
  while (!held.load()) std::this_thread::yield();
  // The pool is busy until `release`: this fill must run on this thread
  // alone (it would never return if it waited for the pool).
  constexpr std::size_t kN = (std::size_t{1} << 18) + 1;
  sim::Rng fill_rng(99);
  sim::Rng loop_rng = fill_rng;
  std::vector<float> got(kN);
  fill_normal(fill_rng, got.data(), kN, 1.0);
  release.store(true);
  holder.join();
  const std::vector<float> want = normal_loop(loop_rng, kN, 1.0);
  EXPECT_TRUE(same_bits(got.data(), want.data(), kN));
  expect_same_state(fill_rng, loop_rng);
}

TEST(GaussianFill, MlpInitMatchesThePerElementLoop) {
  // 256 x 300 = 76,800 hidden weights: a split fill.
  const std::vector<std::size_t> dims = {256, 300, 10};
  Mlp m(dims);
  sim::Rng rng(5);
  sim::Rng ref = rng;
  m.init(rng);
  Tensor want(m.param_count());
  std::size_t off = 0;
  for (std::size_t l = 0; l + 1 < dims.size(); ++l) {
    const float stddev = std::sqrt(2.0f / static_cast<float>(dims[l]));
    for (std::size_t i = 0; i < dims[l] * dims[l + 1]; ++i) {
      want[off++] = static_cast<float>(ref.normal(0.0, stddev));
    }
    off += dims[l + 1];  // biases stay zero
  }
  ASSERT_EQ(off, m.param_count());
  EXPECT_TRUE(same_bits(m.params().data(), want.data(), want.size()));
  expect_same_state(rng, ref);
}

TEST(GaussianFill, ConvNetInitMatchesThePerElementLoop) {
  // 96 -> 96 3x3 convs hold 82,944 weights each: split fills.
  TinyResNet::Config cfg;
  cfg.filters = 96;
  cfg.blocks = 1;
  TinyResNet net(cfg);
  sim::Rng rng(6);
  sim::Rng ref = rng;
  net.init(rng);
  Tensor want(net.param_count());
  std::size_t off = 0;
  auto conv = [&](std::size_t in_ch, std::size_t out_ch) {
    const auto fan_in = static_cast<double>(in_ch * 9);
    const auto stddev = static_cast<float>(std::sqrt(2.0 / fan_in));
    for (std::size_t i = 0; i < out_ch * in_ch * 9; ++i) {
      want[off++] = static_cast<float>(ref.normal(0.0, stddev));
    }
    off += out_ch;  // biases stay zero
  };
  conv(cfg.in_channels, cfg.filters);  // stem
  conv(cfg.filters, cfg.filters);      // the residual unit's two convs
  conv(cfg.filters, cfg.filters);
  const auto stddev =
      static_cast<float>(std::sqrt(2.0 / static_cast<double>(cfg.filters)));
  for (std::size_t i = 0; i < cfg.num_classes * cfg.filters; ++i) {
    want[off++] = static_cast<float>(ref.normal(0.0, stddev));
  }
  off += cfg.num_classes;
  ASSERT_EQ(off, net.param_count());
  EXPECT_TRUE(same_bits(net.params().data(), want.data(), want.size()));
  expect_same_state(rng, ref);
}

// -------------------------------------------------------------------- MLP
TEST(Mlp, ParamCountMatchesArchitecture) {
  Mlp m({4, 8, 3});
  // 4*8 + 8 + 8*3 + 3 = 67
  EXPECT_EQ(m.param_count(), 67u);
}

TEST(Mlp, TooFewDimsThrows) {
  EXPECT_THROW(Mlp({5}), std::invalid_argument);
}

TEST(Mlp, SetParamsSizeMismatchThrows) {
  Mlp m({4, 3});
  EXPECT_THROW(m.set_params(Tensor(7)), std::invalid_argument);
}

TEST(Mlp, LogitsHaveClassDimension) {
  Mlp m({4, 8, 3});
  sim::Rng rng(1);
  m.init(rng);
  const float x[4] = {1, 2, 3, 4};
  EXPECT_EQ(m.logits(x).size(), 3u);
}

TEST(Mlp, GradientMatchesNumericalDifferences) {
  // Central-difference gradient check on a tiny network: the definitive
  // correctness test for backprop.
  Mlp m({3, 5, 4});
  sim::Rng rng(7);
  m.init(rng);

  Dataset d;
  d.feature_dim = 3;
  d.num_classes = 4;
  const float x1[3] = {0.5f, -1.2f, 2.0f};
  const float x2[3] = {1.0f, 0.3f, -0.7f};
  d.push(x1, 2);
  d.push(x2, 0);

  std::vector<std::size_t> idx{0, 1};
  Tensor grad;
  m.gradient(d, idx, grad);

  const double eps = 1e-3;
  int checked = 0;
  for (std::size_t p = 0; p < m.param_count(); p += 7) {  // sample params
    Mlp plus = m, minus = m;
    Tensor pp = m.params(), pm = m.params();
    pp[p] += static_cast<float>(eps);
    pm[p] -= static_cast<float>(eps);
    plus.set_params(pp);
    minus.set_params(pm);
    const double numeric = (plus.loss(d) - minus.loss(d)) / (2 * eps);
    EXPECT_NEAR(grad[p], numeric, 5e-3)
        << "param " << p << " analytic vs numeric";
    ++checked;
  }
  EXPECT_GT(checked, 5);
}

TEST(Mlp, SgdStepReducesLossOnBatch) {
  Mlp m({8, 16, 4});
  sim::Rng rng(3);
  m.init(rng);
  SyntheticTaskConfig cfg;
  cfg.feature_dim = 8;
  cfg.num_classes = 4;
  FederatedDataGen gen(cfg, rng.split(1));
  const Dataset d = gen.make_test_set(64);
  std::vector<std::size_t> idx(d.size());
  std::iota(idx.begin(), idx.end(), 0);

  const double before = m.loss(d);
  Tensor grad;
  for (int step = 0; step < 30; ++step) {
    m.gradient(d, idx, grad);
    m.sgd_step(grad, 0.05f);
  }
  EXPECT_LT(m.loss(d), before * 0.8);
}

TEST(Mlp, DeterministicGivenSeed) {
  auto make = [] {
    Mlp m({4, 8, 2});
    sim::Rng rng(11);
    m.init(rng);
    return m;
  };
  const Mlp a = make(), b = make();
  EXPECT_EQ(a.params(), b.params());
}

// ------------------------------------------------------------------- data
TEST(Dataset, PushAndRowAccess) {
  Dataset d;
  d.feature_dim = 2;
  d.num_classes = 3;
  const float x[2] = {1.0f, 2.0f};
  d.push(x, 1);
  EXPECT_EQ(d.size(), 1u);
  EXPECT_FLOAT_EQ(d.row(0)[1], 2.0f);
  EXPECT_EQ(d.labels[0], 1);
}

TEST(FederatedDataGen, TestSetHasAllClasses) {
  SyntheticTaskConfig cfg;
  FederatedDataGen gen(cfg, sim::Rng(5));
  const Dataset d = gen.make_test_set(2000);
  const auto hist = FederatedDataGen::class_histogram(d);
  for (std::size_t c = 0; c < cfg.num_classes; ++c) {
    EXPECT_GT(hist[c], 100u) << "class " << c;
  }
}

TEST(FederatedDataGen, LowAlphaShardsAreSkewed) {
  SyntheticTaskConfig cfg;
  FederatedDataGen gen(cfg, sim::Rng(5));
  sim::Rng rng(6);
  // alpha=0.1: most mass on few classes.
  double max_share = 0;
  for (int i = 0; i < 10; ++i) {
    const Dataset shard = gen.make_client_shard(300, 0.1, rng);
    const auto hist = FederatedDataGen::class_histogram(shard);
    const double top = *std::max_element(hist.begin(), hist.end());
    max_share += top / 300.0;
  }
  max_share /= 10;
  EXPECT_GT(max_share, 0.5);  // dominant class holds the majority
}

TEST(FederatedDataGen, HighAlphaShardsAreBalanced) {
  SyntheticTaskConfig cfg;
  FederatedDataGen gen(cfg, sim::Rng(5));
  sim::Rng rng(6);
  double max_share = 0;
  for (int i = 0; i < 10; ++i) {
    const Dataset shard = gen.make_client_shard(1000, 100.0, rng);
    const auto hist = FederatedDataGen::class_histogram(shard);
    max_share += *std::max_element(hist.begin(), hist.end()) / 1000.0;
  }
  max_share /= 10;
  EXPECT_LT(max_share, 0.2);  // near-uniform across 10 classes
}

TEST(FederatedDataGen, TaskIsLearnable) {
  // A linear-ish model must beat chance easily on the synthetic task.
  SyntheticTaskConfig cfg;
  FederatedDataGen gen(cfg, sim::Rng(5));
  const Dataset train = gen.make_test_set(1500);
  const Dataset test = gen.make_test_set(500);
  Mlp m({cfg.feature_dim, 32, cfg.num_classes});
  sim::Rng rng(2);
  m.init(rng);
  std::vector<std::size_t> idx(train.size());
  std::iota(idx.begin(), idx.end(), 0);
  Tensor grad;
  for (int e = 0; e < 40; ++e) {
    m.gradient(train, idx, grad);
    m.sgd_step(grad, 0.1f);
  }
  EXPECT_GT(m.accuracy(test), 0.5);  // chance is 0.1
}

// ---------------------------------------------------------------- training
TEST(LocalTrain, ImprovesLocalLoss) {
  SyntheticTaskConfig cfg;
  FederatedDataGen gen(cfg, sim::Rng(5));
  sim::Rng rng(8);
  const Dataset shard = gen.make_client_shard(400, 0.5, rng);
  Mlp global({cfg.feature_dim, 32, cfg.num_classes});
  global.init(rng);

  LocalTrainConfig tc;
  tc.epochs = 2;
  const LocalUpdate upd = local_train(global, global.params(), shard, tc, rng);

  Mlp after(global.dims());
  after.set_params(*upd.params);
  EXPECT_LT(after.loss(shard), global.loss(shard));
  EXPECT_EQ(upd.sample_count, shard.size());
}

TEST(LocalTrain, DoesNotMutateGlobalParams) {
  SyntheticTaskConfig cfg;
  FederatedDataGen gen(cfg, sim::Rng(5));
  sim::Rng rng(8);
  const Dataset shard = gen.make_client_shard(100, 0.5, rng);
  Mlp global({cfg.feature_dim, 16, cfg.num_classes});
  global.init(rng);
  const Tensor before = global.params();
  (void)local_train(global, global.params(), shard, {}, rng);
  EXPECT_EQ(global.params(), before);
}

// ----------------------------------------------------------- accuracy model
TEST(AccuracyModel, MonotonicallyIncreasing) {
  const auto m = AccuracyModel::resnet18_femnist();
  double prev = -1;
  for (std::uint32_t r = 0; r < 300; r += 10) {
    const double a = m.mean_accuracy(r);
    EXPECT_GT(a, prev);
    prev = a;
  }
}

TEST(AccuracyModel, SaturatesBelowAmax) {
  const auto m = AccuracyModel::resnet152_femnist();
  EXPECT_LT(m.mean_accuracy(100000), m.a_max() + 1e-9);
  EXPECT_NEAR(m.mean_accuracy(100000), m.a_max(), 1e-6);
}

TEST(AccuracyModel, StartsAtZero) {
  EXPECT_DOUBLE_EQ(AccuracyModel::resnet18_femnist().mean_accuracy(0), 0.0);
}

TEST(AccuracyModel, RoundsToAccuracyIsConsistent) {
  const auto m = AccuracyModel::resnet18_femnist();
  const std::uint32_t r70 = m.rounds_to_accuracy(0.70);
  EXPECT_GE(m.mean_accuracy(r70), 0.70);
  EXPECT_LT(m.mean_accuracy(r70 - 1), 0.70);
}

TEST(AccuracyModel, Paper70PercentAnchors) {
  // Calibration: the 70% crossing is anchored so LIFL's measured per-round
  // time lands on the paper's time-to-70% (0.9 h for ResNet-18 at ~98 s per
  // round; 1.9 h for ResNet-152 at ~64 s per round).
  EXPECT_NEAR(AccuracyModel::resnet18_femnist().rounds_to_accuracy(0.70), 34,
              3);
  EXPECT_NEAR(AccuracyModel::resnet152_femnist().rounds_to_accuracy(0.70),
              107, 8);
}

TEST(AccuracyModel, UnreachableTargetReturnsZero) {
  EXPECT_EQ(AccuracyModel::resnet18_femnist().rounds_to_accuracy(0.99), 0u);
}

TEST(AccuracyModel, SampleNoiseIsBounded) {
  const auto m = AccuracyModel::resnet18_femnist();
  sim::Rng rng(4);
  for (int i = 0; i < 200; ++i) {
    const double a = m.sample_accuracy(60, rng);
    EXPECT_NEAR(a, m.mean_accuracy(60), 0.05);
    EXPECT_GE(a, 0.0);
    EXPECT_LE(a, 1.0);
  }
}

}  // namespace
}  // namespace lifl::ml
