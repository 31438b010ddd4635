// Unit and property tests for FedAvg aggregation (Eq. 1): the eager==lazy
// and hierarchical==flat invariants the whole platform relies on.

#include <gtest/gtest.h>

#include <memory>

#include "src/fl/fedavg.hpp"
#include "src/sim/random.hpp"

namespace lifl::fl {
namespace {

std::shared_ptr<const ml::Tensor> tensor_of(std::vector<float> v) {
  ml::Tensor t(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) t[i] = v[i];
  return std::make_shared<const ml::Tensor>(std::move(t));
}

TEST(FedAvg, SingleUpdateIsIdentity) {
  FedAvgAccumulator acc;
  acc.add(tensor_of({1.0f, 2.0f, 3.0f}), 10);
  const auto r = acc.result();
  ASSERT_TRUE(r);
  EXPECT_FLOAT_EQ((*r)[0], 1.0f);
  EXPECT_FLOAT_EQ((*r)[2], 3.0f);
  EXPECT_EQ(acc.total_samples(), 10u);
  EXPECT_EQ(acc.updates_folded(), 1u);
}

TEST(FedAvg, EqualWeightsGiveArithmeticMean) {
  FedAvgAccumulator acc;
  acc.add(tensor_of({0.0f, 4.0f}), 5);
  acc.add(tensor_of({2.0f, 0.0f}), 5);
  const auto r = acc.result();
  EXPECT_NEAR((*r)[0], 1.0f, 1e-6);
  EXPECT_NEAR((*r)[1], 2.0f, 1e-6);
}

TEST(FedAvg, WeightsSkewTheMean) {
  FedAvgAccumulator acc;
  acc.add(tensor_of({0.0f}), 1);
  acc.add(tensor_of({10.0f}), 9);
  EXPECT_NEAR((*acc.result())[0], 9.0f, 1e-5);
}

TEST(FedAvg, ZeroSampleCountThrows) {
  FedAvgAccumulator acc;
  EXPECT_THROW(acc.add(tensor_of({1.0f}), 0), std::invalid_argument);
}

TEST(FedAvg, LogicalOnlyUpdatesTrackWeightAndCount) {
  FedAvgAccumulator acc;
  ModelUpdate u;
  u.sample_count = 600;
  u.logical_bytes = 1000;
  acc.add(u);
  acc.add(u);
  EXPECT_EQ(acc.total_samples(), 1200u);
  EXPECT_EQ(acc.updates_folded(), 2u);
  EXPECT_FALSE(acc.result());
}

TEST(FedAvg, MakeUpdateCarriesAggregateMetadata) {
  FedAvgAccumulator acc;
  acc.add(tensor_of({2.0f}), 30);
  acc.add(tensor_of({4.0f}), 10);
  const ModelUpdate out = acc.make_update(7, 99, 4096);
  EXPECT_EQ(out.model_version, 7u);
  EXPECT_EQ(out.producer, 99u);
  EXPECT_EQ(out.sample_count, 40u);
  EXPECT_EQ(out.updates_folded, 2u);
  EXPECT_EQ(out.logical_bytes, 4096u);
  ASSERT_TRUE(out.tensor);
  EXPECT_NEAR((*out.tensor)[0], 2.5f, 1e-6);
}

TEST(FedAvg, ResetClearsState) {
  FedAvgAccumulator acc;
  acc.add(tensor_of({1.0f}), 5);
  acc.reset();
  EXPECT_EQ(acc.total_samples(), 0u);
  EXPECT_EQ(acc.updates_folded(), 0u);
  EXPECT_FALSE(acc.result());
}

TEST(FedAvg, FoldedUpdatesPropagateCounts) {
  // An intermediate update representing 3 client updates must count as 3.
  FedAvgAccumulator acc;
  ModelUpdate intermediate;
  intermediate.sample_count = 90;
  intermediate.updates_folded = 3;
  intermediate.tensor = tensor_of({6.0f});
  acc.add(intermediate);
  EXPECT_EQ(acc.updates_folded(), 3u);
  EXPECT_EQ(acc.total_samples(), 90u);
}

TEST(FedAvg, BatchAverageMatchesHandComputed) {
  const auto a = tensor_of({1.0f, 0.0f});
  const auto b = tensor_of({0.0f, 1.0f});
  const ml::Tensor avg =
      FedAvgAccumulator::batch_average({{a.get(), 3}, {b.get(), 1}});
  EXPECT_NEAR(avg[0], 0.75f, 1e-6);
  EXPECT_NEAR(avg[1], 0.25f, 1e-6);
}

TEST(FedAvg, SizeMismatchesThrow) {
  const auto a = tensor_of({1.0f, 2.0f});
  const auto b = tensor_of({1.0f});
  EXPECT_THROW(FedAvgAccumulator::batch_average({{a.get(), 1}, {b.get(), 1}}),
               std::invalid_argument);
  FedAvgAccumulator acc;
  acc.add(a, 10);
  EXPECT_THROW(acc.add(b, 10), std::invalid_argument);
}

// ---- Property: eager (cumulative) == lazy (batch), any weights/order.
class FedAvgEagerLazyProperty : public ::testing::TestWithParam<int> {};

TEST_P(FedAvgEagerLazyProperty, CumulativeEqualsBatch) {
  sim::Rng rng(GetParam());
  const std::size_t n = 2 + rng.uniform_index(20);
  const std::size_t dim = 1 + rng.uniform_index(64);

  std::vector<std::shared_ptr<const ml::Tensor>> tensors;
  std::vector<std::uint64_t> weights;
  for (std::size_t i = 0; i < n; ++i) {
    ml::Tensor t(dim);
    for (std::size_t j = 0; j < dim; ++j) {
      t[j] = static_cast<float>(rng.normal(0.0, 2.0));
    }
    tensors.push_back(std::make_shared<const ml::Tensor>(std::move(t)));
    weights.push_back(1 + rng.uniform_index(1000));
  }

  // Eager: one-at-a-time cumulative averaging (§5.4).
  FedAvgAccumulator eager;
  for (std::size_t i = 0; i < n; ++i) eager.add(tensors[i], weights[i]);

  // Lazy: batch weighted mean.
  std::vector<std::pair<const ml::Tensor*, std::uint64_t>> batch;
  for (std::size_t i = 0; i < n; ++i) {
    batch.emplace_back(tensors[i].get(), weights[i]);
  }
  const ml::Tensor lazy = FedAvgAccumulator::batch_average(batch);

  ASSERT_TRUE(eager.result());
  EXPECT_LT(ml::Tensor::max_abs_diff(*eager.result(), lazy), 1e-4);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FedAvgEagerLazyProperty,
                         ::testing::Range(1, 21));

// ---- Property: hierarchical aggregation == flat aggregation.
class FedAvgHierarchyProperty : public ::testing::TestWithParam<int> {};

TEST_P(FedAvgHierarchyProperty, TwoLevelEqualsFlat) {
  sim::Rng rng(1000 + GetParam());
  const std::size_t groups = 2 + rng.uniform_index(5);
  const std::size_t dim = 8;

  FedAvgAccumulator top;
  std::vector<std::pair<const ml::Tensor*, std::uint64_t>> flat;
  std::vector<std::shared_ptr<const ml::Tensor>> keep_alive;

  for (std::size_t g = 0; g < groups; ++g) {
    FedAvgAccumulator leaf;
    const std::size_t members = 1 + rng.uniform_index(6);
    for (std::size_t m = 0; m < members; ++m) {
      ml::Tensor t(dim);
      for (std::size_t j = 0; j < dim; ++j) {
        t[j] = static_cast<float>(rng.normal(0.0, 1.0));
      }
      auto sp = std::make_shared<const ml::Tensor>(std::move(t));
      keep_alive.push_back(sp);
      const std::uint64_t w = 1 + rng.uniform_index(500);
      leaf.add(sp, w);
      flat.emplace_back(sp.get(), w);
    }
    // The leaf's intermediate update carries the folded weight, which is
    // exactly what makes the two-level tree equal the flat average.
    top.add(leaf.make_update(1, g, 0));
  }

  const ml::Tensor reference = FedAvgAccumulator::batch_average(flat);
  ASSERT_TRUE(top.result());
  EXPECT_LT(ml::Tensor::max_abs_diff(*top.result(), reference), 1e-4);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FedAvgHierarchyProperty,
                         ::testing::Range(1, 16));

// ---- Properties of the sum-form refactor: the fused accumulator must be
// numerically interchangeable with the seed's streaming-mean form,
// bitwise deterministic, and exact in mixed logical/real mode.

/// The seed's streaming-mean algorithm, reproduced as the reference:
///   avg <- avg + (w - avg) * c / (C + c)  via scale(1-λ) + axpy(λ, w),
/// with a logical-weight-aware first fold.
ml::Tensor seed_streaming_mean(
    const std::vector<std::shared_ptr<const ml::Tensor>>& tensors,
    const std::vector<std::uint64_t>& weights) {
  std::unique_ptr<ml::Tensor> avg;
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < tensors.size(); ++i) {
    const std::uint64_t c = weights[i];
    const std::uint64_t new_total = total + c;
    if (!avg) {
      avg = std::make_unique<ml::Tensor>(*tensors[i]);
      if (total > 0) {
        avg->scale(static_cast<float>(static_cast<double>(c) /
                                      static_cast<double>(new_total)));
      }
    } else {
      const float lambda = static_cast<float>(
          static_cast<double>(c) / static_cast<double>(new_total));
      avg->scale(1.0f - lambda);
      avg->axpy(lambda, *tensors[i]);
    }
    total = new_total;
  }
  return avg ? *avg : ml::Tensor{};
}

class FedAvgSumFormProperty : public ::testing::TestWithParam<int> {};

TEST_P(FedAvgSumFormProperty, MatchesSeedStreamingMeanAcrossOrders) {
  sim::Rng rng(4000 + GetParam());
  const std::size_t n = 2 + rng.uniform_index(24);
  const std::size_t dim = 1 + rng.uniform_index(100);

  std::vector<std::shared_ptr<const ml::Tensor>> tensors;
  std::vector<std::uint64_t> weights;
  for (std::size_t i = 0; i < n; ++i) {
    ml::Tensor t(dim);
    for (std::size_t j = 0; j < dim; ++j) {
      t[j] = static_cast<float>(rng.normal(0.0, 3.0));
    }
    tensors.push_back(std::make_shared<const ml::Tensor>(std::move(t)));
    weights.push_back(1 + rng.uniform_index(2000));
  }

  // A couple of random fold orders per seed: both forms see the same order.
  std::vector<std::size_t> order(n);
  for (int shuffle = 0; shuffle < 3; ++shuffle) {
    for (std::size_t i = 0; i < n; ++i) order[i] = i;
    rng.shuffle(order);

    std::vector<std::shared_ptr<const ml::Tensor>> ts;
    std::vector<std::uint64_t> ws;
    FedAvgAccumulator acc;
    for (const std::size_t i : order) {
      ts.push_back(tensors[i]);
      ws.push_back(weights[i]);
      acc.add(tensors[i], weights[i]);
    }
    const ml::Tensor seed_ref = seed_streaming_mean(ts, ws);
    const auto sum_form = acc.result();
    ASSERT_TRUE(sum_form);
    for (std::size_t j = 0; j < dim; ++j) {
      EXPECT_NEAR((*sum_form)[j], seed_ref[j],
                  1e-5 * (1.0 + std::abs(seed_ref[j])))
          << "element " << j << " shuffle " << shuffle;
    }
  }
}

TEST_P(FedAvgSumFormProperty, BitwiseDeterministicForFixedOrder) {
  sim::Rng rng(5000 + GetParam());
  const std::size_t n = 2 + rng.uniform_index(16);
  const std::size_t dim = 1 + rng.uniform_index(64);

  std::vector<std::shared_ptr<const ml::Tensor>> tensors;
  std::vector<std::uint64_t> weights;
  for (std::size_t i = 0; i < n; ++i) {
    ml::Tensor t(dim);
    for (std::size_t j = 0; j < dim; ++j) {
      t[j] = static_cast<float>(rng.normal(0.0, 1.0));
    }
    tensors.push_back(std::make_shared<const ml::Tensor>(std::move(t)));
    weights.push_back(1 + rng.uniform_index(999));
  }

  FedAvgAccumulator a, b;
  for (std::size_t i = 0; i < n; ++i) {
    a.add(tensors[i], weights[i]);
    b.add(tensors[i], weights[i]);
  }
  const auto ra = a.result();
  const auto rb = b.result();
  ASSERT_TRUE(ra);
  ASSERT_TRUE(rb);
  EXPECT_TRUE(*ra == *rb);  // bitwise: same order => same result
}

TEST_P(FedAvgSumFormProperty, MixedLogicalWeightInvariant) {
  // A logical-only update is DEFINED to carry a zero tensor: it adds its
  // weight to the divisor and nothing to the sum. In sum form that holds
  // exactly — where the logical updates land in the fold order must not
  // change the result at all (bitwise), and the result must match the
  // zero-tensor weighted mean computed in double precision.
  sim::Rng rng(6000 + GetParam());
  const std::size_t n = 2 + rng.uniform_index(10);
  const std::size_t dim = 1 + rng.uniform_index(32);
  const std::uint64_t logical_weight = 1 + rng.uniform_index(5000);

  std::vector<std::shared_ptr<const ml::Tensor>> tensors;
  std::vector<std::uint64_t> weights;
  for (std::size_t i = 0; i < n; ++i) {
    ml::Tensor t(dim);
    for (std::size_t j = 0; j < dim; ++j) {
      t[j] = static_cast<float>(rng.normal(0.0, 2.0));
    }
    tensors.push_back(std::make_shared<const ml::Tensor>(std::move(t)));
    weights.push_back(1 + rng.uniform_index(800));
  }

  ModelUpdate logical;
  logical.sample_count = logical_weight;
  logical.logical_bytes = dim * sizeof(float);

  // Logical first vs logical in the middle vs logical last.
  FedAvgAccumulator first, middle, last;
  first.add(logical);
  for (std::size_t i = 0; i < n; ++i) first.add(tensors[i], weights[i]);
  for (std::size_t i = 0; i < n; ++i) {
    if (i == n / 2) middle.add(logical);
    middle.add(tensors[i], weights[i]);
  }
  for (std::size_t i = 0; i < n; ++i) last.add(tensors[i], weights[i]);
  last.add(logical);

  const auto rf = first.result();
  const auto rm = middle.result();
  const auto rl = last.result();
  ASSERT_TRUE(rf);
  ASSERT_TRUE(rm);
  ASSERT_TRUE(rl);
  EXPECT_TRUE(*rf == *rm);
  EXPECT_TRUE(*rm == *rl);
  EXPECT_EQ(first.total_samples(), last.total_samples());

  double wsum = static_cast<double>(logical_weight);
  for (const auto w : weights) wsum += static_cast<double>(w);
  for (std::size_t j = 0; j < dim; ++j) {
    double s = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      s += static_cast<double>(weights[i]) *
           static_cast<double>((*tensors[i])[j]);
    }
    const double want = s / wsum;
    EXPECT_NEAR((*rf)[j], want, 1e-5 * (1.0 + std::abs(want))) << j;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FedAvgSumFormProperty,
                         ::testing::Range(1, 21));

// ---- The k-slot ring: updates park in `kFoldSlots` slots and a full ring
// folds in one sweep. Ring boundaries must not change what is computed.

std::vector<std::shared_ptr<const ml::Tensor>> random_tensors(
    sim::Rng& rng, std::size_t count, std::size_t dim) {
  std::vector<std::shared_ptr<const ml::Tensor>> out;
  for (std::size_t i = 0; i < count; ++i) {
    ml::Tensor t(dim);
    for (std::size_t j = 0; j < dim; ++j) {
      t[j] = static_cast<float>(rng.normal(0.0, 2.0));
    }
    out.push_back(std::make_shared<const ml::Tensor>(std::move(t)));
  }
  return out;
}

ml::Tensor batch_of(const std::vector<std::shared_ptr<const ml::Tensor>>& ts,
                    const std::vector<std::uint64_t>& ws, std::size_t count) {
  std::vector<std::pair<const ml::Tensor*, std::uint64_t>> batch;
  for (std::size_t i = 0; i < count; ++i) {
    batch.emplace_back(ts[i].get(), ws[i]);
  }
  return FedAvgAccumulator::batch_average(batch);
}

TEST(FedAvgRing, EveryCountAcrossRingFillsMatchesBatch) {
  static_assert(FedAvgAccumulator::kFoldSlots == 8);
  sim::Rng rng(71);
  const std::size_t dim = 37;  // not a multiple of any vector width
  const auto tensors = random_tensors(rng, 25, dim);
  std::vector<std::uint64_t> weights;
  for (std::size_t i = 0; i < 25; ++i) {
    weights.push_back(1 + rng.uniform_index(1000));
  }
  for (std::size_t count = 1; count <= 25; ++count) {
    FedAvgAccumulator acc;
    for (std::size_t i = 0; i < count; ++i) acc.add(tensors[i], weights[i]);
    ASSERT_TRUE(acc.result()) << count;
    EXPECT_LT(ml::Tensor::max_abs_diff(*acc.result(),
                                       batch_of(tensors, weights, count)),
              1e-4)
        << count << " updates";
    EXPECT_EQ(acc.updates_folded(), count);
  }
}

TEST(FedAvgRing, ResultMidRingThenMoreAddsStaysCorrect) {
  sim::Rng rng(72);
  const auto tensors = random_tensors(rng, 24, 19);
  std::vector<std::uint64_t> weights;
  for (std::size_t i = 0; i < 24; ++i) {
    weights.push_back(1 + rng.uniform_index(500));
  }
  FedAvgAccumulator acc;
  std::size_t added = 0;
  // A read flushes the ring. These land with 3 and 5 updates parked, then
  // right after a full sweep (8 adds since the last read).
  for (const std::size_t upto : {11u, 16u, 24u}) {
    for (; added < upto; ++added) acc.add(tensors[added], weights[added]);
    const auto mid = acc.result();
    ASSERT_TRUE(mid);
    EXPECT_LT(ml::Tensor::max_abs_diff(*mid, batch_of(tensors, weights, upto)),
              1e-4)
        << upto << " updates";
    EXPECT_EQ(acc.result(), mid);  // cached until the next add
  }
}

TEST(FedAvgRing, ResetWithPartialRingDropsEveryParkedHandle) {
  sim::Rng rng(73);
  const auto tensors = random_tensors(rng, 13, 8);
  FedAvgAccumulator acc;
  // 13 = one full sweep (8 released) + 5 still parked.
  for (const auto& t : tensors) acc.add(t, 10);
  std::size_t parked = 0;
  for (const auto& t : tensors) parked += t.use_count() > 1 ? 1 : 0;
  EXPECT_EQ(parked, 13 % FedAvgAccumulator::kFoldSlots);
  acc.reset();
  for (std::size_t i = 0; i < tensors.size(); ++i) {
    EXPECT_EQ(tensors[i].use_count(), 1) << i;
  }
  EXPECT_EQ(acc.total_samples(), 0u);
  EXPECT_FALSE(acc.result());
}

TEST(FedAvgRing, SizeMismatchThrowsWithParkedRingAndWithSumOnly) {
  const auto wide = tensor_of({1.0f, 2.0f});
  const auto narrow = tensor_of({1.0f});

  FedAvgAccumulator ringed;  // one update parked, no sum yet
  ringed.add(wide, 1);
  EXPECT_THROW(ringed.add(narrow, 1), std::invalid_argument);
  EXPECT_EQ(ringed.total_samples(), 1u);

  FedAvgAccumulator summed;  // one full sweep: a sum, an empty ring
  for (std::size_t i = 0; i < FedAvgAccumulator::kFoldSlots; ++i) {
    summed.add(wide, 1);
  }
  EXPECT_EQ(wide.use_count(), 2);  // the caller's and `ringed`'s slot
  EXPECT_THROW(summed.add(narrow, 1), std::invalid_argument);
  // A rejected update leaves the aggregate untouched.
  ASSERT_TRUE(summed.result());
  EXPECT_NEAR((*summed.result())[1], 2.0f, 1e-6);
  EXPECT_EQ(summed.total_samples(), FedAvgAccumulator::kFoldSlots);
}

TEST(FedAvgRing, LogicalAndScaledUpdatesInterleaveWithPartialRings) {
  sim::Rng rng(74);
  const std::size_t dim = 23;
  const std::size_t count = 30;
  const auto tensors = random_tensors(rng, count, dim);
  FedAvgAccumulator acc;
  std::vector<double> ref(dim, 0.0);
  double divisor = 0.0;
  for (std::size_t i = 0; i < count; ++i) {
    ModelUpdate u;
    u.sample_count = 1 + rng.uniform_index(400);
    // Every third update is logical-only; a real one carries its tensor.
    if (i % 3 != 1) u.tensor = tensors[i];
    const double scale =
        1.0 / (1.0 + static_cast<double>(rng.uniform_index(5)));
    acc.add(u, scale);
    const double eff = static_cast<double>(u.sample_count) * scale;
    divisor += eff;
    if (u.tensor) {
      for (std::size_t j = 0; j < dim; ++j) {
        ref[j] += static_cast<double>(static_cast<float>(eff)) *
                  static_cast<double>((*u.tensor)[j]);
      }
    }
    // Read at a few points so later folds start from a flushed ring.
    if (i == 4 || i == 12) ASSERT_TRUE(acc.result());
  }
  EXPECT_DOUBLE_EQ(acc.total_weight(), divisor);
  const auto got = acc.result();
  ASSERT_TRUE(got);
  for (std::size_t j = 0; j < dim; ++j) {
    const double want = ref[j] / divisor;
    EXPECT_NEAR((*got)[j], want, 1e-5 * (1.0 + std::abs(want))) << j;
  }
}

}  // namespace
}  // namespace lifl::fl
