// Tests for the pooled zero-copy tensor allocator: recycle stats, handle
// lifetimes, and the acceptance property of the kernels refactor —
// steady-state FedAvg rounds perform ZERO tensor heap allocations.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/fl/fedavg.hpp"
#include "src/ml/tensor.hpp"
#include "src/ml/tensor_pool.hpp"
#include "src/sim/random.hpp"

namespace lifl::ml {
namespace {

TEST(TensorPool, FirstAcquireMissesThenRecyclesAndHits) {
  TensorPool pool;
  auto t = pool.acquire(128);
  ASSERT_TRUE(t);
  EXPECT_EQ(t->size(), 128u);
  auto s = pool.stats();
  EXPECT_EQ(s.acquires, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.pool_hits, 0u);

  (*t)[0] = 42.0f;
  t.reset();  // recycles the whole tensor
  s = pool.stats();
  EXPECT_EQ(s.recycles, 1u);
  EXPECT_EQ(s.buffers_pooled, 1u);
  EXPECT_EQ(s.bytes_pooled, 128 * sizeof(float));

  auto t2 = pool.acquire(128);
  s = pool.stats();
  EXPECT_EQ(s.pool_hits, 1u);
  EXPECT_EQ(s.buffers_pooled, 0u);
  // acquire() contents are unspecified — recycled buffers keep old values.
  EXPECT_FLOAT_EQ((*t2)[0], 42.0f);

  auto tz = pool.acquire_zeroed(128);
  EXPECT_FLOAT_EQ((*tz)[0], 0.0f);
}

TEST(TensorPool, ExactSizeBucketsDoNotCrossMatch) {
  TensorPool pool;
  pool.acquire(64).reset();
  auto t = pool.acquire(65);
  auto s = pool.stats();
  EXPECT_EQ(s.pool_hits, 0u);
  EXPECT_EQ(s.misses, 2u);
  EXPECT_EQ(s.buffers_pooled, 1u);  // the 64-buffer still parked
}

TEST(TensorPool, CapacityOverflowDropsInsteadOfPooling) {
  TensorPool pool(/*capacity_bytes=*/256 * sizeof(float));
  pool.acquire(256).reset();  // fills the pool exactly
  pool.acquire(128).reset();  // would overflow: freed, not parked
  auto s = pool.stats();
  EXPECT_EQ(s.recycles, 1u);
  EXPECT_EQ(s.dropped, 1u);
  EXPECT_EQ(s.bytes_pooled, 256 * sizeof(float));
}

TEST(TensorPool, HandleMayOutlivePool) {
  std::shared_ptr<Tensor> survivor;
  {
    TensorPool pool;
    survivor = pool.acquire(32);
    (*survivor)[5] = 7.0f;
  }
  EXPECT_FLOAT_EQ((*survivor)[5], 7.0f);
  survivor.reset();  // parks into the (still-alive) shared core, then frees
}

TEST(TensorPool, AdoptRecyclesExternalBuffers) {
  TensorPool pool;
  Tensor t(100, 1.5f);
  auto h = pool.adopt(std::move(t));
  EXPECT_FLOAT_EQ((*h)[99], 1.5f);
  h.reset();
  auto s = pool.stats();
  EXPECT_EQ(s.adopted, 1u);
  EXPECT_EQ(s.recycles, 1u);
  auto reused = pool.acquire(100);
  EXPECT_EQ(pool.stats().pool_hits, 1u);
}

TEST(TensorPool, TrimFreesParkedBuffers) {
  TensorPool pool;
  pool.acquire(64).reset();
  EXPECT_EQ(pool.stats().buffers_pooled, 1u);
  pool.trim();
  EXPECT_EQ(pool.stats().buffers_pooled, 0u);
  EXPECT_EQ(pool.stats().bytes_pooled, 0u);
}

TEST(TensorPool, LiveBytesCountHandlesUntilTheyReturn) {
  TensorPool pool(/*capacity_bytes=*/128 * sizeof(float));
  auto a = pool.acquire(100);
  auto b = pool.adopt(Tensor(50, 1.0f));
  auto s = pool.stats();
  EXPECT_EQ(s.live_bytes, 150 * sizeof(float));
  EXPECT_EQ(s.peak_live_bytes, 150 * sizeof(float));
  a.reset();  // parked
  EXPECT_EQ(pool.stats().live_bytes, 50 * sizeof(float));
  // The peak survives the return; a reset rebases it to what is out now.
  EXPECT_EQ(pool.stats().peak_live_bytes, 150 * sizeof(float));
  pool.reset_stats();
  s = pool.stats();
  EXPECT_EQ(s.live_bytes, 50 * sizeof(float));
  EXPECT_EQ(s.peak_live_bytes, 50 * sizeof(float));
  EXPECT_EQ(s.bytes_pooled, 100 * sizeof(float));
  // A handle returns what it counted out, even if its tensor was replaced
  // meanwhile, and a return the full pool drops still ends the count.
  *b = Tensor(90, 2.0f);
  b.reset();
  s = pool.stats();
  EXPECT_EQ(s.dropped, 1u);
  EXPECT_EQ(s.live_bytes, 0u);
  EXPECT_EQ(s.peak_live_bytes, 50 * sizeof(float));
}

// ---- The acceptance property: steady-state rounds are zero-alloc.
//
// Round 1 populates the pool (misses are expected); every later round's
// fold path — accumulator sum, finalized average, every per-client update
// tensor — must be served entirely from the recycle pool.
TEST(TensorPool, SteadyStateFedAvgRoundsAreZeroAlloc) {
  auto& pool = TensorPool::global();
  constexpr std::size_t kDim = 4096;
  constexpr int kClients = 8;
  constexpr int kRounds = 6;
  sim::Rng rng(99);

  for (int round = 0; round < kRounds; ++round) {
    const TensorPoolStats before = pool.stats();
    fl::FedAvgAccumulator acc;
    {
      // Client updates come from the pool too (as local_train's do).
      std::vector<std::shared_ptr<Tensor>> updates;
      for (int c = 0; c < kClients; ++c) {
        auto u = pool.acquire(kDim);
        (*u)[0] = static_cast<float>(rng.normal(0.0, 1.0));
        updates.push_back(std::move(u));
      }
      for (const auto& u : updates) acc.add(u, 600);
    }
    // Finalize, hand the aggregate out, then drop everything (end of round).
    auto global = acc.result();
    ASSERT_TRUE(global);
    acc.reset();
    global.reset();

    const TensorPoolStats after = pool.stats();
    if (round >= 1) {
      EXPECT_EQ(after.misses, before.misses)
          << "round " << round << " heap-allocated a tensor on the fold path";
      EXPECT_GE(after.pool_hits - before.pool_hits,
                static_cast<std::uint64_t>(kClients))
          << "round " << round;
    }
  }
}

}  // namespace
}  // namespace lifl::ml
