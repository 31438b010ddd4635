// Unit tests for the node update pool (dp::UpdatePool, the §4.2 in-place
// queue) and the allocation-free containers under it (ring FIFO, count
// map).

#include <gtest/gtest.h>

#include <memory>
#include <unordered_map>

#include "src/dataplane/update_pool.hpp"
#include "src/shm/object_store.hpp"
#include "src/sim/count_map.hpp"
#include "src/sim/fifo.hpp"
#include "src/sim/random.hpp"

namespace lifl {
namespace {

// ---------------------------------------------------------------- pool

fl::ModelUpdate update_of(std::uint32_t version) {
  fl::ModelUpdate u;
  u.model_version = version;
  u.logical_bytes = 128;
  u.sample_count = 1;
  return u;
}

TEST(UpdatePool, FifoOrder) {
  sim::Simulator sim;
  dp::UpdatePool pool(sim);
  pool.push(update_of(1));
  pool.push(update_of(2));
  fl::ModelUpdate u;
  ASSERT_TRUE(pool.try_pop(u));
  EXPECT_EQ(u.model_version, 1u);
  ASSERT_TRUE(pool.try_pop(u));
  EXPECT_EQ(u.model_version, 2u);
  EXPECT_FALSE(pool.try_pop(u));
}

TEST(UpdatePool, AsyncPopFiresOnPush) {
  sim::Simulator sim;
  dp::UpdatePool pool(sim);
  std::uint32_t got = 0;
  pool.pop_async([&](fl::ModelUpdate u) { got = u.model_version; });
  pool.push(update_of(9));
  sim.run();
  EXPECT_EQ(got, 9u);
}

TEST(UpdatePool, MultipleWaitersMultiplePushes) {
  sim::Simulator sim;
  dp::UpdatePool pool(sim);
  std::vector<std::uint32_t> got;
  for (int i = 0; i < 3; ++i) {
    pool.pop_async([&](fl::ModelUpdate u) { got.push_back(u.model_version); });
  }
  for (std::uint32_t v = 1; v <= 3; ++v) pool.push(update_of(v));
  sim.run();
  EXPECT_EQ(got, (std::vector<std::uint32_t>{1, 2, 3}));
}

TEST(UpdatePool, ClearWaitersDropsPending) {
  sim::Simulator sim;
  dp::UpdatePool pool(sim);
  bool fired = false;
  pool.pop_async([&](fl::ModelUpdate) { fired = true; });
  pool.clear_waiters();
  pool.push(update_of(1));
  sim.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(pool.depth(), 1u);
}

TEST(UpdatePool, StatsTrackDepthAndDelay) {
  sim::Simulator sim;
  dp::UpdatePool pool(sim);
  pool.push(update_of(1));
  pool.push(update_of(2));
  sim.run_until(3.0);
  fl::ModelUpdate u;
  pool.try_pop(u);
  pool.try_pop(u);
  EXPECT_EQ(pool.max_depth(), 2u);
  EXPECT_EQ(pool.total_pushed(), 2u);
  EXPECT_DOUBLE_EQ(pool.total_queueing_delay(), 6.0);
}

TEST(UpdatePool, LeaseReleasedWhenUpdateDropped) {
  // An update's shm lease must release its store reference when the last
  // copy of the update disappears (RAII recycle).
  sim::Simulator sim;
  dp::UpdatePool pool(sim);
  shm::ObjectStore store{sim::Rng(42)};
  {
    fl::ModelUpdate u = update_of(1);
    u.lease = store.put_leased<int>(nullptr, 64);
    fl::ModelUpdate copy = u;  // copies share the one store reference
    pool.push(std::move(u));
    EXPECT_EQ(store.size(), 1u);
    fl::ModelUpdate out;
    pool.try_pop(out);
    // `out` and `copy` still hold the lease here.
    EXPECT_EQ(store.size(), 1u);
    out = fl::ModelUpdate{};
    EXPECT_EQ(store.size(), 1u);
  }
  // All copies gone => object released.
  EXPECT_EQ(store.size(), 0u);
}


TEST(Fifo, KeepsOrderAcrossWrapAndGrowth) {
  sim::Fifo<std::unique_ptr<int>> q;
  int next_in = 0, next_out = 0;
  // Interleave pushes and pops so the ring wraps before each growth.
  for (int round = 0; round < 6; ++round) {
    for (int i = 0; i < 5 + 7 * round; ++i) {
      q.push_back(std::make_unique<int>(next_in++));
    }
    for (int i = 0; i < 3 + 5 * round; ++i) {
      ASSERT_EQ(*q.front(), next_out++);
      q.pop_front();
    }
    for (std::size_t i = 0; i < q.size(); ++i) {
      EXPECT_EQ(*q[i], next_out + static_cast<int>(i));
    }
  }
  q.clear();
  EXPECT_TRUE(q.empty());
}

TEST(CountMap, MatchesAReferenceMapUnderChurn) {
  sim::CountMap m;
  std::unordered_map<std::uint64_t, std::uint32_t> ref;
  sim::Rng rng(17);
  for (int i = 0; i < 20'000; ++i) {
    // A small key range keeps probe runs long, so erases shift entries.
    const std::uint64_t key = rng.uniform_index(300) * 1'000'003;
    if (rng.uniform() < 0.55) {
      EXPECT_EQ(m.increment(key), ++ref[key]);
    } else {
      m.decrement(key);
      auto it = ref.find(key);
      if (it != ref.end() && --it->second == 0) ref.erase(it);
    }
    if (i % 97 == 0) {
      for (std::uint64_t k = 0; k < 300; ++k) {
        const auto it = ref.find(k * 1'000'003);
        ASSERT_EQ(m.get(k * 1'000'003), it == ref.end() ? 0u : it->second);
      }
    }
  }
  EXPECT_EQ(m.empty(), ref.empty());
}

}  // namespace
}  // namespace lifl
