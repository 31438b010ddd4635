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

fl::UpdateDesc update_of(std::uint32_t version) {
  fl::UpdateDesc u;
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
  fl::UpdateDesc u;
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
  pool.pop_async([&](fl::UpdateDesc u) { got = u.model_version; });
  pool.push(update_of(9));
  sim.run();
  EXPECT_EQ(got, 9u);
}

TEST(UpdatePool, MultipleWaitersMultiplePushes) {
  sim::Simulator sim;
  dp::UpdatePool pool(sim);
  std::vector<std::uint32_t> got;
  for (int i = 0; i < 3; ++i) {
    pool.pop_async([&](fl::UpdateDesc u) { got.push_back(u.model_version); });
  }
  for (std::uint32_t v = 1; v <= 3; ++v) pool.push(update_of(v));
  sim.run();
  EXPECT_EQ(got, (std::vector<std::uint32_t>{1, 2, 3}));
}

TEST(UpdatePool, ClearWaitersDropsPending) {
  sim::Simulator sim;
  dp::UpdatePool pool(sim);
  bool fired = false;
  pool.pop_async([&](fl::UpdateDesc) { fired = true; });
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
  fl::UpdateDesc u;
  pool.try_pop(u);
  pool.try_pop(u);
  EXPECT_EQ(pool.max_depth(), 2u);
  EXPECT_EQ(pool.total_pushed(), 2u);
  EXPECT_DOUBLE_EQ(pool.total_queueing_delay(), 6.0);
}

TEST(UpdatePool, LeaseAckReleasesTheAckedCopiesOnly) {
  // Lease copies hold one store reference each: an ack releases the acked
  // copies (oldest first) through the caller, an abort hands the rest back
  // with their references.
  sim::Simulator sim;
  dp::UpdatePool pool(sim);
  shm::ObjectStore store{sim::Rng(42)};
  std::vector<shm::ObjectRef> refs;
  for (std::uint32_t v = 1; v <= 3; ++v) {
    refs.push_back(store.put_ref<int>(nullptr, 64));
    fl::UpdateDesc d = update_of(v);
    d.payload = refs.back().slot + 1;
    pool.lease_retain(9, d);
  }
  std::vector<std::uint32_t> acked;
  pool.lease_ack(9, /*keep_newest=*/1, [&](const fl::UpdateDesc& d) {
    acked.push_back(d.model_version);
    store.release(refs[d.model_version - 1]);
  });
  EXPECT_EQ(acked, (std::vector<std::uint32_t>{1, 2}));
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(pool.leases(), 1u);
  const std::vector<fl::UpdateDesc> back = pool.lease_abort(9);
  ASSERT_EQ(back.size(), 1u);
  EXPECT_EQ(back[0].model_version, 3u);
  EXPECT_EQ(pool.leases(), 0u);
  store.release(refs[2]);
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
