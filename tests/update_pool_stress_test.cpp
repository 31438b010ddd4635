// Stress test for the UpdatePool fast-path delivery: a 100k-push workload
// with mixed synchronous pops, async waiters and depth watchers must
// produce *exactly* the delivery order of the seed implementation (which
// scheduled one discrete zero-delay event per delivery and one per watcher
// wake-up).

#include <gtest/gtest.h>

#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "src/dataplane/update_pool.hpp"
#include "src/sim/random.hpp"
#include "src/sim/simulator.hpp"

namespace lifl::dp {
namespace {

/// The seed UpdatePool, verbatim but for the element type: every delivery and watcher wake-up is its
/// own schedule_after(0.0) event, watchers fire one event each.
class ReferencePool {
 public:
  using Waiter = std::function<void(fl::UpdateDesc)>;

  explicit ReferencePool(sim::Simulator& sim) : sim_(sim) {}

  void push(fl::UpdateDesc u) {
    if (!waiters_.empty()) {
      Waiter w = std::move(waiters_.front());
      waiters_.pop_front();
      sim_.schedule_after(0.0, [w = std::move(w), u = std::move(u)]() mutable {
        w(std::move(u));
      });
      return;
    }
    entries_.push_back(std::move(u));
    for (std::size_t i = 0; i < depth_watchers_.size();) {
      if (entries_.size() >= depth_watchers_[i].first) {
        sim_.schedule_after(0.0, std::move(depth_watchers_[i].second));
        depth_watchers_.erase(depth_watchers_.begin() +
                              static_cast<std::ptrdiff_t>(i));
      } else {
        ++i;
      }
    }
  }

  bool try_pop(fl::UpdateDesc& out) {
    if (entries_.empty()) return false;
    out = std::move(entries_.front());
    entries_.pop_front();
    return true;
  }

  void pop_async(Waiter w) {
    if (!entries_.empty()) {
      fl::UpdateDesc u = std::move(entries_.front());
      entries_.pop_front();
      sim_.schedule_after(0.0, [w = std::move(w), u = std::move(u)]() mutable {
        w(std::move(u));
      });
      return;
    }
    waiters_.push_back(std::move(w));
  }

  void when_depth(std::size_t n, std::function<void()> fn) {
    if (entries_.size() >= n) {
      sim_.schedule_after(0.0, std::move(fn));
      return;
    }
    depth_watchers_.emplace_back(n, std::move(fn));
  }

  std::size_t depth() const noexcept { return entries_.size(); }

 private:
  sim::Simulator& sim_;
  std::deque<fl::UpdateDesc> entries_;
  std::deque<Waiter> waiters_;
  std::vector<std::pair<std::size_t, std::function<void()>>> depth_watchers_;
};

fl::UpdateDesc update(fl::ParticipantId producer) {
  fl::UpdateDesc u;
  u.model_version = 1;
  u.producer = producer;
  u.sample_count = 1;
  u.logical_bytes = 1000;
  return u;
}

/// Drives an identical randomized operation schedule against a pool and
/// records every observable delivery in order.
template <typename Pool>
std::vector<std::string> drive(std::size_t pushes, std::uint64_t seed) {
  sim::Simulator sim;
  Pool pool(sim);
  sim::Rng rng(seed);
  std::vector<std::string> log;

  fl::ParticipantId next_producer = 1;
  int watcher_id = 0;
  double t = 0.0;
  for (std::size_t i = 0; i < pushes; ++i) {
    // Operations land at weakly increasing times with frequent same-instant
    // clusters, the regime the fast-path ring serves.
    if (rng.uniform() < 0.3) t += rng.uniform(0.0, 0.01);
    const double op = rng.uniform();
    if (op < 0.55) {
      sim.schedule_at(t, [&pool, id = next_producer++] {
        pool.push(update(id));
      });
    } else if (op < 0.75) {
      sim.schedule_at(t, [&pool, &log] {
        pool.pop_async([&log](fl::UpdateDesc u) {
          log.push_back("waiter:" + std::to_string(u.producer));
        });
      });
    } else if (op < 0.85) {
      sim.schedule_at(t, [&pool, &log] {
        fl::UpdateDesc u;
        if (pool.try_pop(u)) {
          log.push_back("pop:" + std::to_string(u.producer));
        }
      });
    } else {
      const std::size_t depth = 1 + rng.uniform_index(4);
      sim.schedule_at(t, [&pool, &log, depth, id = watcher_id++] {
        pool.when_depth(depth, [&log, id] {
          log.push_back("watch:" + std::to_string(id));
        });
      });
    }
  }
  sim.run();
  // Drain what is left so the buffered tail is compared too.
  fl::UpdateDesc u;
  while (pool.try_pop(u)) log.push_back("drain:" + std::to_string(u.producer));
  return log;
}

TEST(UpdatePoolStress, HundredThousandPushesMatchSeedDeliveryOrder) {
  const std::size_t kOps = 100'000;
  const auto reference = drive<ReferencePool>(kOps, 99);
  const auto fast = drive<UpdatePool>(kOps, 99);
  ASSERT_EQ(reference.size(), fast.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    ASSERT_EQ(reference[i], fast[i]) << "first divergence at index " << i;
  }
}

TEST(UpdatePoolStress, SeveralSeedsStayEquivalent) {
  for (const std::uint64_t seed : {1ull, 7ull, 1234ull}) {
    EXPECT_EQ(drive<ReferencePool>(20'000, seed),
              drive<UpdatePool>(20'000, seed))
        << "seed " << seed;
  }
}

TEST(UpdatePoolStress, BatchedWatchersFireInRegistrationOrder) {
  sim::Simulator sim;
  UpdatePool pool(sim);
  std::vector<int> fired;
  // Watchers registered out of depth order; each becomes due as the pool
  // deepens and must fire in registration order within a wake-up batch.
  pool.when_depth(3, [&] { fired.push_back(3); });
  pool.when_depth(1, [&] { fired.push_back(1); });
  pool.when_depth(2, [&] { fired.push_back(2); });
  pool.push(update(1));
  pool.push(update(2));
  pool.push(update(3));
  sim.run();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

}  // namespace
}  // namespace lifl::dp
