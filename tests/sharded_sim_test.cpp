// Sharded simulator core: the barrier-free horizon protocol, cross-shard
// mailbox ordering, and the shard-count equivalence of a group-partitioned
// campaign.

#include <gtest/gtest.h>
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <functional>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/sim/calibration.hpp"
#include "src/sim/random.hpp"
#include "src/sim/sharded_simulator.hpp"
#include "src/sim/simulator.hpp"
#include "src/sim/thread_placement.hpp"
#include "src/systems/sharded_campaign.hpp"
#include "tests/campaign_result.hpp"

namespace {

using lifl::sim::ShardedSimulator;
using lifl::sim::SimTime;
using lifl::sim::Simulator;

// ---------------------------------------------------------------------------
// Plain-simulator window primitives used by the sharded protocol.

TEST(SimWindow, RunWindowIsStrict) {
  Simulator sim;
  std::vector<double> fired;
  for (const double t : {1.0, 2.0, 3.0, 4.0}) {
    sim.schedule_at(t, [&fired, t] { fired.push_back(t); });
  }
  EXPECT_EQ(sim.run_window(3.0), 2u);  // t=1, t=2; t=3 is NOT below 3.0
  EXPECT_EQ(fired, (std::vector<double>{1.0, 2.0}));
  EXPECT_EQ(sim.now(), 2.0);  // clock stays at the last dispatched event
  EXPECT_EQ(sim.run_window(4.5), 2u);
  EXPECT_EQ(fired, (std::vector<double>{1.0, 2.0, 3.0, 4.0}));
}

// The slice forms the sharded core runs: the same prefix, cut after a
// dispatch budget.
TEST(SimWindow, EventBudgetsCutRunsIntoSlices) {
  Simulator sim;
  std::vector<double> fired;
  for (const double t : {1.0, 2.0, 3.0, 4.0, 5.0}) {
    sim.schedule_at(t, [&fired, t] { fired.push_back(t); });
  }
  sim.schedule_daemon_at(6.0, [&fired] { fired.push_back(6.0); });
  EXPECT_EQ(sim.run_window(4.5, 2), 2u);
  EXPECT_EQ(sim.now(), 2.0);
  EXPECT_EQ(sim.run_window(4.5, 2), 2u);
  EXPECT_EQ(sim.run_window(4.5, 2), 0u);  // t=5 is not below 4.5
  // The last regular event runs; the daemon stays.
  EXPECT_EQ(sim.run(4), 1u);
  EXPECT_EQ(fired, (std::vector<double>{1.0, 2.0, 3.0, 4.0, 5.0}));
  EXPECT_EQ(sim.pending(), 1u);
}

TEST(SimWindow, RunWindowIncludesSameInstantChains) {
  Simulator sim;
  int ring_fired = 0;
  sim.schedule_at(1.0, [&] {
    // Zero-delay chain at t=1 must complete within a window ending at 2.
    sim.schedule_now([&] {
      ++ring_fired;
      sim.schedule_now([&] { ++ring_fired; });
    });
  });
  sim.schedule_at(5.0, [] {});
  sim.run_window(2.0);
  EXPECT_EQ(ring_fired, 2);
  EXPECT_EQ(sim.pending_regular(), 1u);  // the t=5 event
}

TEST(SimWindow, NextEventTimeFindsCalendarFront) {
  Simulator sim;
  EXPECT_TRUE(std::isinf(sim.next_event_time()));
  // Enough events to trigger a calendar build, then drain most of them.
  lifl::sim::Rng rng(5);
  for (int i = 0; i < 5000; ++i) {
    sim.schedule_at(rng.uniform(10.0, 100.0), [] {});
  }
  sim.schedule_at(7.25, [] {});
  EXPECT_EQ(sim.next_event_time(), 7.25);
  sim.run_window(50.0);
  const SimTime next = sim.next_event_time();
  EXPECT_GE(next, 50.0);
  EXPECT_LT(next, 100.0);
  sim.run();
  EXPECT_TRUE(std::isinf(sim.next_event_time()));
}

// ---------------------------------------------------------------------------
// Sharded runtime.

TEST(ShardedSim, SingleShardMatchesPlainSimulator) {
  // The degenerate mode must be the plain core, bit for bit: same event
  // count, same final clock, same dispatch order.
  std::vector<int> plain_order;
  Simulator plain;
  ShardedSimulator sharded(ShardedSimulator::Config{1, 1e-3});
  std::vector<int> sharded_order;

  lifl::sim::Rng rng1(9);
  lifl::sim::Rng rng2(9);
  for (int i = 0; i < 1000; ++i) {
    const double t = rng1.uniform(0.0, 10.0);
    plain.schedule_at(t, [&plain_order, i] { plain_order.push_back(i); });
  }
  for (int i = 0; i < 1000; ++i) {
    const double t = rng2.uniform(0.0, 10.0);
    sharded.shard(0).schedule_at(
        t, [&sharded_order, i] { sharded_order.push_back(i); });
  }
  plain.run();
  sharded.run();
  EXPECT_EQ(plain_order, sharded_order);
  EXPECT_EQ(plain.now(), sharded.shard(0).now());
  EXPECT_EQ(plain.dispatched(), sharded.dispatched());
  EXPECT_EQ(sharded.windows(), 0u);  // no barriers in single-shard mode
}

TEST(ShardedSim, CrossShardPostDeliversAtPostedTime) {
  ShardedSimulator sharded(ShardedSimulator::Config{2, 0.5});
  std::vector<double> delivered_at;
  sharded.shard(1).schedule_at(1.0, [&] {
    sharded.post(1, 0, 1, 2.0, [&] {
      delivered_at.push_back(sharded.shard(0).now());
    });
  });
  // Keep shard 0 alive past the delivery.
  sharded.shard(0).schedule_at(3.0, [] {});
  sharded.run();
  ASSERT_EQ(delivered_at.size(), 1u);
  EXPECT_EQ(delivered_at[0], 2.0);
  EXPECT_EQ(sharded.cross_posts(), 1u);
}

TEST(ShardedSim, PostClampsToLookahead) {
  ShardedSimulator sharded(ShardedSimulator::Config{2, 0.5});
  double delivered_at = -1.0;
  sharded.shard(1).schedule_at(1.0, [&] {
    // Posted "now": must be pushed out to now + lookahead.
    sharded.post(1, 0, 1, 1.0, [&] { delivered_at = sharded.shard(0).now(); });
  });
  sharded.shard(0).schedule_at(9.0, [] {});
  sharded.run();
  EXPECT_EQ(delivered_at, 1.5);
}

TEST(ShardedSim, CoordinatorPostIntoReceiversPastIsRejected) {
  // Between runs the shards' clocks differ: shard 0 stopped at t=1, shard 1
  // at t=5. A coordinator-side post from shard 0 clears the sender clamp
  // (1 + lookahead) but lands in shard 1's past; it must be rejected at
  // the call, naming both clocks, not surface later as a window-protocol
  // failure.
  ShardedSimulator sharded(ShardedSimulator::Config{2, 0.5});
  sharded.shard(0).schedule_at(1.0, [] {});
  sharded.shard(1).schedule_at(5.0, [] {});
  sharded.run();
  ASSERT_EQ(sharded.shard(0).now(), 1.0);
  ASSERT_EQ(sharded.shard(1).now(), 5.0);

  bool delivered = false;
  try {
    sharded.post(0, 1, 0, 1.5, [&] { delivered = true; });
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("5.000000"), std::string::npos) << what;
    EXPECT_NE(what.find("1.000000"), std::string::npos) << what;
  }
  // Exactly at the receiver's clock is its past too (it already ran t=5).
  EXPECT_THROW(sharded.post(0, 1, 0, 5.0, [] {}), std::invalid_argument);
  EXPECT_EQ(sharded.cross_posts(), 0u);

  // A post beyond the receiver's clock is accepted and delivered on time.
  double delivered_at = -1.0;
  sharded.post(0, 1, 0, 6.0, [&] { delivered_at = sharded.shard(1).now(); });
  sharded.run();
  EXPECT_FALSE(delivered);
  EXPECT_EQ(delivered_at, 6.0);
}

TEST(ShardedSim, CallbackExceptionPropagatesFromThreadedRun) {
  // A model error on a worker shard must surface as an exception on the
  // caller, exactly like 1-shard mode — not std::terminate.
  ShardedSimulator sharded(ShardedSimulator::Config{2, 0.5});
  sharded.shard(1).schedule_at(1.0, [] {
    throw std::runtime_error("model callback failed");
  });
  sharded.shard(0).schedule_at(2.0, [] {});
  EXPECT_THROW(sharded.run(), std::runtime_error);
}

// The mailbox ordering property: cross-shard events must be delivered in
// timestamp order across window boundaries, with ties broken by (lane,
// post order) — never by thread timing.
TEST(ShardedSim, MailboxDeliversInTimestampOrderAcrossWindows) {
  const std::size_t kShards = 3;
  const double kLookahead = 0.01;
  ShardedSimulator sharded(
      ShardedSimulator::Config{kShards, kLookahead});

  struct Delivery {
    double t;        ///< receiver clock at delivery
    double posted;   ///< timestamp the sender requested
    int src;
  };
  std::vector<Delivery> log;

  // Shards 1..2 run busy event chains that post to shard 0 at
  // pseudo-random future offsets, spanning many windows. The chains are
  // owned here (raw captures into the closures) so no shared_ptr cycle
  // survives the run.
  const int kPostsPerShard = 500;
  std::vector<std::shared_ptr<std::function<void(int)>>> chains;
  std::vector<std::shared_ptr<lifl::sim::Rng>> rngs;
  for (std::size_t s = 1; s < kShards; ++s) {
    rngs.push_back(std::make_shared<lifl::sim::Rng>(100 + s));
    chains.push_back(std::make_shared<std::function<void(int)>>());
    lifl::sim::Rng* rng = rngs.back().get();
    std::function<void(int)>* chain = chains.back().get();
    *chain = [&sharded, &log, rng, chain, s, kLookahead](int remaining) {
      if (remaining == 0) return;
      const double offset = kLookahead + rng->uniform(0.0, 0.2);
      const double t = sharded.shard(s).now() + offset;
      sharded.post(s, 0, static_cast<std::uint32_t>(s), t,
                   [&sharded, &log, t, s] {
                     log.push_back(Delivery{sharded.shard(0).now(), t,
                                            static_cast<int>(s)});
                   });
      sharded.shard(s).schedule_after(rng->uniform(0.001, 0.05),
                                      [chain, remaining] {
                                        (*chain)(remaining - 1);
                                      });
    };
    sharded.shard(s).schedule_now([chain] { (*chain)(kPostsPerShard); });
  }
  // Shard 0 idles on a long horizon so it is alive for every delivery.
  sharded.shard(0).schedule_at(1000.0, [] {});
  sharded.run();

  ASSERT_EQ(log.size(), (kShards - 1) * kPostsPerShard);
  for (std::size_t i = 0; i < log.size(); ++i) {
    // Delivered exactly at the requested timestamp...
    EXPECT_EQ(log[i].t, log[i].posted);
    // ...and in nondecreasing timestamp order.
    if (i > 0) {
      EXPECT_GE(log[i].t, log[i - 1].t);
    }
  }
  EXPECT_GT(sharded.windows(), 10u);
}

// ---------------------------------------------------------------------------
// Adversarial churn stress: ~50k events across 8 logical groups whose
// cross-posts land exactly on window-boundary grid points, exactly at the
// conservative horizon (now + lookahead), and one tick past it — the three
// places a window-protocol bug would first corrupt delivery order. Every
// shard count must reproduce the 1-shard oracle's per-group delivery log
// bitwise.

struct ChurnStep {
  double at;        ///< group-local event time
  int dst;          ///< target group (-1 = no post)
  double delivery;  ///< posted delivery time when dst >= 0
};

constexpr double kChurnLookahead = 0.01;
constexpr std::size_t kChurnGroups = 8;

std::vector<std::vector<ChurnStep>> churn_plans(std::uint64_t seed = 1000,
                                                int steps = 4500) {
  std::vector<std::vector<ChurnStep>> plans(kChurnGroups);
  // Same-instant deliveries to one group from different sources are
  // tie-broken by (lane, the lane's post order), and each group posts in
  // its own lane, so colliding deliveries are part of the schedule: their
  // order must not depend on the group->shard mapping either.
  for (std::size_t g = 0; g < kChurnGroups; ++g) {
    lifl::sim::Rng rng(seed + g);
    double t = rng.uniform(0.0, 0.02);
    for (int i = 0; i < steps; ++i) {
      // Dense bursts on a lookahead-aligned grid, with occasional idle
      // troughs spanning many windows.
      const double u = rng.uniform(0.0, 1.0);
      if (u < 0.5) {
        t += kChurnLookahead *
             static_cast<double>(1 + static_cast<int>(rng.uniform(0.0, 3.0)));
      } else if (u < 0.95) {
        t += rng.uniform(0.0005, 0.03);
      } else {
        t += rng.uniform(0.5, 2.0);
      }
      ChurnStep st{t, -1, 0.0};
      if (rng.uniform(0.0, 1.0) < 0.5) {
        st.dst = static_cast<int>(
            (g + 1 + static_cast<std::size_t>(rng.uniform(
                         0.0, static_cast<double>(kChurnGroups - 1)))) %
            kChurnGroups);
        const double v = rng.uniform(0.0, 1.0);
        const double floor_t = t + kChurnLookahead;
        if (v < 0.4) {
          // Exactly on a window-boundary grid point at/after the clamp.
          st.delivery = kChurnLookahead *
                        std::ceil(floor_t / kChurnLookahead);
        } else if (v < 0.7) {
          st.delivery = floor_t;  // exactly at the conservative horizon
        } else if (v < 0.9) {
          st.delivery = floor_t + kChurnLookahead * 1e-9;  // one tick inside
        } else {
          st.delivery = floor_t + rng.uniform(0.0, 5.0 * kChurnLookahead);
        }
      }
      plans[g].push_back(st);
    }
  }
  return plans;
}

struct ChurnDelivery {
  double t;
  int id;
  bool operator==(const ChurnDelivery& o) const {
    return t == o.t && id == o.id;
  }
};

/// Optional wall-clock stalls inside the churn callbacks: a pure function
/// of (group, step) decides whether an event spins or sleeps before it
/// acts, so shard threads fall behind and catch up at random points while
/// the simulated schedule stays the same.
struct ChurnStalls {
  std::uint64_t seed = 0;  ///< 0 = no stalls
  void operator()(std::size_t g, std::size_t i) const {
    if (seed == 0) return;
    std::uint64_t h = (seed ^ (g * 0x9E3779B97F4A7C15ull)) + i;
    h = (h ^ (h >> 31)) * 0xBF58476D1CE4E5B9ull;
    h ^= h >> 29;
    if (h % 997 == 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(50 + h % 200));
    } else if (h % 61 == 0) {
      volatile std::uint64_t sink = 0;
      for (std::uint64_t k = 0; k < 2000 + h % 8000; ++k) sink = sink + k;
    }
  }
};

/// One full run of the churn model on `shards` shards (groups dealt round
/// robin). Returns per-group delivery logs; each group's log is written
/// only by its owning shard's thread, in that shard's deterministic
/// execution order.
std::vector<std::vector<ChurnDelivery>> churn_run(
    const std::vector<std::vector<ChurnStep>>& plans, std::size_t shards,
    std::uint64_t* dispatched, ChurnStalls stall = {}) {
  ShardedSimulator::Config cfg;
  cfg.shards = shards;
  cfg.lookahead = kChurnLookahead;
  ShardedSimulator sharded(cfg);
  std::vector<std::vector<ChurnDelivery>> logs(kChurnGroups);
  const auto shard_of = [shards](std::size_t g) { return g % shards; };
  for (std::size_t g = 0; g < kChurnGroups; ++g) {
    const std::size_t s = shard_of(g);
    for (std::size_t i = 0; i < plans[g].size(); ++i) {
      const ChurnStep& st = plans[g][i];
      sharded.shard(s).schedule_at(st.at, [&sharded, &logs, &st, &shard_of,
                                           stall, s, g, i] {
        stall(g, i);
        if (st.dst >= 0) {
          const std::size_t dg = static_cast<std::size_t>(st.dst);
          const int id = static_cast<int>(g * 10000 + i);
          sharded.post(s, shard_of(dg), static_cast<std::uint32_t>(g),
                       st.delivery, [&sharded, &logs, &shard_of, dg, id] {
                         logs[dg].push_back(ChurnDelivery{
                             sharded.shard(shard_of(dg)).now(), id});
                       });
        }
      });
    }
  }
  sharded.run();
  *dispatched = sharded.dispatched();
  return logs;
}

TEST(ShardedSim, AdversarialChurnMatchesOneShardOracle) {
  std::size_t multi = 2;
  if (const char* env = std::getenv("LIFL_TEST_SHARDS")) {
    multi = std::max<std::size_t>(2, std::strtoul(env, nullptr, 10));
  }
  const auto plans = churn_plans();
  std::uint64_t oracle_events = 0;
  const auto oracle = churn_run(plans, 1, &oracle_events);
  EXPECT_GE(oracle_events, 50'000u);

  const auto expect_match = [&oracle](
                                const std::vector<std::vector<ChurnDelivery>>&
                                    got,
                                const std::string& what) {
    for (std::size_t g = 0; g < kChurnGroups; ++g) {
      ASSERT_EQ(got[g].size(), oracle[g].size()) << what << " group " << g;
      for (std::size_t i = 0; i < got[g].size(); ++i) {
        EXPECT_TRUE(got[g][i] == oracle[g][i])
            << what << " group " << g << " delivery " << i;
        EXPECT_GE(got[g][i].t, i > 0 ? got[g][i - 1].t : 0.0)
            << what << " group " << g << " delivery " << i;
      }
    }
  };

  for (const std::size_t shards : {std::size_t{2}, multi}) {
    std::uint64_t events = 0;
    expect_match(churn_run(plans, shards, &events),
                 "K=" + std::to_string(shards));
    EXPECT_EQ(events, oracle_events);
  }
}

// Free-running shards under adversarial thread timing: the callbacks of
// the churn model spin or sleep at random (but schedule-independent)
// points, so shard threads run far ahead of each other, block on their
// horizons and wake at arbitrary moments. Twenty seeds at K = 2, 3 and 4
// must reproduce the 1-shard oracle's delivery logs exactly; a horizon
// protocol that drains mail before loading its senders' bounds, or
// publishes a bound before its mail is visible, delivers into a
// receiver's past here (the drain audit throws).
TEST(ShardedSim, FreeRunningShardsMatchOracleUnderRandomStalls) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const auto plans = churn_plans(7000 + 100 * seed, 600);
    std::uint64_t oracle_events = 0;
    const auto oracle = churn_run(plans, 1, &oracle_events);
    for (const std::size_t shards : {2, 3, 4}) {
      const std::string what =
          "seed " + std::to_string(seed) + " K=" + std::to_string(shards);
      std::uint64_t events = 0;
      std::vector<std::vector<ChurnDelivery>> got;
      try {
        got = churn_run(plans, shards, &events, ChurnStalls{seed});
      } catch (const std::exception& e) {
        ADD_FAILURE() << what << ": " << e.what();
        continue;
      }
      EXPECT_EQ(events, oracle_events) << what;
      for (std::size_t g = 0; g < kChurnGroups; ++g) {
        ASSERT_EQ(got[g].size(), oracle[g].size()) << what << " group " << g;
        for (std::size_t i = 0; i < got[g].size(); ++i) {
          EXPECT_TRUE(got[g][i] == oracle[g][i])
              << what << " group " << g << " delivery " << i;
        }
      }
    }
  }
}

// A shard's published bound is a promise to its receivers: a post below it
// means the promise function lied, and the post throws on the caller.
TEST(ShardedSim, PostBelowThePublishedBoundThrows) {
  ShardedSimulator sharded(ShardedSimulator::Config{2, 0.5});
  sharded.shard(0).schedule_at(1.0, [] {});
  sharded.shard(0).schedule_at(20.0, [] {});
  sharded.shard(1).schedule_at(1.0, [] {});
  // Claims "no post before t=10", then posts at 3.5 from its event at 3.
  sharded.shard(1).schedule_at(3.0, [&sharded] {
    sharded.post(1, 0, 1, 3.5, [] {});
  });
  sharded.set_promise(1, [] { return 10.0; });
  try {
    sharded.run();
    FAIL() << "expected std::logic_error";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("published"), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(sharded.cross_posts(), 0u);
}

// A post to a shard the sender did not declare as a receiver would bypass
// that receiver's horizon, so it throws.
TEST(ShardedSim, PostToAnUndeclaredReceiverThrows) {
  ShardedSimulator sharded(ShardedSimulator::Config{3, 0.5});
  sharded.set_receivers(1, {0});
  sharded.shard(1).schedule_at(1.0, [&sharded] {
    sharded.post(1, 2, 1, 2.0, [] {});
  });
  sharded.shard(2).schedule_at(5.0, [] {});
  EXPECT_THROW(sharded.run(), std::logic_error);
  EXPECT_THROW(sharded.set_receivers(1, {1}), std::invalid_argument);
}

// `run_to` stops every shard exactly at the mark: all events below it ran,
// none at or beyond it, whatever the promises let the shards run toward.
constexpr double kNever = std::numeric_limits<double>::infinity();

TEST(ShardedSim, RunToStopsEveryShardExactlyAtTheMark) {
  ShardedSimulator sharded(ShardedSimulator::Config{3, 0.01});
  std::vector<std::vector<double>> ran(3);
  for (std::size_t s = 0; s < 3; ++s) {
    for (int i = 1; i <= 400; ++i) {
      const double t = 0.05 * i + 0.001 * static_cast<double>(s);
      sharded.shard(s).schedule_at(t, [&ran, s, t] { ran[s].push_back(t); });
    }
    // Nobody posts: every shard promises "never", so horizons are open.
    sharded.set_promise(s, [] { return kNever; });
  }
  for (const double mark : {1.0, 4.0, 9.5}) {
    sharded.run_to(mark);
    for (std::size_t s = 0; s < 3; ++s) {
      ASSERT_FALSE(ran[s].empty());
      EXPECT_LT(ran[s].back(), mark) << "shard " << s;
      EXPECT_GE(sharded.shard(s).next_event_time(), mark) << "shard " << s;
    }
  }
  sharded.run();
  for (std::size_t s = 0; s < 3; ++s) EXPECT_EQ(ran[s].size(), 400u);
}

TEST(ShardedSim, ShardThreadsRunOnPairwiseDistinctCpus) {
  constexpr std::size_t kShards = 4;
  if (lifl::sim::allowed_cpu_count() < kShards) {
    GTEST_SKIP() << "needs at least 4 allowed CPUs";
  }
  ShardedSimulator sharded(ShardedSimulator::Config{kShards, 0.01});
  std::vector<int> cpu(kShards, -1);
  std::vector<int> allowed(kShards, -1);  // CPUs in the thread's mask
  for (std::size_t s = 0; s < kShards; ++s) {
    sharded.shard(s).schedule_at(1.0, [&cpu, &allowed, s] {
      cpu[s] = sched_getcpu();
      cpu_set_t set;
      CPU_ZERO(&set);
      if (sched_getaffinity(0, sizeof set, &set) == 0) {
        allowed[s] = CPU_COUNT(&set);
      }
    });
    sharded.set_promise(s, [] { return kNever; });
  }
  sharded.run();
  // Shard 0 runs on this (unpinned) thread; every worker is pinned.
  for (std::size_t s = 1; s < kShards; ++s) {
    EXPECT_EQ(allowed[s], 1) << "shard " << s;
  }
  std::vector<int> sorted = cpu;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_GE(sorted.front(), 0);
  EXPECT_TRUE(std::unique(sorted.begin(), sorted.end()) == sorted.end())
      << cpu[0] << " " << cpu[1] << " " << cpu[2] << " " << cpu[3];
}

// ---------------------------------------------------------------------------
// Shard-count equivalence of the group-partitioned campaign: a seeded
// 2-shard run must produce identical round-completion times and aggregate
// metrics to the 1-shard run (and, via LIFL_TEST_SHARDS, to any count).

lifl::sys::ShardedCampaignConfig small_campaign(std::size_t shards) {
  lifl::sys::ShardedCampaignConfig cfg;
  cfg.shards = shards;
  cfg.groups = 4;
  cfg.rounds = 2;
  cfg.leaves_per_group = 8;
  cfg.updates_per_leaf = 10;
  cfg.model_bytes = 50'000;
  cfg.population = 20'000;
  cfg.peak_per_sec = 400.0;
  cfg.ramp_secs = 2.0;
  cfg.seed = 77;
  return cfg;
}

TEST(ShardedCampaign, TwoShardsEquivalentToOne) {
  std::size_t shards = 2;
  if (const char* env = std::getenv("LIFL_TEST_SHARDS")) {
    shards = std::max<std::size_t>(2, std::strtoul(env, nullptr, 10));
  }
  const auto mono = lifl::sys::run_sharded_campaign(small_campaign(1));
  const auto multi = lifl::sys::run_sharded_campaign(small_campaign(shards));

  // Bitwise equal, events included: the multi-shard run adds no events of
  // its own (cross posts are the same schedule calls).
  lifl::test::expect_same_result(mono, multi, "1 vs many shards");
  // And the threaded run really was threaded.
  EXPECT_GT(multi.windows, 0u);
  EXPECT_GT(multi.cross_posts, 0u);
}

TEST(ShardedCampaign, GatewayRssQueuesPreserveEquivalence) {
  // RSS fan-out (one queue per gateway core) must not break the shard
  // equivalence: steering is by client id, which is group-local.
  auto cfg1 = small_campaign(1);
  cfg1.gateway_cores = 4;
  cfg1.gateway_queues = 0;  // one queue per core
  auto cfg2 = cfg1;
  cfg2.shards = 2;
  const auto mono = lifl::sys::run_sharded_campaign(cfg1);
  const auto multi = lifl::sys::run_sharded_campaign(cfg2);
  lifl::test::expect_same_result(mono, multi, "RSS queues, 1 vs 2 shards");
}

// A process allowed one CPU pins no shard thread; its 4-shard campaign is
// bitwise the one this process ran on every CPU it may use. (The death-test
// child re-runs the test body, so it runs the reference before limiting
// itself.)
int one_cpu_campaign_child(const lifl::sys::ShardedCampaignResult& want) {
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(sched_getcpu(), &one);
  if (sched_setaffinity(getpid(), sizeof one, &one) != 0 ||
      lifl::sim::allowed_cpu_count() != 1) {
    return 2;
  }
  const auto got = lifl::sys::run_sharded_campaign(small_campaign(4));
  lifl::test::expect_same_result(want, got, "all CPUs vs one CPU");
  return ::testing::Test::HasFailure() ? 1 : 0;
}

TEST(ShardedCampaignDeathTest, OneAllowedCpuRunsFourShardsBitwise) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  const auto want = lifl::sys::run_sharded_campaign(small_campaign(4));
  EXPECT_EXIT(std::exit(one_cpu_campaign_child(want)),
              ::testing::ExitedWithCode(0), "");
}

}  // namespace
