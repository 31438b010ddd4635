// Sharded simulator core: conservative time windows, cross-shard mailbox
// ordering, and the shard-count equivalence of a group-partitioned
// campaign.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <functional>
#include <limits>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/sim/calibration.hpp"
#include "src/sim/random.hpp"
#include "src/sim/sharded_simulator.hpp"
#include "src/sim/simulator.hpp"
#include "src/systems/sharded_campaign.hpp"

namespace {

using lifl::sim::ShardedSimulator;
using lifl::sim::SimTime;
using lifl::sim::Simulator;
using lifl::sim::SyncMode;

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
    sharded.post(1, 0, 2.0, [&] {
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
    sharded.post(1, 0, 1.0, [&] { delivered_at = sharded.shard(0).now(); });
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
    sharded.post(0, 1, 1.5, [&] { delivered = true; });
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("5.000000"), std::string::npos) << what;
    EXPECT_NE(what.find("1.000000"), std::string::npos) << what;
  }
  // Exactly at the receiver's clock is its past too (it already ran t=5).
  EXPECT_THROW(sharded.post(0, 1, 5.0, [] {}), std::invalid_argument);
  EXPECT_EQ(sharded.cross_posts(), 0u);

  // A post beyond the receiver's clock is accepted and delivered on time.
  double delivered_at = -1.0;
  sharded.post(0, 1, 6.0, [&] { delivered_at = sharded.shard(1).now(); });
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

// The mailbox ordering property of the ISSUE: cross-shard events must be
// delivered in timestamp order across window boundaries, with ties broken
// by (source shard, post order) — never by thread timing.
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
      sharded.post(s, 0, t, [&sharded, &log, t, s] {
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
    if (i > 0) EXPECT_GE(log[i].t, log[i - 1].t);
  }
  EXPECT_GT(sharded.windows(), 10u);
}

// ---------------------------------------------------------------------------
// Adversarial churn stress: ~50k events across 8 logical groups whose
// cross-posts land exactly on window-boundary grid points, exactly at the
// conservative horizon (now + lookahead), and one tick past it — the three
// places a sync-mode bug would first corrupt delivery order. Every (shard
// count x sync mode) combination must reproduce the 1-shard oracle's
// per-group delivery log bitwise.

struct ChurnStep {
  double at;        ///< group-local event time
  int dst;          ///< target group (-1 = no post)
  double delivery;  ///< posted delivery time when dst >= 0
};

constexpr double kChurnLookahead = 0.01;
constexpr std::size_t kChurnGroups = 8;

std::vector<std::vector<ChurnStep>> churn_plans() {
  std::vector<std::vector<ChurnStep>> plans(kChurnGroups);
  // Same-instant deliveries to one group from *different* sources are
  // tie-broken by (source shard, post seq) — deterministic for a fixed
  // shard count but legitimately dependent on the group->shard mapping,
  // so the boundary-hugging schedule must keep (dst, delivery) unique for
  // the cross-K bitwise claim to be the protocol's own. A one-ulp nudge
  // keeps colliding posts on (practically) the boundary.
  std::set<std::pair<int, double>> taken;
  for (std::size_t g = 0; g < kChurnGroups; ++g) {
    lifl::sim::Rng rng(1000 + g);
    double t = rng.uniform(0.0, 0.02);
    for (int i = 0; i < 4500; ++i) {
      // Dense bursts on a lookahead-aligned grid, with occasional idle
      // troughs long enough for adaptive windows to widen.
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
        while (!taken.insert({st.dst, st.delivery}).second) {
          st.delivery = std::nextafter(
              st.delivery, std::numeric_limits<double>::infinity());
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

/// One full run of the churn model on `shards` shards (groups dealt round
/// robin). Returns per-group delivery logs; each group's log is written
/// only by its owning shard's thread, in that shard's deterministic
/// execution order.
std::vector<std::vector<ChurnDelivery>> churn_run(
    const std::vector<std::vector<ChurnStep>>& plans, std::size_t shards,
    SyncMode sync, std::uint64_t* dispatched) {
  ShardedSimulator::Config cfg;
  cfg.shards = shards;
  cfg.lookahead = kChurnLookahead;
  cfg.sync = sync;
  ShardedSimulator sharded(cfg);
  std::vector<std::vector<ChurnDelivery>> logs(kChurnGroups);
  const auto shard_of = [shards](std::size_t g) { return g % shards; };
  for (std::size_t g = 0; g < kChurnGroups; ++g) {
    const std::size_t s = shard_of(g);
    for (std::size_t i = 0; i < plans[g].size(); ++i) {
      const ChurnStep& st = plans[g][i];
      sharded.shard(s).schedule_at(st.at, [&sharded, &logs, &st, &shard_of,
                                           s, g, i] {
        if (st.dst >= 0) {
          const std::size_t dg = static_cast<std::size_t>(st.dst);
          const int id = static_cast<int>(g * 10000 + i);
          sharded.post(s, shard_of(dg), st.delivery, [&sharded, &logs,
                                                      &shard_of, dg, id] {
            logs[dg].push_back(
                ChurnDelivery{sharded.shard(shard_of(dg)).now(), id});
          });
        }
      });
    }
  }
  sharded.run();
  *dispatched = sharded.dispatched();
  return logs;
}

TEST(ShardedSim, AdversarialChurnMatchesOneShardOracleAcrossSyncModes) {
  std::size_t multi = 2;
  if (const char* env = std::getenv("LIFL_TEST_SHARDS")) {
    multi = std::max<std::size_t>(2, std::strtoul(env, nullptr, 10));
  }
  const auto plans = churn_plans();
  std::uint64_t oracle_events = 0;
  const auto oracle =
      churn_run(plans, 1, SyncMode::kConservative, &oracle_events);
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
    expect_match(churn_run(plans, shards, SyncMode::kConservative, &events),
                 "conservative K=" + std::to_string(shards));
    EXPECT_EQ(events, oracle_events);
    expect_match(churn_run(plans, shards, SyncMode::kAdaptive, &events),
                 "adaptive K=" + std::to_string(shards));
    EXPECT_EQ(events, oracle_events);
  }
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

  ASSERT_EQ(mono.round_completed_at.size(), multi.round_completed_at.size());
  for (std::size_t r = 0; r < mono.round_completed_at.size(); ++r) {
    EXPECT_DOUBLE_EQ(mono.round_completed_at[r], multi.round_completed_at[r])
        << "round " << r;
    EXPECT_EQ(mono.round_samples[r], multi.round_samples[r]) << "round " << r;
  }
  ASSERT_EQ(mono.groups.size(), multi.groups.size());
  for (std::size_t g = 0; g < mono.groups.size(); ++g) {
    EXPECT_EQ(mono.groups[g].uploads, multi.groups[g].uploads) << "group " << g;
    EXPECT_EQ(mono.groups[g].pool_pushed, multi.groups[g].pool_pushed)
        << "group " << g;
    EXPECT_DOUBLE_EQ(mono.groups[g].gateway_busy_secs,
                     multi.groups[g].gateway_busy_secs)
        << "group " << g;
    EXPECT_DOUBLE_EQ(mono.groups[g].gateway_wait_secs,
                     multi.groups[g].gateway_wait_secs)
        << "group " << g;
    EXPECT_DOUBLE_EQ(mono.groups[g].cpu_cycles, multi.groups[g].cpu_cycles)
        << "group " << g;
  }
  // The same logical events ran on both sides (the multi-shard run adds no
  // events of its own — cross posts are the same schedule calls).
  EXPECT_EQ(mono.events, multi.events);
  EXPECT_DOUBLE_EQ(mono.sim_secs, multi.sim_secs);
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
  ASSERT_EQ(mono.round_completed_at.size(), multi.round_completed_at.size());
  for (std::size_t r = 0; r < mono.round_completed_at.size(); ++r) {
    EXPECT_DOUBLE_EQ(mono.round_completed_at[r], multi.round_completed_at[r]);
  }
  for (std::size_t g = 0; g < mono.groups.size(); ++g) {
    EXPECT_DOUBLE_EQ(mono.groups[g].gateway_busy_secs,
                     multi.groups[g].gateway_busy_secs);
  }
}

}  // namespace
