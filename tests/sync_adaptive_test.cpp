// Property tests for promise-widened horizons: under randomized
// cross-post schedules with honest outbound promises, the widened horizons
// must never admit a causality violation (every delivery lands exactly at
// its posted time, in nondecreasing order per receiver), and pausing must
// be bit-transparent — slicing a run with `run_to` marks reproduces the
// unsliced run bit for bit, which is the property campaign
// checkpoint/resume rides on.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <tuple>
#include <vector>

#include "src/sim/random.hpp"
#include "src/sim/sharded_simulator.hpp"
#include "src/systems/sharded_campaign.hpp"

namespace {

namespace sys = lifl::sys;
using lifl::sim::Rng;
using lifl::sim::ShardedSimulator;

constexpr double kLookahead = 0.01;

// ---------------------------------------------------------------------------
// A randomized shard model with a precomputed post schedule, so each shard
// can publish an *honest* promise: the minimum delivery time over every
// cross-post it has not yet made (suffix minimum of its schedule).

struct Step {
  double at;        ///< shard-local event time
  int dst;          ///< cross-post target (-1 = no post at this step)
  double delivery;  ///< posted delivery time when dst >= 0
};

struct ShardPlan {
  std::vector<Step> steps;
  std::vector<double> promise_after;  ///< suffix min delivery from step i
  std::size_t cursor = 0;             ///< next step not yet executed
};

std::vector<ShardPlan> make_plans(std::size_t shards, std::uint64_t seed) {
  std::vector<ShardPlan> plans(shards);
  Rng rng(seed);
  for (std::size_t s = 0; s < shards; ++s) {
    double t = rng.uniform(0.1, 0.5);
    for (int i = 0; i < 200; ++i) {
      double gap = rng.uniform(0.001, 0.05);
      // Occasional long idle troughs: hundreds of conservative windows
      // with provably nothing in flight — the windows widening exists to
      // skip.
      if (rng.uniform(0.0, 1.0) < 0.08) gap += rng.uniform(0.5, 2.0);
      t += gap;
      Step st{t, -1, 0.0};
      if (shards > 1 && rng.uniform(0.0, 1.0) < 0.3) {
        st.dst = static_cast<int>(
            (s + 1 + static_cast<std::size_t>(
                         rng.uniform(0.0, static_cast<double>(shards - 1)))) %
            shards);
        st.delivery = t + kLookahead + rng.uniform(0.0, 0.3);
      }
      plans[s].steps.push_back(st);
    }
    // Suffix minimum of the remaining deliveries = the honest promise.
    auto& p = plans[s];
    p.promise_after.assign(p.steps.size() + 1,
                           std::numeric_limits<double>::infinity());
    for (std::size_t i = p.steps.size(); i-- > 0;) {
      p.promise_after[i] = p.promise_after[i + 1];
      if (p.steps[i].dst >= 0) {
        p.promise_after[i] = std::min(p.promise_after[i], p.steps[i].delivery);
      }
    }
  }
  return plans;
}

struct Delivery {
  double receiver_now;  ///< receiver clock inside the delivery callback
  double posted;        ///< delivery time the sender requested
  int dst;
  int id;  ///< global post id (src * steps + step index)
};

bool operator==(const Delivery& a, const Delivery& b) {
  return a.receiver_now == b.receiver_now && a.posted == b.posted &&
         a.dst == b.dst && a.id == b.id;
}

/// Per-receiver delivery logs: each shard's worker appends only to its
/// own vector, so logging is race-free and the order within a vector is
/// the receiver's deterministic execution order (a single global log
/// would interleave receivers by thread timing).
using Logs = std::vector<std::vector<Delivery>>;

/// Install the plans into a fresh simulator. `logs` must outlive the run.
void arm(ShardedSimulator& sharded, std::vector<ShardPlan>& plans,
         Logs* logs, bool with_promises) {
  for (std::size_t s = 0; s < plans.size(); ++s) {
    plans[s].cursor = 0;
    ShardPlan* plan = &plans[s];
    for (std::size_t i = 0; i < plan->steps.size(); ++i) {
      sharded.shard(s).schedule_at(
          plan->steps[i].at, [&sharded, plan, logs, s, i] {
            plan->cursor = i + 1;
            const Step& st = plan->steps[i];
            if (st.dst >= 0) {
              const int id = static_cast<int>(s * 1000 + i);
              sharded.post(
                  s, static_cast<std::size_t>(st.dst),
                  static_cast<std::uint32_t>(s), st.delivery,
                  [&sharded, logs, st, id] {
                    (*logs)[static_cast<std::size_t>(st.dst)].push_back(
                        Delivery{sharded.shard(st.dst).now(), st.delivery,
                                 st.dst, id});
                  });
            }
          });
    }
    if (with_promises) {
      sharded.set_promise(s, [plan] { return plan->promise_after[plan->cursor]; });
    }
  }
}

ShardedSimulator::Config sharded_cfg(std::size_t shards) {
  ShardedSimulator::Config cfg;
  cfg.shards = shards;
  cfg.lookahead = kLookahead;
  return cfg;
}

TEST(SyncAdaptive, RandomSchedulesNeverDeliverIntoAReceiversPast) {
  // 20 random schedules x 3 shards, each run on one Config with and
  // without promises installed. The promised run must deliver every post
  // exactly at its requested time (a late delivery would mean a widened
  // window admitted a post into a receiver's past — the sharded core
  // would throw, but the exactness check also rules out silent clamping),
  // in nondecreasing order per receiver, and produce the identical
  // delivery sequence to the promise-free (conservative) oracle.
  const std::size_t kShards = 3;
  std::uint64_t skipped_total = 0;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    auto plans = make_plans(kShards, seed);
    Logs oracle_log(kShards);
    {
      ShardedSimulator sharded(sharded_cfg(kShards));
      auto p = plans;
      arm(sharded, p, &oracle_log, /*with_promises=*/false);
      sharded.run();
      EXPECT_EQ(sharded.windows_skipped(), 0u);
    }
    Logs promised_log(kShards);
    ShardedSimulator sharded(sharded_cfg(kShards));
    arm(sharded, plans, &promised_log, /*with_promises=*/true);
    sharded.run();
    skipped_total += sharded.windows_skipped();

    for (std::size_t dst = 0; dst < kShards; ++dst) {
      ASSERT_EQ(promised_log[dst].size(), oracle_log[dst].size())
          << "seed " << seed << " dst " << dst;
      double last = 0.0;
      for (std::size_t i = 0; i < promised_log[dst].size(); ++i) {
        const Delivery& d = promised_log[dst][i];
        EXPECT_EQ(d.receiver_now, d.posted)
            << "seed " << seed << " dst " << dst << " post " << i;
        EXPECT_GE(d.receiver_now, last)
            << "seed " << seed << " dst " << dst << " post " << i;
        last = d.receiver_now;
        EXPECT_TRUE(d == oracle_log[dst][i])
            << "seed " << seed << " dst " << dst << " post " << i;
      }
    }
  }
  // The idle troughs really were skipped somewhere across the seeds.
  EXPECT_GT(skipped_total, 0u);
}

TEST(SyncAdaptive, PromisedRunIsBitTransparentUnderPausing) {
  // `run_to` slicing must leave every shard's event sequence exactly where
  // the unsliced run put it: the delivery log and the dispatch count match
  // bit for bit. This is the sim-level half of checkpoint/resume
  // idempotence. (How often the shards refreshed their horizons depends on
  // thread timing and is not compared.)
  const std::size_t kShards = 3;
  for (std::uint64_t seed = 21; seed <= 25; ++seed) {
    auto plans = make_plans(kShards, seed);
    Logs unsliced_log(kShards);
    std::uint64_t unsliced_events = 0;
    {
      ShardedSimulator sharded(sharded_cfg(kShards));
      auto p = plans;
      arm(sharded, p, &unsliced_log, /*with_promises=*/true);
      sharded.run();
      unsliced_events = sharded.dispatched();
    }
    Logs sliced_log(kShards);
    ShardedSimulator sharded(sharded_cfg(kShards));
    arm(sharded, plans, &sliced_log, /*with_promises=*/true);
    for (double mark = 0.5; sharded.pending_regular() > 0; mark += 0.5) {
      sharded.run_to(mark);
    }
    sharded.run();
    EXPECT_EQ(sharded.dispatched(), unsliced_events) << "seed " << seed;
    for (std::size_t dst = 0; dst < kShards; ++dst) {
      ASSERT_EQ(sliced_log[dst].size(), unsliced_log[dst].size())
          << "seed " << seed << " dst " << dst;
      for (std::size_t i = 0; i < sliced_log[dst].size(); ++i) {
        EXPECT_TRUE(sliced_log[dst][i] == unsliced_log[dst][i])
            << "seed " << seed << " dst " << dst << " post " << i;
      }
    }
  }
}

TEST(SyncAdaptive, CampaignResumeReproducesPromisedRunBitwise) {
  // Campaign-level half: a promise-widened multi-shard run with checkpoints
  // resumed from a mid-campaign blob reproduces the uninterrupted run.
  sys::ShardedCampaignConfig cfg;
  cfg.shards = 2;
  cfg.groups = 4;
  cfg.rounds = 2;
  cfg.leaves_per_group = 8;
  cfg.updates_per_leaf = 10;
  cfg.model_bytes = 50'000;
  cfg.population = 20'000;
  cfg.peak_per_sec = 400.0;
  cfg.ramp_secs = 1.0;
  cfg.seed = 77;
  cfg.hierarchy = sys::HierarchyMode::kPlanned;
  cfg.replan_interval_secs = 0.5;
  cfg.middle_fanin = 4;
  cfg.checkpoint_every_secs = 0.5;

  std::vector<std::vector<std::uint8_t>> blobs;
  auto ref_cfg = cfg;
  ref_cfg.on_checkpoint = [&blobs](const std::vector<std::uint8_t>& blob,
                                   std::uint32_t, double) {
    blobs.push_back(blob);
  };
  const auto reference = sys::run_sharded_campaign(ref_cfg);
  EXPECT_GT(reference.windows_skipped, 0u);
  ASSERT_GE(blobs.size(), 2u);

  auto res_cfg = cfg;
  res_cfg.resume_blob = &blobs[blobs.size() / 2];
  const auto resumed = sys::run_sharded_campaign(res_cfg);

  ASSERT_EQ(resumed.round_completed_at.size(),
            reference.round_completed_at.size());
  for (std::size_t r = 0; r < reference.round_completed_at.size(); ++r) {
    EXPECT_EQ(resumed.round_started_at[r], reference.round_started_at[r]);
    EXPECT_EQ(resumed.round_completed_at[r], reference.round_completed_at[r]);
    EXPECT_EQ(resumed.round_samples[r], reference.round_samples[r]);
    EXPECT_EQ(resumed.round_weight[r], reference.round_weight[r]);
  }
  for (std::size_t g = 0; g < reference.groups.size(); ++g) {
    EXPECT_EQ(resumed.groups[g].uploads, reference.groups[g].uploads);
    EXPECT_EQ(resumed.groups[g].pool_pushed, reference.groups[g].pool_pushed);
    EXPECT_EQ(resumed.groups[g].cpu_cycles, reference.groups[g].cpu_cycles);
  }
  EXPECT_EQ(resumed.events, reference.events);
  EXPECT_EQ(resumed.sim_secs, reference.sim_secs);
  EXPECT_EQ(resumed.checkpoint_marks, reference.checkpoint_marks);
}

}  // namespace
