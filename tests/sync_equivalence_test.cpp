// The sync differential harness: promise-widened shard synchronization
// must be invisible in the results. A seeded matrix of campaigns (3
// hierarchy modes x faults on/off x flaky clients on/off, plus an
// edge-client async cell, x shards {1,2,4}) is checked bitwise against the
// 1-shard oracle, and checkpointed runs at K > 1 must emit the 1-shard
// run's checkpoint cut sequence, match it bitwise up to the per-shard
// snapshot marshal cost, and resume bitwise from a middle blob. Twenty
// async configs sampled from a fixed seed extend the bitwise check past
// the matrix's hand-picked shapes.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <initializer_list>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/control/selection.hpp"
#include "src/fl/checkpoint.hpp"
#include "src/sim/random.hpp"
#include "src/systems/sharded_campaign.hpp"
#include "src/workload/device_tier.hpp"
#include "tests/campaign_matrix.hpp"
#include "tests/campaign_result.hpp"

namespace {

namespace sys = lifl::sys;
using lifl::test::expect_same_result;
namespace wl = lifl::wl;

std::size_t env_shards() {
  if (const char* env = std::getenv("LIFL_TEST_SHARDS")) {
    return std::max<std::size_t>(2, std::strtoul(env, nullptr, 10));
  }
  return 2;
}

// ---------------------------------------------------------------------------
// The campaign matrix (tests/campaign_matrix.hpp).

using lifl::matrix::kScenarios;
using lifl::matrix::matrix_campaign;
using lifl::matrix::Scenario;

TEST(SyncEquivalence, MatrixBitwiseEqualToOneShard) {
  const std::size_t env = env_shards();
  std::vector<std::size_t> shard_counts = {2, 4};
  if (std::find(shard_counts.begin(), shard_counts.end(), env) ==
      shard_counts.end()) {
    shard_counts.push_back(env);
  }
  std::uint64_t total_skipped = 0;
  for (const Scenario& sc : kScenarios) {
    const auto oracle = sys::run_sharded_campaign(matrix_campaign(sc, 1));
    // One shard refreshes no horizons.
    EXPECT_EQ(oracle.windows, 0u) << sc.name;
    EXPECT_EQ(oracle.windows_skipped, 0u) << sc.name;
    for (const std::size_t shards : shard_counts) {
      const std::string label =
          std::string(sc.name) + " shards=" + std::to_string(shards);
      const auto r = sys::run_sharded_campaign(matrix_campaign(sc, shards));
      expect_same_result(oracle, r, label);
      total_skipped += r.windows_skipped;
    }
  }
  // The promises actually raised published bounds somewhere in the matrix.
  // The bounds themselves are pinned exactly on hand-built inputs in
  // tests/campaign_promises_test.cpp.
  EXPECT_GT(total_skipped, 0u);
}

// ---------------------------------------------------------------------------
// The campaign wires its promises into every shard that posts. Group
// shards must raise their published bounds, and the async top's bound must
// reach past the relay chain (a few hops and one seal deadline ahead) to
// the arrival-table launch bound, which sits near the next version's
// arrivals, seconds ahead. The bound functions are pinned on hand-built
// inputs in tests/campaign_promises_test.cpp; this checks what feeds them.

TEST(SyncEquivalence, PromisesRaiseEverySendingShardsBound) {
  // Long enough per version that each group's arrival table holds several
  // entries (its share is well past `ArrivalTable::kStride`).
  const auto campaign = [](const Scenario& sc, std::size_t shards) {
    sys::ShardedCampaignConfig cfg = matrix_campaign(sc, shards);
    cfg.updates_per_leaf = 400;
    cfg.peak_per_sec = 2000.0;
    return cfg;
  };
  // The relay chain alone cannot lead the top's bound by this much.
  const double kLaunchLeadSecs = 1.0;
  std::vector<std::size_t> shard_counts = {2};
  if (env_shards() != 2) shard_counts.push_back(env_shards());
  const Scenario scenarios[] = {
      {"planned", sys::HierarchyMode::kPlanned, false, false},
      {"async", sys::HierarchyMode::kAsync, false, false},
  };
  for (const Scenario& sc : scenarios) {
    const bool async = sc.hierarchy == sys::HierarchyMode::kAsync;
    for (const std::size_t k : shard_counts) {
      const std::string label =
          std::string(sc.name) + " K=" + std::to_string(k);
      const auto r = sys::run_sharded_campaign(campaign(sc, k));
      ASSERT_EQ(r.shard_promise_lead_secs.size(), k) << label;
      // Group 0 and the top live on shard 0; every other shard runs groups
      // only and relays into it.
      for (std::size_t s = 1; s < k; ++s) {
        EXPECT_GT(r.shard_promise_lead_secs[s], 0.0)
            << label << " shard " << s;
      }
      if (async) {
        EXPECT_GT(r.shard_promise_lead_secs[0], kLaunchLeadSecs) << label;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// The benchmark's regime: leaf batches much larger than the arrivals a seal
// deadline collects, so partial aggregates move upward only at deadline
// seals and the relays spend most of the stream waiting on them — the
// regime the emission floors serve. Results are bitwise equal to the
// 1-shard run.

TEST(SyncEquivalence, AsyncSealRegimeBitwiseEqualToOneShard) {
  const Scenario edge{"async+edge", sys::HierarchyMode::kAsync, false, true,
                      true};
  const auto campaign = [&](std::size_t shards) {
    sys::ShardedCampaignConfig cfg = matrix_campaign(edge, shards);
    cfg.updates_per_leaf = 100;
    cfg.async_deadline_secs = 1.0;
    return cfg;
  };
  const auto oracle = sys::run_sharded_campaign(campaign(1));
  const auto promised = sys::run_sharded_campaign(campaign(4));
  expect_same_result(oracle, promised, "seal regime");
}

// ---------------------------------------------------------------------------
// Promise-widened horizons composed with checkpointing at K > 1.

TEST(SyncEquivalence, CheckpointCutsMatchOneShardAndResume) {
  struct Cut {
    std::uint32_t round;
    double mark;
  };
  const double every = 0.5;  // several marks inside each ~1.4 s round
  // A blob carries one clock entry per shard (f64 time + u64 dispatch
  // count), so its size — and with it the in-sim marshal billing on group
  // 0's node — grows with K by exactly this much per extra shard.
  const double kShardSnapshotBytes = 16.0;
  const double marshal_cycles_per_byte =
      lifl::fl::CheckpointManager::Config{}.marshal_cycles_per_byte;
  // Planned rounds, and an async stream whose promises chain the emission
  // floors through every group's hierarchy.
  const Scenario scenarios[] = {
      {"planned", sys::HierarchyMode::kPlanned, false, false},
      {"async+edge", sys::HierarchyMode::kAsync, false, true, true},
  };
  std::vector<std::size_t> shard_counts = {2, 4};
  if (env_shards() != 2 && env_shards() != 4) {
    shard_counts.push_back(env_shards());
  }
  for (const Scenario& sc : scenarios) {
    auto with_ck = [&](std::size_t shards, std::vector<Cut>* cuts,
                       std::vector<std::vector<std::uint8_t>>* blobs) {
      auto cfg = matrix_campaign(sc, shards);
      cfg.rounds = 3;
      cfg.checkpoint_every_secs = every;
      cfg.on_checkpoint = [cuts, blobs](const std::vector<std::uint8_t>& blob,
                                        std::uint32_t round, double mark) {
        if (cuts != nullptr) cuts->push_back(Cut{round, mark});
        if (blobs != nullptr) blobs->push_back(blob);
      };
      return cfg;
    };
    const std::string name = sc.name;

    // Oracle: the 1-shard checkpointed run.
    std::vector<Cut> mono_cuts;
    const auto mono =
        sys::run_sharded_campaign(with_ck(1, &mono_cuts, nullptr));

    for (const std::size_t k : shard_counts) {
      const std::string label = name + " K=" + std::to_string(k);
      std::vector<Cut> cuts;
      std::vector<std::vector<std::uint8_t>> blobs;
      const auto multi = sys::run_sharded_campaign(with_ck(k, &cuts, &blobs));
      EXPECT_GT(multi.checkpoint_marks, 0u) << label;

      // Bitwise equal to the oracle, except that group 0's node marshalled
      // the extra shard clocks of every billed mark.
      auto expected = mono;
      expected.groups[0].cpu_cycles +=
          static_cast<double>(k - 1) * kShardSnapshotBytes *
          marshal_cycles_per_byte *
          static_cast<double>(mono.checkpoint_marks);
      expect_same_result(expected, multi, label);

      // Every shard pauses exactly at each mark, and pausing is
      // bit-transparent: the blob stream is exactly the oracle's cut
      // sequence, strictly increasing (no mark emitted twice, none dropped).
      ASSERT_EQ(cuts.size(), mono_cuts.size()) << label;
      for (std::size_t i = 0; i < cuts.size(); ++i) {
        EXPECT_EQ(cuts[i].round, mono_cuts[i].round) << label << " blob " << i;
        EXPECT_EQ(cuts[i].mark, mono_cuts[i].mark) << label << " blob " << i;
        if (i > 0) {
          EXPECT_TRUE(cuts[i - 1].round < cuts[i].round ||
                      (cuts[i - 1].round == cuts[i].round &&
                       cuts[i - 1].mark < cuts[i].mark))
              << label << ": duplicate or reordered emission at blob " << i;
        }
      }

      // Resuming the K-shard run from a mid-campaign user blob replays the
      // tail to the same bitwise result.
      ASSERT_GE(blobs.size(), 2u) << label;
      auto rcfg = with_ck(k, nullptr, nullptr);
      rcfg.resume_blob = &blobs[blobs.size() / 2];
      const auto resumed = sys::run_sharded_campaign(rcfg);
      expect_same_result(multi, resumed,
                         label + " resume from mid-campaign blob");
    }
  }
}

// ---------------------------------------------------------------------------
// Sampled async shapes. The matrix pins a handful of configs; this draws
// twenty more from a fixed seed, over shapes it does not cover: group
// counts that are no multiple of the shard count, one-update leaves, seal
// deadlines, stragglers, and the tier and lifecycle layers on and off.
// Each must run at every shard count without an unsound promise (a post
// below one throws `std::logic_error`) and bitwise equal to its 1-shard
// run.

sys::ShardedCampaignConfig sampled_async_campaign(lifl::sim::Rng& rng) {
  const auto pick = [&rng](std::initializer_list<double> xs) {
    return *(xs.begin() + rng.uniform_index(xs.size()));
  };
  const auto coin = [&rng] { return rng.uniform() < 0.5; };
  sys::ShardedCampaignConfig cfg;
  cfg.hierarchy = sys::HierarchyMode::kAsync;
  cfg.groups = static_cast<std::size_t>(pick({2, 3, 4, 5, 6, 7}));
  cfg.rounds = static_cast<std::size_t>(pick({2, 3}));
  cfg.leaves_per_group = static_cast<std::size_t>(pick({2, 4, 8}));
  cfg.updates_per_leaf = static_cast<std::uint32_t>(pick({1, 3, 10, 25}));
  cfg.middle_fanin = static_cast<std::uint32_t>(pick({1, 2, 4}));
  cfg.model_bytes = static_cast<std::size_t>(pick({2'000, 50'000}));
  cfg.population = 20'000;
  cfg.peak_per_sec = pick({100.0, 300.0, 800.0});
  cfg.ramp_secs = pick({0.2, 1.0});
  cfg.diurnal_amplitude = pick({0.0, 0.4});
  cfg.diurnal_period_secs = 4.0;
  cfg.seed = rng.next_u64();
  cfg.replan_interval_secs = pick({0.0, 0.25, 0.5});
  cfg.async_deadline_secs = pick({0.0, 0.05, 0.2, 1.0});
  // Two draws whose fields are gone (adaptive deadlines, auto quota), kept
  // so the seeded samples keep every other field.
  if (cfg.async_deadline_secs > 0.0 && cfg.replan_interval_secs > 0.0) {
    (void)coin();
  }
  (void)coin();
  if (coin()) {
    cfg.straggler_fraction = pick({0.1, 0.3});
    cfg.straggler_delay_secs = pick({0.3, 2.0});
  }
  if (coin()) {
    cfg.device_tiers = wl::TierMix{0.4, 0.3, 0.3};
    if (coin()) cfg.selector = lifl::ctrl::SelectorPolicy::kScored;
  }
  if (coin()) {
    cfg.lifecycle.disconnect_rate = 0.2;
    cfg.lifecycle.chunk_bytes = 10'000;
    cfg.lifecycle.offline_base_secs = 0.05;
    cfg.lifecycle.offline_cap_secs = 1.0;
  }
  return cfg;
}

TEST(SyncEquivalence, SampledAsyncConfigsBitwiseAcrossShards) {
  lifl::sim::Rng rng(20261018);
  for (int i = 0; i < 20; ++i) {
    sys::ShardedCampaignConfig cfg = sampled_async_campaign(rng);
    const std::string label =
        "sample " + std::to_string(i) + " (groups=" +
        std::to_string(cfg.groups) + " leaf=" +
        std::to_string(cfg.updates_per_leaf) + " deadline=" +
        std::to_string(cfg.async_deadline_secs) + ")";
    cfg.shards = 1;
    const auto oracle = sys::run_sharded_campaign(cfg);
    for (const std::size_t shards : {2u, 4u}) {
      cfg.shards = shards;
      try {
        const auto r = sys::run_sharded_campaign(cfg);
        expect_same_result(oracle, r, label + " K=" + std::to_string(shards));
      } catch (const std::logic_error& e) {
        ADD_FAILURE() << label << " K=" << shards << ": " << e.what();
      }
    }
  }
}

}  // namespace
