// Fault injection and lossless recovery (sim::FaultPlan + the lease/ack
// protocol): crashed aggregators must lose nothing — their un-acked pool
// claims return and are re-folded by replacements — client uploads retry
// through drops/corruption/outages/overflow until delivered, and quorum
// sealing degrades a stalled synchronous round instead of hanging it.
//
// The determinism claims are the usual ones, checked with exact ==: a
// fixed FaultPlan yields bitwise-identical campaigns at 1 shard and at
// LIFL_TEST_SHARDS shards (sync and async), and a checkpoint cut landing
// mid-recovery resumes bitwise-identically to the uninterrupted run.
// Conservation is integer-exact: per-round folded sample sums under faults
// equal the fault-free run's (nothing lost, nothing double-folded).

#include <gtest/gtest.h>

#include <cstdlib>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/systems/campaign_checkpoint.hpp"
#include "src/systems/sharded_campaign.hpp"
#include "tests/campaign_result.hpp"

namespace {

namespace sys = lifl::sys;
using lifl::test::expect_same_result;

std::size_t env_shards() {
  if (const char* env = std::getenv("LIFL_TEST_SHARDS")) {
    return std::max<std::size_t>(2, std::strtoul(env, nullptr, 10));
  }
  return 2;
}

/// A small planned campaign: 4 groups x 8 leaves x 10 updates per round,
/// enough diurnal swing that the planner shrinks (drains) mid-round, so
/// crash recovery and drains genuinely coexist.
sys::ShardedCampaignConfig planned_campaign(std::size_t shards) {
  sys::ShardedCampaignConfig cfg;
  cfg.shards = shards;
  cfg.groups = 4;
  cfg.rounds = 3;
  cfg.leaves_per_group = 8;
  cfg.updates_per_leaf = 10;
  cfg.model_bytes = 50'000;
  cfg.population = 20'000;
  cfg.peak_per_sec = 280.0;
  cfg.ramp_secs = 1.0;
  cfg.diurnal_amplitude = 0.3;
  cfg.diurnal_period_secs = 6.0;
  cfg.seed = 77;
  cfg.hierarchy = sys::HierarchyMode::kPlanned;
  cfg.replan_interval_secs = 0.5;
  cfg.middle_fanin = 4;
  return cfg;
}

sys::ShardedCampaignConfig async_campaign(std::size_t shards) {
  auto cfg = planned_campaign(shards);
  cfg.hierarchy = sys::HierarchyMode::kAsync;
  cfg.async_deadline_secs = 2.0;
  return cfg;
}

/// The standard crash mix: ~10% of leaf claim batches crash mid-fold, some
/// middles crash mid-round, the top crashes when the plan says so.
void add_crashes(sys::ShardedCampaignConfig& cfg) {
  cfg.fault.seed = 9001;
  cfg.fault.leaf_crash_rate = 0.10;
  cfg.fault.middle_crash_rate = 0.05;
  cfg.fault.top_crash_rate = 0.5;
}

std::uint64_t total_samples(const sys::ShardedCampaignResult& r) {
  return std::accumulate(r.round_samples.begin(), r.round_samples.end(),
                         std::uint64_t{0});
}

// ------------------------------------------------------- conservation

TEST(FaultRecovery, SyncCrashesLoseNoSamples) {
  auto faulty = planned_campaign(1);
  add_crashes(faulty);
  const auto with_faults = sys::run_sharded_campaign(faulty);
  const auto fault_free = sys::run_sharded_campaign(planned_campaign(1));

  // The plan really fired: crashes happened, recovery really re-folded.
  EXPECT_GT(with_faults.leaf_crashes, 0u);
  EXPECT_GT(with_faults.top_crashes, 0u);
  EXPECT_GT(with_faults.refolded_updates, 0u);
  EXPECT_GT(with_faults.faults_injected, 0u);
  EXPECT_GT(with_faults.recovery_secs, 0.0);

  // Lossless: every round folds exactly the fault-free sample sum — the
  // crashed aggregators' claims came back and were re-folded, none lost,
  // none double-counted.
  ASSERT_EQ(with_faults.round_samples.size(),
            fault_free.round_samples.size());
  for (std::size_t r = 0; r < fault_free.round_samples.size(); ++r) {
    EXPECT_EQ(with_faults.round_samples[r], fault_free.round_samples[r])
        << "round " << r + 1;
  }

  // The fault-free run reports zero everywhere in the fault telemetry.
  EXPECT_EQ(fault_free.faults_injected, 0u);
  EXPECT_EQ(fault_free.refolded_updates, 0u);
  EXPECT_EQ(fault_free.recovery_secs, 0.0);
}

TEST(FaultRecovery, UploadFaultsRetryUntilDelivered) {
  auto faulty = planned_campaign(1);
  faulty.fault.seed = 4242;
  faulty.fault.upload_drop_rate = 0.2;
  faulty.fault.upload_corrupt_rate = 0.1;
  faulty.fault.outage_rate = 0.5;
  faulty.fault.outage_secs = 2.0;
  faulty.fault.outage_start_max_secs = 2.0;  // inside the arrival burst
  faulty.fault.retry_base_secs = 0.05;
  faulty.fault.retry_cap_secs = 1.0;
  const auto with_faults = sys::run_sharded_campaign(faulty);
  const auto fault_free = sys::run_sharded_campaign(planned_campaign(1));

  EXPECT_GT(with_faults.upload_drops, 0u);
  EXPECT_GT(with_faults.upload_corruptions, 0u);
  EXPECT_GT(with_faults.outage_rejects, 0u);
  // Every faulted attempt scheduled a retry, and every upload eventually
  // delivered: integer sample conservation, round by round.
  EXPECT_GE(with_faults.upload_retries,
            with_faults.upload_drops + with_faults.upload_corruptions +
                with_faults.outage_rejects);
  ASSERT_EQ(with_faults.round_samples.size(),
            fault_free.round_samples.size());
  for (std::size_t r = 0; r < fault_free.round_samples.size(); ++r) {
    EXPECT_EQ(with_faults.round_samples[r], fault_free.round_samples[r])
        << "round " << r + 1;
  }
}

TEST(FaultRecovery, AsyncCrashesLoseNoSamples) {
  // Async: crashes race the seal-deadline timers — a leaf that crashes
  // between buffer fill and timer fire must not let the stale timer touch
  // its replacement (generation-counted timers), and diurnal shrink keeps
  // draining leaves while others recover.
  auto faulty = async_campaign(1);
  add_crashes(faulty);
  faulty.fault.top_crash_rate = 0.0;  // top crashes are planned-mode only
  const auto with_faults = sys::run_sharded_campaign(faulty);
  const auto fault_free = sys::run_sharded_campaign(async_campaign(1));

  EXPECT_GT(with_faults.leaf_crashes, 0u);
  EXPECT_GT(with_faults.refolded_updates, 0u);
  // Version boundaries shift under faults (order-dependent), but the
  // stream folds exactly the same client updates: totals are conserved.
  EXPECT_EQ(total_samples(with_faults), total_samples(fault_free));
}

// --------------------------------------------------- shard invariance

TEST(FaultRecovery, SyncFaultsAreShardInvariant) {
  auto base = planned_campaign(1);
  add_crashes(base);
  base.fault.upload_drop_rate = 0.1;
  base.fault.upload_corrupt_rate = 0.05;
  const auto one = sys::run_sharded_campaign(base);
  auto multi = base;
  multi.shards = env_shards();
  const auto n = sys::run_sharded_campaign(multi);
  EXPECT_GT(one.leaf_crashes, 0u);
  expect_same_result(
      one, n, "sync faults, 1 vs " + std::to_string(multi.shards) + " shards");
}

TEST(FaultRecovery, AsyncFaultsAreShardInvariant) {
  auto base = async_campaign(1);
  add_crashes(base);
  base.fault.top_crash_rate = 0.0;
  const auto one = sys::run_sharded_campaign(base);
  auto multi = base;
  multi.shards = env_shards();
  const auto n = sys::run_sharded_campaign(multi);
  EXPECT_GT(one.leaf_crashes, 0u);
  expect_same_result(
      one, n, "async faults, 1 vs " + std::to_string(multi.shards) + " shards");
}

// --------------------------------------------- checkpoint mid-recovery

TEST(FaultRecovery, CheckpointResumeMidRecoveryIsBitwise) {
  // Crash-anywhere under an active fault plan: cuts land while crashed
  // aggregators are being replaced and retries are in flight; the resumed
  // run must replay the identical fault schedule and recovery. With reuse
  // off every replacement spawns cold, so the recovery time and middle
  // crashes of earlier rounds ride the later rounds' blobs.
  auto warm = planned_campaign(1);
  add_crashes(warm);
  warm.checkpoint_every_secs = 1.0;
  auto cold = warm;
  cold.reuse = false;
  cold.fault.middle_crash_rate = 0.2;

  struct Blob {
    std::vector<std::uint8_t> bytes;
    std::uint32_t round = 0;
    double mark = 0.0;
  };
  for (const sys::ShardedCampaignConfig& base : {warm, cold}) {
    std::vector<Blob> blobs;
    auto capture = base;
    capture.on_checkpoint = [&blobs](const std::vector<std::uint8_t>& bytes,
                                     std::uint32_t round, double mark) {
      blobs.push_back(Blob{bytes, round, mark});
    };
    const auto reference = sys::run_sharded_campaign(capture);
    EXPECT_GT(reference.leaf_crashes, 0u);
    ASSERT_GE(blobs.size(), 3u);
    if (!base.reuse) {
      EXPECT_GT(reference.middle_crashes, 0u);
      EXPECT_GT(reference.recovery_secs, 0.0);
    }

    const std::size_t picks[] = {0, blobs.size() / 2, blobs.size() - 1};
    for (const std::size_t pick : picks) {
      auto cfg = base;
      cfg.resume_blob = &blobs[pick].bytes;
      const auto resumed = sys::run_sharded_campaign(cfg);
      expect_same_result(reference, resumed,
                         std::string(base.reuse ? "warm" : "cold") +
                             " cut at round " +
                             std::to_string(blobs[pick].round) + ", mark " +
                             std::to_string(blobs[pick].mark));
    }
  }
}

// ------------------------------------------------------ quorum sealing

TEST(FaultRecovery, QuorumSealsStalledRound) {
  // 30% stragglers arriving 500 s late would stall every synchronous
  // round; a 0.6 quorum with a 5 s deadline seals instead.
  auto cfg = planned_campaign(1);
  cfg.straggler_fraction = 0.3;
  cfg.straggler_delay_secs = 500.0;
  cfg.quorum = 0.6;
  cfg.round_deadline_secs = 5.0;
  const auto r = sys::run_sharded_campaign(cfg);

  EXPECT_GT(r.quorum_seals, 0u);
  EXPECT_GT(r.quorum_abandoned, 0u);
  ASSERT_EQ(r.round_completed_at.size(), std::size_t{cfg.rounds});
  for (std::size_t i = 0; i < r.round_completed_at.size(); ++i) {
    // Each round sealed within its deadline neighbourhood, not at the
    // straggler horizon.
    EXPECT_LT(r.round_completed_at[i] - r.round_started_at[i], 100.0)
        << "round " << i + 1;
  }
}

TEST(FaultRecovery, QuorumIsShardInvariant) {
  auto base = planned_campaign(1);
  base.straggler_fraction = 0.3;
  base.straggler_delay_secs = 500.0;
  base.quorum = 0.6;
  base.round_deadline_secs = 5.0;
  const auto one = sys::run_sharded_campaign(base);
  auto multi = base;
  multi.shards = env_shards();
  const auto n = sys::run_sharded_campaign(multi);
  EXPECT_GT(one.quorum_seals, 0u);
  expect_same_result(
      one, n, "quorum, 1 vs " + std::to_string(multi.shards) + " shards");
}

// -------------------------------------------------------- validation

TEST(FaultRecovery, InvalidFaultConfigsAreRejected) {
  // Faults need the streaming hierarchy's recovery machinery.
  auto fixed = planned_campaign(1);
  fixed.hierarchy = sys::HierarchyMode::kFixed;
  fixed.fault.leaf_crash_rate = 0.1;
  EXPECT_THROW((void)sys::run_sharded_campaign(fixed),
               std::invalid_argument);

  // A drop rate of 1 can never deliver (every retry fails too).
  auto all_drop = planned_campaign(1);
  all_drop.fault.upload_drop_rate = 1.0;
  EXPECT_THROW((void)sys::run_sharded_campaign(all_drop),
               std::invalid_argument);

  // Quorum sealing is a synchronous-round mechanism...
  auto qasync = async_campaign(1);
  qasync.quorum = 0.5;
  qasync.round_deadline_secs = 5.0;
  EXPECT_THROW((void)sys::run_sharded_campaign(qasync),
               std::invalid_argument);

  // ...needs a deadline to probe at...
  auto no_deadline = planned_campaign(1);
  no_deadline.quorum = 0.5;
  EXPECT_THROW((void)sys::run_sharded_campaign(no_deadline),
               std::invalid_argument);

  // ...and abandoning uploads breaks the checkpoint quiescence invariant.
  auto qck = planned_campaign(1);
  qck.quorum = 0.5;
  qck.round_deadline_secs = 5.0;
  qck.checkpoint_every_secs = 1.0;
  EXPECT_THROW((void)sys::run_sharded_campaign(qck), std::invalid_argument);
}

}  // namespace
