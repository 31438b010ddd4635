// The sync differential harness: adaptive shard synchronization must be
// invisible in the results. A seeded matrix of campaigns (3 hierarchy
// modes x faults on/off x flaky clients on/off x shards {1,2,4} x both
// sync modes) is checked bitwise against the 1-shard conservative oracle,
// and adaptive runs with checkpoints at K > 1 must emit the conservative
// run's checkpoint cut sequence and resume bitwise from a middle blob.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <string>
#include <vector>

#include "src/sim/sharded_simulator.hpp"
#include "src/systems/sharded_campaign.hpp"
#include "src/workload/device_tier.hpp"

namespace {

namespace sys = lifl::sys;
namespace wl = lifl::wl;
using lifl::sim::SyncMode;

std::size_t env_shards() {
  if (const char* env = std::getenv("LIFL_TEST_SHARDS")) {
    return std::max<std::size_t>(2, std::strtoul(env, nullptr, 10));
  }
  return 2;
}

// ---------------------------------------------------------------------------
// The campaign matrix.

struct Scenario {
  const char* name;
  sys::HierarchyMode hierarchy;
  bool faults;
  bool flaky;
};

/// Every valid cell of hierarchy x faults x flaky. Faults require the
/// streaming hierarchy (planned/async); with the client lifecycle on they
/// must be crash-only (the session layer supersedes wire-level faults).
const Scenario kScenarios[] = {
    {"fixed", sys::HierarchyMode::kFixed, false, false},
    {"fixed+flaky", sys::HierarchyMode::kFixed, false, true},
    {"planned", sys::HierarchyMode::kPlanned, false, false},
    {"planned+faults", sys::HierarchyMode::kPlanned, true, false},
    {"planned+flaky", sys::HierarchyMode::kPlanned, false, true},
    {"planned+faults+flaky", sys::HierarchyMode::kPlanned, true, true},
    {"async", sys::HierarchyMode::kAsync, false, false},
    {"async+faults", sys::HierarchyMode::kAsync, true, false},
    {"async+flaky", sys::HierarchyMode::kAsync, false, true},
    {"async+faults+flaky", sys::HierarchyMode::kAsync, true, true},
};

sys::ShardedCampaignConfig matrix_campaign(const Scenario& sc,
                                           std::size_t shards,
                                           SyncMode sync) {
  sys::ShardedCampaignConfig cfg;
  cfg.shards = shards;
  cfg.groups = 4;
  cfg.rounds = 2;
  cfg.leaves_per_group = 8;
  cfg.updates_per_leaf = 10;
  cfg.model_bytes = 50'000;
  cfg.population = 20'000;
  cfg.peak_per_sec = 400.0;
  cfg.ramp_secs = 1.0;
  cfg.diurnal_amplitude = 0.4;
  cfg.diurnal_period_secs = 4.0;
  cfg.seed = 77;
  cfg.hierarchy = sc.hierarchy;
  if (sc.hierarchy != sys::HierarchyMode::kFixed) {
    cfg.replan_interval_secs = 0.5;
    cfg.middle_fanin = 4;
  }
  if (sc.faults) {
    cfg.fault.seed = 9001;
    cfg.fault.leaf_crash_rate = 0.10;
    cfg.fault.middle_crash_rate = 0.05;
    if (sc.hierarchy == sys::HierarchyMode::kPlanned) {
      cfg.fault.top_crash_rate = 0.25;
    }
    if (!sc.flaky) {
      // Wire-level faults, only without the lifecycle session layer.
      cfg.fault.upload_drop_rate = 0.1;
      cfg.fault.upload_corrupt_rate = 0.05;
      cfg.fault.retry_base_secs = 0.05;
      cfg.fault.retry_cap_secs = 1.0;
    }
  }
  if (sc.flaky) {
    cfg.device_tiers = wl::TierMix{0.4, 0.3, 0.3};
    cfg.lifecycle.disconnect_rate = 0.2;
    cfg.lifecycle.chunk_bytes = 10'000;
    cfg.lifecycle.offline_base_secs = 0.05;
    cfg.lifecycle.offline_cap_secs = 1.0;
  }
  cfg.sync_mode = sync;
  return cfg;
}

/// The full bitwise claim: everything a result reports that is produced by
/// simulated-event order must be *identical* — exact ==, not ULP — across
/// shard counts and sync modes. Process-local wall/window telemetry is the
/// only thing allowed to differ.
void expect_bitwise(const sys::ShardedCampaignResult& a,
                    const sys::ShardedCampaignResult& b,
                    const std::string& what) {
  ASSERT_EQ(a.round_started_at.size(), b.round_started_at.size()) << what;
  for (std::size_t r = 0; r < a.round_started_at.size(); ++r) {
    EXPECT_EQ(a.round_started_at[r], b.round_started_at[r])
        << what << " round " << r + 1;
    EXPECT_EQ(a.round_completed_at[r], b.round_completed_at[r])
        << what << " round " << r + 1;
    EXPECT_EQ(a.round_samples[r], b.round_samples[r])
        << what << " round " << r + 1;
    EXPECT_EQ(a.round_weight[r], b.round_weight[r])
        << what << " round " << r + 1;
    EXPECT_EQ(a.round_spawned[r], b.round_spawned[r])
        << what << " round " << r + 1;
    EXPECT_EQ(a.round_reused[r], b.round_reused[r])
        << what << " round " << r + 1;
    EXPECT_EQ(a.round_refolded[r], b.round_refolded[r])
        << what << " round " << r + 1;
  }
  ASSERT_EQ(a.groups.size(), b.groups.size()) << what;
  for (std::size_t g = 0; g < a.groups.size(); ++g) {
    EXPECT_EQ(a.groups[g].uploads, b.groups[g].uploads) << what << " g" << g;
    EXPECT_EQ(a.groups[g].pool_pushed, b.groups[g].pool_pushed)
        << what << " g" << g;
    EXPECT_EQ(a.groups[g].gateway_busy_secs, b.groups[g].gateway_busy_secs)
        << what << " g" << g;
    EXPECT_EQ(a.groups[g].gateway_wait_secs, b.groups[g].gateway_wait_secs)
        << what << " g" << g;
    EXPECT_EQ(a.groups[g].cpu_cycles, b.groups[g].cpu_cycles)
        << what << " g" << g;
  }
  EXPECT_EQ(a.spawned_total, b.spawned_total) << what;
  EXPECT_EQ(a.reused_total, b.reused_total) << what;
  EXPECT_EQ(a.replans, b.replans) << what;
  EXPECT_EQ(a.leaf_drains, b.leaf_drains) << what;
  EXPECT_EQ(a.peak_leaves, b.peak_leaves) << what;
  EXPECT_EQ(a.events, b.events) << what;
  EXPECT_EQ(a.sim_secs, b.sim_secs) << what;
  EXPECT_EQ(a.checkpoint_marks, b.checkpoint_marks) << what;
  // Fault/recovery telemetry.
  EXPECT_EQ(a.faults_injected, b.faults_injected) << what;
  EXPECT_EQ(a.leaf_crashes, b.leaf_crashes) << what;
  EXPECT_EQ(a.middle_crashes, b.middle_crashes) << what;
  EXPECT_EQ(a.top_crashes, b.top_crashes) << what;
  EXPECT_EQ(a.refolded_updates, b.refolded_updates) << what;
  EXPECT_EQ(a.reinjected_partials, b.reinjected_partials) << what;
  EXPECT_EQ(a.upload_retries, b.upload_retries) << what;
  EXPECT_EQ(a.upload_drops, b.upload_drops) << what;
  EXPECT_EQ(a.upload_corruptions, b.upload_corruptions) << what;
  EXPECT_EQ(a.recovery_secs, b.recovery_secs) << what;
  // Lifecycle / tier telemetry.
  for (std::size_t t = 0; t < wl::kTierCount; ++t) {
    EXPECT_EQ(a.tiers[t].selected, b.tiers[t].selected) << what << " t" << t;
    EXPECT_EQ(a.tiers[t].completed, b.tiers[t].completed)
        << what << " t" << t;
    EXPECT_EQ(a.tiers[t].disconnects, b.tiers[t].disconnects)
        << what << " t" << t;
    EXPECT_EQ(a.tiers[t].stragglers, b.tiers[t].stragglers)
        << what << " t" << t;
  }
  EXPECT_EQ(a.disconnects, b.disconnects) << what;
  EXPECT_EQ(a.resumed_uploads, b.resumed_uploads) << what;
  EXPECT_EQ(a.chunks_sent, b.chunks_sent) << what;
  EXPECT_EQ(a.chunks_resent, b.chunks_resent) << what;
  EXPECT_EQ(a.selection_redraws, b.selection_redraws) << what;
  EXPECT_EQ(a.offline_queue_peak, b.offline_queue_peak) << what;
  EXPECT_EQ(a.gate_wait_secs, b.gate_wait_secs) << what;
}

TEST(SyncEquivalence, MatrixBitwiseEqualToOneShardConservative) {
  const std::size_t env = env_shards();
  std::vector<std::size_t> shard_counts = {1, 2, 4};
  if (std::find(shard_counts.begin(), shard_counts.end(), env) ==
      shard_counts.end()) {
    shard_counts.push_back(env);
  }
  const SyncMode modes[] = {SyncMode::kConservative, SyncMode::kAdaptive};
  std::uint64_t total_skipped = 0;
  for (const Scenario& sc : kScenarios) {
    const auto oracle = sys::run_sharded_campaign(
        matrix_campaign(sc, 1, SyncMode::kConservative));
    EXPECT_EQ(oracle.windows, 0u) << sc.name;
    for (const std::size_t shards : shard_counts) {
      for (const SyncMode sync : modes) {
        if (shards == 1 && sync == SyncMode::kConservative) continue;
        const std::string label =
            std::string(sc.name) + " shards=" + std::to_string(shards) +
            " sync=" +
            (sync == SyncMode::kConservative ? "conservative" : "adaptive");
        const auto r =
            sys::run_sharded_campaign(matrix_campaign(sc, shards, sync));
        expect_bitwise(oracle, r, label);
        if (shards == 1) {
          // Sync modes are a no-op without barriers.
          EXPECT_EQ(r.windows, 0u) << label;
          EXPECT_EQ(r.windows_skipped, 0u) << label;
        } else if (sync == SyncMode::kConservative) {
          EXPECT_EQ(r.windows_skipped, 0u) << label;
        } else {
          total_skipped += r.windows_skipped;
        }
      }
    }
  }
  // The widening actually engaged somewhere in the matrix.
  EXPECT_GT(total_skipped, 0u);
}

// ---------------------------------------------------------------------------
// Adaptive sync composed with checkpointing at K > 1.

TEST(SyncEquivalence, AdaptiveCheckpointCutsMatchConservativeAndResume) {
  struct Cut {
    std::uint32_t round;
    double mark;
  };
  const double every = 0.5;  // several marks inside each ~1.4 s round

  auto with_ck = [&](std::size_t shards, SyncMode sync,
                     std::vector<Cut>* cuts,
                     std::vector<std::vector<std::uint8_t>>* blobs) {
    Scenario sc{"planned", sys::HierarchyMode::kPlanned, false, false};
    auto cfg = matrix_campaign(sc, shards, sync);
    cfg.rounds = 3;
    cfg.checkpoint_every_secs = every;
    cfg.on_checkpoint = [cuts, blobs](const std::vector<std::uint8_t>& blob,
                                      std::uint32_t round, double mark) {
      if (cuts != nullptr) cuts->push_back(Cut{round, mark});
      if (blobs != nullptr) blobs->push_back(blob);
    };
    return cfg;
  };

  // Oracle: conservative sync at the SAME shard count. Checkpoint blobs
  // serialize one clock entry per shard, so their size — and with it the
  // in-sim marshal billing on group 0's node — legitimately depends on K;
  // cross-K equivalence without checkpoints is the matrix test's job.
  std::vector<Cut> mono_cuts;
  const auto mono = sys::run_sharded_campaign(
      with_ck(env_shards(), SyncMode::kConservative, &mono_cuts, nullptr));

  std::vector<Cut> ad_cuts;
  std::vector<std::vector<std::uint8_t>> ad_blobs;
  const auto ad = sys::run_sharded_campaign(
      with_ck(env_shards(), SyncMode::kAdaptive, &ad_cuts, &ad_blobs));

  expect_bitwise(mono, ad, "adaptive+checkpoints");
  EXPECT_GT(ad.checkpoint_marks, 0u);

  // Widened windows straddle marks, but pausing is bit-transparent: the
  // blob stream is exactly the oracle's cut sequence, strictly increasing
  // (no mark emitted twice, none dropped).
  ASSERT_EQ(ad_cuts.size(), mono_cuts.size());
  for (std::size_t i = 0; i < ad_cuts.size(); ++i) {
    EXPECT_EQ(ad_cuts[i].round, mono_cuts[i].round) << "blob " << i;
    EXPECT_EQ(ad_cuts[i].mark, mono_cuts[i].mark) << "blob " << i;
    if (i > 0) {
      EXPECT_TRUE(ad_cuts[i - 1].round < ad_cuts[i].round ||
                  (ad_cuts[i - 1].round == ad_cuts[i].round &&
                   ad_cuts[i - 1].mark < ad_cuts[i].mark))
          << "duplicate or reordered emission at blob " << i;
    }
  }

  // Resuming an adaptive run from a mid-campaign user blob replays the
  // tail to the same bitwise result.
  ASSERT_GE(ad_blobs.size(), 2u);
  const auto& middle = ad_blobs[ad_blobs.size() / 2];
  auto rcfg = with_ck(env_shards(), SyncMode::kAdaptive, nullptr, nullptr);
  rcfg.resume_blob = &middle;
  const auto resumed = sys::run_sharded_campaign(rcfg);
  expect_bitwise(mono, resumed, "adaptive resume from mid-campaign blob");
}

}  // namespace
