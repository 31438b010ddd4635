// Campaign checkpoint/restore: the crash-anywhere differential harness.
//
// A reference campaign runs with checkpointing enabled and every emitted
// blob captured. The campaign is then "crashed" at each of N evenly spaced
// cut points — snapshot marks that land mid-round, mid-re-plan and in
// rounds with live leaf drains — and resumed from the captured blob. The
// resumed run must be *bitwise* identical to the reference in round start/
// completion times, sample sums, per-round spawned/reused telemetry,
// re-plan/drain totals, per-group data-plane statistics, and even the
// total dispatched event count (the blob carries the boundary image, so
// the replayed round is executed exactly once). Honours LIFL_TEST_SHARDS.
//
// Malformed blobs — truncated at any byte, version-flipped, or cut under a
// different config — must be rejected with sim::SnapshotError, never UB.

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <vector>

#include "src/sim/snapshot.hpp"
#include "src/systems/campaign_checkpoint.hpp"
#include "src/systems/sharded_campaign.hpp"

namespace {

namespace sys = lifl::sys;

std::size_t env_shards() {
  if (const char* env = std::getenv("LIFL_TEST_SHARDS")) {
    return std::max<std::size_t>(2, std::strtoul(env, nullptr, 10));
  }
  return 2;
}

struct Blob {
  std::vector<std::uint8_t> bytes;
  std::uint32_t round = 0;
  double mark = 0.0;
};

/// A small diurnal campaign with enough arrival-rate swing that the
/// planner re-plans mid-round and shrinks drain partial leaf accumulators
/// — so the cut-point family genuinely covers mid-re-plan and mid-drain
/// rounds, not just quiet stretches.
sys::ShardedCampaignConfig churny_campaign(std::size_t shards) {
  sys::ShardedCampaignConfig cfg;
  cfg.shards = shards;
  cfg.groups = 4;
  cfg.rounds = 3;
  // Target 620 updates/group vs ~35 arrivals per 0.5 s sample: rounds 2+
  // plan a small initial fleet from the carried EWMA, then the diurnal
  // swing (±60% over 6 s, inside a ~9 s round) forces mid-round grows and
  // shrinks — shrink retires partially filled leaves, i.e. drains.
  cfg.leaves_per_group = 62;
  cfg.updates_per_leaf = 10;
  cfg.model_bytes = 50'000;
  cfg.population = 20'000;
  cfg.peak_per_sec = 280.0;
  cfg.ramp_secs = 1.0;
  cfg.diurnal_amplitude = 0.6;
  cfg.diurnal_period_secs = 6.0;
  cfg.seed = 77;
  cfg.hierarchy = sys::HierarchyMode::kPlanned;
  cfg.replan_interval_secs = 0.5;
  cfg.middle_fanin = 4;
  cfg.checkpoint_every_secs = 1.0;
  return cfg;
}

sys::ShardedCampaignConfig with_sink(sys::ShardedCampaignConfig cfg,
                                     std::vector<Blob>* out) {
  cfg.on_checkpoint = [out](const std::vector<std::uint8_t>& bytes,
                            std::uint32_t round, double mark) {
    out->push_back(Blob{bytes, round, mark});
  };
  return cfg;
}

void expect_identical(const sys::ShardedCampaignResult& a,
                      const sys::ShardedCampaignResult& b,
                      const std::string& what) {
  ASSERT_EQ(a.round_started_at.size(), b.round_started_at.size()) << what;
  for (std::size_t r = 0; r < a.round_started_at.size(); ++r) {
    // EXPECT_EQ on doubles is exact ==: the claim is bitwise, not ULP.
    EXPECT_EQ(a.round_started_at[r], b.round_started_at[r])
        << what << " round " << r + 1;
    EXPECT_EQ(a.round_completed_at[r], b.round_completed_at[r])
        << what << " round " << r + 1;
    EXPECT_EQ(a.round_samples[r], b.round_samples[r])
        << what << " round " << r + 1;
    EXPECT_EQ(a.round_spawned[r], b.round_spawned[r])
        << what << " round " << r + 1;
    EXPECT_EQ(a.round_reused[r], b.round_reused[r])
        << what << " round " << r + 1;
  }
  EXPECT_EQ(a.spawned_total, b.spawned_total) << what;
  EXPECT_EQ(a.reused_total, b.reused_total) << what;
  EXPECT_EQ(a.replans, b.replans) << what;
  EXPECT_EQ(a.leaf_drains, b.leaf_drains) << what;
  EXPECT_EQ(a.peak_leaves, b.peak_leaves) << what;
  EXPECT_EQ(a.checkpoint_marks, b.checkpoint_marks) << what;
  EXPECT_EQ(a.events, b.events) << what;
  EXPECT_EQ(a.sim_secs, b.sim_secs) << what;
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
}

/// The harness: run the reference, then crash+resume at N evenly spaced
/// blobs and demand bitwise equality.
void run_differential(const sys::ShardedCampaignConfig& base,
                      std::size_t cuts) {
  std::vector<Blob> blobs;
  const auto reference = sys::run_sharded_campaign(with_sink(base, &blobs));
  ASSERT_GE(blobs.size(), cuts) << "campaign too short for the cut family";
  ASSERT_EQ(reference.checkpoints_written, blobs.size());

  // Evenly spaced cut points, always including the first and last blob.
  for (std::size_t i = 0; i < cuts; ++i) {
    const std::size_t pick = i * (blobs.size() - 1) / (cuts - 1);
    const Blob& blob = blobs[pick];
    auto cfg = base;
    cfg.resume_blob = &blob.bytes;
    const auto resumed = sys::run_sharded_campaign(cfg);
    expect_identical(reference, resumed,
                     "cut at round " + std::to_string(blob.round) +
                         ", mark " + std::to_string(blob.mark));
    // A resumed process re-emits only the blobs past its cut.
    std::size_t after = 0;
    for (const Blob& b : blobs) {
      if (b.round > blob.round ||
          (b.round == blob.round && b.mark > blob.mark)) {
        ++after;
      }
    }
    EXPECT_EQ(resumed.checkpoints_written, after);
  }
}

// ---------------------------------------------------------------------------

TEST(CampaignCheckpoint, CrashAnywherePlannedSingleShard) {
  const auto base = churny_campaign(1);
  std::vector<Blob> probe;
  const auto reference = sys::run_sharded_campaign(with_sink(base, &probe));
  // The cut family must cover the interesting regimes: marks exist in
  // every round (mid-round cuts), the reference really re-planned
  // mid-round, and really drained partial accumulators on shrink.
  EXPECT_GT(reference.replans, 0u);
  EXPECT_GT(reference.leaf_drains, 0u);
  std::vector<bool> seen(base.rounds + 1, false);
  for (const Blob& b : probe) seen.at(b.round) = true;
  for (std::size_t r = 1; r <= base.rounds; ++r) {
    EXPECT_TRUE(seen[r]) << "no mid-round cut point in round " << r;
  }

  run_differential(base, 6);
}

TEST(CampaignCheckpoint, CrashAnywherePlannedMultiShard) {
  run_differential(churny_campaign(env_shards()), 4);
}

TEST(CampaignCheckpoint, CrashAnywhereFixedMode) {
  auto cfg = churny_campaign(1);
  cfg.hierarchy = sys::HierarchyMode::kFixed;
  cfg.rounds = 2;
  run_differential(cfg, 4);
}

TEST(CampaignCheckpoint, BlobEncodingIsDeterministic) {
  // Same campaign, run twice: every emitted blob must be byte-identical —
  // the property that makes the in-sim billing size and the post-resume
  // re-emitted blobs match the uninterrupted timeline.
  std::vector<Blob> a, b;
  (void)sys::run_sharded_campaign(with_sink(churny_campaign(1), &a));
  (void)sys::run_sharded_campaign(with_sink(churny_campaign(1), &b));
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].round, b[i].round);
    EXPECT_EQ(a[i].mark, b[i].mark);
    EXPECT_EQ(a[i].bytes, b[i].bytes) << "blob " << i;
  }
}

// ------------------------------------------------------ malformed blobs

std::vector<std::uint8_t> one_blob(const sys::ShardedCampaignConfig& base) {
  std::vector<Blob> blobs;
  (void)sys::run_sharded_campaign(with_sink(base, &blobs));
  return blobs.front().bytes;
}

TEST(CampaignCheckpoint, TruncatedBlobsAreRejected) {
  const auto base = churny_campaign(1);
  const auto blob = one_blob(base);
  // Every 13th prefix (plus the last few bytes) to keep the loop brisk:
  // each must throw SnapshotError, never crash or resume garbage.
  for (std::size_t cut = 0; cut < blob.size();
       cut += (cut + 13 < blob.size() ? 13 : 1)) {
    std::vector<std::uint8_t> prefix(blob.begin(), blob.begin() + cut);
    auto cfg = base;
    cfg.resume_blob = &prefix;
    EXPECT_THROW((void)sys::run_sharded_campaign(cfg),
                 lifl::sim::SnapshotError)
        << "prefix length " << cut;
  }
}

TEST(CampaignCheckpoint, VersionMismatchIsRejected) {
  const auto base = churny_campaign(1);
  const auto good = one_blob(base);
  // A garbage version and the previous format (v4) are both refused.
  for (const std::uint32_t bad : {0xfeedu, 4u}) {
    auto blob = good;
    // The version field sits right after the 8-byte magic.
    std::memcpy(blob.data() + 8, &bad, sizeof bad);
    auto cfg = base;
    cfg.resume_blob = &blob;
    EXPECT_THROW((void)sys::run_sharded_campaign(cfg),
                 lifl::sim::SnapshotError)
        << "version " << bad;
  }
}

TEST(CampaignCheckpoint, ConfigDriftIsRejected) {
  const auto base = churny_campaign(1);
  const auto blob = one_blob(base);

  auto other_seed = base;
  other_seed.seed = 78;
  other_seed.resume_blob = &blob;
  EXPECT_THROW((void)sys::run_sharded_campaign(other_seed),
               lifl::sim::SnapshotError);

  auto other_shards = churny_campaign(2);
  other_shards.resume_blob = &blob;
  EXPECT_THROW((void)sys::run_sharded_campaign(other_shards),
               lifl::sim::SnapshotError);

  auto other_grid = base;
  other_grid.checkpoint_every_secs = 2.0;
  other_grid.resume_blob = &blob;
  EXPECT_THROW((void)sys::run_sharded_campaign(other_grid),
               lifl::sim::SnapshotError);
}

}  // namespace
