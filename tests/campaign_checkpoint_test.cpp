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
#include <iterator>
#include <string>
#include <vector>

#include "src/sim/snapshot.hpp"
#include "src/systems/campaign_checkpoint.hpp"
#include "src/systems/sharded_campaign.hpp"
#include "tests/campaign_matrix.hpp"
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
    expect_same_result(reference, resumed,
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

// Every matrix campaign (faults, flaky clients, edge knobs), checkpointed at
// 1 and at 4 shards. The v6 byte layout is pinned: an FNV-1a hash over
// every blob each run emits (a blob holds one clock per shard, so the two
// differ); a codec change that moves a single byte fails here, and the
// goldens only move with a `kVersion` bump. And each run resumes bitwise
// from its middle blob, so a durable field the walk leaves out fails in
// whichever cell makes it nonzero.
TEST(CampaignCheckpoint, MatrixBlobsMatchV6GoldensAndResume) {
  struct Golden {
    const char* name;
    std::uint64_t one_shard;
    std::uint64_t four_shards;
  };
  const Golden goldens[] = {
      {"fixed", 0x5281921399c4a1adull, 0xabf29b8b45893f13ull},
      {"fixed+flaky", 0x11d9d2a9dca5dfa1ull, 0x1b1b384d6b6aea33ull},
      {"planned", 0x46de9a2d691d3eefull, 0xfc86140c4055062bull},
      {"planned+faults", 0xde99fb04c797d43full, 0x8a6645704012348dull},
      {"planned+flaky", 0x102e491d5320cf35ull, 0x64fcfdc2ef7d872dull},
      {"planned+faults+flaky", 0xb8b4e8b3fb88933ull, 0x6150e19f949c0481ull},
      {"async", 0x557fab94a10a170eull, 0x862f604542436b76ull},
      {"async+faults", 0xb2e40b5f88a5b564ull, 0x406e7f81ce450b4full},
      {"async+flaky", 0xbfc4d8f8fa07e9fdull, 0xd59eb2bb17f186a7ull},
      {"async+faults+flaky", 0xa0033e04148224b5ull, 0x37a4416bb3884345ull},
      {"async+edge", 0xb49cade87a9d532aull, 0x18ae975240d29141ull},
  };
  ASSERT_EQ(std::size(goldens), std::size(lifl::matrix::kScenarios));
  for (std::size_t i = 0; i < std::size(goldens); ++i) {
    const auto& sc = lifl::matrix::kScenarios[i];
    ASSERT_STREQ(goldens[i].name, sc.name);
    for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
      auto cfg = lifl::matrix::matrix_campaign(sc, shards);
      cfg.checkpoint_every_secs = 0.5;
      std::vector<Blob> blobs;
      const auto reference = sys::run_sharded_campaign(with_sink(cfg, &blobs));
      ASSERT_FALSE(blobs.empty()) << sc.name;
      std::uint64_t h = 1469598103934665603ull;
      for (const Blob& b : blobs) {
        for (const std::uint8_t byte : b.bytes) {
          h = (h ^ byte) * 1099511628211ull;
        }
      }
      EXPECT_EQ(h, shards == 1 ? goldens[i].one_shard
                               : goldens[i].four_shards)
          << sc.name << " at " << shards << " shard(s): 0x" << std::hex << h;
      cfg.resume_blob = &blobs[blobs.size() / 2].bytes;
      expect_same_result(reference, sys::run_sharded_campaign(cfg),
                         std::string(sc.name) + " resumed at " +
                             std::to_string(shards) + " shard(s)");
    }
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
  // A garbage version and the previous format (v5) are both refused, and
  // the message names the blob's version and the reader's.
  for (const std::uint32_t bad : {0xfeedu, 5u}) {
    auto blob = good;
    // The version field sits right after the 8-byte magic.
    std::memcpy(blob.data() + 8, &bad, sizeof bad);
    auto cfg = base;
    cfg.resume_blob = &blob;
    try {
      (void)sys::run_sharded_campaign(cfg);
      ADD_FAILURE() << "version " << bad << " was accepted";
    } catch (const lifl::sim::SnapshotError& e) {
      const std::string want =
          "(blob " + std::to_string(bad) + ", reader " +
          std::to_string(sys::CampaignCheckpoint::kVersion) + ")";
      EXPECT_NE(std::string(e.what()).find(want), std::string::npos)
          << e.what();
    }
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
