// Asynchronous campaign mode (HierarchyMode::kAsync): FedBuff buffers that
// seal on count or deadline, FedAsync staleness-weighted folding, and the
// recurring top's version cadence.
//
// The determinism claims are the same as for the synchronous modes and are
// checked the same way: bitwise equality (exact ==, not tolerance) of every
// per-version and per-group statistic between 1 shard and LIFL_TEST_SHARDS
// shards, and between an uninterrupted run and a run crashed mid-buffer and
// resumed from its snapshot blob.

#include <gtest/gtest.h>

#include <cstdlib>
#include <numeric>
#include <string>
#include <vector>

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

/// A small async campaign with 30% stragglers arriving 10 s late — long
/// enough past the 2 s seal deadline that partial leaf buffers really are
/// force-sealed while the stragglers are still in flight.
sys::ShardedCampaignConfig async_campaign(std::size_t shards) {
  sys::ShardedCampaignConfig cfg;
  cfg.shards = shards;
  cfg.groups = 4;
  cfg.rounds = 3;  // model versions, not barriers
  cfg.leaves_per_group = 8;
  cfg.updates_per_leaf = 10;
  cfg.model_bytes = 50'000;
  cfg.population = 20'000;
  cfg.peak_per_sec = 280.0;
  cfg.ramp_secs = 1.0;
  cfg.diurnal_amplitude = 0.3;
  cfg.diurnal_period_secs = 6.0;
  cfg.seed = 77;
  cfg.hierarchy = sys::HierarchyMode::kAsync;
  cfg.replan_interval_secs = 0.5;
  cfg.middle_fanin = 4;
  cfg.async_deadline_secs = 2.0;
  cfg.straggler_fraction = 0.3;
  cfg.straggler_delay_secs = 10.0;
  return cfg;
}

// ---------------------------------------------------------------- cadence

TEST(AsyncCampaign, StreamCompletesWithVersionCadence) {
  const auto cfg = async_campaign(1);
  const auto r = sys::run_sharded_campaign(cfg);

  // One entry per emitted model version; the buffer quota is
  // uploads_per_round(), so the stream yields exactly `rounds` versions
  // when no buffer overshoots (relay flushes can straddle a quota, in
  // which case versions merge — never multiply).
  ASSERT_GE(r.round_started_at.size(), 1u);
  ASSERT_LE(r.round_started_at.size(), cfg.rounds);

  // Every launched update folds exactly once: raw sample mass is exactly
  // the population draw, and version completion times are increasing.
  std::uint64_t uploads = 0;
  for (const auto& g : r.groups) uploads += g.uploads;
  EXPECT_EQ(uploads, cfg.uploads_per_round() * cfg.rounds);
  for (std::size_t v = 1; v < r.round_completed_at.size(); ++v) {
    EXPECT_GT(r.round_completed_at[v], r.round_completed_at[v - 1]);
  }

  // Staleness weighting really engaged: the effective (discounted) weight
  // of the stream is strictly below the raw sample mass, but positive.
  const double weight = std::accumulate(r.round_weight.begin(),
                                        r.round_weight.end(), 0.0);
  double samples = 0.0;
  for (const std::uint64_t s : r.round_samples) {
    samples += static_cast<double>(s);
  }
  EXPECT_GT(weight, 0.0);
  EXPECT_LT(weight, samples);

  // Zero steady-state churn: all spawns happen while the initial fleet
  // ramps (attributed to the first version entry), none after.
  for (std::size_t v = 1; v < r.round_spawned.size(); ++v) {
    EXPECT_EQ(r.round_spawned[v], 0u) << "version " << v + 1;
  }
}

// ---------------------------------------------- seal on count vs deadline

TEST(AsyncCampaign, SealsOnCountWithoutDeadline) {
  // No stragglers, no deadline, no re-planning: every leaf buffer fills to
  // its claimed batch and seals on count — nothing is ever force-sealed.
  auto cfg = async_campaign(1);
  cfg.straggler_fraction = 0.0;
  cfg.async_deadline_secs = 0.0;
  cfg.replan_interval_secs = 0.0;  // isolate drains = forced seals
  const auto r = sys::run_sharded_campaign(cfg);
  EXPECT_EQ(r.leaf_drains, 0u);
  ASSERT_FALSE(r.round_completed_at.empty());
}

TEST(AsyncCampaign, SealsOnDeadlineUnderStragglers) {
  // 30% stragglers pin partial buffers for 10 s; the 2 s deadline must
  // force-seal them (drains > 0), where the identical run without a
  // deadline can only ever seal on count (drains == 0). Force-sealing is
  // lossless: both runs fold the identical raw sample mass.
  auto with_deadline = async_campaign(1);
  with_deadline.replan_interval_secs = 0.0;
  auto without_deadline = with_deadline;
  without_deadline.async_deadline_secs = 0.0;

  const auto a = sys::run_sharded_campaign(with_deadline);
  const auto b = sys::run_sharded_campaign(without_deadline);
  EXPECT_GT(a.leaf_drains, 0u);
  EXPECT_EQ(b.leaf_drains, 0u);
  ASSERT_FALSE(a.round_completed_at.empty());
  ASSERT_FALSE(b.round_completed_at.empty());
  const auto mass = [](const sys::ShardedCampaignResult& r) {
    std::uint64_t samples = 0;
    for (const std::uint64_t s : r.round_samples) samples += s;
    return samples;
  };
  EXPECT_EQ(mass(a), mass(b));
}

// ------------------------------------------------------ shard equivalence

TEST(AsyncCampaign, BitwiseIdenticalAcrossShardCounts) {
  const auto one = sys::run_sharded_campaign(async_campaign(1));
  const auto many = sys::run_sharded_campaign(async_campaign(env_shards()));
  expect_same_result(one, many,
                     "1 vs " + std::to_string(env_shards()) + " shards");
}

// ------------------------------------------------- crash-anywhere resume

TEST(AsyncCampaign, CheckpointResumeMidBufferIsBitwise) {
  // Reference run with snapshots every simulated second: marks land while
  // leaf buffers are partially filled and versions are mid-cadence. Crash
  // at several cut points and resume; async blobs always cut at the stream
  // start (round 1) and replay the prefix, so every resumed run must be
  // bitwise identical to the uninterrupted one.
  auto base = async_campaign(1);
  base.checkpoint_every_secs = 1.0;

  struct Blob {
    std::vector<std::uint8_t> bytes;
    std::uint32_t round = 0;
    double mark = 0.0;
  };
  std::vector<Blob> blobs;
  auto with_sink = base;
  with_sink.on_checkpoint = [&blobs](const std::vector<std::uint8_t>& bytes,
                                     std::uint32_t round, double mark) {
    blobs.push_back(Blob{bytes, round, mark});
  };
  const auto reference = sys::run_sharded_campaign(with_sink);
  ASSERT_GE(blobs.size(), 3u) << "stream too short for the cut family";

  const std::size_t cuts = 4;
  for (std::size_t i = 0; i < cuts; ++i) {
    const std::size_t pick = i * (blobs.size() - 1) / (cuts - 1);
    const Blob& blob = blobs[pick];
    EXPECT_EQ(blob.round, 1u) << "async cuts always at the stream boundary";
    auto cfg = base;
    cfg.resume_blob = &blob.bytes;
    const auto resumed = sys::run_sharded_campaign(cfg);
    expect_same_result(reference, resumed,
                       "cut at mark " + std::to_string(blob.mark));
    // A resumed process re-emits only the blobs past its cut.
    std::size_t after = 0;
    for (const Blob& b : blobs) {
      if (b.mark > blob.mark) ++after;
    }
    EXPECT_EQ(resumed.checkpoints_written, after);
  }
}

}  // namespace
