// Flaky edge campaigns: tiered device populations, the client-lifecycle
// session layer and heterogeneity-aware selection, end to end through
// `run_sharded_campaign`. The claims mirror the fault-injection suite:
// integer-exact sample conservation under mid-upload disconnects, bitwise
// 1-vs-K-shard equivalence, bitwise checkpoint/resume from any cut in all
// three hierarchy modes, and hard config validation.

#include <gtest/gtest.h>

#include <cstdlib>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/dataplane/dataplane.hpp"
#include "src/systems/sharded_campaign.hpp"
#include "tests/campaign_result.hpp"

namespace {

namespace sys = lifl::sys;
using lifl::test::expect_same_result;
namespace wl = lifl::wl;
namespace ctrl = lifl::ctrl;

std::size_t env_shards() {
  if (const char* env = std::getenv("LIFL_TEST_SHARDS")) {
    return std::max<std::size_t>(2, std::strtoul(env, nullptr, 10));
  }
  return 2;
}

/// A small tiered campaign: 4 groups x 8 leaves x 10 updates per round
/// over a 40/30/30 flagship/mid/IoT population.
sys::ShardedCampaignConfig tiered_campaign(std::size_t shards) {
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
  cfg.seed = 123;
  cfg.hierarchy = sys::HierarchyMode::kPlanned;
  cfg.replan_interval_secs = 0.5;
  cfg.middle_fanin = 4;
  cfg.device_tiers = wl::TierMix{0.4, 0.3, 0.3};
  return cfg;
}

sys::ShardedCampaignConfig flaky_campaign(std::size_t shards) {
  auto cfg = tiered_campaign(shards);
  cfg.lifecycle.disconnect_rate = 0.2;
  cfg.lifecycle.chunk_bytes = 10'000;
  cfg.lifecycle.offline_base_secs = 0.05;
  cfg.lifecycle.offline_cap_secs = 1.0;
  return cfg;
}

std::uint64_t total_samples(const sys::ShardedCampaignResult& r) {
  return std::accumulate(r.round_samples.begin(), r.round_samples.end(),
                         std::uint64_t{0});
}

std::uint64_t tier_total(const sys::ShardedCampaignResult& r,
                         std::uint64_t sys::ShardedCampaignResult::TierStats::*
                             field) {
  std::uint64_t n = 0;
  for (const auto& t : r.tiers) n += t.*field;
  return n;
}

// ------------------------------------------------------- conservation

TEST(FlakyCampaign, DisconnectsLoseNoSamples) {
  // 20% of session attempts die mid-upload; every parked update resumes
  // chunk-wise and lands exactly once, so each round folds the identical
  // sample sum as the reliable-client run.
  const auto flaky = sys::run_sharded_campaign(flaky_campaign(1));
  const auto clean = sys::run_sharded_campaign(tiered_campaign(1));

  EXPECT_GT(flaky.disconnects, 0u);
  EXPECT_EQ(flaky.resumed_uploads, flaky.disconnects);
  EXPECT_GT(flaky.chunks_resent, 0u);
  ASSERT_EQ(flaky.round_samples.size(), clean.round_samples.size());
  for (std::size_t r = 0; r < clean.round_samples.size(); ++r) {
    EXPECT_EQ(flaky.round_samples[r], clean.round_samples[r])
        << "round " << r + 1;
  }
  // Per-tier accounting closes: every selection completed, and the
  // disconnect totals agree between the tier view and the session view.
  EXPECT_EQ(tier_total(flaky, &sys::ShardedCampaignResult::TierStats::selected),
            tier_total(flaky,
                       &sys::ShardedCampaignResult::TierStats::completed));
  EXPECT_EQ(
      tier_total(flaky, &sys::ShardedCampaignResult::TierStats::disconnects),
      flaky.disconnects);
  // IoT's 2.5x disconnect scale vs flagship's 0.25x shows in the split.
  const auto& iot = flaky.tiers[static_cast<std::size_t>(wl::DeviceTier::kIoT)];
  const auto& fl =
      flaky.tiers[static_cast<std::size_t>(wl::DeviceTier::kFlagship)];
  EXPECT_GT(iot.disconnects, fl.disconnects);

  // The reliable run reports zero lifecycle churn.
  EXPECT_EQ(clean.disconnects, 0u);
  EXPECT_EQ(clean.chunks_resent, 0u);
}

TEST(FlakyCampaign, OfflineQueueBoundIsRespected) {
  // A tiny population under a brutal disconnect schedule: clients are
  // re-picked while earlier sessions are still parked, so the cap must
  // actually bind (redraws happen) and must never be exceeded.
  auto cfg = flaky_campaign(1);
  cfg.population = 200;  // 50 clients per group vs 80 picks per round
  cfg.lifecycle.disconnect_rate = 0.6;
  cfg.lifecycle.offline_base_secs = 0.5;
  cfg.lifecycle.offline_cap_secs = 4.0;
  cfg.lifecycle.offline_queue_cap = 1;
  const auto r = sys::run_sharded_campaign(cfg);
  EXPECT_GT(r.disconnects, 0u);
  EXPECT_GT(r.selection_redraws, 0u);
  EXPECT_LE(r.offline_queue_peak, cfg.lifecycle.offline_queue_cap);
  // Redrawn cohorts still deliver everything they selected.
  EXPECT_EQ(tier_total(r, &sys::ShardedCampaignResult::TierStats::selected),
            tier_total(r, &sys::ShardedCampaignResult::TierStats::completed));
  EXPECT_GT(total_samples(r), 0u);
}

TEST(FlakyCampaign, SessionGatesDelayButDeliver) {
  auto cfg = tiered_campaign(1);
  cfg.lifecycle.session_gates = true;
  cfg.lifecycle.connect_period_secs = 4.0;
  cfg.lifecycle.charge_period_secs = 16.0;
  const auto gated = sys::run_sharded_campaign(cfg);
  const auto open = sys::run_sharded_campaign(tiered_campaign(1));
  EXPECT_GT(gated.gate_wait_secs, 0.0);
  EXPECT_EQ(total_samples(gated), total_samples(open));
}

// --------------------------------------------------- shard invariance

TEST(FlakyCampaign, LifecycleIsShardInvariant) {
  for (const auto mode :
       {sys::HierarchyMode::kFixed, sys::HierarchyMode::kPlanned,
        sys::HierarchyMode::kAsync}) {
    auto base = flaky_campaign(1);
    base.hierarchy = mode;
    base.selector = ctrl::SelectorPolicy::kScored;
    if (mode == sys::HierarchyMode::kAsync) base.async_deadline_secs = 2.0;
    const auto one = sys::run_sharded_campaign(base);
    auto multi = base;
    multi.shards = env_shards();
    const auto n = sys::run_sharded_campaign(multi);
    EXPECT_GT(one.disconnects, 0u);
    expect_same_result(one, n,
                       "mode " + std::to_string(static_cast<int>(mode)) +
                           ", 1 vs " + std::to_string(multi.shards) +
                           " shards");
  }
}

TEST(FlakyCampaign, SelectorStrategiesAreShardInvariant) {
  for (const auto policy :
       {ctrl::SelectorPolicy::kScored, ctrl::SelectorPolicy::kClusterScan}) {
    auto base = tiered_campaign(1);
    base.selector = policy;
    base.straggler_fraction = 0.2;
    base.straggler_delay_secs = 3.0;
    const auto one = sys::run_sharded_campaign(base);
    auto multi = base;
    multi.shards = env_shards();
    const auto n = sys::run_sharded_campaign(multi);
    expect_same_result(one, n,
                       std::string(ctrl::selector_policy_name(policy)) +
                           ", 1 vs " + std::to_string(multi.shards) +
                           " shards");
  }
}

// ---------------------------------------------------- selection shift

TEST(FlakyCampaign, ScoredSelectionLearnsAwayFromStragglerTier) {
  // 30% stragglers, all absorbed by the IoT tier (spill-first coupling):
  // after round 1's telemetry lands, the scored strategy must strongly
  // down-weight IoT while random keeps picking it at its share.
  auto random = tiered_campaign(1);
  random.rounds = 4;
  random.straggler_fraction = 0.3;
  random.straggler_delay_secs = 10.0;
  auto scored = random;
  scored.selector = ctrl::SelectorPolicy::kScored;

  const auto r = sys::run_sharded_campaign(random);
  const auto s = sys::run_sharded_campaign(scored);

  const auto iot = static_cast<std::size_t>(wl::DeviceTier::kIoT);
  using TS = sys::ShardedCampaignResult::TierStats;
  const double r_total =
      static_cast<double>(tier_total(r, &TS::selected));
  const double s_total =
      static_cast<double>(tier_total(s, &TS::selected));
  const double r_iot = static_cast<double>(r.tiers[iot].selected) / r_total;
  const double s_iot = static_cast<double>(s.tiers[iot].selected) / s_total;
  EXPECT_GT(r_iot, 0.25);          // random: ~the 0.3 share
  EXPECT_LT(s_iot, r_iot * 0.5);   // scored: learned exclusion
  // The scored run therefore suffers far fewer straggler delays.
  EXPECT_LT(tier_total(s, &sys::ShardedCampaignResult::TierStats::stragglers),
            tier_total(r, &sys::ShardedCampaignResult::TierStats::stragglers));
}

// --------------------------------------------- checkpoint mid-session

TEST(FlakyCampaign, CheckpointResumeIsBitwiseInAllModes) {
  for (const auto mode :
       {sys::HierarchyMode::kFixed, sys::HierarchyMode::kPlanned,
        sys::HierarchyMode::kAsync}) {
    auto base = flaky_campaign(1);
    base.hierarchy = mode;
    base.selector = ctrl::SelectorPolicy::kScored;
    if (mode == sys::HierarchyMode::kAsync) base.async_deadline_secs = 2.0;
    base.checkpoint_every_secs = 1.0;

    struct Blob {
      std::vector<std::uint8_t> bytes;
      std::uint32_t round = 0;
      double mark = 0.0;
    };
    std::vector<Blob> blobs;
    auto capture = base;
    capture.on_checkpoint = [&blobs](const std::vector<std::uint8_t>& bytes,
                                     std::uint32_t round, double mark) {
      blobs.push_back(Blob{bytes, round, mark});
    };
    const auto reference = sys::run_sharded_campaign(capture);
    EXPECT_GT(reference.disconnects, 0u);
    ASSERT_GE(blobs.size(), 2u);

    const std::size_t picks[] = {0, blobs.size() / 2, blobs.size() - 1};
    for (const std::size_t pick : picks) {
      auto cfg = base;
      cfg.resume_blob = &blobs[pick].bytes;
      const auto resumed = sys::run_sharded_campaign(cfg);
      expect_same_result(reference, resumed,
                         "mode " + std::to_string(static_cast<int>(mode)) +
                             " cut at round " +
                             std::to_string(blobs[pick].round) + ", mark " +
                             std::to_string(blobs[pick].mark));
    }
  }
}

// ------------------------------------------------------------ teardown

TEST(FlakyCampaign, AbortMidStreamReleasesEverything) {
  // A checkpoint sink that throws unwinds the campaign mid-stream: the
  // planes die first, then the sharded core with its queued events —
  // flights, parked pool wakes, live sessions and leased updates. Under
  // ASan/LSan this must neither touch freed memory nor leak.
  struct Abort {};
  auto cfg = flaky_campaign(env_shards());
  cfg.hierarchy = sys::HierarchyMode::kAsync;
  cfg.async_deadline_secs = 2.0;
  cfg.selector = ctrl::SelectorPolicy::kScored;
  cfg.straggler_fraction = 0.1;
  cfg.checkpoint_every_secs = 1.0;
  int marks = 0;
  cfg.on_checkpoint = [&marks](const std::vector<std::uint8_t>&,
                               std::uint32_t, double) {
    if (++marks == 2) throw Abort{};
  };
  EXPECT_THROW(sys::run_sharded_campaign(cfg), Abort);
  EXPECT_EQ(marks, 2);
}

// -------------------------------------------------------- validation

TEST(FlakyCampaign, TransfersLookUpNoRouteAfterWarmUp) {
  // Every transfer takes its route from its node's memo (chunk flights from
  // their session), so the plane's route table is searched only while the
  // memos warm up: twice the stream costs no more lookups. The chunk size
  // leaves a short tail chunk, so each session uses two ingest routes.
  auto cfg = flaky_campaign(env_shards());
  cfg.hierarchy = sys::HierarchyMode::kAsync;
  cfg.lifecycle.chunk_bytes = 15'000;
  const auto lookups_and_uploads = [&](std::uint32_t rounds) {
    cfg.rounds = rounds;
    const std::uint64_t before = lifl::dp::DataPlane::route_table_lookups();
    const sys::ShardedCampaignResult r = sys::run_sharded_campaign(cfg);
    std::uint64_t uploads = 0;
    for (const auto& g : r.groups) uploads += g.uploads;
    EXPECT_GT(r.disconnects, 0u);
    return std::make_pair(lifl::dp::DataPlane::route_table_lookups() - before,
                          uploads);
  };
  const auto [short_lookups, short_uploads] = lookups_and_uploads(2);
  const auto [long_lookups, long_uploads] = lookups_and_uploads(4);
  EXPECT_GT(long_uploads, short_uploads);
  EXPECT_GT(short_lookups, 0u);
  EXPECT_EQ(long_lookups, short_lookups)
      << (long_lookups - short_lookups) << " lookups for "
      << (long_uploads - short_uploads) << " more uploads";
}

TEST(FlakyCampaign, InvalidConfigsAreRejected) {
  // Tier shares must sum to ~1.
  auto bad_mix = tiered_campaign(1);
  bad_mix.device_tiers = wl::TierMix{0.9, 0.4, 0.3};
  EXPECT_THROW((void)sys::run_sharded_campaign(bad_mix),
               std::invalid_argument);

  // The session layer supersedes wire-level upload faults.
  auto mixed = flaky_campaign(1);
  mixed.fault.upload_drop_rate = 0.1;
  EXPECT_THROW((void)sys::run_sharded_campaign(mixed),
               std::invalid_argument);

  // Scored selection needs tier telemetry to learn from.
  auto untier = flaky_campaign(1);
  untier.device_tiers = wl::TierMix{};
  untier.selector = ctrl::SelectorPolicy::kScored;
  EXPECT_THROW((void)sys::run_sharded_campaign(untier),
               std::invalid_argument);

  // A disconnect rate of 1 can never finish a session.
  auto all_drop = flaky_campaign(1);
  all_drop.lifecycle.disconnect_rate = 1.0;
  EXPECT_THROW((void)sys::run_sharded_campaign(all_drop),
               std::invalid_argument);

  // Degenerate lifecycle geometry.
  auto no_chunks = flaky_campaign(1);
  no_chunks.lifecycle.chunk_bytes = 0;
  EXPECT_THROW((void)sys::run_sharded_campaign(no_chunks),
               std::invalid_argument);
  auto no_queue = flaky_campaign(1);
  no_queue.lifecycle.offline_queue_cap = 0;
  EXPECT_THROW((void)sys::run_sharded_campaign(no_queue),
               std::invalid_argument);

  // Bad selection-strategy knobs.
  auto bad_alpha = flaky_campaign(1);
  bad_alpha.selection.alpha = 1.5;
  EXPECT_THROW((void)sys::run_sharded_campaign(bad_alpha),
               std::invalid_argument);
}

// Crash faults compose with the lifecycle: aggregators die and recover
// while client sessions disconnect and resume, and nothing is lost.
TEST(FlakyCampaign, CrashFaultsComposeWithLifecycle) {
  auto cfg = flaky_campaign(1);
  cfg.fault.seed = 31;
  cfg.fault.leaf_crash_rate = 0.10;
  cfg.fault.middle_crash_rate = 0.05;
  const auto faulty = sys::run_sharded_campaign(cfg);
  const auto clean = sys::run_sharded_campaign(tiered_campaign(1));
  EXPECT_GT(faulty.leaf_crashes, 0u);
  EXPECT_GT(faulty.disconnects, 0u);
  ASSERT_EQ(faulty.round_samples.size(), clean.round_samples.size());
  for (std::size_t r = 0; r < clean.round_samples.size(); ++r) {
    EXPECT_EQ(faulty.round_samples[r], clean.round_samples[r])
        << "round " << r + 1;
  }
}

}  // namespace
