// CampaignPlanner: the streaming-hierarchy planner — per-group EWMA
// estimates, hysteresis-banded re-planning, multi-level sizing, and the
// edge cases of the ISSUE (zero pending everywhere, single-node group,
// fan-in smaller than updates_per_leaf).

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "src/control/campaign_planner.hpp"

namespace {

using lifl::ctrl::CampaignPlan;
using lifl::ctrl::CampaignPlanner;

CampaignPlanner::Config base_config() {
  CampaignPlanner::Config cfg;
  cfg.updates_per_leaf = 10;
  cfg.middle_fanin = 4;
  cfg.min_leaves = 1;
  cfg.max_leaves = 64;
  cfg.ewma_alpha = 0.7;
  cfg.hysteresis = 0.25;
  return cfg;
}

TEST(CampaignPlanner, InvalidConfigThrows) {
  EXPECT_THROW(CampaignPlanner(base_config(), 0), std::invalid_argument);
  auto cfg = base_config();
  cfg.middle_fanin = 0;
  EXPECT_THROW(CampaignPlanner(cfg, 1), std::invalid_argument);
  cfg = base_config();
  cfg.min_leaves = 0;
  EXPECT_THROW(CampaignPlanner(cfg, 1), std::invalid_argument);
  cfg = base_config();
  cfg.min_leaves = 8;
  cfg.max_leaves = 4;
  EXPECT_THROW(CampaignPlanner(cfg, 1), std::invalid_argument);
}

TEST(CampaignPlanner, LeafSizingIsCeilQOverIClamped) {
  CampaignPlanner p(base_config(), 1);
  EXPECT_EQ(p.leaves_for(0.0), 0u);     // no work, no aggregators
  EXPECT_EQ(p.leaves_for(-3.0), 0u);
  EXPECT_EQ(p.leaves_for(1.0), 1u);
  EXPECT_EQ(p.leaves_for(10.0), 1u);
  EXPECT_EQ(p.leaves_for(11.0), 2u);
  EXPECT_EQ(p.leaves_for(95.0), 10u);
  EXPECT_EQ(p.leaves_for(1e9), 64u);    // clamped to max_leaves
}

TEST(CampaignPlanner, FanInSmallerThanUpdatesPerLeaf) {
  // A round target below I still yields one leaf, which claims the whole
  // (short) batch.
  CampaignPlanner p(base_config(), 1);
  EXPECT_EQ(p.leaves_for(3.0), 1u);
  const CampaignPlan plan = p.plan_round({3.0});
  EXPECT_EQ(plan.groups[0].leaves, 1u);
  EXPECT_EQ(plan.groups[0].middles, 0u);
}

TEST(CampaignPlanner, MiddleLevelAppearsAboveFanInThreshold) {
  CampaignPlanner p(base_config(), 1);
  EXPECT_EQ(p.middles_for(0), 0u);
  EXPECT_EQ(p.middles_for(4), 0u);   // relay can fold 4 directly
  EXPECT_EQ(p.middles_for(5), 2u);   // ceil(5/4)
  EXPECT_EQ(p.middles_for(16), 4u);
  EXPECT_EQ(p.middles_for(17), 5u);
}

TEST(CampaignPlanner, ZeroPendingOnAllGroupsPlansNothing) {
  CampaignPlanner p(base_config(), 3);
  const CampaignPlan plan = p.plan_round({0.0, 0.0, 0.0});
  ASSERT_EQ(plan.groups.size(), 3u);
  for (const auto& g : plan.groups) {
    EXPECT_EQ(g.leaves, 0u);
    EXPECT_EQ(g.middles, 0u);
  }
  EXPECT_EQ(plan.total_leaves(), 0u);
}

TEST(CampaignPlanner, SingleNodeGroupPlans) {
  CampaignPlanner p(base_config(), 1);
  const CampaignPlan plan = p.plan_round({100.0});
  ASSERT_EQ(plan.groups.size(), 1u);
  EXPECT_EQ(plan.groups[0].leaves, 10u);
  EXPECT_EQ(plan.groups[0].middles, 3u);  // ceil(10/4)
  EXPECT_EQ(p.current(0), 10u);
}

TEST(CampaignPlanner, FirstRoundPlansFromTargetThenFromEstimate) {
  CampaignPlanner p(base_config(), 1);
  // No history: size from the round target (maximal parallelism).
  EXPECT_EQ(p.plan_round({200.0}).groups[0].leaves, 20u);
  // Mid-round observations initialize the estimate; the next boundary plan
  // follows it instead of the raw target.
  (void)p.replan(0, 40.0);
  ASSERT_TRUE(p.estimate_initialized(0));
  const CampaignPlan plan = p.plan_round({200.0});
  EXPECT_EQ(plan.groups[0].leaves, 4u);  // ceil(40/10)
}

TEST(CampaignPlanner, EstimateIsEwmaSmoothed) {
  CampaignPlanner p(base_config(), 1);
  (void)p.replan(0, 100.0);
  EXPECT_DOUBLE_EQ(p.estimate(0), 100.0);  // first sample initializes
  (void)p.replan(0, 0.0);
  EXPECT_DOUBLE_EQ(p.estimate(0), 70.0);   // 0.7 * 100 + 0.3 * 0
  (void)p.replan(0, 0.0);
  EXPECT_DOUBLE_EQ(p.estimate(0), 49.0);
}

TEST(CampaignPlanner, HysteresisBandSuppressesSmallDrift) {
  auto cfg = base_config();
  cfg.ewma_alpha = 0.0;  // track samples exactly: isolate the band logic
  CampaignPlanner p(cfg, 1);
  p.set_current(0, 10);
  // Desired 9..12 leaves sit inside [7.5, 12.5] of current 10: no re-plan.
  EXPECT_FALSE(p.replan(0, 90.0).has_value());
  EXPECT_FALSE(p.replan(0, 115.0).has_value());
  EXPECT_EQ(p.current(0), 10u);
  // Desired 20 breaks the band: re-plan fires and becomes the new current.
  const auto grown = p.replan(0, 200.0);
  ASSERT_TRUE(grown.has_value());
  EXPECT_EQ(*grown, 20u);
  EXPECT_EQ(p.current(0), 20u);
  // Shrink below the band fires too.
  const auto shrunk = p.replan(0, 30.0);
  ASSERT_TRUE(shrunk.has_value());
  EXPECT_EQ(*shrunk, 3u);
  EXPECT_EQ(p.current(0), 3u);
}

TEST(CampaignPlanner, ReplanFromZeroLeavesAlwaysFires) {
  auto cfg = base_config();
  cfg.ewma_alpha = 0.0;
  CampaignPlanner p(cfg, 1);
  ASSERT_EQ(p.current(0), 0u);
  const auto t = p.replan(0, 10.0);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(*t, 1u);
}

TEST(CampaignPlanner, GroupSlotsAreIndependent) {
  CampaignPlanner p(base_config(), 2);
  ASSERT_TRUE(p.replan(0, 100.0).has_value());
  EXPECT_TRUE(p.estimate_initialized(0));
  EXPECT_FALSE(p.estimate_initialized(1));
  EXPECT_GT(p.current(0), 0u);
  EXPECT_EQ(p.current(1), 0u);
}

}  // namespace
