// Unit tests for the control plane: EWMA, placement engine, hierarchy
// planner, metrics server and the TAG abstraction.

#include <gtest/gtest.h>

#include <numeric>

#include "src/control/ewma.hpp"
#include "src/control/hierarchy.hpp"
#include "src/control/metrics_server.hpp"
#include "src/control/placement.hpp"

namespace lifl::ctrl {
namespace {

// ----------------------------------------------------------------- EWMA
TEST(Ewma, FirstObservationInitializes) {
  Ewma e(0.7);
  EXPECT_DOUBLE_EQ(e.observe(10.0), 10.0);
}

TEST(Ewma, PaperFormula) {
  // Q_t = alpha*Q_{t-1} + (1-alpha)*q_t with alpha = 0.7 (§5.2).
  Ewma e(0.7);
  e.observe(10.0);
  EXPECT_NEAR(e.observe(20.0), 0.7 * 10.0 + 0.3 * 20.0, 1e-12);
}

TEST(Ewma, ConvergesToConstantInput) {
  Ewma e(0.7);
  for (int i = 0; i < 200; ++i) e.observe(42.0);
  EXPECT_NEAR(e.value(), 42.0, 1e-9);
}

TEST(Ewma, SmoothsSpikes) {
  // A one-sample spike must move the estimate by only (1-alpha) of itself —
  // the §5.2 protection against short-term over-allocation.
  Ewma e(0.7);
  for (int i = 0; i < 50; ++i) e.observe(10.0);
  e.observe(110.0);
  EXPECT_NEAR(e.value(), 10.0 + 0.3 * 100.0, 1e-9);
}

TEST(Ewma, AlphaOneIgnoresNewSamples) {
  Ewma e(1.0);
  e.observe(5.0);
  e.observe(100.0);
  EXPECT_DOUBLE_EQ(e.value(), 5.0);
}

TEST(Ewma, AlphaZeroTracksExactly) {
  Ewma e(0.0);
  e.observe(5.0);
  e.observe(100.0);
  EXPECT_DOUBLE_EQ(e.value(), 100.0);
}

TEST(Ewma, InvalidAlphaThrows) {
  EXPECT_THROW(Ewma(-0.1), std::invalid_argument);
  EXPECT_THROW(Ewma(1.1), std::invalid_argument);
}

TEST(Ewma, ResetForgets) {
  Ewma e(0.7);
  e.observe(10.0);
  e.reset();
  EXPECT_FALSE(e.initialized());
  EXPECT_DOUBLE_EQ(e.observe(3.0), 3.0);
}

// ------------------------------------------------------------- placement
std::vector<NodeCapacity> uniform_nodes(std::size_t n, double mc) {
  std::vector<NodeCapacity> nodes(n);
  for (std::size_t i = 0; i < n; ++i) {
    nodes[i].node = static_cast<sim::NodeId>(i);
    nodes[i].max_capacity = mc;
  }
  return nodes;
}

TEST(Placement, ResidualCapacityFormula) {
  NodeCapacity c{0, 20.0, 4.0, 2.0};
  EXPECT_DOUBLE_EQ(c.load(), 8.0);     // k*E
  EXPECT_DOUBLE_EQ(c.residual(), 12.0);  // MC - k*E (§5.1)
}

TEST(Placement, BestFitPacksOntoFewestNodes) {
  // The Fig. 8(d) anchor: MC=20, 5 nodes; 20/60/100 updates need 1/3/5.
  PlacementEngine best(PlacementPolicy::kBestFit);
  for (const auto& [updates, expect_nodes] :
       std::vector<std::pair<std::size_t, std::size_t>>{
           {20, 1}, {60, 3}, {100, 5}}) {
    const auto r = best.place_units(updates, uniform_nodes(5, 20.0));
    EXPECT_EQ(r.nodes_used, expect_nodes) << updates << " updates";
    EXPECT_EQ(r.overflow, 0u);
  }
}

TEST(Placement, WorstFitSpreadsAcrossAllNodes) {
  // Knative's least-connection behavior: SL-H uses all 5 nodes regardless.
  PlacementEngine worst(PlacementPolicy::kWorstFit);
  for (const std::size_t updates : {20, 60, 100}) {
    const auto r = worst.place_units(updates, uniform_nodes(5, 20.0));
    EXPECT_EQ(r.nodes_used, 5u) << updates << " updates";
  }
}

TEST(Placement, FirstFitFillsInOrder) {
  PlacementEngine first(PlacementPolicy::kFirstFit);
  const auto r = first.place_units(25, uniform_nodes(5, 20.0));
  EXPECT_EQ(r.nodes_used, 2u);
  // First 20 on node 0, the rest on node 1.
  for (int i = 0; i < 20; ++i) EXPECT_EQ(r.assignment[i], 0u);
  for (int i = 20; i < 25; ++i) EXPECT_EQ(r.assignment[i], 1u);
}

TEST(Placement, CapacityNeverExceededWithoutOverflow) {
  for (const auto policy :
       {PlacementPolicy::kBestFit, PlacementPolicy::kFirstFit,
        PlacementPolicy::kWorstFit}) {
    PlacementEngine p(policy);
    const auto r = p.place_units(100, uniform_nodes(5, 20.0));
    EXPECT_EQ(r.overflow, 0u);
    for (double load : r.load_after) EXPECT_LE(load, 20.0 + 1e-9);
  }
}

TEST(Placement, OverflowGoesToLeastLoaded) {
  PlacementEngine best(PlacementPolicy::kBestFit);
  const auto r = best.place_units(12, uniform_nodes(2, 5.0));
  EXPECT_EQ(r.overflow, 2u);
  // Both nodes end up at 6 (5 capacity + 1 overflow each).
  EXPECT_NEAR(r.load_after[0], 6.0, 1e-9);
  EXPECT_NEAR(r.load_after[1], 6.0, 1e-9);
}

TEST(Placement, RespectsExistingLoad) {
  auto nodes = uniform_nodes(2, 10.0);
  nodes[0].arrival_rate = 4.0;
  nodes[0].exec_time = 2.0;  // load 8 => residual 2
  PlacementEngine best(PlacementPolicy::kBestFit);
  const auto r = best.place_units(4, nodes);
  // BestFit fills node0's remaining 2 first (tightest), then node1.
  EXPECT_EQ(r.assignment[0], 0u);
  EXPECT_EQ(r.assignment[1], 0u);
  EXPECT_EQ(r.assignment[2], 1u);
  EXPECT_EQ(r.assignment[3], 1u);
}

TEST(Placement, NoNodesThrows) {
  PlacementEngine p(PlacementPolicy::kBestFit);
  EXPECT_THROW(p.place_units(1, {}), std::invalid_argument);
}

TEST(Placement, NonUnitDemands) {
  PlacementEngine best(PlacementPolicy::kBestFit);
  const auto r = best.place({3.0, 3.0, 3.0, 3.0}, uniform_nodes(3, 6.0));
  EXPECT_EQ(r.nodes_used, 2u);  // two demands per node
}

// Property: BestFit never uses more nodes than WorstFit, for any load.
class PlacementDominanceProperty : public ::testing::TestWithParam<int> {};

TEST_P(PlacementDominanceProperty, BestFitUsesNoMoreNodesThanWorstFit) {
  const int n = GetParam();
  PlacementEngine best(PlacementPolicy::kBestFit);
  PlacementEngine worst(PlacementPolicy::kWorstFit);
  const auto rb = best.place_units(n, uniform_nodes(5, 20.0));
  const auto rw = worst.place_units(n, uniform_nodes(5, 20.0));
  EXPECT_LE(rb.nodes_used, rw.nodes_used);
  // Total load is conserved either way.
  EXPECT_NEAR(std::accumulate(rb.load_after.begin(), rb.load_after.end(), 0.0),
              n, 1e-9);
  EXPECT_NEAR(std::accumulate(rw.load_after.begin(), rw.load_after.end(), 0.0),
              n, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Loads, PlacementDominanceProperty,
                         ::testing::Values(1, 5, 19, 20, 21, 40, 60, 85, 100));

// -------------------------------------------------------------- hierarchy
TEST(Hierarchy, LeavesAreCeilQOverI) {
  HierarchyPlanner planner(2);
  const auto plan = planner.plan({8.0, 0.0, 5.0}, 0);
  ASSERT_EQ(plan.per_node.size(), 2u);
  EXPECT_EQ(plan.per_node[0].node, 0u);
  EXPECT_EQ(plan.per_node[0].leaves, 4u);  // ceil(8/2)
  EXPECT_TRUE(plan.per_node[0].middle);
  EXPECT_EQ(plan.per_node[1].node, 2u);
  EXPECT_EQ(plan.per_node[1].leaves, 3u);  // ceil(5/2)
  EXPECT_TRUE(plan.per_node[1].middle);
}

TEST(Hierarchy, SingleLeafNeedsNoMiddle) {
  HierarchyPlanner planner(2);
  const auto plan = planner.plan({2.0}, 0);
  EXPECT_EQ(plan.per_node[0].leaves, 1u);
  EXPECT_FALSE(plan.per_node[0].middle);
}

TEST(Hierarchy, ZeroPendingNodesGetNothing) {
  HierarchyPlanner planner(2);
  const auto plan = planner.plan({0.0, 0.0, 4.0}, 2);
  EXPECT_EQ(plan.per_node.size(), 1u);
  EXPECT_EQ(plan.per_node[0].node, 2u);
}

TEST(Hierarchy, AggregatorCountFormula) {
  HierarchyPlanner planner(2);
  const auto plan = planner.plan({8.0, 5.0}, 0);
  // node0: 4 leaves + middle; node1: 3 leaves + middle; + top = 10.
  EXPECT_EQ(plan.total_aggregators(), 10u);
  EXPECT_EQ(plan.top_fanin(), 2u);
  EXPECT_EQ(plan.nodes_used(), 2u);
}

TEST(Hierarchy, TopOnOtherwiseIdleNodeCountsAsUsed) {
  HierarchyPlanner planner(2);
  const auto plan = planner.plan({4.0, 0.0}, 1);
  EXPECT_EQ(plan.nodes_used(), 2u);  // node0 (data) + node1 (top)
}

TEST(Hierarchy, FractionalQRoundsUp) {
  HierarchyPlanner planner(2);
  const auto plan = planner.plan({3.2}, 0);
  EXPECT_EQ(plan.per_node[0].leaves, 2u);  // ceil(3.2/2)
  EXPECT_EQ(plan.per_node[0].expected_updates, 4u);
}

TEST(Hierarchy, ZeroUpdatesPerLeafThrows) {
  EXPECT_THROW(HierarchyPlanner(0), std::invalid_argument);
}

// Property: every pending update has leaf capacity; parallelism is maximal
// (no leaf is assigned more than I updates).
class HierarchyCoverageProperty : public ::testing::TestWithParam<int> {};

TEST_P(HierarchyCoverageProperty, LeafCapacityCoversPending) {
  const int q = GetParam();
  for (const std::uint32_t I : {1u, 2u, 3u, 5u}) {
    HierarchyPlanner planner(I);
    const auto plan = planner.plan({static_cast<double>(q)}, 0);
    if (q == 0) {
      EXPECT_TRUE(plan.per_node.empty());
      continue;
    }
    const auto leaves = plan.per_node[0].leaves;
    EXPECT_GE(leaves * I, static_cast<std::uint32_t>(q));
    EXPECT_LT((leaves - 1) * I, static_cast<std::uint32_t>(q));
  }
}

INSTANTIATE_TEST_SUITE_P(Pending, HierarchyCoverageProperty,
                         ::testing::Values(0, 1, 2, 3, 7, 20, 63, 100));

// ---------------------------------------------------------- metrics server
TEST(MetricsServer, ArrivalRateIsSmoothed) {
  MetricsServer ms(2, 0.5);
  ms.report(0, 10.0, 1.0, 0.0, 0.0);  // 10/s
  ms.report(0, 20.0, 1.0, 0.0, 0.0);  // 20/s
  EXPECT_NEAR(ms.arrival_rate(0), 0.5 * 10 + 0.5 * 20, 1e-12);
}

TEST(MetricsServer, ExecTimeIsCumulativeMean) {
  MetricsServer ms(1);
  ms.report(0, 0.0, 1.0, 6.0, 2.0);
  ms.report(0, 0.0, 1.0, 2.0, 2.0);
  EXPECT_NEAR(ms.exec_time(0), 8.0 / 4.0, 1e-12);
}

TEST(MetricsServer, ExecTimeDefaultBeforeObservations) {
  MetricsServer ms(1);
  EXPECT_DOUBLE_EQ(ms.exec_time(0, 1.5), 1.5);
}

TEST(MetricsServer, QueueEstimateIsRateTimesExec) {
  MetricsServer ms(1, 0.0);  // alpha 0: no smoothing, direct check
  ms.report(0, 8.0, 2.0, 4.0, 4.0);  // k=4/s, E=1s
  EXPECT_NEAR(ms.queue_estimate(0), 4.0, 1e-12);
}

TEST(MetricsServer, ObserveQueueDirect) {
  MetricsServer ms(1, 0.7);
  ms.observe_queue(0, 10.0);
  ms.observe_queue(0, 20.0);
  EXPECT_NEAR(ms.queue_estimate(0), 0.7 * 10 + 0.3 * 20, 1e-12);
}

TEST(MetricsServer, InvalidWindowThrows) {
  MetricsServer ms(1);
  EXPECT_THROW(ms.report(0, 1.0, 0.0, 0.0, 0.0), std::invalid_argument);
}

}  // namespace
}  // namespace lifl::ctrl
