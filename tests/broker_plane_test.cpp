// Tests for the centralized-broker plane semantics (Fig. 2(b), §2.3):
// every brokered message transits the single broker service on its node,
// consumption is a real broker delivery (vs free in-place queuing), and
// the broker's fixed worker threads serialize bursts.

#include <gtest/gtest.h>

#include "src/dataplane/dataplane.hpp"
#include "src/fl/model_spec.hpp"

namespace lifl::dp {
namespace {

struct World {
  sim::Simulator sim;
  sim::Cluster cluster;
  DataPlane plane;

  explicit World(DataPlaneConfig cfg, std::size_t nodes = 3,
                 sim::NodeConfig node_cfg = sim::NodeConfig{})
      : cluster(sim, nodes, node_cfg), plane(cluster, cfg, sim::Rng(12)) {}
};

fl::ModelUpdate update(std::size_t bytes = 10'000'000) {
  fl::ModelUpdate u;
  u.model_version = 1;
  u.producer = 1;
  u.sample_count = 10;
  u.logical_bytes = bytes;
  return u;
}

TEST(BrokerPlane, AllBrokerProcessingBillsTheBrokerNode) {
  DataPlaneConfig cfg = serverless_plane();
  cfg.broker_node = 1;
  World w(cfg);
  // Uploads target node 2, yet the broker work lands on node 1.
  w.plane.client_upload(2, update(), 1e9);
  w.plane.client_upload(2, update(), 1e9);
  w.sim.run();
  EXPECT_GT(w.cluster.node(1).cpu().cycles(sim::CostTag::kBroker), 0.0);
  EXPECT_EQ(w.cluster.node(0).cpu().cycles(sim::CostTag::kBroker), 0.0);
  EXPECT_EQ(w.cluster.node(2).cpu().cycles(sim::CostTag::kBroker), 0.0);
}

TEST(BrokerPlane, ConsumeIsFreeOnLiflAndServerfulPlanes) {
  for (const auto cfg : {lifl_plane(), serverful_plane()}) {
    World w(cfg);
    w.plane.seed_update(0, update());
    fl::UpdateDesc got;
    ASSERT_TRUE(w.plane.env(0).pool.try_pop(got));
    bool ready = false;
    const double t0 = w.sim.now();
    w.plane.consume(0, got, [&](fl::UpdateDesc) { ready = true; });
    w.sim.run();
    EXPECT_TRUE(ready);
    EXPECT_DOUBLE_EQ(w.sim.now(), t0);  // zero simulated time
  }
}

TEST(BrokerPlane, ConsumeCostsTimeOnBrokeredPlanes) {
  World w(serverless_plane());
  w.plane.seed_update(0, update());
  fl::UpdateDesc got;
  ASSERT_TRUE(w.plane.env(0).pool.try_pop(got));
  bool ready = false;
  w.plane.consume(0, got, [&](fl::UpdateDesc) { ready = true; });
  w.sim.run();
  EXPECT_TRUE(ready);
  EXPECT_GT(w.sim.now(), 0.01);  // dequeue + kernel + sidecar legs
}

TEST(BrokerPlane, CrossNodeConsumePaysTheWire) {
  // Broker on node 0, consumer on node 2: the delivery crosses the NIC.
  auto drain_time = [&](sim::NodeId consumer_node) {
    DataPlaneConfig cfg = serverless_plane();
    cfg.broker_node = 0;
    World w(cfg);
    const fl::UpdateDesc u = fl::describe(update(100'000'000));
    bool ready = false;
    w.plane.consume(consumer_node, u,
                    [&](fl::UpdateDesc) { ready = true; });
    w.sim.run();
    EXPECT_TRUE(ready);
    return w.sim.now();
  };
  EXPECT_GT(drain_time(2), drain_time(0));
}

TEST(BrokerPlane, InterNodeSendRoutesThroughBroker) {
  DataPlaneConfig cfg = serverless_plane();
  cfg.broker_node = 1;
  World w(cfg);
  bool delivered = false;
  w.plane.register_consumer(42, 2, [&](fl::UpdateDesc) { delivered = true; });
  w.plane.send(7, 0, 42, update());
  w.sim.run();
  EXPECT_TRUE(delivered);
  // The broker node did processing even though it is neither src nor dst.
  EXPECT_GT(w.cluster.node(1).cpu().cycles(sim::CostTag::kBroker), 0.0);
}

TEST(BrokerPlane, SameNodeSendStillTransitsBroker) {
  // §2.3 indirect networking: co-located functions still exchange messages
  // through the broker.
  World w(serverless_plane());
  bool delivered = false;
  w.plane.register_consumer(42, 0, [&](fl::UpdateDesc) { delivered = true; });
  w.plane.send(7, 0, 42, update());
  w.sim.run();
  EXPECT_TRUE(delivered);
  EXPECT_GT(w.cluster.node(0).cpu().cycles(sim::CostTag::kBroker), 0.0);
}

/// Property: a burst of B consumes drains no faster than the broker's
/// worker threads allow — and adding threads shortens the drain.
class BrokerCapacitySweep : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(BrokerCapacitySweep, DrainScalesWithWorkerThreads) {
  const std::uint32_t cores = GetParam();
  DataPlaneConfig cfg = serverless_plane();
  cfg.broker_cores = cores;
  // The property under test is about the broker's worker threads, so give
  // the node an uncontended kernel path; with the default 2-core kernel
  // budget the kernel stack (not the broker) bounds the drain and no amount
  // of broker threads can shorten it.
  sim::NodeConfig node_cfg;
  node_cfg.kernel_net_cores = 16;
  World w(cfg, 1, node_cfg);
  constexpr int kBurst = 8;
  int ready = 0;
  for (int i = 0; i < kBurst; ++i) {
    w.plane.seed_update(0, update(50'000'000));
  }
  std::vector<fl::UpdateDesc> popped(kBurst);
  for (int i = 0; i < kBurst; ++i) {
    ASSERT_TRUE(w.plane.env(0).pool.try_pop(popped[i]));
    w.plane.consume(0, popped[i], [&](fl::UpdateDesc) { ++ready; });
  }
  w.sim.run();
  EXPECT_EQ(ready, kBurst);
  // Record drain time in a map shared across instantiations via statics.
  static std::map<std::uint32_t, double> drains;
  drains[cores] = w.sim.now();
  if (drains.count(1) && drains.count(4)) {
    EXPECT_GT(drains[1], drains[4] * 1.5);
  }
}

INSTANTIATE_TEST_SUITE_P(Cores, BrokerCapacitySweep,
                         ::testing::Values(1u, 2u, 4u));

}  // namespace
}  // namespace lifl::dp
