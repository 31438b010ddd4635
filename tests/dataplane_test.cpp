// Integration tests for the data plane: transfer latency/CPU ordering across
// the three architectures (the relations behind Fig. 7 and Fig. 13),
// routing, gateway behavior, shm leases and idle-cost accounting.

#include <gtest/gtest.h>

#include <memory>

#include "src/dataplane/dataplane.hpp"
#include "src/dataplane/probe.hpp"
#include "src/fl/model_spec.hpp"
#include "src/sim/calibration.hpp"

namespace lifl::dp {
namespace {

namespace calib = sim::calib;

struct World {
  sim::Simulator sim;
  sim::Cluster cluster;
  DataPlane plane;

  explicit World(DataPlaneConfig cfg, std::size_t nodes = 2)
      : cluster(sim, nodes), plane(cluster, cfg, sim::Rng(42)) {}
};

double intra_latency(DataPlaneConfig cfg, std::size_t bytes) {
  World w(cfg);
  double latency = -1;
  measure_transfer(w.plane, 0, 0, bytes, [&](double l) { latency = l; });
  w.sim.run();
  return latency;
}

double inter_latency(DataPlaneConfig cfg, std::size_t bytes) {
  World w(cfg);
  double latency = -1;
  measure_transfer(w.plane, 0, 1, bytes, [&](double l) { latency = l; });
  w.sim.run();
  return latency;
}

double intra_cpu_gcycles(DataPlaneConfig cfg, std::size_t bytes) {
  World w(cfg);
  measure_transfer(w.plane, 0, 0, bytes, nullptr);
  w.sim.run();
  w.plane.settle_idle_costs();
  return w.cluster.total_cpu().total_cycles() / 1e9;
}

// ---- Fig. 7(a) anchor points: LIFL intra-node transfer latency.
TEST(DataPlaneLatency, LiflResNet152MatchesPaperAnchor) {
  const double l = intra_latency(lifl_plane(), fl::models::resnet152().bytes());
  EXPECT_NEAR(l, 0.76, 0.08);  // paper: 0.76 s
}

TEST(DataPlaneLatency, LiflResNet18MatchesPaperAnchor) {
  const double l = intra_latency(lifl_plane(), fl::models::resnet18().bytes());
  EXPECT_NEAR(l, 0.14, 0.04);  // paper: 0.14 s
}

TEST(DataPlaneLatency, LiflResNet34MatchesPaperAnchor) {
  const double l = intra_latency(lifl_plane(), fl::models::resnet34().bytes());
  EXPECT_NEAR(l, 0.25, 0.06);  // paper: 0.25 s
}

// ---- Fig. 7(a) relations: SL ~ 2x SF and ~ 6x LIFL; SF ~ 3x LIFL.
class PlaneLatencyOrdering : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PlaneLatencyOrdering, ServerlessWorstLiflBest) {
  const std::size_t bytes = GetParam();
  const double lifl = intra_latency(lifl_plane(), bytes);
  const double sf = intra_latency(serverful_plane(), bytes);
  const double sl = intra_latency(serverless_plane(), bytes);
  EXPECT_LT(lifl, sf);
  EXPECT_LT(sf, sl);
  EXPECT_NEAR(sf / lifl, 3.0, 0.8);   // paper: ~3x
  EXPECT_NEAR(sl / lifl, 6.0, 1.5);   // paper: ~5.8-6x
  EXPECT_NEAR(sl / sf, 2.0, 0.5);     // paper: ~2x
}

INSTANTIATE_TEST_SUITE_P(Models, PlaneLatencyOrdering,
                         ::testing::Values(fl::models::resnet18().bytes(),
                                           fl::models::resnet34().bytes(),
                                           fl::models::resnet152().bytes()));

// ---- Fig. 7(b): CPU ordering matches latency ordering.
TEST(DataPlaneCpu, OrderingLiflServerfulServerless) {
  const std::size_t bytes = fl::models::resnet152().bytes();
  const double lifl = intra_cpu_gcycles(lifl_plane(), bytes);
  const double sf = intra_cpu_gcycles(serverful_plane(), bytes);
  const double sl = intra_cpu_gcycles(serverless_plane(), bytes);
  EXPECT_LT(lifl, sf);
  EXPECT_LT(sf, sl);
  // LIFL's measured transfer cost for ResNet-152 is ~2.45 Gcycles in the
  // paper; ours must be in the same regime (within ~2x).
  EXPECT_GT(lifl, 1.2);
  EXPECT_LT(lifl, 4.9);
}

// ---- §6.1: cross-node ResNet-152 transfer ~4.2 s on LIFL's plane.
TEST(DataPlaneLatency, InterNodeResNet152MatchesPaperAnchor) {
  const double l = inter_latency(lifl_plane(), fl::models::resnet152().bytes());
  EXPECT_NEAR(l, 4.2, 0.5);
}

TEST(DataPlaneLatency, InterNodeCostsMoreThanIntraNode) {
  for (const auto cfg :
       {lifl_plane(), serverful_plane(), serverless_plane()}) {
    const std::size_t bytes = fl::models::resnet18().bytes();
    EXPECT_LT(intra_latency(cfg, bytes), inter_latency(cfg, bytes));
  }
}

TEST(DataPlaneLatency, LatencyMonotonicInBytes) {
  for (const auto cfg :
       {lifl_plane(), serverful_plane(), serverless_plane()}) {
    double prev = 0.0;
    for (const std::size_t mb : {1, 10, 50, 100, 200}) {
      const double l = intra_latency(cfg, mb * 1000000ull);
      EXPECT_GT(l, prev);
      prev = l;
    }
  }
}

// ---- Contention: concurrent kernel transfers slow each other (Fig. 4),
// while LIFL's shm path does not contend on the kernel stack.
TEST(DataPlaneContention, KernelTransfersContend) {
  const std::size_t bytes = fl::models::resnet152().bytes();
  auto run_n = [&](DataPlaneConfig cfg, int n) {
    World w(cfg);
    int remaining = n;
    double last = 0;
    for (int i = 0; i < n; ++i) {
      measure_transfer(w.plane, 0, 0, bytes,
                       [&](double) {
                         last = w.sim.now();
                         --remaining;
                       },
                       900000 + 10 * i);
    }
    w.sim.run();
    EXPECT_EQ(remaining, 0);
    return last;
  };
  const double sf_1 = run_n(serverful_plane(), 1);
  const double sf_8 = run_n(serverful_plane(), 8);
  // 8 concurrent kernel transfers through a 2-core kernel budget: heavy
  // slowdown (near-serialized kernel work).
  EXPECT_GT(sf_8, sf_1 * 2.0);

  const double lifl_1 = run_n(lifl_plane(), 1);
  const double lifl_8 = run_n(lifl_plane(), 8);
  // The shm path's only kernel work is the tiny SKMSG notify: the slowdown
  // must be far smaller than the kernel plane's.
  EXPECT_LT(lifl_8 / lifl_1, sf_8 / sf_1);
}

// ---- Routing.
TEST(DataPlaneRouting, RegisterLookupUnregister) {
  World w(lifl_plane());
  bool delivered = false;
  w.plane.register_consumer(5, 1, [&](fl::ModelUpdate) { delivered = true; });
  EXPECT_EQ(w.plane.node_of(5), std::make_optional<sim::NodeId>(1));
  // Sockmap on node 1 holds the socket; node 0's gateway table routes to 1.
  EXPECT_NE(w.plane.env(1).sockmap.lookup(5), nullptr);
  EXPECT_EQ(w.plane.env(0).remote_routes.lookup(5),
            std::make_optional<sim::NodeId>(1));
  fl::ModelUpdate u;
  u.sample_count = 1;
  u.logical_bytes = 1000;
  w.plane.send(4, 0, 5, u);
  w.sim.run();
  EXPECT_TRUE(delivered);

  w.plane.unregister_consumer(5);
  EXPECT_FALSE(w.plane.node_of(5).has_value());
  EXPECT_EQ(w.plane.env(1).sockmap.lookup(5), nullptr);
  EXPECT_FALSE(w.plane.env(0).remote_routes.lookup(5).has_value());
}

TEST(DataPlaneRouting, SendToUnknownConsumerThrows) {
  World w(lifl_plane());
  fl::ModelUpdate u;
  u.sample_count = 1;
  u.logical_bytes = 10;
  EXPECT_THROW(w.plane.send(1, 0, 999, u), std::invalid_argument);
}

TEST(DataPlaneRouting, MidFlightUnregisterFallsBackToPool) {
  World w(lifl_plane());
  w.plane.register_consumer(5, 0, [](fl::ModelUpdate) { FAIL(); });
  fl::ModelUpdate u;
  u.sample_count = 1;
  u.logical_bytes = 50'000'000;
  w.plane.send(4, 0, 5, u);
  w.plane.unregister_consumer(5);  // disappears while the transfer is in flight
  w.sim.run();
  EXPECT_EQ(w.plane.env(0).pool.depth(), 1u);
}

// ---- Shared-memory behavior of the LIFL plane.
TEST(DataPlaneShm, UploadLandsInStoreAndLeaseReleases) {
  World w(lifl_plane());
  fl::ModelUpdate u;
  u.sample_count = 1;
  u.logical_bytes = 1000;
  w.plane.client_upload(0, u, 1e9);
  w.sim.run();
  auto& store = w.plane.env(0).store;
  EXPECT_EQ(store.size(), 1u);  // the update sits in shm, queued in place
  {
    fl::ModelUpdate got;
    ASSERT_TRUE(w.plane.env(0).pool.try_pop(got));
    EXPECT_EQ(store.size(), 1u);
  }  // consumer dropped the update => lease released => buffer recycled
  EXPECT_EQ(store.size(), 0u);
  EXPECT_GE(store.stats().pool_bytes, 1000u);
}

TEST(DataPlaneShm, KernelPlanesDoNotTouchStore) {
  World w(serverful_plane());
  fl::ModelUpdate u;
  u.sample_count = 1;
  u.logical_bytes = 1000;
  w.plane.client_upload(0, u, 1e9);
  w.sim.run();
  EXPECT_EQ(w.plane.env(0).store.size(), 0u);
  EXPECT_EQ(w.plane.env(0).pool.depth(), 1u);
}

TEST(DataPlaneShm, InterNodeSendRematerializesAtDestination) {
  World w(lifl_plane());
  bool delivered = false;
  w.plane.register_consumer(5, 1, [&](fl::ModelUpdate got) {
    delivered = true;
    EXPECT_TRUE(got.lease);
  });
  fl::ModelUpdate u;
  u.sample_count = 1;
  u.logical_bytes = 1000;
  w.plane.send(4, 0, 5, u);
  w.sim.run();
  EXPECT_TRUE(delivered);
  EXPECT_EQ(w.plane.inter_node_bytes(), 1000u);
}

// ---- Broker bookkeeping and always-on costs (serverless plane).
TEST(DataPlaneBroker, BrokerBuffersWholePayloads) {
  World w(serverless_plane());
  fl::ModelUpdate u;
  u.sample_count = 1;
  u.logical_bytes = 5000;
  w.plane.client_upload(0, u, 1e9);
  w.sim.run();
  EXPECT_EQ(w.plane.env(0).broker.messages(), 1u);
  EXPECT_EQ(w.plane.env(0).broker.total_bytes(), 5000u);
  // The payload rests in the broker's buffers until a consumer drains it —
  // unlike LIFL's in-place queuing, the broker holds whole payloads.
  EXPECT_EQ(w.plane.env(0).broker.bytes_buffered(), 5000u);
  EXPECT_EQ(w.plane.env(0).broker.peak_bytes(), 5000u);

  // Consuming the queued update is a broker delivery: it drains the buffer.
  fl::ModelUpdate queued;
  ASSERT_TRUE(w.plane.env(0).pool.try_pop(queued));
  bool delivered = false;
  w.plane.consume(0, queued, [&] { delivered = true; });
  w.sim.run();
  EXPECT_TRUE(delivered);
  EXPECT_EQ(w.plane.env(0).broker.bytes_buffered(), 0u);
}

TEST(DataPlaneBroker, BrokerIdleDrawAccrues) {
  World w(serverless_plane());
  w.sim.run_until(100.0);
  w.plane.settle_idle_costs();
  const double broker_cycles =
      w.cluster.node(0).cpu().cycles(sim::CostTag::kBroker);
  // 100 s of always-on broker draw on node 0.
  EXPECT_NEAR(broker_cycles,
              100.0 * calib::kBrokerIdleCores * calib::kCpuHz,
              1e6);
}

TEST(DataPlaneBroker, LiflPlaneHasNoBrokerDraw) {
  World w(lifl_plane());
  w.sim.run_until(100.0);
  w.plane.settle_idle_costs();
  EXPECT_DOUBLE_EQ(w.cluster.node(0).cpu().cycles(sim::CostTag::kBroker), 0.0);
}

TEST(DataPlaneIdle, RegisterAndRemoveDrawBillsElapsed) {
  World w(lifl_plane());
  const IdleHandle h =
      w.plane.register_idle_draw(0, sim::CostTag::kSidecarContainer, 0.5);
  w.sim.run_until(10.0);
  w.plane.remove_idle_draw(h);
  EXPECT_NEAR(w.cluster.node(0).cpu().cycles(sim::CostTag::kSidecarContainer),
              10.0 * 0.5 * calib::kCpuHz, 1e6);
  // No further accrual after removal.
  w.sim.run_until(20.0);
  w.plane.settle_idle_costs();
  EXPECT_NEAR(w.cluster.node(0).cpu().cycles(sim::CostTag::kSidecarContainer),
              10.0 * 0.5 * calib::kCpuHz, 1e6);
}

// ---- eBPF sidecar: event-driven metrics, zero idle cost (§4.3).
TEST(DataPlaneSidecar, EbpfSidecarWritesMetricsOnSend) {
  World w(lifl_plane());
  w.plane.register_consumer(5, 0, [](fl::ModelUpdate) {});
  fl::ModelUpdate u;
  u.sample_count = 1;
  u.logical_bytes = 777;
  w.plane.send(4, 0, 5, u);
  w.sim.run();
  EXPECT_EQ(w.plane.env(0).metrics.get(MetricsMap::kSends), 1.0);
  EXPECT_EQ(w.plane.env(0).metrics.get(MetricsMap::kSendBytes), 777.0);
}

TEST(DataPlaneSidecar, EbpfSidecarCostsNothingWhenIdle) {
  World w(lifl_plane());
  w.sim.run_until(1000.0);
  w.plane.settle_idle_costs();
  EXPECT_DOUBLE_EQ(
      w.cluster.node(0).cpu().cycles(sim::CostTag::kSidecarEbpf), 0.0);
}

TEST(DataPlaneSidecar, RecordAggExecFeedsMetricsMap) {
  World w(lifl_plane());
  w.plane.record_agg_exec(0, 0.25);
  w.plane.record_agg_exec(0, 0.35);
  EXPECT_NEAR(w.plane.env(0).metrics.get(MetricsMap::kAggExecSum), 0.6,
              1e-12);
  EXPECT_EQ(w.plane.env(0).metrics.get(MetricsMap::kAggExecCount), 2.0);
}

// ---- Gateway vertical scaling (§4.2).
TEST(DataPlaneGateway, VerticalScalingChangesCapacity) {
  World w(lifl_plane());
  EXPECT_EQ(w.plane.env(0).gateway.capacity(), 2u);
  w.plane.set_gateway_cores(0, 6);
  EXPECT_EQ(w.plane.env(0).gateway.capacity(), 6u);
}

TEST(DataPlaneShm, LeaseOutlivingStoreReleasesSafely) {
  // Regression: a closure parked in a simulator queue at teardown can hold
  // a ModelUpdate whose shm lease outlives the DataPlane. The lease must
  // no-op instead of releasing into a destroyed store.
  fl::ModelUpdate survivor;
  {
    World w(lifl_plane());
    fl::ModelUpdate u;
    u.sample_count = 1;
    u.logical_bytes = 1000;
    w.plane.client_upload(0, u, 1e9);
    w.sim.run();
    ASSERT_TRUE(w.plane.env(0).pool.try_pop(survivor));
    ASSERT_TRUE(survivor.lease);
  }  // plane (and its stores) destroyed here
  survivor = fl::ModelUpdate{};  // must not crash or throw
  SUCCEED();
}

TEST(DataPlaneGateway, MoreGatewayCoresSpeedUpConcurrentIngest) {
  const std::size_t bytes = fl::models::resnet152().bytes();
  auto run_ingest = [&](std::uint32_t cores) {
    World w(lifl_plane());
    w.plane.set_gateway_cores(0, cores);
    for (int i = 0; i < 8; ++i) {
      fl::ModelUpdate u;
      u.sample_count = 1;
      u.logical_bytes = bytes;
      w.plane.client_upload(0, u, 1e12);
    }
    w.sim.run();
    return w.sim.now();
  };
  EXPECT_GT(run_ingest(1), run_ingest(8) * 1.5);
}

}  // namespace
}  // namespace lifl::dp
