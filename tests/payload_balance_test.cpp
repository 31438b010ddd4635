// Retain/release balance of update payloads. Inside the data plane an
// update is a descriptor holding one explicit reference on a payload the
// plane keeps (an shm store entry, or a payload-slab cell); every retain —
// the gateway put, a send, a lease copy — must meet its release — a fold,
// a discard, a lease ack. These tests run whole campaigns and a real-tensor
// aggregation tree to the end and require nothing to be left: no store
// entry, no slab cell, no lease copy, and no tensor-pool byte above where
// the run started.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/dataplane/dataplane.hpp"
#include "src/fl/aggregator_runtime.hpp"
#include "src/ml/tensor_pool.hpp"
#include "src/systems/sharded_campaign.hpp"
#include "tests/campaign_matrix.hpp"

namespace lifl {
namespace {

using matrix::kScenarios;
using matrix::matrix_campaign;

/// Runs `cfg` and checks every group plane ended balanced.
sys::ShardedCampaignResult run_balanced(const sys::ShardedCampaignConfig& cfg,
                                        const char* what) {
  ml::TensorPool& tensors = ml::TensorPool::global();
  const std::size_t live0 = tensors.stats().live_bytes;
  sys::ShardedCampaignResult r = sys::run_sharded_campaign(cfg);
  for (std::size_t g = 0; g < r.groups.size(); ++g) {
    EXPECT_EQ(r.groups[g].payloads_held, 0u)
        << what << " shards " << cfg.shards << " group " << g;
  }
  EXPECT_EQ(tensors.stats().live_bytes, live0)
      << what << " shards " << cfg.shards;
  return r;
}

TEST(PayloadBalance, MatrixCampaignsReleaseEveryPayload) {
  for (const auto& sc : kScenarios) {
    for (const std::size_t shards : {1u, 4u}) {
      run_balanced(matrix_campaign(sc, shards), sc.name);
    }
  }
}

TEST(PayloadBalance, CrashRefoldsReleaseEveryPayload) {
  // Crashed leaves and middles hand their accepted updates back through
  // `lease_abort`; the re-queued and re-injected copies carry the lease's
  // references, which their re-folds must release.
  for (const auto& sc : kScenarios) {
    if (!sc.faults) continue;
    sys::ShardedCampaignConfig cfg = matrix_campaign(sc, 1);
    cfg.fault.leaf_crash_rate = 0.3;
    cfg.fault.middle_crash_rate = 0.2;
    for (const std::size_t shards : {1u, 4u}) {
      cfg.shards = shards;
      const sys::ShardedCampaignResult r = run_balanced(cfg, sc.name);
      EXPECT_GT(r.refolded_updates + r.reinjected_partials, 0u) << sc.name;
    }
  }
}

TEST(PayloadBalance, RealPayloadTreeReleasesEveryPayload) {
  // 2 nodes x 2 leased leaves of real tensors into one top; every store,
  // the slab and the lease table are empty once the round is over, and the
  // only tensor left is the global model the test holds.
  constexpr std::size_t kNodes = 2;
  constexpr std::size_t kLeavesPerNode = 2;
  constexpr std::uint32_t kUploadsPerLeaf = 6;
  constexpr std::size_t kLen = 1024;
  ml::TensorPool& tensors = ml::TensorPool::global();
  const std::size_t live0 = tensors.stats().live_bytes;
  fl::ModelUpdate global;
  {
    sim::Simulator sim;
    sim::Cluster cluster(sim, kNodes);
    dp::DataPlane plane(cluster, dp::lifl_plane(),
                        sim::Rng(4));
    fl::AggregatorRuntime::Config tc;
    tc.id = 100;
    tc.node = 0;
    tc.role = fl::AggRole::kTop;
    tc.goal = kNodes * kLeavesPerNode;
    tc.result_bytes = kLen * sizeof(float);
    tc.on_result = [&](fl::ModelUpdate u) { global = std::move(u); };
    fl::AggregatorRuntime top(plane, tc);
    top.start();
    std::vector<std::unique_ptr<fl::AggregatorRuntime>> leaves;
    for (std::size_t n = 0; n < kNodes; ++n) {
      for (std::size_t l = 0; l < kLeavesPerNode; ++l) {
        fl::AggregatorRuntime::Config lc;
        lc.id = 200 + leaves.size();
        lc.node = static_cast<sim::NodeId>(n);
        lc.role = fl::AggRole::kLeaf;
        lc.goal = kUploadsPerLeaf;
        lc.consumer = 100;
        lc.result_bytes = kLen * sizeof(float);
        lc.pull_from_pool = true;
        lc.leased = true;
        leaves.push_back(std::make_unique<fl::AggregatorRuntime>(plane, lc));
        leaves.back()->start();
      }
      for (std::uint32_t i = 0; i < kLeavesPerNode * kUploadsPerLeaf; ++i) {
        fl::ModelUpdate u;
        u.model_version = 1;
        u.producer = 1000 + i;
        u.sample_count = 1 + i;
        u.logical_bytes = kLen * sizeof(float);
        u.tensor = tensors.acquire(kLen);
        plane.client_upload(static_cast<sim::NodeId>(n), std::move(u), 1e7);
      }
    }
    sim.run();
    ASSERT_TRUE(global.tensor);
    EXPECT_EQ(global.updates_folded, kNodes * kLeavesPerNode * kUploadsPerLeaf);
    for (std::size_t n = 0; n < kNodes; ++n) {
      dp::DataPlane::NodeEnv& env = plane.env(static_cast<sim::NodeId>(n));
      EXPECT_EQ(env.store.size(), 0u) << "node " << n;
      EXPECT_EQ(env.pool.leases(), 0u) << "node " << n;
      EXPECT_GT(env.pool.leases_acked(), 0u) << "node " << n;
      // Lease copies share their object's one store reference: each object
      // is released once, as the checkpointed store statistics record.
      EXPECT_EQ(env.store.stats().releases, env.store.stats().puts)
          << "node " << n;
    }
    EXPECT_EQ(plane.slab_payloads(), 0u);
  }
  EXPECT_GT(tensors.stats().live_bytes, live0);  // the global model
  global.tensor.reset();
  EXPECT_EQ(tensors.stats().live_bytes, live0);
}

}  // namespace
}  // namespace lifl
