// Tests for the step-based aggregator runtime (Fig. 14): Recv/Agg/Send
// sequencing, eager vs lazy timing, goals, cold starts, role conversion,
// pool pulling, version filtering and stateless failover.

#include <gtest/gtest.h>

#include <functional>
#include <memory>

#include "src/dataplane/dataplane.hpp"
#include "src/fl/aggregator_runtime.hpp"
#include "src/fl/model_spec.hpp"
#include "src/ml/sweep_pool.hpp"
#include "src/ml/tensor_pool.hpp"

namespace lifl::fl {
namespace {

struct World {
  sim::Simulator sim;
  sim::Cluster cluster;
  dp::DataPlane plane;

  explicit World(dp::DataPlaneConfig cfg = dp::lifl_plane(),
                 std::size_t nodes = 2)
      : cluster(sim, nodes), plane(cluster, cfg, sim::Rng(42)) {}

  ModelUpdate update(std::uint32_t version = 1, std::uint64_t samples = 10,
                     std::size_t bytes = 1'000'000) {
    ModelUpdate u;
    u.model_version = version;
    u.sample_count = samples;
    u.logical_bytes = bytes;
    return u;
  }

  /// Queue `u` in `node`'s pool, its payload held by the plane.
  void push(ModelUpdate u, sim::NodeId node = 0) {
    plane.env(node).pool.push(plane.hold(std::move(u)));
  }
};

AggregatorRuntime::Config leaf_cfg(ParticipantId id, std::uint32_t goal,
                                   std::size_t bytes = 1'000'000) {
  AggregatorRuntime::Config c;
  c.id = id;
  c.node = 0;
  c.role = AggRole::kLeaf;
  c.goal = goal;
  c.result_bytes = bytes;
  c.pull_from_pool = true;
  return c;
}

TEST(AggregatorRuntime, ZeroGoalThrows) {
  World w;
  AggregatorRuntime::Config c = leaf_cfg(1, 1);
  c.goal = 0;
  EXPECT_THROW(AggregatorRuntime(w.plane, c), std::invalid_argument);
}

TEST(AggregatorRuntime, PullsFromPoolAndSendsOnGoal) {
  World w;
  AggregatorRuntime::Config c = leaf_cfg(1, 2);
  ModelUpdate result;
  bool got = false;
  c.on_result = [&](ModelUpdate u) {
    result = std::move(u);
    got = true;
  };
  AggregatorRuntime rt(w.plane, c);
  rt.start();
  w.push(w.update(1, 10));
  w.push(w.update(1, 30));
  w.sim.run();
  EXPECT_TRUE(got);
  EXPECT_TRUE(rt.done());
  EXPECT_EQ(rt.aggregated(), 2u);
  EXPECT_EQ(result.sample_count, 40u);
  EXPECT_EQ(result.updates_folded, 2u);
}

TEST(AggregatorRuntime, EagerProcessesBeforeAllArrive) {
  // Eager: the first update is Recv+Agg'd while the second is still absent.
  World w;
  AggregatorRuntime::Config c = leaf_cfg(1, 2);
  c.timing = AggTiming::kEager;
  AggregatorRuntime rt(w.plane, c);
  rt.start();
  w.push(w.update());
  w.sim.run();  // drains: first update fully aggregated
  EXPECT_EQ(rt.aggregated(), 1u);
  EXPECT_FALSE(rt.done());
  w.push(w.update());
  w.sim.run();
  EXPECT_TRUE(rt.done());
}

TEST(AggregatorRuntime, LazyWaitsForFullBatch) {
  World w;
  AggregatorRuntime::Config c = leaf_cfg(1, 2);
  c.timing = AggTiming::kLazy;
  AggregatorRuntime rt(w.plane, c);
  rt.start();
  w.push(w.update());
  w.sim.run();
  // Lazy just-in-time consumption (Fig. 1): the early update stays queued
  // in the pool (broker / shm), not even pulled into the runtime, until the
  // whole batch is available.
  EXPECT_EQ(rt.aggregated(), 0u);
  EXPECT_EQ(rt.received(), 0u);
  EXPECT_EQ(w.plane.env(0).pool.depth(), 1u);
  w.push(w.update());
  w.sim.run();
  EXPECT_TRUE(rt.done());
  EXPECT_EQ(rt.aggregated(), 2u);
  EXPECT_EQ(w.plane.env(0).pool.depth(), 0u);
}

TEST(AggregatorRuntime, EagerFinishesSoonerThanLazyOnSpreadArrivals) {
  // The §5.4 claim, at runtime granularity: with arrivals spread in time,
  // eager overlaps Recv/Agg with the arrival gaps; lazy pays them serially
  // after the last arrival.
  auto run_with = [&](AggTiming timing) {
    World w;
    AggregatorRuntime::Config c = leaf_cfg(1, 4, 50'000'000);
    c.timing = timing;
    AggregatorRuntime rt(w.plane, c);
    rt.start();
    for (int i = 0; i < 4; ++i) {
      w.sim.schedule_at(i * 1.0, [&w, i] {
        w.push(w.update(1, 10, 50'000'000));
      });
    }
    w.sim.run();
    return rt.sent_at();
  };
  const double eager = run_with(AggTiming::kEager);
  const double lazy = run_with(AggTiming::kLazy);
  EXPECT_LT(eager, lazy);
}

TEST(AggregatorRuntime, SendsToConsumerThroughDataPlane) {
  World w;
  // Consumer: a "top" runtime with goal 1.
  AggregatorRuntime::Config tc;
  tc.id = 2;
  tc.node = 0;
  tc.role = AggRole::kTop;
  tc.goal = 1;
  bool top_got = false;
  tc.on_result = [&](ModelUpdate) { top_got = true; };
  AggregatorRuntime top(w.plane, tc);
  top.start();

  AggregatorRuntime::Config lc = leaf_cfg(1, 1);
  lc.consumer = 2;
  AggregatorRuntime leaf(w.plane, lc);
  leaf.start();

  w.push(w.update());
  w.sim.run();
  EXPECT_TRUE(top_got);
  EXPECT_TRUE(leaf.done());
  EXPECT_TRUE(top.done());
}

TEST(AggregatorRuntime, ColdStartOnStartDelaysProcessing) {
  World w;
  AggregatorRuntime::Config c = leaf_cfg(1, 1);
  c.cold_trigger = ColdStartTrigger::kOnStart;
  c.cold_start_secs = 2.5;
  c.cold_start_cycles = 1e9;
  AggregatorRuntime rt(w.plane, c);
  rt.start();
  EXPECT_FALSE(rt.ready());
  w.push(w.update());
  w.sim.run();
  EXPECT_TRUE(rt.done());
  EXPECT_GE(rt.sent_at(), 2.5);
  EXPECT_DOUBLE_EQ(
      w.cluster.node(0).cpu().cycles(sim::CostTag::kStartup), 1e9);
}

TEST(AggregatorRuntime, ReactiveColdStartBeginsAtFirstUpdate) {
  // The cascading-cold-start behavior of reactive control planes (§2.3).
  World w;
  AggregatorRuntime::Config c = leaf_cfg(1, 1);
  c.cold_trigger = ColdStartTrigger::kOnFirstUpdate;
  c.cold_start_secs = 2.0;
  AggregatorRuntime rt(w.plane, c);
  rt.start();
  w.sim.run_until(10.0);
  EXPECT_FALSE(rt.ready());  // nothing arrived: still scaled to zero
  w.push(w.update());
  w.sim.run();
  EXPECT_TRUE(rt.done());
  EXPECT_GE(rt.sent_at(), 12.0);  // cold start began at t=10
}

TEST(AggregatorRuntime, WarmInstanceStartsImmediately) {
  World w;
  AggregatorRuntime::Config c = leaf_cfg(1, 1);
  c.cold_trigger = ColdStartTrigger::kNone;
  AggregatorRuntime rt(w.plane, c);
  rt.start();
  EXPECT_TRUE(rt.ready());
}

TEST(AggregatorRuntime, ConvertRoleIsStatelessAndWarm) {
  World w;
  AggregatorRuntime::Config c = leaf_cfg(1, 1);
  AggregatorRuntime rt(w.plane, c);
  rt.start();
  w.push(w.update(1, 25));
  w.sim.run();
  ASSERT_TRUE(rt.done());

  // Promote to middle with a new goal; no cold start, no residual state.
  AggregatorRuntime::Config mc;
  mc.id = 9;
  mc.node = 0;
  mc.role = AggRole::kMiddle;
  mc.goal = 1;
  ModelUpdate out;
  mc.on_result = [&](ModelUpdate u) { out = std::move(u); };
  rt.convert_role(mc);
  EXPECT_TRUE(rt.ready());
  EXPECT_EQ(rt.aggregated(), 0u);
  EXPECT_EQ(rt.config().role, AggRole::kMiddle);

  ModelUpdate u = w.update(1, 7);
  rt.inject(std::move(u));
  w.sim.run();
  EXPECT_TRUE(rt.done());
  EXPECT_EQ(out.sample_count, 7u);  // old 25 samples gone: stateless
}

TEST(AggregatorRuntime, ConvertRoleReregistersRoutes) {
  World w;
  AggregatorRuntime::Config c = leaf_cfg(1, 1);
  AggregatorRuntime rt(w.plane, c);
  rt.start();
  EXPECT_TRUE(w.plane.node_of(1).has_value());
  AggregatorRuntime::Config mc = leaf_cfg(9, 1);
  mc.pull_from_pool = false;
  rt.convert_role(mc);
  EXPECT_FALSE(w.plane.node_of(1).has_value());
  EXPECT_TRUE(w.plane.node_of(9).has_value());
}

TEST(AggregatorRuntime, StaleVersionsDroppedAndRepulled) {
  World w;
  AggregatorRuntime::Config c = leaf_cfg(1, 1);
  c.expected_version = 5;
  AggregatorRuntime rt(w.plane, c);
  rt.start();
  w.push(w.update(3));  // stale round-3 straggler
  w.sim.run();
  EXPECT_EQ(rt.stale_dropped(), 1u);
  EXPECT_FALSE(rt.done());
  w.push(w.update(5));
  w.sim.run();
  EXPECT_TRUE(rt.done());
}

TEST(AggregatorRuntime, StopReturnsBufferedUpdatesToPool) {
  // A lazy *middle* receives directed sends and buffers them in its FIFO
  // until its goal is met; stopping it hands the buffered updates back to
  // the node pool (stateless failover).
  World w;
  AggregatorRuntime::Config c = leaf_cfg(1, 3);
  c.timing = AggTiming::kLazy;
  c.role = AggRole::kMiddle;
  c.pull_from_pool = false;
  AggregatorRuntime rt(w.plane, c);
  rt.start();
  w.plane.send(50, 0, 1, w.update());
  w.plane.send(51, 0, 1, w.update());
  w.sim.run();
  EXPECT_EQ(rt.received(), 2u);
  rt.stop();  // failure / scale-down: stateless hand-back
  w.sim.run();  // lets any stale pull waiters re-deposit their claims
  EXPECT_EQ(w.plane.env(0).pool.depth(), 2u);
}

TEST(AggregatorRuntime, LazyNeverDrainsPoolBeforeBatchReady) {
  // Under-goal lazy batches stay in the shared queue across a failure: a
  // stopped lazy instance has nothing to hand back because it never pulled.
  World w;
  AggregatorRuntime::Config c = leaf_cfg(1, 3);
  c.timing = AggTiming::kLazy;
  AggregatorRuntime rt(w.plane, c);
  rt.start();
  w.push(w.update());
  w.push(w.update());
  w.sim.run();
  EXPECT_EQ(rt.received(), 0u);
  rt.stop();
  w.sim.run();
  EXPECT_EQ(w.plane.env(0).pool.depth(), 2u);
}

TEST(AggregatorRuntime, SuccessorCompletesAfterPredecessorFailure) {
  // Stateless failover (§3): a replacement aggregator picks up the pool
  // contents a failed instance returned and completes the aggregation.
  World w;
  AggregatorRuntime::Config c = leaf_cfg(1, 2);
  c.timing = AggTiming::kLazy;
  auto failed = std::make_unique<AggregatorRuntime>(w.plane, c);
  failed->start();
  w.push(w.update(1, 10));
  w.push(w.update(1, 20));
  w.sim.run_until(0.0);  // deliveries into the doomed instance's FIFO
  failed->stop();
  failed.reset();

  AggregatorRuntime::Config c2 = leaf_cfg(2, 2);
  ModelUpdate out;
  bool got = false;
  c2.on_result = [&](ModelUpdate u) {
    out = std::move(u);
    got = true;
  };
  AggregatorRuntime successor(w.plane, c2);
  successor.start();
  w.sim.run();
  EXPECT_TRUE(got);
  EXPECT_EQ(out.sample_count, 30u);
}

TEST(AggregatorRuntime, StaleHandlesSkipTheirRecordsNextRuntime) {
  // A leaf dies with pool waiters parked and a Recv step in service; its
  // successor reuses the same liveness record. The dead leaf's waiters and
  // its step completion must read the record's new generation as "gone":
  // waiters bounce their updates back into the pool, the step completion
  // is ignored, and only the successor's own pulls deliver.
  World w;
  // Name the record the plane hands out next (its free list is LIFO).
  dp::RuntimeRecord* rec = w.plane.acquire_runtime_record();
  w.plane.release_runtime_record(rec);
  auto doomed = std::make_unique<AggregatorRuntime>(w.plane, leaf_cfg(1, 4));
  ASSERT_EQ(rec->rt, doomed.get());
  doomed->start();
  auto& pool = w.plane.env(0).pool;
  w.push(w.update(1, 10));
  w.sim.run_until(0.0);  // delivered; its Recv step is now in service
  ASSERT_FALSE(doomed->idle());
  ASSERT_EQ(pool.waiter_count(), 3u);
  ASSERT_GT(w.sim.pending(), 0u);
  doomed.reset();  // the update mid-Recv returns to the pool
  ASSERT_EQ(rec->rt, nullptr);

  ModelUpdate out;
  int sends = 0;
  AggregatorRuntime::Config c = leaf_cfg(2, 3);
  c.on_result = [&](ModelUpdate u) {
    out = std::move(u);
    ++sends;
  };
  AggregatorRuntime successor(w.plane, c);
  ASSERT_EQ(rec->rt, &successor);  // the dead leaf's record, recycled
  successor.start();
  for (int i = 0; i < 3; ++i) w.push(w.update(1, 20));
  w.sim.run();

  EXPECT_EQ(sends, 1);
  EXPECT_EQ(successor.received(), 3u);
  EXPECT_EQ(successor.aggregated(), 3u);
  EXPECT_EQ(out.updates_folded, 3u);
  EXPECT_EQ(pool.waiter_count(), 0u);
  // Folds are conserved: every sample is in the aggregate or still queued.
  ASSERT_EQ(pool.depth(), 1u);
  UpdateDesc left;
  ASSERT_TRUE(pool.try_pop(left));
  EXPECT_EQ(out.sample_count + left.sample_count, 70u);
}

TEST(AggregatorRuntime, RecvAggBillsCpuTags) {
  World w;
  AggregatorRuntime::Config c = leaf_cfg(1, 1);
  AggregatorRuntime rt(w.plane, c);
  rt.start();
  w.push(w.update());
  w.sim.run();
  EXPECT_GT(w.cluster.node(0).cpu().cycles(sim::CostTag::kAggregator), 0.0);
  EXPECT_GT(w.cluster.node(0).cpu().cycles(sim::CostTag::kSerialization), 0.0);
}

TEST(AggregatorRuntime, SidecarObservesExecutionTimes) {
  World w;
  AggregatorRuntime::Config c = leaf_cfg(1, 2);
  AggregatorRuntime rt(w.plane, c);
  rt.start();
  w.push(w.update());
  w.push(w.update());
  w.sim.run();
  EXPECT_EQ(w.plane.env(0).metrics.get(dp::MetricsMap::kAggExecCount), 2.0);
  EXPECT_GT(w.plane.env(0).metrics.get(dp::MetricsMap::kAggExecSum), 0.0);
}

TEST(AggregatorRuntime, InvalidGoalCombinationsThrow) {
  World w;
  // Open goals may start at zero (they cannot complete while open).
  AggregatorRuntime::Config open = leaf_cfg(1, 1);
  open.goal = 0;
  open.goal_open = true;
  open.pull_from_pool = false;
  open.goal_kind = GoalKind::kFoldedUpdates;
  EXPECT_NO_THROW(AggregatorRuntime(w.plane, open));
  // Pool pulls are sized in messages: folded-count goals cannot pull.
  AggregatorRuntime::Config pull = leaf_cfg(2, 4);
  pull.goal_kind = GoalKind::kFoldedUpdates;
  EXPECT_THROW(AggregatorRuntime(w.plane, pull), std::invalid_argument);
  // Lazy batches are bounded in messages too.
  AggregatorRuntime::Config lazy = leaf_cfg(3, 4);
  lazy.pull_from_pool = false;
  lazy.timing = AggTiming::kLazy;
  lazy.goal_kind = GoalKind::kFoldedUpdates;
  EXPECT_THROW(AggregatorRuntime(w.plane, lazy), std::invalid_argument);
}

TEST(AggregatorRuntime, FoldedGoalCompletesOnClientUpdateCount) {
  // A folded-count consumer finishes when the aggregates it folded
  // *represent* `goal` client updates — two messages carrying 3 + 2.
  World w;
  AggregatorRuntime::Config c;
  c.id = 1;
  c.node = 0;
  c.goal = 5;
  c.goal_kind = GoalKind::kFoldedUpdates;
  ModelUpdate out;
  bool got = false;
  c.on_result = [&](ModelUpdate u) {
    out = std::move(u);
    got = true;
  };
  AggregatorRuntime rt(w.plane, c);
  rt.start();
  ModelUpdate a = w.update(1, 30);
  a.updates_folded = 3;
  rt.inject(std::move(a));
  w.sim.run();
  EXPECT_FALSE(got);  // 3 of 5 folded: keep listening
  EXPECT_EQ(rt.folded(), 3u);
  ModelUpdate b = w.update(1, 20);
  b.updates_folded = 2;
  rt.inject(std::move(b));
  w.sim.run();
  ASSERT_TRUE(got);
  EXPECT_EQ(out.updates_folded, 5u);
  EXPECT_EQ(out.sample_count, 50u);
}

TEST(AggregatorRuntime, OpenGoalHoldsSendUntilSealed) {
  World w;
  AggregatorRuntime::Config c;
  c.id = 1;
  c.node = 0;
  c.goal = 0;
  c.goal_open = true;
  c.goal_kind = GoalKind::kFoldedUpdates;
  bool got = false;
  c.on_result = [&](ModelUpdate) { got = true; };
  AggregatorRuntime rt(w.plane, c);
  rt.start();
  rt.inject(w.update(1, 10));
  rt.inject(w.update(1, 20));
  w.sim.run();
  EXPECT_FALSE(got);  // open: folds but never sends
  EXPECT_EQ(rt.folded(), 2u);
  rt.set_goal(2, /*open=*/false);  // seal at what was assigned
  w.sim.run();
  EXPECT_TRUE(got);
}

TEST(AggregatorRuntime, SetGoalShrinkTriggersImmediateSend) {
  World w;
  AggregatorRuntime::Config c = leaf_cfg(1, 10);
  ModelUpdate out;
  bool got = false;
  c.on_result = [&](ModelUpdate u) {
    out = std::move(u);
    got = true;
  };
  AggregatorRuntime rt(w.plane, c);
  rt.start();
  w.push(w.update(1, 10));
  w.push(w.update(1, 30));
  w.sim.run();
  EXPECT_FALSE(got);  // 2 of 10 folded, idle
  rt.set_goal(2);
  EXPECT_TRUE(got);   // the shrunken goal is already met
  EXPECT_EQ(out.sample_count, 40u);
}

TEST(AggregatorRuntime, DrainSealsAtReceivedAndSendsPartial) {
  World w;
  AggregatorRuntime::Config c = leaf_cfg(1, 10);
  ModelUpdate out;
  bool got = false;
  c.on_result = [&](ModelUpdate u) {
    out = std::move(u);
    got = true;
  };
  AggregatorRuntime rt(w.plane, c);
  rt.start();
  w.push(w.update(1, 5));
  w.push(w.update(1, 7));
  w.push(w.update(1, 9));
  w.sim.run();
  EXPECT_EQ(rt.drain(), 3u);
  w.sim.run();
  ASSERT_TRUE(got);
  EXPECT_EQ(out.updates_folded, 3u);
  EXPECT_EQ(out.sample_count, 21u);
}

TEST(AggregatorRuntime, DrainWithNothingAcceptedSendsNothing) {
  World w;
  AggregatorRuntime::Config c = leaf_cfg(1, 10);
  bool got = false;
  c.on_result = [&](ModelUpdate) { got = true; };
  AggregatorRuntime rt(w.plane, c);
  rt.start();
  EXPECT_EQ(rt.drain(), 0u);
  w.sim.run();
  EXPECT_FALSE(got);
  EXPECT_FALSE(rt.done());
}

TEST(AggregatorRuntime, RearmFromOnResultStreamsBatches) {
  // The streaming-leaf pattern: the on_result hook re-arms the same warm
  // instance for the next batch, so one runtime folds many batches.
  World w;
  int batches = 0;
  std::uint64_t samples = 0;
  std::unique_ptr<AggregatorRuntime> rt;
  std::function<AggregatorRuntime::Config()> make_cfg = [&] {
    AggregatorRuntime::Config c = leaf_cfg(1, 2);
    c.on_result = [&](ModelUpdate u) {
      ++batches;
      samples += u.sample_count;
      if (batches < 3) rt->rearm(make_cfg());  // claim the next batch
    };
    return c;
  };
  rt = std::make_unique<AggregatorRuntime>(w.plane, make_cfg());
  rt->start();
  for (int i = 0; i < 6; ++i) {
    w.push(w.update(1, 10));
  }
  w.sim.run();
  EXPECT_EQ(batches, 3);
  EXPECT_EQ(samples, 60u);
}

TEST(AggregatorRuntime, HierarchicalRealTensorsEqualFlatAverage) {
  // End-to-end on real payloads: 2 leaves -> top over the data plane must
  // equal the flat weighted mean of the 4 client tensors.
  World w(dp::lifl_plane());
  sim::Rng rng(3);
  std::vector<std::shared_ptr<const ml::Tensor>> tensors;
  std::vector<std::uint64_t> weights{5, 10, 15, 20};
  for (int i = 0; i < 4; ++i) {
    tensors.push_back(std::make_shared<const ml::Tensor>(
        ml::Tensor::randn(rng, 32, 1.0f)));
  }

  AggregatorRuntime::Config tc;
  tc.id = 100;
  tc.node = 0;
  tc.role = AggRole::kTop;
  tc.goal = 2;
  ModelUpdate global;
  bool got = false;
  tc.on_result = [&](ModelUpdate u) {
    global = std::move(u);
    got = true;
  };
  AggregatorRuntime top(w.plane, tc);
  top.start();

  std::vector<std::unique_ptr<AggregatorRuntime>> leaves;
  for (int l = 0; l < 2; ++l) {
    AggregatorRuntime::Config lc = leaf_cfg(200 + l, 2);
    lc.consumer = 100;
    leaves.push_back(std::make_unique<AggregatorRuntime>(w.plane, lc));
    leaves.back()->start();
  }
  for (int i = 0; i < 4; ++i) {
    ModelUpdate u;
    u.model_version = 1;
    u.sample_count = weights[i];
    u.logical_bytes = 128;
    u.tensor = tensors[i];
    w.push(std::move(u));
  }
  w.sim.run();
  ASSERT_TRUE(got);
  ASSERT_TRUE(global.tensor);
  EXPECT_EQ(global.sample_count, 50u);
  EXPECT_EQ(global.updates_folded, 4u);

  std::vector<std::pair<const ml::Tensor*, std::uint64_t>> flat;
  for (int i = 0; i < 4; ++i) flat.emplace_back(tensors[i].get(), weights[i]);
  const ml::Tensor reference = FedAvgAccumulator::batch_average(flat);
  EXPECT_LT(ml::Tensor::max_abs_diff(*global.tensor, reference), 1e-4);
}

TEST(AggregatorRuntime, LeafBuffersReturnToThePoolWhileLeavesLive) {
  // A two-level tree of real tensors: 2 nodes x 2 leaves x 8 uploads of
  // 64K floats, one top. Each aggregate is one pooled buffer, handed to the
  // consumer at send: the leaves keep none, so their buffers recycle as
  // soon as the top's ring sweep drops them, and the pool's peak is the
  // four leaf sums parked at the top plus the top's own sum.
  constexpr std::size_t kNodes = 2;
  constexpr std::size_t kLeavesPerNode = 2;
  constexpr std::uint32_t kUploadsPerLeaf = 8;
  constexpr std::size_t kLen = std::size_t{1} << 16;
  constexpr std::size_t kBuf = kLen * sizeof(float);
  World w(dp::lifl_plane(), kNodes);
  sim::Rng rng(5);
  std::vector<std::shared_ptr<const ml::Tensor>> tensors;
  for (int i = 0; i < 4; ++i) {
    tensors.push_back(std::make_shared<const ml::Tensor>(
        ml::Tensor::randn(rng, kLen, 1.0f)));
  }

  AggregatorRuntime::Config tc;
  tc.id = 100;
  tc.node = 0;
  tc.role = AggRole::kTop;
  tc.goal = kNodes * kLeavesPerNode;
  tc.result_bytes = kBuf;
  ModelUpdate global;
  tc.on_result = [&](ModelUpdate u) { global = std::move(u); };
  AggregatorRuntime top(w.plane, tc);
  top.start();
  std::vector<std::unique_ptr<AggregatorRuntime>> leaves;
  for (std::size_t n = 0; n < kNodes; ++n) {
    for (std::size_t l = 0; l < kLeavesPerNode; ++l) {
      AggregatorRuntime::Config lc =
          leaf_cfg(static_cast<ParticipantId>(200 + leaves.size()),
                   kUploadsPerLeaf, kBuf);
      lc.node = static_cast<sim::NodeId>(n);
      lc.consumer = 100;
      leaves.push_back(std::make_unique<AggregatorRuntime>(w.plane, lc));
      leaves.back()->start();
    }
    for (std::uint32_t i = 0; i < kLeavesPerNode * kUploadsPerLeaf; ++i) {
      ModelUpdate u = w.update(1, 10 + i, kBuf);
      u.tensor = tensors[i % tensors.size()];
      w.push(std::move(u), static_cast<sim::NodeId>(n));
    }
  }

  ml::TensorPool& pool = ml::TensorPool::global();
  pool.reset_stats();
  const std::size_t live0 = pool.stats().live_bytes;
  const std::uint64_t sweeps0 = ml::split_sweeps();
  w.sim.run();
  ASSERT_TRUE(global.tensor);
  // One sweep per aggregate: each leaf's eighth upload fills its ring at
  // the closing fold, and the top's fourth leaf sum closes its partial
  // ring; each finalize folds the parked ring and divides in that sweep.
  EXPECT_EQ(ml::split_sweeps() - sweeps0, kNodes * kLeavesPerNode + 1);
  EXPECT_EQ(global.updates_folded, kNodes * kLeavesPerNode * kUploadsPerLeaf);
  const ml::TensorPoolStats after = pool.stats();
  // One buffer per aggregate, each acquired once: 4 leaf sums + 1 top sum.
  EXPECT_EQ(after.acquires, kNodes * kLeavesPerNode + 1);
  EXPECT_EQ(after.peak_live_bytes - live0, 5 * kBuf);
  // Every leaf sent and is still alive, yet the only buffer still out is
  // the global model the test holds.
  for (const auto& leaf : leaves) EXPECT_TRUE(leaf->done());
  EXPECT_EQ(after.live_bytes - live0, kBuf);
  EXPECT_EQ(after.recycles + after.dropped, kNodes * kLeavesPerNode);
  global.tensor.reset();
  EXPECT_EQ(pool.stats().live_bytes, live0);
}

}  // namespace
}  // namespace lifl::fl
