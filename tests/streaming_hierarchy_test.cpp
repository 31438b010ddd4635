// Streaming hierarchy orchestrator: claim-based streaming leaves, warm
// reuse, mid-round re-planning with partial drains, and the re-plan
// equivalence property — identical arrivals yield a bitwise-identical
// final model whether re-planning fires 0, 1, or N times mid-round.
//
// The campaign-level tests honour LIFL_TEST_SHARDS (CI runs them at 2 and
// 4) and additionally pin the multi-shard runs to the 1-shard results.

#include <gtest/gtest.h>

#include <cstdlib>
#include <limits>
#include <memory>
#include <vector>

#include "src/control/campaign_planner.hpp"
#include "src/dataplane/config.hpp"
#include "src/dataplane/dataplane.hpp"
#include "src/fl/fedavg.hpp"
#include "src/sim/fault_plan.hpp"
#include "src/sim/node.hpp"
#include "src/sim/random.hpp"
#include "src/sim/simulator.hpp"
#include "src/systems/sharded_campaign.hpp"
#include "src/systems/streaming_hierarchy.hpp"

namespace {

using namespace lifl;

std::size_t env_shards() {
  if (const char* env = std::getenv("LIFL_TEST_SHARDS")) {
    const std::size_t s = std::strtoul(env, nullptr, 10);
    if (s >= 1) return s;
  }
  return 2;
}

// ---------------------------------------------------------------------------
// Single-group harness: one node, one StreamingHierarchy, seeded arrivals.

struct GroupWorld {
  sim::Simulator sim;
  sim::Cluster cluster;
  dp::DataPlane plane;
  ctrl::CampaignPlanner planner;
  sys::StreamingHierarchy hier;
  fl::ModelUpdate relay_out;
  bool relay_got = false;
  std::vector<double> relay_at;  ///< simulated time of every relay emission

  GroupWorld(ctrl::CampaignPlanner::Config pcfg,
             sys::StreamingHierarchy::Config hcfg, bool real_payloads = false)
      : cluster(sim, 1),
        plane(cluster, dp::lifl_plane(real_payloads), sim::Rng(7)),
        planner(pcfg, 1),
        hier(plane, planner, [&] {
          hcfg.on_relay_result = [this](fl::ModelUpdate u) {
            relay_out = std::move(u);
            relay_got = true;
            relay_at.push_back(sim.now());
          };
          return hcfg;
        }()) {}

  /// Seed `n` logical updates for `round`, one every `gap` seconds.
  void seed_arrivals(std::uint32_t round, std::uint32_t n, double gap,
                     double start = 0.0) {
    for (std::uint32_t i = 0; i < n; ++i) {
      sim.schedule_at(start + gap * i, [this, round, i] {
        fl::ModelUpdate u;
        u.model_version = round;
        u.producer = 10'000 + i;
        u.sample_count = 1 + (i % 5);
        u.logical_bytes = 40'000;
        plane.seed_update(0, std::move(u));
      });
    }
  }
};

ctrl::CampaignPlanner::Config small_planner() {
  ctrl::CampaignPlanner::Config p;
  p.updates_per_leaf = 10;
  p.middle_fanin = 4;
  p.max_leaves = 32;
  return p;
}

sys::StreamingHierarchy::Config small_hier() {
  sys::StreamingHierarchy::Config h;
  h.group = 0;
  h.node = 0;
  h.updates_per_leaf = 10;
  h.result_bytes = 40'000;
  h.cold_start_spawns = false;  // unit tests: no cold-start latency noise
  return h;
}

TEST(StreamingHierarchy, AggregatesEveryClaimedUpdate) {
  GroupWorld w(small_planner(), small_hier());
  const std::uint32_t n = 95;  // not a multiple of the batch size
  w.hier.begin_round(1, n, w.planner.plan_round({double(n)}).groups[0]);
  w.seed_arrivals(1, n, 0.01);
  w.sim.run();
  ASSERT_TRUE(w.relay_got);
  EXPECT_EQ(w.relay_out.updates_folded, n);
  EXPECT_TRUE(w.hier.round_done());
  EXPECT_EQ(w.hier.claimed(), n);
  EXPECT_EQ(w.hier.active_leaves(), 0u);  // everything parked itself
  w.hier.end_round();
  EXPECT_GT(w.hier.warm_pool_size(), 0u);
}

TEST(StreamingHierarchy, FanInSmallerThanBatchUsesOneLeaf) {
  GroupWorld w(small_planner(), small_hier());
  w.hier.begin_round(1, 3, w.planner.plan_round({3.0}).groups[0]);
  EXPECT_EQ(w.hier.round_stats().peak_leaves, 1u);
  w.seed_arrivals(1, 3, 0.01);
  w.sim.run();
  ASSERT_TRUE(w.relay_got);
  EXPECT_EQ(w.relay_out.updates_folded, 3u);
}

TEST(StreamingHierarchy, ZeroTargetCompletesImmediately) {
  GroupWorld w(small_planner(), small_hier());
  w.hier.begin_round(1, 0, w.planner.plan_round({0.0}).groups[0]);
  EXPECT_TRUE(w.hier.round_done());
  EXPECT_EQ(w.hier.round_stats().spawned, 0u);
  w.sim.run();
  EXPECT_FALSE(w.relay_got);  // nothing to relay
}

TEST(StreamingHierarchy, SteadyStateRoundsSpawnZeroRuntimes) {
  GroupWorld w(small_planner(), small_hier());
  for (std::uint32_t round = 1; round <= 3; ++round) {
    w.relay_got = false;
    w.hier.begin_round(round, 60, w.planner.plan_round({60.0}).groups[0]);
    w.seed_arrivals(round, 60, 0.005, w.sim.now());
    w.sim.run();
    ASSERT_TRUE(w.relay_got) << "round " << round;
    if (round == 1) {
      EXPECT_GT(w.hier.round_stats().spawned, 0u);
    } else {
      // The whole fleet was parked warm after round 1: re-arms only.
      EXPECT_EQ(w.hier.round_stats().spawned, 0u) << "round " << round;
      EXPECT_GT(w.hier.round_stats().reused, 0u);
    }
    w.hier.end_round();
  }
}

TEST(StreamingHierarchy, ReuseOffRespawnsEveryRound) {
  auto h = small_hier();
  h.reuse = false;
  GroupWorld w(small_planner(), h);
  for (std::uint32_t round = 1; round <= 2; ++round) {
    w.relay_got = false;
    w.hier.begin_round(round, 40, w.planner.plan_round({40.0}).groups[0]);
    w.seed_arrivals(round, 40, 0.005, w.sim.now());
    w.sim.run();
    ASSERT_TRUE(w.relay_got);
    EXPECT_GT(w.hier.round_stats().spawned, 0u) << "round " << round;
    EXPECT_EQ(w.hier.round_stats().reused, 0u) << "round " << round;
    w.hier.end_round();
  }
}

TEST(StreamingHierarchy, ShrinkDrainsPartialAccumulatorsIntoParent) {
  GroupWorld w(small_planner(), small_hier());
  const std::uint32_t n = 100;
  ctrl::GroupPlan plan;
  plan.leaves = 2;
  plan.middles = 0;
  w.hier.begin_round(1, n, plan);
  ASSERT_EQ(w.hier.active_leaves(), 2u);
  // 15 arrivals: leaf 1 completes its 10-update batch and re-arms; leaf 2
  // sits on a half-filled accumulator (5 of 10) when the arrivals pause.
  w.seed_arrivals(1, 15, 0.01);
  // Shrink to one leaf while leaf 2 is mid-batch: its partial aggregate
  // must drain into the relay and the unfilled remainder of its claim must
  // be released for the survivor.
  w.sim.schedule_at(1.0, [&] { w.hier.apply_leaf_target(1); });
  // Resume the remaining 85 arrivals; the surviving leaf re-claims and
  // folds everything.
  w.seed_arrivals(1, 85, 0.01, 1.5);
  w.sim.run();
  ASSERT_TRUE(w.relay_got);
  // Lossless shrink: every update still reached the relay, through the
  // drained partial plus re-claimed remainders.
  EXPECT_EQ(w.relay_out.updates_folded, n);
  EXPECT_EQ(w.relay_out.sample_count, [&] {
    std::uint64_t s = 0;
    for (std::uint32_t i = 0; i < 15; ++i) s += 1 + (i % 5);
    for (std::uint32_t i = 0; i < 85; ++i) s += 1 + (i % 5);
    return s;
  }());
  EXPECT_EQ(w.hier.round_stats().drains, 1u);
  EXPECT_GT(w.hier.round_stats().replans, 0u);
}

TEST(StreamingHierarchy, GrowActivatesParkedLeavesMidRound) {
  GroupWorld w(small_planner(), small_hier());
  const std::uint32_t n = 200;
  ctrl::GroupPlan plan;
  plan.leaves = 1;  // start minimal, grow mid-round
  plan.middles = 0;
  w.hier.begin_round(1, n, plan);
  EXPECT_EQ(w.hier.active_leaves(), 1u);
  w.seed_arrivals(1, n, 0.002);
  w.sim.schedule_at(0.1, [&] { w.hier.apply_leaf_target(6); });
  w.sim.run();
  ASSERT_TRUE(w.relay_got);
  EXPECT_EQ(w.relay_out.updates_folded, n);
  EXPECT_GE(w.hier.round_stats().peak_leaves, 6u);
}

// ---------------------------------------------------------------------------
// Emission floor soundness. A sharded campaign promises no cross-shard post
// before a group's `relay_emit_floor()`, but `post()` only checks the bound
// a shard last published. Here the floor is recorded before *every* event of a
// one-group async stream and checked against the relay emission that
// actually follows.

sys::StreamingHierarchy::Config async_hier() {
  sys::StreamingHierarchy::Config h = small_hier();
  h.async = true;
  return h;
}

struct FloorTrace {
  std::size_t evaluated = 0;
  /// Floors beyond the next pending event (the floor engaged).
  std::size_t ahead = 0;
  /// Active leaves after each event.
  std::vector<std::uint32_t> leaves;
};

/// Step `w` to quiescence, recording the floor before each event; every
/// floor must be <= the next relay emission, and +inf once none follows.
FloorTrace step_checking_floor(GroupWorld& w) {
  FloorTrace tr;
  std::vector<double> open;  // floors since the last emission
  while (w.sim.pending_regular() > 0) {
    const double floor = w.hier.relay_emit_floor();
    ++tr.evaluated;
    if (floor > w.sim.next_event_time()) ++tr.ahead;
    open.push_back(floor);
    const std::size_t before = w.relay_at.size();
    w.sim.step();
    tr.leaves.push_back(w.hier.active_leaves());
    if (w.relay_at.size() > before) {
      const double at = w.relay_at[before];
      for (double f : open) EXPECT_LE(f, at) << "emission " << before;
      open.clear();
    }
  }
  EXPECT_TRUE(w.hier.round_done());
  for (double f : open) EXPECT_EQ(f, std::numeric_limits<double>::infinity());
  return tr;
}

TEST(StreamingHierarchy, EmitFloorHoldsUnderFixedSealDeadline) {
  sys::StreamingHierarchy::Config h = async_hier();
  h.seal_deadline_secs = 0.05;
  GroupWorld w(small_planner(), h);
  const std::uint32_t n = 200;
  ctrl::GroupPlan plan;
  plan.leaves = 3;
  w.hier.begin_stream(n, plan);
  w.seed_arrivals(1, n, 0.01);
  const FloorTrace tr = step_checking_floor(w);
  EXPECT_EQ(w.hier.forwarded(), n);
  EXPECT_EQ(w.relay_at.size(), 5u);  // 200 updates / 40-update flushes
  EXPECT_GT(w.hier.round_stats().drains, 0u);  // deadline seals fired
  EXPECT_GT(tr.ahead, tr.evaluated / 2);
}

TEST(StreamingHierarchy, EmitFloorHoldsUnderAdaptiveSealDeadline) {
  sys::StreamingHierarchy::Config h = async_hier();
  h.seal_deadline_secs = 0.2;
  h.adaptive_deadline = true;
  h.replan_interval = 0.1;
  GroupWorld w(small_planner(), h);
  const std::uint32_t n = 300;
  w.hier.begin_stream(n, w.planner.plan_round({double(n)}).groups[0]);
  w.seed_arrivals(1, n, 0.004);
  const FloorTrace tr = step_checking_floor(w);
  EXPECT_EQ(w.hier.forwarded(), n);
  EXPECT_GT(w.hier.round_stats().drains, 0u);
  EXPECT_GT(tr.ahead, tr.evaluated / 2);
}

TEST(StreamingHierarchy, EmitFloorHoldsAcrossRetireThenGrowReplans) {
  // 30-update batches, so a count seal is up to ~20 ms of folds away and
  // the next re-plan tick is often the binding part of the floor; a
  // one-update flush makes every leaf seal (a retiring leaf's drain
  // included) an immediate relay emission.
  ctrl::CampaignPlanner::Config p = small_planner();
  p.updates_per_leaf = 30;
  sys::StreamingHierarchy::Config h = async_hier();
  h.updates_per_leaf = 30;
  h.flush_updates = 1;
  h.seal_deadline_secs = 0.5;
  h.replan_interval = 0.1;
  GroupWorld w(p, h);
  // Burst, lull, burst: the re-plan pulse shrinks the leaf set (retiring
  // leaves drain) in the lull and grows it again for the second burst.
  const std::uint32_t n = 2360;
  w.hier.begin_stream(n, w.planner.plan_round({double(n)}).groups[0]);
  w.seed_arrivals(1, 980, 0.0003);
  w.seed_arrivals(1, 400, 0.002, 0.344);
  w.seed_arrivals(1, 980, 0.0003, 1.194);
  const FloorTrace tr = step_checking_floor(w);
  EXPECT_EQ(w.hier.forwarded(), n);
  bool shrank = false, regrew = false;
  for (std::size_t i = 1; i < tr.leaves.size(); ++i) {
    if (tr.leaves[i] < tr.leaves[i - 1]) shrank = true;
    if (shrank && tr.leaves[i] > tr.leaves[i - 1]) regrew = true;
  }
  EXPECT_TRUE(shrank);
  EXPECT_TRUE(regrew);
  EXPECT_GE(w.hier.round_stats().replans, 2u);
  EXPECT_GT(tr.ahead, tr.evaluated / 2);
}

TEST(StreamingHierarchy, EmitFloorHoldsThroughFlushRemainderTail) {
  sys::StreamingHierarchy::Config h = async_hier();
  h.seal_deadline_secs = 0.05;
  h.flush_updates = 15;
  GroupWorld w(small_planner(), h);
  const std::uint32_t n = 95;  // 15-update flushes, then a short tail
  ctrl::GroupPlan plan;
  plan.leaves = 2;
  w.hier.begin_stream(n, plan);
  w.seed_arrivals(1, n, 0.01);
  const FloorTrace tr = step_checking_floor(w);
  EXPECT_EQ(w.hier.forwarded(), n);
  EXPECT_LT(w.relay_out.updates_folded, 15u);  // the tail flushed short
  EXPECT_GT(tr.ahead, tr.evaluated / 2);
}

// ---------------------------------------------------------------------------
// Floor values on hand-built states: an async stream of 200-update leaves
// with 50 ms seal deadlines and no arrivals, read at t = 20 ms. Folding the
// 199 remaining units takes longer than any deadline here, so each leaf's
// first-seal floor is its armed deadline and the floor is exactly known.

struct FloorSteps {
  double leaf = 0.0;   ///< the least fold: one Agg step of a zero-byte update
  double relay = 0.0;  ///< the relay's Agg step over one leaf partial
};

FloorSteps floor_steps(GroupWorld& w) {
  const double hz = w.cluster.node(0).config().cpu_hz;
  return {fl::AggregatorRuntime::agg_cycles(0) / hz,
          fl::AggregatorRuntime::agg_cycles(small_hier().result_bytes) / hz};
}

sys::StreamingHierarchy::Config deadline_leaves(std::uint32_t flush) {
  sys::StreamingHierarchy::Config h = async_hier();
  h.updates_per_leaf = 200;
  h.seal_deadline_secs = 0.05;
  h.flush_updates = flush;
  return h;
}

/// Arm the stream with one leaf at t = 0 (deadline 50 ms), optionally grow
/// a second at t = 10 ms (deadline 60 ms), and return the floor at 20 ms.
double floor_at_20ms(GroupWorld& w, bool second_leaf) {
  ctrl::GroupPlan plan;
  plan.leaves = 1;
  w.hier.begin_stream(1000, plan);
  if (second_leaf) {
    w.sim.schedule_at(0.01, [&w] { w.hier.apply_leaf_target(2); });
  }
  w.sim.run_window(0.02);
  EXPECT_EQ(w.hier.active_leaves(), second_leaf ? 2u : 1u);
  const FloorSteps st = floor_steps(w);
  // The count seals lie beyond both deadlines.
  EXPECT_GT(0.02 + 199 * st.leaf, 0.06);
  return w.hier.relay_emit_floor();
}

TEST(StreamingHierarchy, EmitFloorIsTheSingleSealFloorWhenOneSealSuffices) {
  // A deficit of at most one leaf's goal: the earliest seal can carry it.
  for (const std::uint32_t flush : {150u, 200u}) {
    GroupWorld w(small_planner(), deadline_leaves(flush));
    const double floor = floor_at_20ms(w, /*second_leaf=*/true);
    EXPECT_DOUBLE_EQ(floor, 0.05 + floor_steps(w).relay) << "flush " << flush;
  }
}

TEST(StreamingHierarchy, EmitFloorWaitsForTheSecondSealBeyondOneBatch) {
  // 300 units: the first leaf's 200 at 50 ms plus one unit per fold after
  // it (100 folds, far past 60 ms) cannot beat the second leaf's seal.
  GroupWorld w(small_planner(), deadline_leaves(300));
  const double floor = floor_at_20ms(w, /*second_leaf=*/true);
  EXPECT_DOUBLE_EQ(floor, 0.01 + 0.05 + floor_steps(w).relay);
}

TEST(StreamingHierarchy, EmitFloorCountsFoldsAfterALeafsFirstSeal) {
  // One leaf, 220 units: its seal at 50 ms carries 200, and the remaining
  // 20 need 20 more folds of the re-armed leaf.
  GroupWorld w(small_planner(), deadline_leaves(220));
  const double floor = floor_at_20ms(w, /*second_leaf=*/false);
  const FloorSteps st = floor_steps(w);
  EXPECT_DOUBLE_EQ(floor, 0.05 + 20 * st.leaf + st.relay);
}

TEST(StreamingHierarchy, EmitFloorGuards) {
  // Stream over (here: nothing to stream): no emission ever follows.
  {
    GroupWorld w(small_planner(), deadline_leaves(300));
    w.hier.begin_stream(0, ctrl::GroupPlan{});
    EXPECT_EQ(w.hier.relay_emit_floor(),
              std::numeric_limits<double>::infinity());
  }
  // A middle level adds a hop the floor does not model.
  {
    GroupWorld w(small_planner(), deadline_leaves(300));
    ctrl::GroupPlan plan;
    plan.leaves = 2;
    plan.middles = 2;
    w.hier.begin_round(1, 1000, plan);
    EXPECT_EQ(w.hier.relay_emit_floor(), 0.0);
  }
  // Under faults a crashed leaf re-folds through the pool.
  {
    sim::FaultPlan::Config fc;
    fc.upload_drop_rate = 0.1;
    const sim::FaultPlan faults(fc);
    sys::StreamingHierarchy::Config h = deadline_leaves(300);
    h.faults = &faults;
    GroupWorld w(small_planner(), h);
    ctrl::GroupPlan plan;
    plan.leaves = 2;
    w.hier.begin_stream(1000, plan);
    EXPECT_EQ(w.hier.relay_emit_floor(), 0.0);
  }
  // Outside async streams.
  {
    GroupWorld w(small_planner(), small_hier());
    ctrl::GroupPlan plan;
    plan.leaves = 2;
    w.hier.begin_round(1, 100, plan);
    EXPECT_EQ(w.hier.relay_emit_floor(), 0.0);
  }
}

// ---------------------------------------------------------------------------
// Re-plan equivalence on real tensors. Hierarchical FedAvg re-divides at
// every level (intermediates carry the weighted *average*), so bitwise
// identity across tree shapes holds exactly for the exact-arithmetic
// payload class: identical update tensors with small-integer values, where
// every partial average reproduces the common value bit for bit whatever
// subset a leaf folded. Distinct payloads are checked against the flat
// reference within float tolerance for every re-plan cadence.

fl::ModelUpdate tensor_update(std::uint32_t i, std::size_t dim,
                              bool distinct) {
  fl::ModelUpdate u;
  u.model_version = 1;
  u.producer = 10'000 + i;
  u.sample_count = 1 + (i % 4);
  u.logical_bytes = 4 * dim;
  auto t = std::make_shared<ml::Tensor>(dim, 0.0f);
  for (std::size_t j = 0; j < dim; ++j) {
    t->data()[j] = static_cast<float>(((distinct ? i : 0) + 3 * j) % 17);
  }
  u.tensor = std::move(t);
  return u;
}

struct ReplanOutcome {
  std::vector<float> model;
  std::uint64_t samples = 0;
  std::uint32_t folded = 0;
  std::uint64_t drains = 0;
};

/// Run one round of 80 tensor updates with a scripted re-plan pattern.
ReplanOutcome run_tensor_round(
    const std::vector<std::pair<double, int>>& replan_script, bool distinct) {
  const std::uint32_t n = 80;
  const std::size_t dim = 64;
  GroupWorld w(small_planner(), small_hier(), /*real_payloads=*/true);
  w.hier.begin_round(1, n, w.planner.plan_round({double(n)}).groups[0]);
  for (std::uint32_t i = 0; i < n; ++i) {
    w.sim.schedule_at(0.015 * i, [&w, i, dim, distinct] {
      w.plane.seed_update(0, tensor_update(i, dim, distinct));
    });
  }
  for (const auto& [at, target] : replan_script) {
    w.sim.schedule_at(at, [&w, t = target] {
      w.hier.apply_leaf_target(static_cast<std::uint32_t>(t));
    });
  }
  w.sim.run();
  EXPECT_TRUE(w.relay_got);
  ReplanOutcome out;
  EXPECT_TRUE(w.relay_out.tensor != nullptr);
  if (w.relay_out.tensor) {
    out.model.assign(w.relay_out.tensor->data(),
                     w.relay_out.tensor->data() + w.relay_out.tensor->size());
  }
  out.samples = w.relay_out.sample_count;
  out.folded = w.relay_out.updates_folded;
  out.drains = w.hier.round_stats().drains;
  return out;
}

const std::vector<std::pair<double, int>> kOnce = {{0.4, 2}};
const std::vector<std::pair<double, int>> kMany = {
    {0.2, 1}, {0.4, 7}, {0.6, 2}, {0.8, 5}, {1.0, 1}};

TEST(StreamingHierarchy, ReplanEquivalenceBitwiseFinalModel) {
  const ReplanOutcome none = run_tensor_round({}, /*distinct=*/false);
  const ReplanOutcome once = run_tensor_round(kOnce, false);
  const ReplanOutcome many = run_tensor_round(kMany, false);
  ASSERT_EQ(none.folded, 80u);
  EXPECT_EQ(once.folded, 80u);
  EXPECT_EQ(many.folded, 80u);
  EXPECT_EQ(once.samples, none.samples);
  EXPECT_EQ(many.samples, none.samples);
  EXPECT_GT(many.drains, 0u);  // the scripted shrinks really drained
  ASSERT_EQ(none.model.size(), once.model.size());
  ASSERT_EQ(none.model.size(), many.model.size());
  for (std::size_t j = 0; j < none.model.size(); ++j) {
    // Bitwise: exact folds at every level make the model order-invariant.
    EXPECT_EQ(none.model[j], once.model[j]) << "elem " << j;
    EXPECT_EQ(none.model[j], many.model[j]) << "elem " << j;
  }
}

TEST(StreamingHierarchy, ReplanPreservesWeightedAverageOnDistinctPayloads) {
  std::vector<std::shared_ptr<const ml::Tensor>> keep;
  std::vector<std::pair<const ml::Tensor*, std::uint64_t>> flat;
  for (std::uint32_t i = 0; i < 80; ++i) {
    auto u = tensor_update(i, 64, /*distinct=*/true);
    keep.push_back(u.tensor);
    flat.emplace_back(keep.back().get(), u.sample_count);
  }
  const ml::Tensor reference = fl::FedAvgAccumulator::batch_average(flat);
  for (const auto* script : {&kOnce, &kMany}) {
    const ReplanOutcome got = run_tensor_round(*script, /*distinct=*/true);
    ASSERT_EQ(got.folded, 80u);
    ASSERT_EQ(got.model.size(), reference.size());
    for (std::size_t j = 0; j < got.model.size(); ++j) {
      EXPECT_NEAR(got.model[j], reference.data()[j], 1e-4) << "elem " << j;
    }
  }
}

// ---------------------------------------------------------------------------
// Campaign level: planned mode across shards and re-plan cadences.

sys::ShardedCampaignConfig planned_campaign(std::size_t shards,
                                            double replan_interval) {
  sys::ShardedCampaignConfig cfg;
  cfg.shards = shards;
  cfg.groups = 4;
  cfg.rounds = 3;
  cfg.leaves_per_group = 8;
  cfg.updates_per_leaf = 10;
  cfg.model_bytes = 50'000;
  cfg.population = 20'000;
  cfg.peak_per_sec = 400.0;
  cfg.ramp_secs = 2.0;
  cfg.seed = 77;
  cfg.hierarchy = sys::HierarchyMode::kPlanned;
  cfg.replan_interval_secs = replan_interval;
  cfg.middle_fanin = 4;
  return cfg;
}

TEST(PlannedCampaign, ShardCountEquivalence) {
  const auto mono = sys::run_sharded_campaign(planned_campaign(1, 1.0));
  const auto multi =
      sys::run_sharded_campaign(planned_campaign(env_shards(), 1.0));
  ASSERT_EQ(mono.round_completed_at.size(), multi.round_completed_at.size());
  for (std::size_t r = 0; r < mono.round_completed_at.size(); ++r) {
    EXPECT_DOUBLE_EQ(mono.round_completed_at[r], multi.round_completed_at[r])
        << "round " << r;
    EXPECT_EQ(mono.round_samples[r], multi.round_samples[r]) << "round " << r;
    EXPECT_EQ(mono.round_spawned[r], multi.round_spawned[r]) << "round " << r;
    EXPECT_EQ(mono.round_reused[r], multi.round_reused[r]) << "round " << r;
  }
  EXPECT_EQ(mono.replans, multi.replans);
  EXPECT_EQ(mono.leaf_drains, multi.leaf_drains);
  EXPECT_EQ(mono.events, multi.events);
  for (std::size_t g = 0; g < mono.groups.size(); ++g) {
    EXPECT_EQ(mono.groups[g].uploads, multi.groups[g].uploads);
    EXPECT_DOUBLE_EQ(mono.groups[g].cpu_cycles, multi.groups[g].cpu_cycles);
  }
}

TEST(PlannedCampaign, SteadyStateRoundsSpawnZeroRuntimes) {
  const auto r = sys::run_sharded_campaign(planned_campaign(env_shards(), 1.0));
  ASSERT_EQ(r.round_spawned.size(), 3u);
  EXPECT_GT(r.round_spawned[0], 0u);  // round 1 builds the fleet
  for (std::size_t i = 1; i < r.round_spawned.size(); ++i) {
    EXPECT_EQ(r.round_spawned[i], 0u) << "round " << i + 1;
    EXPECT_GT(r.round_reused[i], 0u) << "round " << i + 1;
  }
  EXPECT_EQ(r.spawned_total, r.round_spawned[0]);
}

TEST(PlannedCampaign, FinalModelInvariantUnderReplanCadence) {
  // The re-plan-equivalence property at campaign scale: the global FedAvg
  // weights must be identical whether re-planning never fires, fires a few
  // times, or fires every half second of simulated time.
  const auto none = sys::run_sharded_campaign(planned_campaign(1, 0.0));
  const auto coarse =
      sys::run_sharded_campaign(planned_campaign(env_shards(), 2.5));
  const auto fine =
      sys::run_sharded_campaign(planned_campaign(env_shards(), 0.5));
  ASSERT_EQ(none.round_samples.size(), coarse.round_samples.size());
  ASSERT_EQ(none.round_samples.size(), fine.round_samples.size());
  for (std::size_t r = 0; r < none.round_samples.size(); ++r) {
    EXPECT_EQ(none.round_samples[r], coarse.round_samples[r]) << "round " << r;
    EXPECT_EQ(none.round_samples[r], fine.round_samples[r]) << "round " << r;
  }
  // Every round folded the full per-group fan-in on every cadence.
  for (const auto& g : fine.groups) {
    EXPECT_EQ(g.uploads, 3u * 8u * 10u);
  }
}

TEST(PlannedCampaign, ReuseOffChurnsEveryRound) {
  auto cfg = planned_campaign(1, 1.0);
  cfg.reuse = false;
  const auto r = sys::run_sharded_campaign(cfg);
  for (std::size_t i = 0; i < r.round_spawned.size(); ++i) {
    EXPECT_GT(r.round_spawned[i], 0u) << "round " << i + 1;
    EXPECT_EQ(r.round_reused[i], 0u) << "round " << i + 1;
  }
}

TEST(PlannedCampaign, FixedModeStillReportsChurn) {
  auto cfg = planned_campaign(1, 0.0);
  cfg.hierarchy = sys::HierarchyMode::kFixed;
  const auto r = sys::run_sharded_campaign(cfg);
  for (std::size_t i = 0; i < r.round_spawned.size(); ++i) {
    // The fixed baseline rebuilds the whole tree every round.
    EXPECT_EQ(r.round_spawned[i], 1u + 4u * 8u) << "round " << i + 1;
    EXPECT_EQ(r.round_reused[i], 0u);
  }
  EXPECT_EQ(r.reused_total, 0u);
}

}  // namespace
