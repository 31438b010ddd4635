// Integration tests across the whole stack: the AggregationService batch
// flow (reuse across rounds, eager vs lazy, stale-straggler hygiene),
// end-to-end TrainingExperiment runs for every system preset, failure
// injection through the selector, determinism, and real-payload
// hierarchical aggregation of a convolutional model.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "src/fl/fedavg.hpp"
#include "src/ml/conv.hpp"
#include "src/ml/tensor_pool.hpp"
#include "src/systems/aggregation_service.hpp"
#include "src/systems/system_config.hpp"
#include "src/systems/training_experiment.hpp"

namespace lifl::sys {
namespace {

TrainingConfig small_run(std::size_t rounds = 3) {
  TrainingConfig cfg;
  cfg.model = fl::models::resnet18();
  cfg.cluster_nodes = 3;
  cfg.population = 200;
  cfg.active_per_round = 24;
  cfg.mobile_clients = true;
  cfg.base_train_secs = 10.0;
  cfg.curve = ml::AccuracyModel::resnet18_femnist();
  cfg.max_rounds = rounds;
  cfg.max_hours = 2.0;
  return cfg;
}

struct BatchWorld {
  sim::Simulator sim;
  sim::Cluster cluster;
  dp::DataPlane plane;
  AggregationService service;

  explicit BatchWorld(SystemConfig cfg, std::size_t nodes = 3)
      : cluster(sim, nodes),
        plane(cluster, cfg.plane, sim::Rng(31)),
        service(cluster, plane, cfg) {}

  /// Seeds `n` updates per placement and runs one batch to completion.
  AggregationService::BatchResult run_batch(std::uint32_t n,
                                            std::uint32_t version,
                                            std::size_t bytes) {
    const auto assignment = service.place_updates(n);
    std::vector<std::uint32_t> counts(cluster.size(), 0);
    for (auto node : assignment) counts[node]++;
    for (std::uint32_t i = 0; i < n; ++i) {
      fl::ModelUpdate u;
      u.model_version = version;
      u.producer = 9000 + i;
      u.sample_count = 100;
      u.logical_bytes = bytes;
      plane.seed_update(assignment[i], std::move(u));
    }
    AggregationService::BatchResult result;
    bool done = false;
    service.arm(counts, version, bytes,
                [&](const AggregationService::BatchResult& b) {
                  result = b;
                  done = true;
                });
    sim.run();
    EXPECT_TRUE(done);
    service.finish_batch();
    return result;
  }
};

TEST(AggregationServiceIntegration, GlobalUpdateAggregatesEverything) {
  BatchWorld w(make_lifl());
  const auto r = w.run_batch(24, 1, fl::models::resnet18().bytes());
  EXPECT_EQ(r.updates, 24u);
  EXPECT_EQ(r.global_update.updates_folded, 24u);
  EXPECT_EQ(r.global_update.sample_count, 24u * 100u);
  EXPECT_GT(r.act(), 0.0);
}

TEST(AggregationServiceIntegration, SecondRoundReusesWarmInstances) {
  BatchWorld w(make_lifl());
  const auto r1 = w.run_batch(24, 1, fl::models::resnet18().bytes());
  EXPECT_GT(r1.created, 0u);
  const auto r2 = w.run_batch(24, 2, fl::models::resnet18().bytes());
  // §5.3: the warm pool serves round 2 almost entirely (placement may move
  // a few updates to a node whose pool is short, costing a stray start).
  EXPECT_LT(r2.created, r1.created / 4);
  EXPECT_GT(r2.reused, r1.reused);
}

TEST(AggregationServiceIntegration, ServerlessScalesToZeroBetweenRounds) {
  BatchWorld w(make_serverless());
  w.run_batch(24, 1, fl::models::resnet18().bytes());
  EXPECT_EQ(w.service.live_instances(), 0u);
  EXPECT_EQ(w.service.warm_instances(), 0u);  // terminated, not parked
  const auto r2 = w.run_batch(24, 2, fl::models::resnet18().bytes());
  EXPECT_GT(r2.created, 0u);  // every round cold-starts again
}

TEST(AggregationServiceIntegration, EagerCompletesFasterThanLazy) {
  // Same batch, same plane; lazy defers all processing behind the last
  // arrival while eager overlaps it (§5.4).
  auto run = [&](bool eager) {
    SystemConfig cfg = make_lifl();
    cfg.timing = eager ? fl::AggTiming::kEager : fl::AggTiming::kLazy;
    BatchWorld w(cfg);
    // Spread the arrivals so overlap matters.
    const std::uint32_t n = 12;
    const auto assignment = w.service.place_updates(n);
    std::vector<std::uint32_t> counts(w.cluster.size(), 0);
    for (auto node : assignment) counts[node]++;
    double act = -1;
    w.service.arm(counts, 1, fl::models::resnet152().bytes(),
                  [&](const AggregationService::BatchResult& b) {
                    act = b.act();
                  });
    for (std::uint32_t i = 0; i < n; ++i) {
      w.sim.schedule_after(2.0 * i, [&w, &assignment, i] {
        fl::ModelUpdate u;
        u.model_version = 1;
        u.producer = 9000 + i;
        u.sample_count = 100;
        u.logical_bytes = fl::models::resnet152().bytes();
        w.plane.seed_update(assignment[i], std::move(u));
      });
    }
    w.sim.run();
    EXPECT_GE(act, 0.0);
    return act;
  };
  EXPECT_LT(run(true), run(false));
}

TEST(AggregationServiceIntegration, StaleStragglersAreDroppedNextRound) {
  BatchWorld w(make_lifl());
  w.run_batch(8, 1, fl::models::resnet18().bytes());
  // A round-1 straggler lands after the round closed...
  fl::ModelUpdate stale;
  stale.model_version = 1;
  stale.producer = 777;
  stale.sample_count = 50;
  stale.logical_bytes = fl::models::resnet18().bytes();
  w.plane.seed_update(0, std::move(stale));
  // ...round 2 still aggregates exactly its own 8 updates.
  const auto r2 = w.run_batch(8, 2, fl::models::resnet18().bytes());
  EXPECT_EQ(r2.global_update.updates_folded, 8u);
  EXPECT_EQ(r2.global_update.sample_count, 8u * 100u);
}

TEST(AggregationServiceIntegration, RealPayloadConvParamsAggregateExactly) {
  // Real tensors through the full platform: the hierarchical aggregate of
  // TinyResNet parameter vectors equals the flat weighted mean.
  ml::TinyResNet::Config ncfg;
  ncfg.height = 4;
  ncfg.width = 4;
  ncfg.filters = 2;
  ncfg.blocks = 1;
  ncfg.num_classes = 3;

  SystemConfig cfg = make_lifl();
  cfg.plane = dp::lifl_plane();
  BatchWorld w(cfg);

  const std::uint32_t n = 9;
  std::vector<std::shared_ptr<const ml::Tensor>> params;
  std::vector<std::uint64_t> weights;
  sim::Rng rng(17);
  for (std::uint32_t i = 0; i < n; ++i) {
    ml::TinyResNet net(ncfg);
    net.init(rng);
    params.push_back(std::make_shared<const ml::Tensor>(net.params()));
    weights.push_back(50 + 25 * i);
  }

  const auto assignment = w.service.place_updates(n);
  std::vector<std::uint32_t> counts(w.cluster.size(), 0);
  for (auto node : assignment) counts[node]++;
  for (std::uint32_t i = 0; i < n; ++i) {
    fl::ModelUpdate u;
    u.model_version = 1;
    u.producer = 100 + i;
    u.sample_count = weights[i];
    u.logical_bytes = params[i]->bytes();
    u.tensor = params[i];
    w.plane.seed_update(assignment[i], std::move(u));
  }
  fl::ModelUpdate global;
  w.service.arm(counts, 1, params[0]->bytes(),
                [&](const AggregationService::BatchResult& b) {
                  global = b.global_update;
                });
  w.sim.run();

  ASSERT_TRUE(global.tensor);
  std::vector<std::pair<const ml::Tensor*, std::uint64_t>> ref;
  for (std::uint32_t i = 0; i < n; ++i) {
    ref.emplace_back(params[i].get(), weights[i]);
  }
  const ml::Tensor expected = fl::FedAvgAccumulator::batch_average(ref);
  ASSERT_EQ(global.tensor->size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); i += 7) {
    EXPECT_NEAR((*global.tensor)[i], expected[i], 1e-4f);
  }
}

TEST(AggregationServiceIntegration, SteadyStateRealPayloadRoundsAreZeroAlloc) {
  // The kernels-refactor acceptance property at the SERVICE level: after
  // round 1 has populated the tensor pool, every later round's fold path
  // (leaf/middle/top accumulator sums, finalized aggregates) is served
  // entirely from recycled buffers — BatchResult::tensor_allocs == 0.
  SystemConfig cfg = make_lifl();
  cfg.plane = dp::lifl_plane();
  BatchWorld w(cfg);

  constexpr std::uint32_t kUpdates = 9;
  constexpr std::size_t kDim = 2048;
  sim::Rng rng(23);
  auto& pool = ml::TensorPool::global();

  for (std::uint32_t round = 1; round <= 4; ++round) {
    const auto assignment = w.service.place_updates(kUpdates);
    std::vector<std::uint32_t> counts(w.cluster.size(), 0);
    for (auto node : assignment) counts[node]++;
    // Client updates drawn from the pool (as local_train produces them).
    for (std::uint32_t i = 0; i < kUpdates; ++i) {
      auto params = pool.acquire(kDim);
      for (std::size_t j = 0; j < kDim; ++j) {
        (*params)[j] = static_cast<float>(rng.normal(0.0, 1.0));
      }
      fl::ModelUpdate u;
      u.model_version = round;
      u.producer = 100 + i;
      u.sample_count = 60 + i;
      u.logical_bytes = params->bytes();
      u.tensor = std::move(params);
      w.plane.seed_update(assignment[i], std::move(u));
    }
    AggregationService::BatchResult result;
    bool done = false;
    w.service.arm(counts, round, kDim * sizeof(float),
                  [&](const AggregationService::BatchResult& b) {
                    result = b;
                    done = true;
                  });
    w.sim.run();
    ASSERT_TRUE(done) << "round " << round;
    ASSERT_TRUE(result.global_update.tensor);
    w.service.finish_batch();
    if (round >= 2) {
      EXPECT_EQ(result.tensor_allocs, 0u)
          << "round " << round << " fold path heap-allocated a tensor";
      EXPECT_GT(result.tensor_pool_hits, 0u) << "round " << round;
    }
  }
}

TEST(AggregationServiceIntegration, HeterogeneousCapacityIsRespected) {
  // Footnote 6: "With heterogeneous nodes, MC_i may vary." BestFit closes
  // the tight bins first (classic tightest-fit), concentrates the bulk on
  // the big node, and no node exceeds its own MC_i.
  SystemConfig cfg = make_lifl();
  cfg.node_capacities = {30.0, 4.0, 4.0};
  BatchWorld w(cfg);
  const auto assignment = w.service.place_updates(30);
  std::vector<std::uint32_t> counts(3, 0);
  for (auto node : assignment) counts[node]++;
  EXPECT_LE(counts[1], 4u);
  EXPECT_LE(counts[2], 4u);
  EXPECT_EQ(counts[0], 30u - counts[1] - counts[2]);
  EXPECT_GE(counts[0], 22u);  // the big node carries the bulk
}

TEST(AggregationServiceIntegration, HeterogeneousOverflowAggregatesFine) {
  SystemConfig cfg = make_lifl();
  cfg.node_capacities = {20.0, 6.0, 6.0};
  BatchWorld w(cfg);
  const auto assignment = w.service.place_updates(30);
  std::vector<std::uint32_t> counts(3, 0);
  for (auto node : assignment) counts[node]++;
  EXPECT_LE(counts[0], 20u);  // nobody exceeds its MC_i
  EXPECT_LE(counts[1], 6u);
  EXPECT_LE(counts[2], 6u);
  // And the batch still aggregates end to end on the skewed layout.
  for (std::uint32_t i = 0; i < 30; ++i) {
    fl::ModelUpdate u;
    u.model_version = 1;
    u.producer = 9000 + i;
    u.sample_count = 100;
    u.logical_bytes = fl::models::resnet18().bytes();
    w.plane.seed_update(assignment[i], std::move(u));
  }
  std::vector<std::uint32_t> armed(counts.begin(), counts.end());
  bool done = false;
  w.service.arm(armed, 1, fl::models::resnet18().bytes(),
                [&](const AggregationService::BatchResult& b) {
                  EXPECT_EQ(b.global_update.updates_folded, 30u);
                  done = true;
                });
  w.sim.run();
  EXPECT_TRUE(done);
}

// ---------------------------------------------------------- end to end

TEST(TrainingExperimentIntegration, CompletesRoundsOnEverySystem) {
  for (const auto& system :
       {make_serverful(), make_serverless(), make_lifl(), make_sl_h()}) {
    TrainingExperiment exp(system, small_run());
    const auto r = exp.run();
    ASSERT_EQ(r.rounds.size(), 3u) << r.system;
    EXPECT_GT(r.rounds.back().accuracy, r.rounds.front().accuracy * 0.9);
    EXPECT_GT(r.cpu_hours_total, 0.0);
    for (std::size_t i = 1; i < r.rounds.size(); ++i) {
      EXPECT_GT(r.rounds[i].completed_at, r.rounds[i - 1].completed_at);
    }
  }
}

TEST(TrainingExperimentIntegration, LiflCheaperAndNoSlowerThanServerless) {
  TrainingExperiment lifl(make_lifl(), small_run(4));
  TrainingExperiment sl(make_serverless(), small_run(4));
  const auto rl = lifl.run();
  const auto rs = sl.run();
  EXPECT_LT(rl.cpu_hours_total, rs.cpu_hours_total * 0.7);
  EXPECT_LE(rl.wall_secs, rs.wall_secs);
}

TEST(TrainingExperimentIntegration, DeterministicUnderSameSeed) {
  TrainingExperiment a(make_lifl(), small_run());
  TrainingExperiment b(make_lifl(), small_run());
  const auto ra = a.run();
  const auto rb = b.run();
  ASSERT_EQ(ra.rounds.size(), rb.rounds.size());
  for (std::size_t i = 0; i < ra.rounds.size(); ++i) {
    EXPECT_DOUBLE_EQ(ra.rounds[i].completed_at, rb.rounds[i].completed_at);
    EXPECT_DOUBLE_EQ(ra.rounds[i].cpu_secs, rb.rounds[i].cpu_secs);
  }
}

TEST(TrainingExperimentIntegration, SeedChangesTheRun) {
  auto cfg = small_run();
  TrainingExperiment a(make_lifl(), cfg);
  cfg.seed = 1234;
  TrainingExperiment b(make_lifl(), cfg);
  EXPECT_NE(a.run().rounds.back().completed_at,
            b.run().rounds.back().completed_at);
}

TEST(TrainingExperimentIntegration, InjectedDropoutsAreDetectedAndSurvived) {
  auto cfg = small_run();
  cfg.dropout_rate = 0.25;
  // A 5 s detection window is small against U[0,60] s hibernation noise, so
  // "dropouts slow the round" would hinge on the seed; 30 s makes every
  // replacement land safely after the healthy stragglers.
  cfg.heartbeat_timeout_secs = 30.0;
  TrainingExperiment exp(make_lifl(), cfg);
  const auto r = exp.run();
  ASSERT_EQ(r.rounds.size(), 3u);
  EXPECT_GT(r.failures_detected, 0u);
  // Replacement clients cost detection + a fresh local round: rounds get
  // slower, but every round still completes with the full update count.
  TrainingExperiment clean(make_lifl(), small_run());
  EXPECT_GT(r.wall_secs, clean.run().wall_secs);
}

TEST(TrainingExperimentIntegration, TargetAccuracyCrossingIsRecorded) {
  auto cfg = small_run(40);
  cfg.target_accuracy = 0.30;  // reachable within 40 rounds
  TrainingExperiment exp(make_lifl(), cfg);
  const auto r = exp.run();
  ASSERT_GT(r.secs_to_target, 0.0);
  ASSERT_GT(r.cpu_hours_to_target, 0.0);
  EXPECT_LT(r.secs_to_target, r.wall_secs + 1e-9);
}

}  // namespace
}  // namespace lifl::sys
