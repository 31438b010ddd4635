// Federated optimization study on the LIFL platform: plain FedAvg vs the
// adaptive server optimizers (FedAvgM / FedAdagrad / FedYogi / FedAdam,
// Reddi et al. 2020), training a real convolutional model (TinyResNet) on
// a non-IID synthetic image task.
//
// Every round runs through the actual platform: client tensors are
// uploaded through the gateway into shared memory, the hierarchy
// aggregates them (eager, with reuse), and the *server optimizer* folds
// the round average into the global model. This is the §7 positioning of
// LIFL — the system substrate under interchangeable FL algorithms.
//
// Build & run:  cmake -B build -G Ninja && cmake --build build
//               ./build/examples/example_adaptive_optimizers

#include <cstdio>
#include <memory>
#include <vector>

#include "src/fl/fedavg.hpp"
#include "src/fl/server_optimizer.hpp"
#include "src/ml/conv.hpp"
#include "src/systems/aggregation_service.hpp"
#include "src/systems/system_config.hpp"
#include "src/systems/table.hpp"

using namespace lifl;

namespace {

struct StudyResult {
  std::vector<double> accuracy_per_round;
};

StudyResult run_study(fl::ServerOptimizerKind kind, int rounds) {
  constexpr std::size_t kClients = 12;
  constexpr double kAlpha = 0.3;  // strong non-IID label skew

  ml::TinyResNet::Config ncfg;  // 8x8 images, 10 classes
  ml::TinyResNet global(ncfg);
  sim::Rng rng(41);
  global.init(rng);

  ml::ImageDataGen gen(ncfg, sim::Rng(42));
  const ml::Dataset test = gen.make_test_set(320);
  sim::Rng shard_rng(43);
  std::vector<ml::Dataset> shards;
  for (std::size_t c = 0; c < kClients; ++c) {
    shards.push_back(gen.make_client_shard(120, kAlpha, shard_rng));
  }

  fl::ServerOptimizer::Config scfg;
  scfg.kind = kind;
  // First-order kinds take the full pseudo-gradient. Among the adaptive
  // kinds, Adagrad's denominator only grows, so it wants a larger server
  // rate than the EWMA-denominator kinds.
  switch (kind) {
    case fl::ServerOptimizerKind::kFedAvg:
    case fl::ServerOptimizerKind::kFedAvgM:
      scfg.lr = 1.0;
      break;
    case fl::ServerOptimizerKind::kFedAdagrad:
      scfg.lr = 0.1;
      break;
    case fl::ServerOptimizerKind::kFedYogi:
    case fl::ServerOptimizerKind::kFedAdam:
      scfg.lr = 0.03;
      break;
  }
  fl::ServerOptimizer server(scfg);

  // The platform: 2 nodes, LIFL system, real payloads in the object store.
  sim::Simulator sim;
  sim::Cluster cluster(sim, 2);
  sys::SystemConfig lifl = sys::make_lifl();
  lifl.plane = dp::lifl_plane();
  lifl.node_max_capacity = 8;
  dp::DataPlane plane(cluster, lifl.plane, sim::Rng(44));
  sys::AggregationService service(cluster, plane, lifl);

  StudyResult result;
  sim::Rng client_rng(45);
  for (int round = 1; round <= rounds; ++round) {
    // Local training: 2 epochs of batch-8 SGD per client shard.
    std::vector<std::pair<ml::Tensor, std::uint64_t>> updates;
    for (const auto& shard : shards) {
      ml::TinyResNet local(ncfg);
      local.set_params(global.params());
      std::vector<std::size_t> idx(shard.labels.size());
      for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
      ml::Tensor grad;
      for (int epoch = 0; epoch < 2; ++epoch) {
        for (std::size_t b = 0; b + 8 <= idx.size(); b += 8) {
          std::vector<std::size_t> batch(idx.begin() + b, idx.begin() + b + 8);
          local.gradient(shard, batch, grad);
          local.sgd_step(grad, 0.15f);
        }
      }
      updates.emplace_back(local.params(), shard.labels.size());
    }

    // Ship the round through the platform.
    const auto assignment = service.place_updates(kClients);
    std::vector<std::uint32_t> counts(cluster.size(), 0);
    for (auto n : assignment) counts[n]++;
    bool completed = false;
    service.arm(counts, static_cast<std::uint32_t>(round),
                global.param_count() * 4,
                [&](const sys::AggregationService::BatchResult& batch) {
                  completed = true;
                  ml::Tensor params = global.params();
                  server.step(params, *batch.global_update.tensor);
                  global.set_params(params);
                });
    for (std::size_t c = 0; c < kClients; ++c) {
      fl::ModelUpdate u;
      u.model_version = static_cast<std::uint32_t>(round);
      u.producer = 2000 + c;
      u.sample_count = updates[c].second;
      u.logical_bytes = global.param_count() * 4;
      u.tensor = std::make_shared<const ml::Tensor>(updates[c].first);
      plane.client_upload(assignment[c], std::move(u), 100e6);
    }
    sim.run();
    if (!completed) {
      std::fprintf(stderr, "round %d failed\n", round);
      std::exit(1);
    }
    service.finish_batch();
    result.accuracy_per_round.push_back(global.accuracy(test));
  }
  return result;
}

}  // namespace

int main() {
  constexpr int kRounds = 10;
  std::printf("Server-optimizer study: TinyResNet on a non-IID image task, "
              "%d federated rounds through LIFL\n",
              kRounds);

  const std::vector<fl::ServerOptimizerKind> kinds = {
      fl::ServerOptimizerKind::kFedAvg, fl::ServerOptimizerKind::kFedAvgM,
      fl::ServerOptimizerKind::kFedAdagrad, fl::ServerOptimizerKind::kFedYogi,
      fl::ServerOptimizerKind::kFedAdam};

  std::vector<StudyResult> results;
  for (const auto kind : kinds) results.push_back(run_study(kind, kRounds));

  std::vector<std::string> headers{"round"};
  for (const auto kind : kinds) headers.push_back(std::string(to_string(kind)));
  sys::Table t(headers);
  for (int r = 0; r < kRounds; ++r) {
    std::vector<std::string> row{std::to_string(r + 1)};
    for (const auto& res : results) {
      row.push_back(sys::fmt(res.accuracy_per_round[r] * 100.0, 1) + "%");
    }
    t.row(row);
  }
  t.print("Test accuracy per round, by server optimizer");
  return 0;
}
