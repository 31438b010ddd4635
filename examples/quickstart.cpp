// Quickstart: real federated learning on the LIFL platform.
//
// Trains a small MLP with FedAvg over a synthetic non-IID federated dataset.
// Every moving part is real: clients run actual SGD, their parameter tensors
// travel through the simulated LIFL data plane (gateway -> shared-memory
// object store -> leaf/middle/top aggregators), and the hierarchy is planned,
// placed and reused by LIFL's control plane. Test accuracy is measured on a
// held-out set after every round.
//
// Build & run:  cmake -B build -G Ninja && cmake --build build
//               ./build/examples/example_quickstart

#include <cstdio>
#include <memory>

#include "src/dataplane/dataplane.hpp"
#include "src/ml/dataset.hpp"
#include "src/ml/mlp.hpp"
#include "src/ml/train.hpp"
#include "src/sim/node.hpp"
#include "src/sim/random.hpp"
#include "src/sim/simulator.hpp"
#include "src/systems/aggregation_service.hpp"
#include "src/systems/system_config.hpp"

int main() {
  using namespace lifl;

  constexpr std::size_t kClients = 16;
  constexpr std::size_t kRounds = 12;
  constexpr double kDirichletAlpha = 0.5;  // non-IID label skew

  sim::Rng rng(7);

  // ---- The learning task: 10-class Gaussian blobs, non-IID client shards.
  ml::SyntheticTaskConfig task;
  ml::FederatedDataGen gen(task, rng.split(1));
  const ml::Dataset test_set = gen.make_test_set(2000);
  std::vector<ml::Dataset> shards;
  sim::Rng shard_rng = rng.split(2);
  for (std::size_t c = 0; c < kClients; ++c) {
    shards.push_back(gen.make_client_shard(400, kDirichletAlpha, shard_rng));
  }

  // ---- The global model.
  ml::Mlp global({task.feature_dim, 64, 32, task.num_classes});
  sim::Rng init_rng = rng.split(3);
  global.init(init_rng);
  std::printf("model: MLP %zu params (%zu bytes/update)\n",
              global.param_count(), global.param_count() * 4);
  std::printf("round  0: accuracy %.3f (untrained)\n",
              global.accuracy(test_set));

  // ---- The platform: a 2-node cluster running the LIFL system.
  sim::Simulator sim;
  sim::Cluster cluster(sim, 2);
  dp::DataPlane plane(cluster, dp::lifl_plane(),
                      rng.split(4));
  sys::SystemConfig lifl = sys::make_lifl();
  lifl.node_max_capacity = 10;  // pack ~10 updates per node
  sys::AggregationService service(cluster, plane, lifl);

  ml::LocalTrainConfig train_cfg;  // SGD, batch 32, lr 0.01 (paper §6.2)
  sim::Rng client_rng = rng.split(5);

  for (std::size_t round = 1; round <= kRounds; ++round) {
    // Clients train locally from the current global model (for real).
    std::vector<ml::LocalUpdate> updates;
    for (std::size_t c = 0; c < kClients; ++c) {
      updates.push_back(ml::local_train(global, global.params(), shards[c],
                                        train_cfg, client_rng));
    }

    // Place the incoming updates and arm the aggregation hierarchy.
    const auto assignment = service.place_updates(kClients);
    std::vector<std::uint32_t> counts(cluster.size(), 0);
    for (auto n : assignment) counts[n]++;

    bool completed = false;
    std::uint64_t fold_allocs = 0, fold_hits = 0;
    service.arm(counts, static_cast<std::uint32_t>(round),
                global.param_count() * 4,
                [&](const sys::AggregationService::BatchResult& batch) {
                  completed = true;
                  fold_allocs = batch.tensor_allocs;
                  fold_hits = batch.tensor_pool_hits;
                  // Install the aggregated parameters as the new global model.
                  global.set_params(*batch.global_update.tensor);
                });

    // Upload each client's real parameter tensor through the data plane.
    for (std::size_t c = 0; c < kClients; ++c) {
      fl::ModelUpdate u;
      u.model_version = static_cast<std::uint32_t>(round);
      u.producer = 1000 + c;
      u.sample_count = updates[c].sample_count;
      u.logical_bytes = global.param_count() * 4;
      u.tensor = updates[c].params;  // pooled, zero-copy into the plane
      plane.client_upload(assignment[c], std::move(u), /*uplink=*/100e6);
    }

    sim.run();
    if (!completed) {
      std::printf("round %2zu: FAILED to complete aggregation\n", round);
      return 1;
    }
    service.finish_batch();
    std::printf("round %2zu: accuracy %.3f  (sim time %.2fs, %u created, "
                "%u reused, fold pool %llu hits / %llu allocs)\n",
                round, global.accuracy(test_set), sim.now(),
                service.total_created(), service.total_reused(),
                static_cast<unsigned long long>(fold_hits),
                static_cast<unsigned long long>(fold_allocs));
  }

  std::printf("\nshared-memory stats (node 0): %llu puts, %llu recycled, "
              "peak %.1f MB\n",
              static_cast<unsigned long long>(plane.env(0).store.stats().puts),
              static_cast<unsigned long long>(
                  plane.env(0).store.stats().recycled_buffers),
              plane.env(0).store.stats().peak_bytes / 1e6);
  return 0;
}
