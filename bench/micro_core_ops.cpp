// Core-operation microbenchmarks (real measured wall time, not simulated):
// throughput of the primitives everything else is built on —
//   - FedAvg cumulative accumulation over real tensors,
//   - shared-memory object store put/get/release cycles,
//   - sockmap route lookups (the eBPF fast path of Appendix A),
//   - in-place queue push/pop,
//   - the discrete-event simulator's event throughput.

#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "src/dataplane/routing.hpp"
#include "src/dataplane/update_pool.hpp"
#include "src/fl/fedavg.hpp"
#include "src/ml/tensor.hpp"
#include "src/shm/object_store.hpp"
#include "src/sim/random.hpp"
#include "src/sim/simulator.hpp"

namespace {

using namespace lifl;

/// Streaming FedAvg over real float32 parameter vectors: add one update of
/// `range(0)` parameters into the running average.
void BM_FedAvgAccumulate(benchmark::State& state) {
  const auto params = static_cast<std::size_t>(state.range(0));
  sim::Rng rng(3);
  auto update = std::make_shared<const ml::Tensor>(
      ml::Tensor::randn(rng, params, 0.1f));
  fl::FedAvgAccumulator acc;
  acc.add(update, 600);
  for (auto _ : state) {
    acc.add(update, 600);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(params) *
                          static_cast<std::int64_t>(sizeof(float)));
}
BENCHMARK(BM_FedAvgAccumulate)->Arg(1 << 14)->Arg(1 << 18)->Arg(1 << 22);

/// One producer/consumer shm hand-off: put with one expected consumer, get,
/// release (buffer recycles into the pool).
void BM_ShmStorePutGetRelease(benchmark::State& state) {
  sim::Rng rng(5);
  shm::ObjectStore store{sim::Rng(5)};
  auto payload = std::make_shared<const ml::Tensor>(
      ml::Tensor::randn(rng, 1024, 0.1f));
  for (auto _ : state) {
    const shm::ObjectKey key = store.put(payload, payload->bytes());
    auto read = store.get<ml::Tensor>(key);
    benchmark::DoNotOptimize(read);
    store.release(key);
  }
}
BENCHMARK(BM_ShmStorePutGetRelease);

/// Sockmap route lookup with `range(0)` registered aggregators — the
/// in-kernel hot path every SKMSG delivery takes (Appendix A).
void BM_SockmapLookup(benchmark::State& state) {
  const auto entries = static_cast<std::size_t>(state.range(0));
  dp::Sockmap map;
  for (std::size_t i = 0; i < entries; ++i) {
    map.update_elem(static_cast<fl::ParticipantId>(i + 1),
                    [](fl::UpdateDesc) {});
  }
  fl::ParticipantId probe = 1;
  for (auto _ : state) {
    const auto* fn = map.lookup(probe);
    benchmark::DoNotOptimize(fn);
    probe = probe % entries + 1;
  }
}
BENCHMARK(BM_SockmapLookup)->Arg(16)->Arg(256)->Arg(4096);

/// In-place queue push+pop pair (the object-key FIFO of §4.2).
void BM_UpdatePoolPushPop(benchmark::State& state) {
  sim::Simulator sim;
  dp::UpdatePool pool(sim);
  fl::UpdateDesc u;
  u.logical_bytes = 1000;
  for (auto _ : state) {
    pool.push(u);
    fl::UpdateDesc out;
    const bool ok = pool.try_pop(out);
    benchmark::DoNotOptimize(ok);
  }
}
BENCHMARK(BM_UpdatePoolPushPop);

/// Simulator event throughput: schedule + dispatch of `range(0)` events.
void BM_SimulatorEventThroughput(benchmark::State& state) {
  const auto events = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    sim::Simulator sim;
    std::size_t fired = 0;
    for (std::size_t i = 0; i < events; ++i) {
      sim.schedule_after(static_cast<double>(i % 97), [&fired] { ++fired; });
    }
    sim.run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(events));
}
BENCHMARK(BM_SimulatorEventThroughput)->Arg(1000)->Arg(100000);

}  // namespace

BENCHMARK_MAIN();
