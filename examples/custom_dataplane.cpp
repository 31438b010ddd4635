// Exploring the data-plane design space (Fig. 5) with the public API.
//
// A platform researcher can compose any point in LIFL's data-plane space —
// plane kind x sidecar kind x broker — and measure what a single model-
// update transfer between two co-located aggregators costs. This example
// sweeps the named architectures plus two hypothetical hybrids the paper
// does not ship (an eBPF sidecar with a broker still in the path, and a
// container sidecar over direct channels), reproducing a Fig. 7-style
// comparison for all of them.
//
// Build & run:  cmake -B build -G Ninja && cmake --build build
//               ./build/examples/example_custom_dataplane

#include <cstdio>
#include <string>
#include <vector>

#include "src/dataplane/dataplane.hpp"
#include "src/fl/model_spec.hpp"
#include "src/sim/calibration.hpp"
#include "src/systems/table.hpp"

namespace {

using namespace lifl;

struct Measurement {
  double latency_secs = 0.0;
  double gigacycles = 0.0;
};

/// One leaf->top transfer of `bytes` on a fresh single-node world.
Measurement measure_transfer(dp::DataPlaneConfig cfg, std::size_t bytes) {
  sim::Simulator sim;
  sim::Cluster cluster(sim, 1);
  dp::DataPlane plane(cluster, cfg, sim::Rng(99));

  bool delivered = false;
  double delivered_at = -1.0;
  plane.register_consumer(2, 0, [&](fl::UpdateDesc u) {
    // The destination still pays its Recv cost to own the payload, then
    // drops its reference on it.
    const double recv_cycles = plane.recv_cycles(u);
    plane.release(0, u);
    const double recv_secs = recv_cycles / sim::calib::kCpuHz;
    cluster.node(0).cores().acquire(recv_secs, [&, recv_cycles] {
      cluster.node(0).cpu().add(sim::CostTag::kSerialization, recv_cycles);
      delivered = true;
      delivered_at = sim.now();
    });
  });

  fl::ModelUpdate u;
  u.model_version = 1;
  u.sample_count = 600;
  u.logical_bytes = bytes;
  plane.send(/*src=*/1, /*src_node=*/0, /*dst=*/2, std::move(u));
  sim.run();
  if (!delivered) {
    std::fprintf(stderr, "transfer did not complete\n");
    std::exit(1);
  }
  plane.settle_idle_costs();
  return {delivered_at, cluster.node(0).cpu().total_cycles() / 1e9};
}

}  // namespace

int main() {
  using dp::DataPlaneConfig;
  using dp::PlaneKind;
  using dp::SidecarKind;

  // The three named architectures plus two custom points in the space.
  std::vector<std::pair<std::string, DataPlaneConfig>> designs = {
      {"LIFL (shm + eBPF)", dp::lifl_plane()},
      {"serverful (direct gRPC)", dp::serverful_plane()},
      {"serverless (sidecar+broker)", dp::serverless_plane()},
      {"custom: direct + container sidecar",
       {PlaneKind::kServerless, SidecarKind::kContainer, /*use_broker=*/false}},
      {"custom: broker, no sidecar",
       {PlaneKind::kServerless, SidecarKind::kNone, /*use_broker=*/true}},
  };

  const auto model = fl::models::resnet34();
  std::printf("Single %zu MB update transfer between co-located "
              "aggregators, per data-plane design:\n",
              model.bytes() / 1'000'000);

  sys::Table t({"design", "latency(s)", "CPU(Gcycles)"});
  for (const auto& [name, cfg] : designs) {
    const Measurement m = measure_transfer(cfg, model.bytes());
    t.row({name, sys::fmt(m.latency_secs, 2), sys::fmt(m.gigacycles, 2)});
  }
  t.print("ResNet-34 transfer cost across the Fig. 5 design space");

  std::printf(
      "\nEach stage the architecture adds (sidecar interception, broker\n"
      "hops, kernel crossings) shows up in both latency and cycles; the\n"
      "shm+eBPF plane pays only the object-store write and a key pass.\n");
  return 0;
}
