#pragma once

#include <functional>

#include "src/dataplane/dataplane.hpp"

namespace lifl::dp {

/// Measurement helper: performs one aggregator-to-aggregator transfer of
/// `bytes` through the plane and reports the end-to-end latency — from
/// send() to the moment the consumer has *taken ownership* of the payload
/// (its Recv-side processing included), which is what Fig. 7(a) measures.
///
/// The probe registers a bare consumer that pays the plane's Recv cost on
/// the destination node's cores, exactly as `AggregatorRuntime` does.
inline void measure_transfer(DataPlane& plane, sim::NodeId src_node,
                             sim::NodeId dst_node, std::size_t bytes,
                             std::function<void(double latency)> done,
                             fl::ParticipantId id_base = 900'000) {
  auto& sim = plane.cluster().sim();
  const fl::ParticipantId src = id_base;
  const fl::ParticipantId dst = id_base + 1;
  const double t0 = sim.now();

  plane.register_consumer(
      dst, dst_node,
      [&plane, dst_node, dst, t0, done = std::move(done)](fl::UpdateDesc u) {
        sim::Node& node = plane.cluster().node(dst_node);
        const double recv_cycles = plane.recv_cycles(u);
        plane.release(dst_node, u);
        node.cores().acquire(
            recv_cycles / node.config().cpu_hz,
            [&plane, &node, dst, t0, recv_cycles, done = std::move(done)]() {
              node.cpu().add(sim::CostTag::kSerialization, recv_cycles);
              const double latency = plane.cluster().sim().now() - t0;
              plane.unregister_consumer(dst);
              if (done) done(latency);
            });
      });

  fl::ModelUpdate u;
  u.producer = src;
  u.sample_count = 1;
  u.logical_bytes = bytes;
  plane.send(src, src_node, dst, std::move(u));
}

/// Measurement helper for the client->aggregator ingest path of Fig. 13:
/// uploads one update of `bytes` into `node`'s pool and reports the latency
/// until a consumer popped and Recv-processed it (client-side excluded).
inline void measure_ingest(DataPlane& plane, sim::NodeId node_id,
                           std::size_t bytes, double uplink_bytes_per_sec,
                           std::function<void(double latency)> done) {
  auto& sim = plane.cluster().sim();
  const double t0 = sim.now();
  fl::ModelUpdate u;
  u.sample_count = 1;
  u.logical_bytes = bytes;
  plane.client_upload(node_id, std::move(u), uplink_bytes_per_sec);
  plane.env(node_id).pool.pop_async(
      [&plane, node_id, t0, done = std::move(done)](fl::UpdateDesc got) {
        // Consuming the queued update is a broker delivery on brokered
        // planes (free under in-place queuing) — same path the
        // AggregatorRuntime takes.
        plane.consume(node_id, got,
                      [&plane, node_id, t0, done = std::move(done)](
                          fl::UpdateDesc u) mutable {
          sim::Node& node = plane.cluster().node(node_id);
          const double recv_cycles = plane.recv_cycles(u);
          plane.release(node_id, u);
          node.cores().acquire(
              recv_cycles / node.config().cpu_hz,
              [&plane, &node, t0, recv_cycles, done = std::move(done)]() {
                node.cpu().add(sim::CostTag::kSerialization, recv_cycles);
                if (done) done(plane.cluster().sim().now() - t0);
              });
        });
      });
}

}  // namespace lifl::dp
