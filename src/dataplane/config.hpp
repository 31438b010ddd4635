#pragma once

#include <cstdint>

#include "src/sim/time.hpp"

namespace lifl::dp {

/// Which data-plane architecture moves model updates (Fig. 5).
enum class PlaneKind : std::uint8_t {
  kLifl,        ///< shared-memory object store + SKMSG key passing + gateway
  kServerful,   ///< direct gRPC-style kernel channels (SF)
  kServerless,  ///< container sidecar + message broker indirection (SL)
};

/// Which sidecar mediates aggregator traffic.
enum class SidecarKind : std::uint8_t {
  kNone,       ///< serverful monolith: no sidecar
  kContainer,  ///< container-based sidecar: per-byte interception + idle draw
  kEbpf,       ///< LIFL: eBPF/SKMSG, event-driven, zero idle cost
};

/// Data-plane configuration; systems (SF/SL/LIFL) are points in this space.
struct DataPlaneConfig {
  PlaneKind plane = PlaneKind::kLifl;
  SidecarKind sidecar = SidecarKind::kEbpf;
  /// Route traffic through a message broker (always true for the serverless
  /// baseline; true on a serverful plane gives the SF-micro setup of Fig. 5).
  bool use_broker = false;
  /// Node hosting the message broker. Fig. 2(b) shows a *single* stateful
  /// broker service in the cluster datapath: every brokered message transits
  /// this node, so the broker's processing capacity — not the aggregators' —
  /// can bound the aggregation service (§2.3 "inefficient message queuing").
  sim::NodeId broker_node = 0;
  /// Broker worker threads. Unlike LIFL's gateway (§4.2), the broker is not
  /// vertically scaled with load.
  std::uint32_t broker_cores = 2;
  /// Cores assigned to each node's gateway at start-up (vertically scaled
  /// at runtime via DataPlane::set_gateway_cores, §4.2).
  std::uint32_t gateway_cores = 2;
  /// RSS receive queues per node gateway: client uploads are hash-steered
  /// by client id, so one hot node's ingest drains on all its gateway
  /// cores while each client's uploads stay in order (ordering holds under
  /// a stable core count; rescaling reprograms the steering like a real
  /// RSS indirection-table update and may transiently reorder a flow).
  /// 1 = the classic single-queue gateway (bit-identical to the pre-RSS
  /// model); 0 = one queue per gateway core (full fan-out).
  std::uint32_t gateway_queues = 1;
};

/// Shorthand constructors for the architectures under study (Fig. 5).
/// Whatever tensor an update carries rides in its shm store entry (LIFL)
/// or in the plane's payload slab (SF/SL), so no preset needs a
/// real-payload switch; `lifl_plane` still accepts and ignores the bool
/// its older callers pass.
inline DataPlaneConfig lifl_plane(bool /*ignored*/ = false) {
  return {PlaneKind::kLifl, SidecarKind::kEbpf, false};
}
inline DataPlaneConfig serverful_plane() {
  return {PlaneKind::kServerful, SidecarKind::kNone, false};
}
inline DataPlaneConfig serverful_micro_plane() {
  return {PlaneKind::kServerful, SidecarKind::kNone, true};
}
inline DataPlaneConfig serverless_plane() {
  DataPlaneConfig c{PlaneKind::kServerless, SidecarKind::kContainer, true};
  // The baseline's broker is a single stateful service process; its
  // (per-message ordered) delivery loop is what queues under bursts.
  c.broker_cores = 1;
  return c;
}

}  // namespace lifl::dp
