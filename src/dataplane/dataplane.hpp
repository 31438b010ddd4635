#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <limits>
#include <memory>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/dataplane/broker.hpp"
#include "src/dataplane/config.hpp"
#include "src/dataplane/cost.hpp"
#include "src/dataplane/metrics_map.hpp"
#include "src/dataplane/payload_slab.hpp"
#include "src/dataplane/routing.hpp"
#include "src/dataplane/update_pool.hpp"
#include "src/fl/model_update.hpp"
#include "src/shm/object_store.hpp"
#include "src/sim/node.hpp"
#include "src/sim/random.hpp"

namespace lifl::fl {
class AggregatorRuntime;
}  // namespace lifl::fl

namespace lifl::dp {

class DataPlane;

/// Liveness record of one `fl::AggregatorRuntime`, in its plane's slab.
/// The runtime's parked continuations hold {record, generation, node}
/// handles instead of shared pointers: freeing or re-arming the runtime
/// retires the record (bumps `gen`), so an older handle reads the runtime
/// as gone, yet can still reach the plane (and its node's pool) through the
/// record, which lives as long as the plane.
struct RuntimeRecord {
  fl::AggregatorRuntime* rt = nullptr;  ///< null while stopped or failed
  DataPlane* plane = nullptr;
  std::uint32_t gen = 0;
  /// The runtime as seen by a handle taken under generation `g`: null once
  /// the record was retired since, or while the runtime is stopped.
  fl::AggregatorRuntime* live(std::uint32_t g) const noexcept {
    return g == gen ? rt : nullptr;
  }
  /// Make every handle taken so far stale for good.
  void retire() noexcept {
    rt = nullptr;
    ++gen;
  }
};

/// Handle for a registered always-on idle CPU draw.
using IdleHandle = std::uint64_t;

/// Which pipeline a route prices.
enum class PathKind : std::uint8_t {
  kIngest,     ///< client upload into the ingress node (after the wire)
  kIntraNode,  ///< aggregator to aggregator on one node
  kInterNode,  ///< aggregator to aggregator across nodes
  kConsume,    ///< broker delivery of a queued update (brokered planes)
};

/// The last two routes one node resolved for one path kind, newest first:
/// the flat memo every transfer reads before the plane's route table. A
/// run uses a handful of (peer, bytes) pairs per node and kind — a chunk
/// size and a full update size at most — so after warm-up no transfer
/// looks a route up.
struct RouteMemo {
  struct Entry {
    std::size_t bytes = std::numeric_limits<std::size_t>::max();
    sim::NodeId peer = 0;  ///< the destination node (sends); 0 otherwise
    Route route;
  };
  std::array<Entry, 2> e{};
};

class ResumableUpload;

namespace detail {
/// Storage of resumable-upload sessions (src/dataplane/resumable_upload.cpp).
struct SessionSlab;
/// Destroys the slab and every session still live in it.
struct SessionSlabDelete {
  void operator()(SessionSlab* slab) const noexcept;
};
}  // namespace detail

/// The cluster data plane: moves model updates between clients, gateways and
/// aggregators, with costs determined by the configured architecture.
///
/// One instance models one of the planes of Fig. 5 end to end:
///  - **LIFL**: gateway performs one-time payload processing into the
///    per-node shm object store; intra-node hand-off passes object handles
///    via the eBPF/SKMSG sidecar and sockmap; inter-node transfers go
///    gateway-to-gateway (Appendix A); the eBPF sidecar writes metrics at
///    event time and costs nothing when idle.
///  - **Serverful**: direct gRPC-style kernel channels (serialize / kernel
///    tx / kernel rx, consumer deserializes).
///  - **Serverless**: every hop additionally traverses the container sidecar
///    and a message broker that buffers whole payloads; broker and sidecar
///    are always-on and draw idle CPU.
///
/// Transfers are sequences of `CostStep`s executed on the owning node's
/// resources, so kernel-stack contention (Fig. 4), gateway saturation and
/// NIC serialization all emerge from queueing rather than being scripted.
/// Each pipeline is built once per (path, src node, dst node, bytes) and
/// interned (`route`); a transfer is a pooled `StepRunner` flight over it,
/// whose route comes from the node's `RouteMemo`.
///
/// **Updates inside the plane.** `fl::ModelUpdate` is the value at the
/// plane's edges (`client_upload`, `seed_update`, `send`, and what a
/// runtime's `on_result` receives). Inside, an update is an
/// `fl::UpdateDesc` — flight cargo, pool entry, lease copy, runtime FIFO
/// entry — whose payload handle names one reference on a payload the plane
/// holds, as in LIFL §4.2 where the gateway writes the payload into shared
/// memory once and the function chain passes only its key. On the LIFL
/// plane the payload is an entry of the node's shm store, put at the
/// gateway (an upload landing, `seed_update`) and at `send`; on the SF/SL
/// planes a real tensor sits in the plane's payload slab (and so does one
/// still on its way to a LIFL gateway). References are explicit: `retain`
/// for each extra copy kept (a lease), `release` after the fold or a
/// discard, `take` when the update leaves the plane as a value.
/// Descriptors hold nothing themselves, so one still parked in the
/// simulator or a pool when the plane dies releases nothing; the stores
/// and the slab free every payload with the plane.
class DataPlane {
 public:
  /// Everything the plane keeps per worker node.
  struct NodeEnv {
    NodeEnv(sim::Simulator& sim, sim::NodeId id, sim::Rng rng,
            std::uint32_t gateway_cores, std::uint32_t gateway_queues)
        : store(rng),
          pool(sim),
          gateway(sim, "node" + std::to_string(id) + ".gw", gateway_cores,
                  gateway_queues) {}

    shm::ObjectStore store;     ///< shared-memory object store (§4.1)
    UpdatePool pool;            ///< in-place message queue of the node (§4.2)
    /// Gateway cores behind RSS receive queues (client uploads steer by
    /// client id); vertically scaled (§4.2).
    sim::MultiQueueResource gateway;
    Sockmap sockmap;            ///< local routes (Appendix A)
    InterNodeRoutes remote_routes;  ///< gateway's inter-node routing table
    MetricsMap metrics;         ///< eBPF metrics map (§4.3)
    Broker broker;              ///< broker bookkeeping (baseline planes)
    /// Routes this node resolved, per `PathKind`: ingest and consume
    /// routes end here, intra- and inter-node sends start here.
    std::array<RouteMemo, 4> memo;
  };

  DataPlane(sim::Cluster& cluster, DataPlaneConfig cfg, sim::Rng rng);
  DataPlane(const DataPlane&) = delete;
  DataPlane& operator=(const DataPlane&) = delete;

  const DataPlaneConfig& config() const noexcept { return cfg_; }
  sim::Cluster& cluster() noexcept { return cluster_; }
  NodeEnv& env(sim::NodeId id) { return *envs_.at(id); }

  // ------------------------------------------------------------- routing
  /// Register a consumer (aggregator) at `node`; `deliver` receives updates
  /// addressed to it. Updates the node's sockmap and every gateway's
  /// inter-node routing table (the routing manager's bpf_map_update_elem).
  void register_consumer(fl::ParticipantId id, sim::NodeId node,
                         Sockmap::DeliverFn deliver);

  /// Remove a consumer from all routing tables.
  void unregister_consumer(fl::ParticipantId id);

  /// Node hosting a registered consumer.
  std::optional<sim::NodeId> node_of(fl::ParticipantId id) const;

  // ----------------------------------------------------------- transfers
  /// Aggregator-to-aggregator transfer; routed intra-node (sockmap) or
  /// inter-node (gateway to gateway). `on_delivered` fires when the update
  /// reaches the destination runtime's queue (before its Recv processing).
  /// On the LIFL plane the payload is put into the store the destination
  /// reads from (the source node's, or the destination's after the remote
  /// gateway re-materializes it, Appendix A) — the send-side retain.
  void send(fl::ParticipantId src, sim::NodeId src_node, fl::ParticipantId dst,
            fl::ModelUpdate update, sim::Task on_delivered = {});

  /// Client upload into `dst_node`'s pending pool through the node gateway
  /// (or broker path on baseline planes); the upload steers to the gateway
  /// RSS queue of `update.producer`. Client-side costs are excluded,
  /// matching Appendix F.
  void client_upload(sim::NodeId dst_node, fl::ModelUpdate update,
                     double uplink_bytes_per_sec,
                     sim::Task on_enqueued = {});

  /// One chunk of a resumable client upload: client-wire latency plus the
  /// gateway ingest cost for `bytes` along `route` (the chunk size's
  /// `ingest_route`, which the session resolves once), steered to the RSS
  /// queue of `flow` like the full-stream path. `on_acked` fires when the
  /// gateway has processed (acked) the chunk. The flight carries no cargo —
  /// the session layer assembles acked chunks and deposits the completed
  /// update once, so samples are never double-counted.
  void client_upload_chunk(Route route, std::uint64_t flow, std::size_t bytes,
                           double uplink_bytes_per_sec, sim::Task on_acked);

  /// The ingest pipeline into `node` for `bytes`, through the node's memo.
  Route ingest_route(sim::NodeId node, std::size_t bytes) {
    return memo_route(PathKind::kIngest, node, node, bytes);
  }

  /// Deposit an update directly into `node`'s pool as if it had already
  /// been ingested (in-place queued in shm on the LIFL plane), at zero
  /// cost. Used by microbenchmarks that start from a known queue state
  /// (Fig. 8: "the estimated Q equals the actual queue length").
  void seed_update(sim::NodeId node, fl::ModelUpdate update);
  /// `seed_update` for an update the plane already holds (a `hold`
  /// descriptor, e.g. a resumable session's): on the LIFL plane this is the
  /// gateway put of its payload.
  void deposit(sim::NodeId node, fl::UpdateDesc update);

  /// CPU cycles a consumer must spend in its Recv step to take ownership of
  /// a delivered update (shm read for LIFL, deserialization for kernel
  /// planes; plus full client-stream decoding if no gateway/broker
  /// terminated the upload). Paid by the runtime, which is single-threaded.
  double recv_cycles(const fl::UpdateDesc& update) const noexcept;

  /// A consumer on `node` takes one queued update out of the node's pending
  /// pool; `ready` receives it when the payload is at the consumer (the
  /// transfer carries the descriptor, so `ready` need not capture it). On
  /// the LIFL plane this is free — the update already sits in shared memory
  /// and the consumer holds its handle (§4.2 in-place queuing). On a bare
  /// serverful plane the queue is in the aggregator's own memory (Fig. 5
  /// monolith) — also free. On brokered planes the queue lives in the
  /// broker, so every consumption is a real broker delivery: dequeue
  /// processing on the broker service plus kernel/wire hops to the consumer
  /// — the "inefficient message queuing" overhead of §2.3.
  void consume(sim::NodeId node, const fl::UpdateDesc& update,
               StepRunner::Arrival ready);

  // ------------------------------------------------------------ payloads
  /// Add a reference on `d`'s payload, for one more copy of `d` kept (a
  /// lease). `node` is where `d` is held: its store is the one a LIFL
  /// handle names.
  void retain(sim::NodeId node, const fl::UpdateDesc& d);
  /// Drop the reference `d` holds — after its fold, or when it is
  /// discarded. The last reference recycles the payload.
  void release(sim::NodeId node, const fl::UpdateDesc& d);
  /// The real tensor `d`'s payload carries, or null (logical payloads).
  std::shared_ptr<const ml::Tensor> tensor(sim::NodeId node,
                                           const fl::UpdateDesc& d);
  /// `u` as a descriptor held by the plane without a gateway put (no
  /// store entry, no transfer): its tensor, if any, goes to the payload
  /// slab. For a value handed straight to a runtime.
  fl::UpdateDesc hold(fl::ModelUpdate u);
  /// Payloads held in the plane's payload slab.
  std::size_t slab_payloads() const noexcept { return slab_.size(); }

  // ------------------------------------------------ aggregator runtimes
  /// A liveness record for a new runtime, recycled from a freed one when
  /// there is one. Its address is stable for the plane's lifetime.
  RuntimeRecord* acquire_runtime_record();
  /// Free a runtime's record: retire it, so every handle to it goes stale,
  /// and recycle it (the next acquire returns it first).
  void release_runtime_record(RuntimeRecord* rec) noexcept;

  /// Record an aggregation-task execution time observed by the sidecar
  /// attached to an aggregator on `node` (§4.3): event-driven metric write.
  void record_agg_exec(sim::NodeId node, double exec_secs);

  // ------------------------------------------------- always-on overheads
  /// Register a constant CPU draw (broker, container sidecar) on a node.
  IdleHandle register_idle_draw(sim::NodeId node, sim::CostTag tag,
                                double cores);
  /// Settle and remove a draw.
  void remove_idle_draw(IdleHandle h);
  /// Bill all idle draws up to sim.now(). Call before reading CPU ledgers.
  void settle_idle_costs();

  /// Vertical scaling of a node gateway (§4.2).
  void set_gateway_cores(sim::NodeId node, std::uint32_t cores);

  /// The cluster's message-broker service threads (brokered planes only):
  /// a fixed-capacity resource on `config().broker_node` that every
  /// brokered message transits (Fig. 2(b)).
  sim::Resource& broker_service() noexcept { return broker_svc_; }

  /// The interned pipeline of `kind` for `bytes` from `src` to `dst`, built
  /// on first use: a lookup in the plane's route table, which transfers
  /// reach only when their node's `RouteMemo` misses. `src` is ignored for
  /// kIngest (the client) and kConsume (the broker). Gateway steps steer by
  /// the flight's flow at run time. Valid for the plane's lifetime.
  Route route(PathKind kind, sim::NodeId src, sim::NodeId dst,
              std::size_t bytes);

  /// Route-table lookups (`route` calls) made by every plane in this
  /// process so far.
  static std::uint64_t route_table_lookups() noexcept;

  /// Total data moved across nodes (bytes), for locality accounting.
  std::uint64_t inter_node_bytes() const noexcept { return inter_node_bytes_; }
  /// Total intra-node update hand-offs served by shared memory.
  std::uint64_t shm_deliveries() const noexcept { return shm_deliveries_; }

  /// Restore checkpointed transfer counters verbatim.
  void restore_transfer_counters(std::uint64_t inter_node_bytes,
                                 std::uint64_t shm_deliveries) noexcept {
    inter_node_bytes_ = inter_node_bytes;
    shm_deliveries_ = shm_deliveries;
  }

 private:
  friend class ResumableUpload;  // owns the contents of `sessions_`

  /// Arrival hook of a `send` flight: unbuffer at the broker, then hand the
  /// update to the destination's socket (24 bytes, Task-inline).
  struct DeliverFn {
    DataPlane* plane;
    fl::ParticipantId dst;
    sim::NodeId dst_node;
    void operator()(fl::UpdateDesc u) const;
  };
  /// Arrival hook of a `client_upload` flight: the gateway put, then the
  /// deposit into the node pool.
  struct EnqueueFn {
    DataPlane* plane;
    sim::NodeId node;
    void operator()(fl::UpdateDesc u) const;
  };
  static_assert(sim::is_hot_callable_v<DeliverFn> &&
                sim::is_hot_callable_v<EnqueueFn>);
  struct RouteKey {
    PathKind kind;
    sim::NodeId src;
    sim::NodeId dst;
    std::size_t bytes;
    bool operator==(const RouteKey& o) const noexcept {
      return kind == o.kind && src == o.src && dst == o.dst &&
             bytes == o.bytes;
    }
  };

  /// `route` through the memo of the node the path starts (sends) or ends
  /// (ingest, consume) at.
  Route memo_route(PathKind kind, sim::NodeId src, sim::NodeId dst,
                   std::size_t bytes);
  void deliver(sim::NodeId dst_node, fl::ParticipantId dst,
               const fl::UpdateDesc& update);
  /// The gateway put of the LIFL plane: write `d`'s payload (the slab
  /// tensor `d` names, if any) into `node`'s store; `d` then names the
  /// store entry.
  void land(sim::NodeId node, fl::UpdateDesc& d);

  std::vector<CostStep> intra_node_steps(sim::Node& node, std::size_t bytes);
  std::vector<CostStep> inter_node_steps(sim::Node& src, sim::Node& dst,
                                         std::size_t bytes);
  std::vector<CostStep> ingest_steps(sim::Node& node, std::size_t bytes);
  std::vector<CostStep> consume_steps(sim::Node& dst, std::size_t bytes);
  /// Appends the broker leg of a brokered path: hop to the broker node if
  /// needed, broker processing on the broker service threads, then the hop
  /// from the broker to `dst` (Fig. 2(b) indirection).
  void append_broker_leg(std::vector<CostStep>& steps, sim::Node& src,
                         sim::Node& dst, std::size_t bytes,
                         double extra_broker_cycles_per_byte = 0.0);

  sim::Cluster& cluster_;
  DataPlaneConfig cfg_;
  sim::Resource broker_svc_;
  StepRunner runner_;
  std::vector<std::unique_ptr<NodeEnv>> envs_;
  std::unordered_map<fl::ParticipantId, sim::NodeId> consumers_;

  struct IdleDraw {
    sim::NodeId node;
    sim::CostTag tag;
    double cores;
    sim::SimTime since;
  };
  std::unordered_map<IdleHandle, IdleDraw> idle_draws_;
  IdleHandle next_idle_handle_ = 1;

  std::uint64_t inter_node_bytes_ = 0;
  std::uint64_t shm_deliveries_ = 0;

  /// Interned routes: a flat table, searched only when a memo misses, that
  /// grows by one step list per distinct key (a run uses a handful). Memos
  /// and sessions keep `Route`s, so nothing is ever dropped; the step
  /// vectors never change once built, so their buffers stay put while
  /// `route_steps_` grows.
  std::vector<std::pair<RouteKey, Route>> routes_;
  std::vector<std::vector<CostStep>> route_steps_;
  /// Real payloads held outside the shm stores.
  PayloadSlab slab_;
  /// Runtime liveness records (stable addresses) and the recycled ones.
  std::deque<RuntimeRecord> runtime_records_;
  std::vector<RuntimeRecord*> free_runtime_records_;
  /// Resumable-upload sessions, created on the first launch.
  std::unique_ptr<detail::SessionSlab, detail::SessionSlabDelete> sessions_;
};

}  // namespace lifl::dp
