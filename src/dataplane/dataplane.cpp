#include "src/dataplane/dataplane.hpp"

#include <atomic>
#include <stdexcept>
#include <utility>

#include "src/sim/calibration.hpp"

namespace lifl::dp {

namespace calib = sim::calib;
using sim::CostTag;

namespace {

// A descriptor's payload handle: 0 for none, else the slot + 1 in its
// home, with the top bit set when the home is the plane's payload slab
// rather than the node's shm store.
constexpr std::uint32_t kInSlab = 1u << 31;

bool in_slab(const fl::UpdateDesc& d) noexcept {
  return (d.payload & kInSlab) != 0;
}

shm::ObjectRef store_ref(const fl::UpdateDesc& d) noexcept {
  return shm::ObjectRef{d.payload - 1, d.payload_gen};
}

PayloadSlab::Ref slab_ref(const fl::UpdateDesc& d) noexcept {
  return PayloadSlab::Ref{(d.payload & ~kInSlab) - 1, d.payload_gen};
}

std::atomic<std::uint64_t> g_route_lookups{0};

}  // namespace

DataPlane::DataPlane(sim::Cluster& cluster, DataPlaneConfig cfg, sim::Rng rng)
    : cluster_(cluster),
      cfg_(cfg),
      broker_svc_(cluster.sim(), "broker", cfg.broker_cores),
      runner_(cluster, broker_svc_) {
  envs_.reserve(cluster.size());
  std::vector<sim::MultiQueueResource*> gateways;
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    envs_.push_back(std::make_unique<NodeEnv>(
        cluster.sim(), static_cast<sim::NodeId>(i), rng.split(i),
        cfg_.gateway_cores, cfg_.gateway_queues));
    gateways.push_back(&envs_.back()->gateway);
  }
  runner_.set_gateways(std::move(gateways));
  if (cfg_.use_broker) {
    // The broker is the single stateful, always-on component of the plane
    // (Fig. 2(b)); it lives on — and draws idle CPU from — the broker node.
    register_idle_draw(cfg_.broker_node, CostTag::kBroker,
                       calib::kBrokerIdleCores);
  }
}

void DataPlane::register_consumer(fl::ParticipantId id, sim::NodeId node,
                                  Sockmap::DeliverFn deliver) {
  consumers_[id] = node;
  env(node).sockmap.update_elem(id, std::move(deliver));
  for (std::size_t i = 0; i < envs_.size(); ++i) {
    if (static_cast<sim::NodeId>(i) != node) {
      envs_[i]->remote_routes.update_elem(id, node);
    }
  }
}

void DataPlane::unregister_consumer(fl::ParticipantId id) {
  auto it = consumers_.find(id);
  if (it == consumers_.end()) return;
  env(it->second).sockmap.delete_elem(id);
  for (auto& e : envs_) e->remote_routes.delete_elem(id);
  consumers_.erase(it);
}

std::optional<sim::NodeId> DataPlane::node_of(fl::ParticipantId id) const {
  auto it = consumers_.find(id);
  if (it == consumers_.end()) return std::nullopt;
  return it->second;
}

double DataPlane::recv_cycles(const fl::UpdateDesc& update) const noexcept {
  const auto bytes = static_cast<double>(update.logical_bytes);
  if (cfg_.plane == PlaneKind::kLifl) {
    // Zero-copy: the consumer maps the shm object and walks it once.
    return calib::kShmReadCyclesPerByte * bytes;
  }
  // Kernel planes: the (single-threaded) consumer deserializes the payload,
  // and terminates the raw client stream if nothing did so upstream.
  double cycles =
      calib::kDeserializeCyclesPerByte * bytes + calib::kKernelFixedCycles;
  if (update.from_client) {
    cycles += calib::kClientStreamExtraCyclesPerByte * bytes;
  }
  return cycles;
}

void DataPlane::land(sim::NodeId node, fl::UpdateDesc& d) {
  // The payload leaves the slab for shared memory (logical-only updates get
  // an entry too: the store accounts their bytes).
  std::shared_ptr<const ml::Tensor> t;
  if (d.payload != 0) t = slab_.take(slab_ref(d));
  const shm::ObjectRef r =
      env(node).store.put_ref<ml::Tensor>(std::move(t), d.logical_bytes);
  d.payload = r.slot + 1;
  d.payload_gen = r.gen;
}

void DataPlane::retain(sim::NodeId node, const fl::UpdateDesc& d) {
  if (d.payload == 0) return;
  if (in_slab(d)) {
    slab_.retain(slab_ref(d));
  } else {
    env(node).store.retain(store_ref(d));
  }
}

void DataPlane::release(sim::NodeId node, const fl::UpdateDesc& d) {
  if (d.payload == 0) return;
  if (in_slab(d)) {
    slab_.release(slab_ref(d));
  } else {
    env(node).store.release(store_ref(d));
  }
}

std::shared_ptr<const ml::Tensor> DataPlane::tensor(sim::NodeId node,
                                                    const fl::UpdateDesc& d) {
  if (d.payload == 0) return nullptr;
  if (in_slab(d)) return slab_.get(slab_ref(d));
  return env(node).store.data<ml::Tensor>(store_ref(d));
}

fl::UpdateDesc DataPlane::hold(fl::ModelUpdate u) {
  fl::UpdateDesc d = fl::describe(u);
  if (u.tensor) {
    const PayloadSlab::Ref r = slab_.put(std::move(u.tensor));
    d.payload = (r.slot + 1) | kInSlab;
    d.payload_gen = r.gen;
  }
  return d;
}

std::uint64_t DataPlane::route_table_lookups() noexcept {
  return g_route_lookups.load(std::memory_order_relaxed);
}

Route DataPlane::memo_route(PathKind kind, sim::NodeId src, sim::NodeId dst,
                            std::size_t bytes) {
  const bool sends =
      kind == PathKind::kIntraNode || kind == PathKind::kInterNode;
  const sim::NodeId peer = sends ? dst : 0;
  RouteMemo& m = env(sends ? src : dst).memo[static_cast<std::size_t>(kind)];
  if (m.e[0].bytes == bytes && m.e[0].peer == peer) return m.e[0].route;
  if (m.e[1].bytes == bytes && m.e[1].peer == peer) {
    std::swap(m.e[0], m.e[1]);
    return m.e[0].route;
  }
  m.e[1] = m.e[0];
  m.e[0] = RouteMemo::Entry{bytes, peer, route(kind, src, dst, bytes)};
  return m.e[0].route;
}

Route DataPlane::route(PathKind kind, sim::NodeId src, sim::NodeId dst,
                       std::size_t bytes) {
  g_route_lookups.fetch_add(1, std::memory_order_relaxed);
  if (kind == PathKind::kIngest || kind == PathKind::kConsume) src = dst;
  const RouteKey key{kind, src, dst, bytes};
  for (const auto& [k, r] : routes_) {
    if (k == key) return r;
  }
  std::vector<CostStep> steps;
  sim::Node& snode = cluster_.node(src);
  sim::Node& dnode = cluster_.node(dst);
  switch (kind) {
    case PathKind::kIngest:
      steps = ingest_steps(dnode, bytes);
      break;
    case PathKind::kIntraNode:
      steps = intra_node_steps(snode, bytes);
      break;
    case PathKind::kInterNode:
      steps = inter_node_steps(snode, dnode, bytes);
      break;
    case PathKind::kConsume:
      steps = consume_steps(dnode, bytes);
      break;
  }
  route_steps_.push_back(std::move(steps));
  const std::vector<CostStep>& v = route_steps_.back();
  const Route r{v.data(), static_cast<std::uint32_t>(v.size())};
  routes_.emplace_back(key, r);
  return r;
}

void DataPlane::append_broker_leg(std::vector<CostStep>& steps, sim::Node& src,
                                  sim::Node& dst, std::size_t bytes,
                                  double extra_broker_cycles_per_byte) {
  const auto b = static_cast<double>(bytes);
  sim::Node& broker = cluster_.node(cfg_.broker_node);
  if (src.id() != broker.id()) {
    CostStep wire;
    wire.where = StepResource::kNic;
    wire.node = src.id();
    wire.seconds = b / src.config().nic_bytes_per_sec;
    steps.push_back(wire);
  }
  steps.push_back(cpu_step(StepResource::kKernelNet, broker,
                           calib::kKernelRxCyclesPerByte * b,
                           CostTag::kKernelNet));
  // Enqueue + dequeue processing on the broker's (fixed) worker threads:
  // every brokered message in the cluster serializes through here.
  steps.push_back(cpu_step(
      StepResource::kBroker, broker,
      (calib::kBrokerCyclesPerByte + extra_broker_cycles_per_byte) * b,
      CostTag::kBroker));
  steps.push_back(cpu_step(
      StepResource::kKernelNet, broker,
      calib::kKernelTxCyclesPerByte * b + calib::kKernelFixedCycles,
      CostTag::kKernelNet));
  if (broker.id() != dst.id()) {
    CostStep wire;
    wire.where = StepResource::kNic;
    wire.node = broker.id();
    wire.seconds = b / broker.config().nic_bytes_per_sec;
    steps.push_back(wire);
  }
  steps.push_back(cpu_step(StepResource::kKernelNet, dst,
                           calib::kKernelRxCyclesPerByte * b,
                           CostTag::kKernelNet));
}

std::vector<CostStep> DataPlane::intra_node_steps(sim::Node& node,
                                                  std::size_t bytes) {
  const auto b = static_cast<double>(bytes);
  std::vector<CostStep> steps;
  switch (cfg_.plane) {
    case PlaneKind::kLifl:
      // Producer writes the update into the shm object store; the 16-byte
      // key is then delivered via SKMSG + sockmap (event-driven sidecar).
      steps.push_back(cpu_step(StepResource::kCores, node,
                               calib::kShmWriteCyclesPerByte * b,
                               CostTag::kSerialization));
      steps.push_back(cpu_step(
          StepResource::kKernelNet, node,
          calib::kSkmsgNotifyCycles + calib::kEbpfSidecarEventCycles,
          CostTag::kSidecarEbpf));
      break;
    case PlaneKind::kServerful:
    case PlaneKind::kServerless:
      steps.push_back(cpu_step(StepResource::kCores, node,
                               calib::kSerializeCyclesPerByte * b,
                               CostTag::kSerialization));
      if (cfg_.sidecar == SidecarKind::kContainer) {
        steps.push_back(cpu_step(StepResource::kCores, node,
                                 calib::kContainerSidecarCyclesPerByte * b,
                                 CostTag::kSidecarContainer));
      }
      steps.push_back(cpu_step(
          StepResource::kKernelNet, node,
          calib::kKernelTxCyclesPerByte * b + calib::kKernelFixedCycles,
          CostTag::kKernelNet));
      if (cfg_.use_broker) {
        // Indirect networking (§2.3): even same-node functions exchange
        // messages through the broker.
        append_broker_leg(steps, node, node, bytes);
      } else {
        steps.push_back(cpu_step(StepResource::kKernelNet, node,
                                 calib::kKernelRxCyclesPerByte * b,
                                 CostTag::kKernelNet));
      }
      if (cfg_.sidecar == SidecarKind::kContainer) {
        steps.push_back(cpu_step(StepResource::kCores, node,
                                 calib::kContainerSidecarCyclesPerByte * b,
                                 CostTag::kSidecarContainer));
      }
      break;
  }
  return steps;
}

std::vector<CostStep> DataPlane::inter_node_steps(sim::Node& src,
                                                  sim::Node& dst,
                                                  std::size_t bytes) {
  const auto b = static_cast<double>(bytes);
  std::vector<CostStep> steps;
  const bool lifl = cfg_.plane == PlaneKind::kLifl;

  if (lifl) {
    // Source gateway: read the object out of shm, transform, serialize.
    steps.push_back(cpu_step(StepResource::kGateway, src,
                             (calib::kShmReadCyclesPerByte +
                              calib::kGatewayTransformCyclesPerByte +
                              calib::kSerializeCyclesPerByte) *
                                 b,
                             CostTag::kGateway));
  } else {
    steps.push_back(cpu_step(StepResource::kCores, src,
                             calib::kSerializeCyclesPerByte * b,
                             CostTag::kSerialization));
    if (cfg_.sidecar == SidecarKind::kContainer) {
      steps.push_back(cpu_step(StepResource::kCores, src,
                               calib::kContainerSidecarCyclesPerByte * b,
                               CostTag::kSidecarContainer));
    }
  }

  // Kernel tx on the source.
  steps.push_back(cpu_step(
      StepResource::kKernelNet, src,
      calib::kKernelTxCyclesPerByte * b + calib::kKernelFixedCycles,
      CostTag::kKernelNet));

  if (!lifl && cfg_.use_broker) {
    // src -> broker -> dst indirection (Fig. 2(b)).
    append_broker_leg(steps, src, dst, bytes);
  } else {
    // Direct: wire time on the source NIC, kernel rx at the destination.
    CostStep wire;
    wire.where = StepResource::kNic;
    wire.node = src.id();
    wire.seconds = b / src.config().nic_bytes_per_sec;
    wire.cycles = 0.0;
    steps.push_back(wire);
    steps.push_back(cpu_step(StepResource::kKernelNet, dst,
                             calib::kKernelRxCyclesPerByte * b,
                             CostTag::kKernelNet));
  }

  if (lifl) {
    // Destination gateway: deserialize, transform, write into shm; then the
    // SKMSG notification reaches the destination aggregator.
    steps.push_back(cpu_step(StepResource::kGateway, dst,
                             (calib::kDeserializeCyclesPerByte +
                              calib::kGatewayTransformCyclesPerByte +
                              calib::kShmWriteCyclesPerByte) *
                                 b,
                             CostTag::kGateway));
    steps.push_back(cpu_step(
        StepResource::kKernelNet, dst,
        calib::kSkmsgNotifyCycles + calib::kEbpfSidecarEventCycles,
        CostTag::kSidecarEbpf));
  } else if (cfg_.sidecar == SidecarKind::kContainer) {
    steps.push_back(cpu_step(StepResource::kCores, dst,
                             calib::kContainerSidecarCyclesPerByte * b,
                             CostTag::kSidecarContainer));
  }
  return steps;
}

std::vector<CostStep> DataPlane::ingest_steps(sim::Node& node,
                                              std::size_t bytes) {
  const auto b = static_cast<double>(bytes);
  std::vector<CostStep> steps;
  switch (cfg_.plane) {
    case PlaneKind::kLifl:
      // Kernel receive path for the client's TCP stream, then one-time
      // payload processing at the gateway (§4.2 / Appendix C): terminate
      // the client stream, deserialize + convert, then write the NumpyArray
      // into shm. Consumers only pay a cheap shm read after. The gateway
      // step executes on the RSS queue the client's flow hashes to.
      steps.push_back(cpu_step(
          StepResource::kKernelNet, node,
          calib::kKernelRxCyclesPerByte * b + calib::kKernelFixedCycles,
          CostTag::kKernelNet));
      steps.push_back(cpu_step(StepResource::kGateway, node,
                               (calib::kClientStreamExtraCyclesPerByte +
                                calib::kDeserializeCyclesPerByte +
                                calib::kShmWriteCyclesPerByte) *
                                   b,
                               CostTag::kGateway));
      break;
    case PlaneKind::kServerful:
    case PlaneKind::kServerless:
      if (cfg_.use_broker) {
        // The client publishes to the broker, which terminates the stream
        // and buffers the payload (Fig. 2(b)). Delivery toward the consumer
        // happens at consumption time (`consume`), the dequeue half of the
        // broker's message-queue role.
        sim::Node& broker = cluster_.node(cfg_.broker_node);
        steps.push_back(cpu_step(
            StepResource::kKernelNet, broker,
            calib::kKernelRxCyclesPerByte * b + calib::kKernelFixedCycles,
            CostTag::kKernelNet));
        steps.push_back(cpu_step(StepResource::kBroker, broker,
                                 (calib::kBrokerCyclesPerByte +
                                  calib::kClientStreamExtraCyclesPerByte) *
                                     b,
                                 CostTag::kBroker));
      } else {
        steps.push_back(cpu_step(
            StepResource::kKernelNet, node,
            calib::kKernelRxCyclesPerByte * b + calib::kKernelFixedCycles,
            CostTag::kKernelNet));
        if (cfg_.sidecar == SidecarKind::kContainer) {
          steps.push_back(cpu_step(StepResource::kCores, node,
                                   calib::kContainerSidecarCyclesPerByte * b,
                                   CostTag::kSidecarContainer));
        }
      }
      break;
  }
  return steps;
}

std::vector<CostStep> DataPlane::consume_steps(sim::Node& dst,
                                               std::size_t bytes) {
  const auto b = static_cast<double>(bytes);
  std::vector<CostStep> steps;
  sim::Node& broker = cluster_.node(cfg_.broker_node);
  // Dequeue processing on the broker's worker threads.
  steps.push_back(cpu_step(StepResource::kBroker, broker,
                           calib::kBrokerCyclesPerByte * b, CostTag::kBroker));
  steps.push_back(cpu_step(
      StepResource::kKernelNet, broker,
      calib::kKernelTxCyclesPerByte * b + calib::kKernelFixedCycles,
      CostTag::kKernelNet));
  if (broker.id() != dst.id()) {
    CostStep wire;
    wire.where = StepResource::kNic;
    wire.node = broker.id();
    wire.seconds = b / broker.config().nic_bytes_per_sec;
    steps.push_back(wire);
  }
  steps.push_back(cpu_step(StepResource::kKernelNet, dst,
                           calib::kKernelRxCyclesPerByte * b,
                           CostTag::kKernelNet));
  if (cfg_.sidecar == SidecarKind::kContainer) {
    steps.push_back(cpu_step(StepResource::kCores, dst,
                             calib::kContainerSidecarCyclesPerByte * b,
                             CostTag::kSidecarContainer));
  }
  return steps;
}

void DataPlane::send(fl::ParticipantId src, sim::NodeId src_node,
                     fl::ParticipantId dst, fl::ModelUpdate update,
                     sim::Task on_delivered) {
  auto it = consumers_.find(dst);
  if (it == consumers_.end()) {
    throw std::invalid_argument("DataPlane::send: unknown destination " +
                                std::to_string(dst));
  }
  const sim::NodeId dst_node = it->second;
  const std::size_t bytes = update.logical_bytes;
  fl::UpdateDesc d = hold(std::move(update));
  d.producer = src;

  NodeEnv& senv = env(src_node);

  // Event-driven sidecar bookkeeping on send (§4.3) — interned ids, no
  // string hashing on the per-send path.
  if (cfg_.sidecar == SidecarKind::kEbpf) {
    senv.metrics.add(MetricsMap::kSends);
    senv.metrics.add(MetricsMap::kSendBytes, static_cast<double>(bytes));
  }

  const bool lifl = cfg_.plane == PlaneKind::kLifl;
  Route route;
  if (src_node == dst_node) {
    if (lifl) {
      land(src_node, d);
      ++shm_deliveries_;
    }
    route = memo_route(PathKind::kIntraNode, src_node, dst_node, bytes);
  } else {
    inter_node_bytes_ += bytes;
    // The payload is re-materialized in the destination node's store by
    // the remote gateway (Appendix A).
    if (lifl) land(dst_node, d);
    route = memo_route(PathKind::kInterNode, src_node, dst_node, bytes);
  }
  if (cfg_.use_broker) {
    env(cfg_.broker_node).broker.buffer(bytes);
  }
  StepRunner::Flight f;
  f.route = route;
  // Gateway hops steer by the destination participant: one aggregator's
  // inbound transfers stay ordered on one queue.
  f.flow = dst;
  f.cargo = d;
  f.arrive = DeliverFn{this, dst, dst_node};
  f.done = std::move(on_delivered);
  runner_.run(std::move(f));
}

void DataPlane::DeliverFn::operator()(fl::UpdateDesc u) const {
  if (plane->cfg_.use_broker) {
    plane->env(plane->cfg_.broker_node).broker.unbuffer(u.logical_bytes);
  }
  plane->deliver(dst_node, dst, u);
}

void DataPlane::deliver(sim::NodeId dst_node, fl::ParticipantId dst,
                        const fl::UpdateDesc& update) {
  Sockmap::DeliverFn* sock = env(dst_node).sockmap.lookup(dst);
  if (sock == nullptr) {
    // Destination disappeared mid-flight (scale-down / failure): the update
    // falls back into the node pool so a successor can aggregate it.
    env(dst_node).pool.push(update);
    return;
  }
  (*sock)(update);
}

void DataPlane::client_upload(sim::NodeId dst_node, fl::ModelUpdate update,
                              double uplink_bytes_per_sec,
                              sim::Task on_enqueued) {
  const std::size_t bytes = update.logical_bytes;
  // A real payload waits in the slab until the gateway puts it into shm.
  fl::UpdateDesc d = hold(std::move(update));
  // Gateways and brokers terminate the client stream; on a bare serverful
  // plane the consuming aggregator pays that cost in its Recv step.
  d.from_client = cfg_.plane != PlaneKind::kLifl && !cfg_.use_broker;

  const Route route = memo_route(PathKind::kIngest, dst_node, dst_node, bytes);

  // A brokered upload rests in the broker's buffers until a consumer drains
  // it (`consume` unbuffers); LIFL/serverful planes buffer nothing here.
  if (cfg_.use_broker) env(cfg_.broker_node).broker.buffer(bytes);

  // Wire time from the client to the cluster ingress (pure latency: the
  // client's uplink is not a cluster resource), then the ingest pipeline,
  // whose gateway step steers by the uploading client.
  StepRunner::Flight f;
  f.route = route;
  f.flow = d.producer;
  f.wire = true;
  f.wire_secs = static_cast<double>(bytes) / uplink_bytes_per_sec;
  f.cargo = d;
  f.arrive = EnqueueFn{this, dst_node};
  f.done = std::move(on_enqueued);
  runner_.run(std::move(f));
}

void DataPlane::EnqueueFn::operator()(fl::UpdateDesc u) const {
  NodeEnv& e = plane->env(node);
  if (plane->cfg_.plane == PlaneKind::kLifl) {
    plane->land(node, u);
    ++plane->shm_deliveries_;
  }
  // Arrival-rate metric for the control plane (k_{i,t} of §5.1).
  e.metrics.add(MetricsMap::kArrivals);
  e.pool.push(u);
}

void DataPlane::client_upload_chunk(Route route, std::uint64_t flow,
                                    std::size_t bytes,
                                    double uplink_bytes_per_sec,
                                    sim::Task on_acked) {
  // Wire time, then ingest, as in `client_upload`.
  StepRunner::Flight f;
  f.route = route;
  f.flow = flow;
  f.wire = true;
  f.wire_secs = static_cast<double>(bytes) / uplink_bytes_per_sec;
  f.done = std::move(on_acked);
  runner_.run(std::move(f));
}

void DataPlane::consume(sim::NodeId node, const fl::UpdateDesc& update,
                        StepRunner::Arrival ready) {
  if (!cfg_.use_broker) {
    // LIFL: the consumer receives the object handle; the payload stays put
    // in shm. SF monolith: the queue is the aggregator's own in-memory
    // queue.
    ready(update);
    return;
  }
  const std::size_t bytes = update.logical_bytes;
  env(cfg_.broker_node).broker.unbuffer(bytes);
  StepRunner::Flight f;
  f.route = memo_route(PathKind::kConsume, node, node, bytes);
  f.cargo = update;
  f.arrive = std::move(ready);
  runner_.run(std::move(f));
}

RuntimeRecord* DataPlane::acquire_runtime_record() {
  if (free_runtime_records_.empty()) {
    runtime_records_.emplace_back();
    runtime_records_.back().plane = this;
    return &runtime_records_.back();
  }
  RuntimeRecord* rec = free_runtime_records_.back();
  free_runtime_records_.pop_back();
  return rec;
}

void DataPlane::release_runtime_record(RuntimeRecord* rec) noexcept {
  rec->retire();
  free_runtime_records_.push_back(rec);
}

void DataPlane::seed_update(sim::NodeId node, fl::ModelUpdate update) {
  deposit(node, hold(std::move(update)));
}

void DataPlane::deposit(sim::NodeId node, fl::UpdateDesc update) {
  update.from_client = false;  // ingest processing already happened
  if (cfg_.plane == PlaneKind::kLifl) {
    land(node, update);
    ++shm_deliveries_;
  }
  NodeEnv& e = env(node);
  e.metrics.add(MetricsMap::kArrivals);
  e.pool.push(update);
}

void DataPlane::record_agg_exec(sim::NodeId node, double exec_secs) {
  NodeEnv& e = env(node);
  e.metrics.add(MetricsMap::kAggExecSum, exec_secs);
  e.metrics.add(MetricsMap::kAggExecCount);
  if (cfg_.sidecar == SidecarKind::kEbpf) {
    // The metric write itself is an eBPF event: tiny, billed to the sidecar.
    cluster_.node(node).cpu().add(CostTag::kSidecarEbpf,
                                  calib::kEbpfSidecarEventCycles);
  }
}

IdleHandle DataPlane::register_idle_draw(sim::NodeId node, CostTag tag,
                                         double cores) {
  const IdleHandle h = next_idle_handle_++;
  idle_draws_[h] = IdleDraw{node, tag, cores, cluster_.sim().now()};
  return h;
}

void DataPlane::remove_idle_draw(IdleHandle h) {
  auto it = idle_draws_.find(h);
  if (it == idle_draws_.end()) return;
  IdleDraw& d = it->second;
  const double elapsed = cluster_.sim().now() - d.since;
  cluster_.node(d.node).cpu().add(
      d.tag, elapsed * d.cores * cluster_.node(d.node).config().cpu_hz);
  idle_draws_.erase(it);
}

void DataPlane::settle_idle_costs() {
  const sim::SimTime now = cluster_.sim().now();
  for (auto& [h, d] : idle_draws_) {
    const double elapsed = now - d.since;
    if (elapsed <= 0) continue;
    cluster_.node(d.node).cpu().add(
        d.tag, elapsed * d.cores * cluster_.node(d.node).config().cpu_hz);
    d.since = now;
  }
}

void DataPlane::set_gateway_cores(sim::NodeId node, std::uint32_t cores) {
  env(node).gateway.set_capacity(cores);
}

}  // namespace lifl::dp
