#include "src/systems/aggregation_service.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "src/ml/tensor_pool.hpp"

namespace lifl::sys {

AggregationService::AggregationService(sim::Cluster& cluster,
                                       dp::DataPlane& plane, SystemConfig cfg)
    : cluster_(cluster),
      plane_(plane),
      cfg_(std::move(cfg)),
      placer_(cfg_.placement),
      planner_(cfg_.updates_per_leaf),
      metrics_(cluster.size()) {
  ctrl::NodeAgent::Config acfg;
  acfg.cold_start_secs = cfg_.cold_start_secs;
  acfg.cold_start_cycles = cfg_.cold_start_cycles;
  acfg.cold_trigger = cfg_.scaling == ScalingMode::kReactive
                          ? fl::ColdStartTrigger::kOnFirstUpdate
                          : fl::ColdStartTrigger::kOnStart;
  acfg.container_sidecar = cfg_.container_sidecar_idle;
  agents_.reserve(cluster.size());
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    acfg.node = static_cast<sim::NodeId>(i);
    agents_.push_back(
        std::make_unique<ctrl::NodeAgent>(plane_, &metrics_, acfg));
    agents_.back()->start_metrics_loop();
  }
}

AggregationService::~AggregationService() {
  for (auto& a : agents_) a->stop_metrics_loop();
}

std::vector<ctrl::NodeCapacity> AggregationService::capacities() const {
  std::vector<ctrl::NodeCapacity> caps;
  caps.reserve(agents_.size());
  for (std::size_t i = 0; i < agents_.size(); ++i) {
    ctrl::NodeCapacity c;
    c.node = static_cast<sim::NodeId>(i);
    // Heterogeneous clusters carry per-node MC_i (App. E estimates them
    // offline per hardware class); otherwise the homogeneous value.
    c.max_capacity = i < cfg_.node_capacities.size()
                         ? cfg_.node_capacities[i]
                         : cfg_.node_max_capacity;
    c.arrival_rate = metrics_.arrival_rate(c.node);
    c.exec_time = metrics_.exec_time(c.node, cfg_.default_exec_secs);
    caps.push_back(c);
  }
  return caps;
}

std::vector<sim::NodeId> AggregationService::place_updates(
    std::size_t n) const {
  auto caps = capacities();
  if (cfg_.top == TopPlacement::kDedicatedNode && caps.size() > 1) {
    // Serverful-style layouts dedicate the top node (§6.2): client updates
    // only land on the data (leaf/middle) nodes.
    caps.erase(std::remove_if(caps.begin(), caps.end(),
                              [this](const ctrl::NodeCapacity& c) {
                                return c.node == cfg_.dedicated_top_node;
                              }),
               caps.end());
  }
  return placer_.place_units(n, std::move(caps)).assignment;
}

sim::NodeId AggregationService::pod_placement_node(
    sim::NodeId data_node) const {
  if (cfg_.placement == ctrl::PlacementPolicy::kBestFit) {
    // Locality-aware placement (§5.1): the aggregator goes where its model
    // updates are queued, keeping cross-level traffic in shared memory.
    return data_node;
  }
  // Locality-agnostic control planes (Knative's "Least Connection" LB and
  // static serverful layouts) place pods by load, blind to where the pod's
  // inputs live — aggregators with cross-level data dependencies land on
  // different nodes and the gateway must route between them (§2.3, §5.1).
  sim::NodeId best = data_node;
  std::size_t best_live = agents_.at(data_node)->live();
  for (std::size_t i = 0; i < agents_.size(); ++i) {
    if (agents_[i]->live() < best_live) {
      best = static_cast<sim::NodeId>(i);
      best_live = agents_[i]->live();
    }
  }
  return best;
}

sim::NodeId AggregationService::choose_top_node(
    const std::vector<std::uint32_t>& counts_per_node) const {
  if (cfg_.top == TopPlacement::kDedicatedNode) {
    return cfg_.dedicated_top_node;
  }
  // Locality: ride the node with the most pending updates so the largest
  // intermediate never crosses the network.
  const auto it =
      std::max_element(counts_per_node.begin(), counts_per_node.end());
  if (it == counts_per_node.end() || *it == 0) return cfg_.dedicated_top_node;
  return static_cast<sim::NodeId>(it - counts_per_node.begin());
}

void AggregationService::on_global(fl::ModelUpdate u) {
  pending_.completed_at = cluster_.sim().now();
  pending_.global_update = std::move(u);
  pending_.created = total_created() - created_at_arm_;
  pending_.reused = total_reused() - reused_at_arm_ + promotions_;
  const ml::TensorPoolStats pool = ml::TensorPool::global().stats();
  pending_.tensor_pool_hits = pool.pool_hits - pool_hits_at_arm_;
  pending_.tensor_allocs = pool.misses - pool_misses_at_arm_;
  double first = -1.0;
  for (const auto* rt : batch_instances_) {
    if (rt->first_arrival_at() >= 0 &&
        (rt->config().role == fl::AggRole::kLeaf ||
         rt->config().pull_from_pool)) {
      first = first < 0 ? rt->first_arrival_at()
                        : std::min(first, rt->first_arrival_at());
    }
  }
  pending_.first_arrival_at = first;
  if (on_complete_) on_complete_(pending_);
}

void AggregationService::spawn_leaf(sim::NodeId node, std::uint32_t goal,
                                    fl::ParticipantId consumer,
                                    bool promote_wiring) {
  fl::AggregatorRuntime::Config lc;
  lc.id = fresh_id();
  lc.role = fl::AggRole::kLeaf;
  lc.timing = cfg_.timing;
  lc.goal = std::max<std::uint32_t>(goal, 1);
  lc.result_bytes = update_bytes_;
  lc.pull_from_pool = true;
  lc.expected_version = model_version_;
  if (promote_wiring) {
    // Deferred wiring (§5.3): route through the service so a finished leaf
    // can be promoted in place of a cold higher-level instance.
    lc.on_result = [this, node, id = lc.id](fl::ModelUpdate u) {
      auto it = std::find_if(
          batch_instances_.begin(), batch_instances_.end(),
          [id](fl::AggregatorRuntime* r) { return r->config().id == id; });
      on_leaf_output(node, **it, std::move(u));
    };
  } else {
    lc.consumer = consumer;
  }
  const bool allow_reuse =
      cfg_.reuse || cfg_.scaling == ScalingMode::kAlwaysOn;
  batch_instances_.push_back(&agents_.at(node)->spawn(lc, allow_reuse));
}

void AggregationService::arm(const std::vector<std::uint32_t>& counts_per_node,
                             std::uint32_t model_version,
                             std::size_t update_bytes,
                             CompletionFn on_complete) {
  if (counts_per_node.size() != cluster_.size()) {
    throw std::invalid_argument("arm: counts size != cluster size");
  }
  const std::uint32_t total = std::accumulate(
      counts_per_node.begin(), counts_per_node.end(), std::uint32_t{0});
  if (total == 0) throw std::invalid_argument("arm: no updates");

  on_complete_ = std::move(on_complete);
  pending_ = BatchResult{};
  pending_.armed_at = cluster_.sim().now();
  pending_.updates = total;
  created_at_arm_ = total_created();
  reused_at_arm_ = total_reused();
  const ml::TensorPoolStats pool = ml::TensorPool::global().stats();
  pool_hits_at_arm_ = pool.pool_hits;
  pool_misses_at_arm_ = pool.misses;
  promotions_ = 0;
  batch_instances_.clear();
  node_batches_.assign(cluster_.size(), NodeBatch{});
  top_ = nullptr;
  top_id_ = 0;
  model_version_ = model_version;
  update_bytes_ = update_bytes;

  const sim::NodeId top_node = choose_top_node(counts_per_node);

  // Vertical gateway scaling (§4.2): size each node's gateway cores so the
  // expected ingest load cannot make the gateway the data-plane bottleneck.
  if (cfg_.plane.plane == dp::PlaneKind::kLifl) {
    const double gw_secs_per_update =
        (sim::calib::kClientStreamExtraCyclesPerByte +
         sim::calib::kDeserializeCyclesPerByte +
         sim::calib::kShmWriteCyclesPerByte) *
        static_cast<double>(update_bytes) / sim::calib::kCpuHz;
    for (std::size_t i = 0; i < counts_per_node.size(); ++i) {
      if (counts_per_node[i] == 0) continue;
      constexpr double kTargetIngestSecs = 5.0;
      const auto cores = static_cast<std::uint32_t>(std::clamp(
          std::ceil(counts_per_node[i] * gw_secs_per_update /
                    kTargetIngestSecs),
          2.0, 8.0));
      plane_.set_gateway_cores(static_cast<sim::NodeId>(i), cores);
    }
  }

  if (!cfg_.hierarchical) {
    // Flat baseline (NH of §4.1): one aggregator folds everything.
    fl::AggregatorRuntime::Config tc;
    tc.id = fresh_id();
    tc.role = fl::AggRole::kTop;
    tc.timing = cfg_.timing;
    tc.goal = total;
    tc.result_bytes = update_bytes;
    tc.pull_from_pool = true;
    tc.expected_version = model_version;
    tc.on_result = [this](fl::ModelUpdate u) { on_global(std::move(u)); };
    const bool allow_reuse =
        cfg_.reuse || cfg_.scaling == ScalingMode::kAlwaysOn;
    auto& rt = agents_.at(top_node)->spawn(tc, allow_reuse);
    batch_instances_.push_back(&rt);
    top_ = &rt;
    top_id_ = tc.id;
    pending_.nodes_used = 1;
    return;
  }

  const std::vector<double> pending_per_node(counts_per_node.begin(),
                                             counts_per_node.end());
  const ctrl::HierarchyPlan plan = planner_.plan(pending_per_node, top_node);
  pending_.nodes_used = plan.nodes_used();
  top_goal_ = std::max<std::uint32_t>(plan.top_fanin(), 1);

  const bool promote =
      cfg_.reuse && cfg_.scaling != ScalingMode::kAlwaysOn;
  if (promote) {
    arm_with_promotion(plan);
  } else {
    arm_static(plan, top_node);
  }

  // Hierarchy-aware scaling trims spare warm capacity after re-planning.
  if (cfg_.scaling == ScalingMode::kHierarchyAware) {
    for (auto& a : agents_) a->terminate_warm();
  }
}

void AggregationService::arm_static(const ctrl::HierarchyPlan& plan,
                                    sim::NodeId top_node) {
  const bool allow_reuse =
      cfg_.reuse || cfg_.scaling == ScalingMode::kAlwaysOn;

  // ---- Top aggregator.
  fl::AggregatorRuntime::Config tc;
  tc.id = fresh_id();
  tc.role = fl::AggRole::kTop;
  tc.timing = cfg_.timing;
  tc.goal = top_goal_;
  tc.result_bytes = update_bytes_;
  tc.expected_version = model_version_;
  tc.on_result = [this](fl::ModelUpdate u) { on_global(std::move(u)); };
  top_id_ = tc.id;
  auto& top_rt = agents_.at(top_node)->spawn(tc, allow_reuse);
  batch_instances_.push_back(&top_rt);
  top_ = &top_rt;

  // ---- Per-node trees: leaves + middle (optional). Leaves spawn first —
  // they are what the incoming load creates — so the middle's placement
  // decision sees the cluster as the control plane would.
  for (const auto& np : plan.per_node) {
    // Pre-assign the middle's identity so leaves can be wired to it; the
    // actual pod is placed after them.
    const fl::ParticipantId parent = np.middle ? fresh_id() : top_id_;

    std::uint32_t remaining = np.expected_updates;
    for (std::uint32_t l = 0; l < np.leaves; ++l) {
      const std::uint32_t take =
          std::min<std::uint32_t>(plan.updates_per_leaf, remaining);
      remaining -= take;
      spawn_leaf(np.node, take, parent, /*promote_wiring=*/false);
    }

    if (np.middle) {
      // Where the middle pod actually lands depends on whether the control
      // plane is locality-aware (§5.1): BestFit keeps it with its leaves,
      // least-connection layouts scatter it.
      const sim::NodeId mnode = pod_placement_node(np.node);
      fl::AggregatorRuntime::Config mc;
      mc.id = parent;
      mc.role = fl::AggRole::kMiddle;
      mc.timing = cfg_.timing;
      mc.goal = np.leaves;
      mc.consumer = top_id_;
      mc.result_bytes = update_bytes_;
      mc.expected_version = model_version_;
      auto& mrt = agents_.at(mnode)->spawn(mc, allow_reuse);
      batch_instances_.push_back(&mrt);
      node_batches_[np.node].middle_id = mc.id;
      node_batches_[np.node].middle = &mrt;
    }
  }
}

void AggregationService::arm_with_promotion(const ctrl::HierarchyPlan& plan) {
  // Only leaves spawn up front; middles and the top are *promoted* from the
  // first instance to finish at the level below (§5.3) — no cold higher
  // levels, and strictly fewer instances created (Fig. 8(c)).
  for (const auto& np : plan.per_node) {
    auto& nb = node_batches_[np.node];
    nb.leaves = np.leaves;
    nb.wants_middle = np.middle;
    std::uint32_t remaining = np.expected_updates;
    for (std::uint32_t l = 0; l < np.leaves; ++l) {
      const std::uint32_t take =
          std::min<std::uint32_t>(plan.updates_per_leaf, remaining);
      remaining -= take;
      spawn_leaf(np.node, take, 0, /*promote_wiring=*/true);
    }
  }
}

void AggregationService::on_leaf_output(sim::NodeId node,
                                        fl::AggregatorRuntime& leaf,
                                        fl::ModelUpdate u) {
  NodeBatch& nb = node_batches_.at(node);
  if (!nb.wants_middle) {
    // Single-leaf node: its aggregate is the node intermediate.
    on_intermediate_output(node, leaf, std::move(u));
    return;
  }
  if (nb.middle_id == 0) {
    // Promote this just-finished leaf to the node's middle aggregator.
    ++promotions_;
    fl::AggregatorRuntime::Config mc;
    mc.id = fresh_id();
    mc.node = node;
    mc.role = fl::AggRole::kMiddle;
    mc.timing = cfg_.timing;
    mc.goal = nb.leaves;
    mc.result_bytes = update_bytes_;
    mc.expected_version = model_version_;
    mc.on_result = [this, node, id = mc.id](fl::ModelUpdate out) {
      auto it = std::find_if(
          batch_instances_.begin(), batch_instances_.end(),
          [id](fl::AggregatorRuntime* r) { return r->config().id == id; });
      on_intermediate_output(node, **it, std::move(out));
    };
    leaf.convert_role(mc);
    nb.middle_id = mc.id;
    nb.middle = &leaf;
    // The promoted instance already holds its own aggregate: no transfer.
    leaf.inject(std::move(u));
    return;
  }
  // Middle exists: ship the leaf output over the (intra-node) data plane.
  plane_.send(leaf.config().id, node, nb.middle_id, std::move(u));
  // Fine-grained elasticity: the leaf's task is over, so its instance goes
  // back to the warm pool immediately (it remains promotable/reusable)
  // instead of idling until the round ends.
  agents_.at(node)->park(leaf);
}

void AggregationService::on_intermediate_output(sim::NodeId node,
                                                fl::AggregatorRuntime& agg,
                                                fl::ModelUpdate u) {
  if (top_id_ == 0) {
    // Promote the first-finishing middle to the top aggregator (§5.3); its
    // node becomes the top node, which also maximizes locality.
    ++promotions_;
    fl::AggregatorRuntime::Config tc;
    tc.id = fresh_id();
    tc.node = node;
    tc.role = fl::AggRole::kTop;
    tc.timing = cfg_.timing;
    tc.goal = top_goal_;
    tc.result_bytes = update_bytes_;
    tc.expected_version = model_version_;
    tc.on_result = [this](fl::ModelUpdate out) { on_global(std::move(out)); };
    agg.convert_role(tc);
    top_id_ = tc.id;
    top_ = &agg;
    agg.inject(std::move(u));
    return;
  }
  plane_.send(agg.config().id, node, top_id_, std::move(u));
  agents_.at(node)->park(agg);
}

void AggregationService::prewarm(const std::vector<std::uint32_t>& per_node) {
  for (std::size_t i = 0; i < per_node.size() && i < agents_.size(); ++i) {
    for (std::uint32_t k = 0; k < per_node[i]; ++k) {
      fl::AggregatorRuntime::Config c;
      c.id = fresh_id();
      c.role = fl::AggRole::kLeaf;
      c.goal = 1;
      auto& rt = agents_[i]->spawn(c, /*allow_reuse=*/false, /*warm=*/true);
      if (cfg_.scaling == ScalingMode::kAlwaysOn) {
        // Serverful fleets hold their reservation permanently.
        plane_.register_idle_draw(static_cast<sim::NodeId>(i),
                                  sim::CostTag::kIdleReservation,
                                  cfg_.always_on_reserved_cores);
      }
      agents_[i]->park(rt);
    }
  }
}

void AggregationService::finish_batch() {
  const bool keep = cfg_.reuse || cfg_.scaling == ScalingMode::kAlwaysOn;
  for (auto* rt : batch_instances_) {
    auto& agent = *agents_.at(rt->config().node);
    if (keep) {
      agent.park(*rt);
    } else {
      agent.terminate(*rt);  // serverless scale-to-zero after idle
    }
  }
  batch_instances_.clear();
  node_batches_.clear();
  top_ = nullptr;
  top_id_ = 0;
}

std::size_t AggregationService::live_instances() const {
  std::size_t n = 0;
  for (const auto& a : agents_) n += a->live();
  return n;
}

std::size_t AggregationService::warm_instances() const {
  std::size_t n = 0;
  for (const auto& a : agents_) n += a->warm();
  return n;
}

std::uint32_t AggregationService::total_created() const {
  std::uint32_t n = 0;
  for (const auto& a : agents_) n += a->created();
  return n;
}

std::uint32_t AggregationService::total_reused() const {
  std::uint32_t n = 0;
  for (const auto& a : agents_) n += a->reused();
  return n;
}

}  // namespace lifl::sys
