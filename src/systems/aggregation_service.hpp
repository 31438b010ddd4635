#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "src/control/agent.hpp"
#include "src/control/hierarchy.hpp"
#include "src/control/metrics_server.hpp"
#include "src/control/placement.hpp"
#include "src/dataplane/dataplane.hpp"
#include "src/fl/aggregator_runtime.hpp"
#include "src/systems/system_config.hpp"

namespace lifl::sys {

/// The model-aggregation service of one FL system (SF / SL / SL-H / LIFL):
/// owns the per-node agents, the placement engine, the hierarchy planner
/// and the metrics server, and orchestrates one *batch* of updates at a
/// time — one synchronous-FL round's aggregation (Fig. 6).
///
/// The orchestration flow per batch:
///  1. `place_updates` bin-packs the incoming updates onto worker nodes
///     under residual-capacity constraints (§5.1),
///  2. `arm` plans the per-node two-level trees plus the top aggregator
///     (§5.2) and spawns/reuses instances per the system's scaling mode
///     (§5.3, cascading cold starts for reactive control planes),
///  3. updates arrive in node pools, leaves pull eagerly or lazily (§5.4),
///     intermediates flow leaf→middle→top over the data plane, and the top
///     aggregator's output completes the batch,
///  4. `finish_batch` parks (warm) or terminates instances per policy.
class AggregationService {
 public:
  struct BatchResult {
    double armed_at = 0.0;
    double first_arrival_at = -1.0;  ///< earliest leaf-side arrival
    double completed_at = -1.0;
    fl::ModelUpdate global_update;
    std::uint32_t updates = 0;
    std::uint32_t created = 0;       ///< instances cold-started for this batch
    std::uint32_t reused = 0;        ///< instances reused for this batch
    std::size_t nodes_used = 0;
    /// Real-tensor fold-path telemetry (global TensorPool deltas over the
    /// batch): buffers served from the recycle pool vs heap-allocated.
    /// Steady-state rounds must show tensor_allocs == 0 — the zero-alloc
    /// discipline of §4.1 extended to the ML payloads.
    std::uint64_t tensor_pool_hits = 0;
    std::uint64_t tensor_allocs = 0;

    /// Aggregation completion time of the batch.
    double act() const noexcept { return completed_at - armed_at; }
  };

  using CompletionFn = std::function<void(const BatchResult&)>;

  AggregationService(sim::Cluster& cluster, dp::DataPlane& plane,
                     SystemConfig cfg);
  ~AggregationService();
  AggregationService(const AggregationService&) = delete;
  AggregationService& operator=(const AggregationService&) = delete;

  /// Current capacity view for the placement engine: MC_i with k_{i,t} and
  /// E_{i,t} from the metrics server.
  std::vector<ctrl::NodeCapacity> capacities() const;

  /// Assign `n` incoming updates to nodes (returns one NodeId per update).
  std::vector<sim::NodeId> place_updates(std::size_t n) const;

  /// Arm aggregation of the updates counted per node in `counts_per_node`
  /// (they arrive in the node pools, e.g. via client uploads). The batch
  /// completes when the top aggregator has folded every node's intermediate.
  void arm(const std::vector<std::uint32_t>& counts_per_node,
           std::uint32_t model_version, std::size_t update_bytes,
           CompletionFn on_complete);

  /// Pre-create warm instances per node (serverful static fleets; warm
  /// pools for reuse experiments).
  void prewarm(const std::vector<std::uint32_t>& per_node);

  /// Park or terminate the batch's instances per the system policy.
  void finish_batch();

  ctrl::NodeAgent& agent(sim::NodeId node) { return *agents_.at(node); }
  ctrl::MetricsServer& metrics() noexcept { return metrics_; }
  const SystemConfig& config() const noexcept { return cfg_; }

  /// Live (in-use) instances across all nodes.
  std::size_t live_instances() const;
  /// Warm parked instances across all nodes.
  std::size_t warm_instances() const;
  std::uint32_t total_created() const;
  std::uint32_t total_reused() const;

 private:
  fl::ParticipantId fresh_id() { return next_id_++; }
  /// Node a higher-level aggregator pod lands on when its inputs are queued
  /// on `data_node`: the data node itself under locality-aware placement
  /// (§5.1), the least-loaded node under locality-agnostic layouts.
  sim::NodeId pod_placement_node(sim::NodeId data_node) const;
  sim::NodeId choose_top_node(
      const std::vector<std::uint32_t>& counts_per_node) const;
  void arm_static(const ctrl::HierarchyPlan& plan, sim::NodeId top_node);
  void arm_with_promotion(const ctrl::HierarchyPlan& plan);
  void on_leaf_output(sim::NodeId node, fl::AggregatorRuntime& leaf,
                      fl::ModelUpdate u);
  void on_intermediate_output(sim::NodeId node, fl::AggregatorRuntime& agg,
                              fl::ModelUpdate u);
  void on_global(fl::ModelUpdate u);
  void spawn_leaf(sim::NodeId node, std::uint32_t goal,
                  fl::ParticipantId consumer, bool promote_wiring);

  sim::Cluster& cluster_;
  dp::DataPlane& plane_;
  SystemConfig cfg_;
  ctrl::PlacementEngine placer_;
  ctrl::HierarchyPlanner planner_;
  ctrl::MetricsServer metrics_;
  std::vector<std::unique_ptr<ctrl::NodeAgent>> agents_;

  // Current batch.
  struct NodeBatch {
    std::uint32_t leaves = 0;          ///< leaves planned on the node
    bool wants_middle = false;
    fl::ParticipantId middle_id = 0;   ///< 0 until promoted/spawned
    fl::AggregatorRuntime* middle = nullptr;
  };
  std::vector<fl::AggregatorRuntime*> batch_instances_;
  std::vector<NodeBatch> node_batches_;
  fl::AggregatorRuntime* top_ = nullptr;
  fl::ParticipantId top_id_ = 0;      ///< 0 until promoted/spawned
  std::uint32_t top_goal_ = 0;
  std::uint32_t model_version_ = 0;
  std::size_t update_bytes_ = 0;
  BatchResult pending_;
  CompletionFn on_complete_;
  std::uint32_t created_at_arm_ = 0;
  std::uint32_t reused_at_arm_ = 0;
  std::uint64_t pool_hits_at_arm_ = 0;
  std::uint64_t pool_misses_at_arm_ = 0;
  std::uint32_t promotions_ = 0;      ///< within-round role conversions (§5.3)

  fl::ParticipantId next_id_ = 1;
};

}  // namespace lifl::sys
