#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "src/control/ewma.hpp"
#include "src/control/hierarchy.hpp"
#include "src/sim/calibration.hpp"

namespace lifl::ctrl {

/// Planned aggregation tree of one node group for one (re-)plan cycle:
/// `leaves` parallel leaf aggregators pulling client updates off the group
/// pool in batches of `updates_per_leaf`, optionally folded through
/// `middles` middle aggregators, into the group's single relay aggregator
/// whose output is the group's one cross-group message per round.
struct GroupPlan {
  std::uint32_t leaves = 0;
  std::uint32_t middles = 0;
  double expected_updates = 0.0;  ///< the estimate this plan was sized for
};

/// Whole-campaign plan: one GroupPlan per node group. The top aggregator's
/// goal is not part of the plan — it counts *folded client updates*
/// (GoalKind::kFoldedUpdates), so it is fixed by the round target and
/// invariant under every per-group tree shape the planner may choose.
struct CampaignPlan {
  std::vector<GroupPlan> groups;

  std::uint32_t total_leaves() const noexcept {
    std::uint32_t n = 0;
    for (const auto& g : groups) n += g.leaves;
    return n;
  }
};

/// The streaming-hierarchy planner (§5.2 scaled out): extends the per-node
/// `HierarchyPlanner` across node groups into multi-level trees
/// (leaf → middle → group relay → top), sized per group from an
/// EWMA-smoothed pending-update estimate, with a hysteresis band so
/// mid-round re-planning fires on real drift rather than arrival noise.
/// Synchronous rounds feed the estimate from the round's pending backlog;
/// asynchronous campaigns feed it from *buffer pressure* (queued updates
/// plus arrival flux into the leaf buffers) — the sizing rule is the same,
/// only the signal source differs, so one planner serves both modes.
///
/// Thread/shard discipline: `plan_round` runs on the coordinator while the
/// shards are idle (a shard barrier); `replan` is *group-local* — it
/// touches only group `g`'s cache-line-separated slot, so each group's
/// shard may call it mid-round without synchronization, and the resulting
/// decisions are deterministic for any shard count.
class CampaignPlanner {
 public:
  struct Config {
    std::uint32_t updates_per_leaf = sim::calib::kUpdatesPerLeaf;  ///< I
    /// Leaf batches folded per middle; also the growth threshold for the
    /// middle level (no middles until a group runs more leaves than this).
    std::uint32_t middle_fanin = 8;
    std::uint32_t min_leaves = 1;   ///< floor while a group has work
    std::uint32_t max_leaves = 1u << 16;
    double ewma_alpha = sim::calib::kEwmaAlpha;  ///< §5.2 smoothing
    /// Fractional dead band around the current leaf count: a re-plan fires
    /// only when the desired count leaves [cur*(1-h), cur*(1+h)].
    double hysteresis = 0.25;
  };

  CampaignPlanner(Config cfg, std::size_t groups);

  /// Leaves needed for `pending` expected updates: the §5.2 sizing
  /// (ceil(Q / I) via HierarchyPlanner), clamped to [min, max] when there
  /// is work and 0 when there is none.
  std::uint32_t leaves_for(double pending) const;

  /// Middles for a leaf set: 0 until the relay fan-in exceeds the middle
  /// fan-in, then ceil(leaves / middle_fanin).
  std::uint32_t middles_for(std::uint32_t leaves) const noexcept;

  /// Round-boundary plan (coordinator, shards idle): size each group from
  /// its smoothed estimate when one exists (carried across rounds), else
  /// from `expected_per_group` (the round target — maximal parallelism for
  /// a first round with no history).
  CampaignPlan plan_round(const std::vector<double>& expected_per_group);

  /// Mid-round, group-local re-plan check: fold `backlog` (queued + fresh
  /// arrivals observed since the last sample) into group `g`'s EWMA and
  /// return the new leaf target if it drifted outside the hysteresis band
  /// of the current size — std::nullopt means keep the current tree.
  std::optional<std::uint32_t> replan(std::size_t g, double backlog);

  /// Record that the runtime applied a leaf count for group `g` (e.g. the
  /// claim limit cut the activation short of the plan).
  void set_current(std::size_t g, std::uint32_t leaves);

  /// Restore a checkpointed group slot bit-exactly (EWMA value, its
  /// initialized flag and the applied leaf count) — the carried estimate
  /// is what sizes the next round's initial tree, so a resumed campaign
  /// must plan from the identical bits.
  void restore_group(std::size_t g, double estimate, bool initialized,
                     std::uint32_t leaves) {
    GroupState& s = groups_.at(g);
    s.est.restore(estimate, initialized);
    s.leaves = leaves;
  }

  std::uint32_t current(std::size_t g) const { return groups_.at(g).leaves; }
  double estimate(std::size_t g) const { return groups_.at(g).est.value(); }
  bool estimate_initialized(std::size_t g) const {
    return groups_.at(g).est.initialized();
  }

  // ---- server-version vector (asynchronous campaigns) ------------------
  // In kAsync mode there is no round barrier to carry the global model
  // version, so the planner's cache-line-separated group slots carry it
  // instead: the version-producing top broadcasts each bump to every
  // group's shard (a cross-shard post, so the write lands in that group's
  // event order), and the group's arrivals/leaves read their own slot —
  // group-local on both sides, hence race-free and shard-count invariant.
  // Re-planning and warm-leaf reuse keep working against the same slots,
  // without any round barrier.

  /// Record group `g`'s view of the global model version (runs on `g`'s
  /// shard, or on the coordinator between phases).
  void set_version(std::size_t g, std::uint32_t v) {
    groups_.at(g).version = v;
  }
  std::uint32_t version(std::size_t g) const {
    return groups_.at(g).version;
  }
  /// Stable pointer to group `g`'s version slot — wired into leaf configs
  /// as `AggregatorRuntime::Config::live_version` for staleness-weighted
  /// folding.
  const std::uint32_t* version_ptr(std::size_t g) const {
    return &groups_.at(g).version;
  }
  std::size_t group_count() const noexcept { return groups_.size(); }
  const Config& config() const noexcept { return cfg_; }

 private:
  /// Per-group slot, cache-line separated: touched by the owning group's
  /// shard mid-round, by the coordinator only at round boundaries.
  struct alignas(64) GroupState {
    Ewma est;
    std::uint32_t leaves = 0;
    /// The group's view of the global model version (async campaigns).
    std::uint32_t version = 0;
    GroupState(double alpha) : est(alpha) {}
  };

  Config cfg_;
  HierarchyPlanner leaf_planner_;  ///< the §5.2 per-node sizing rule
  std::vector<GroupState> groups_;
};

}  // namespace lifl::ctrl
