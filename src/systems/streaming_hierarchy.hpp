#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "src/control/campaign_planner.hpp"
#include "src/dataplane/dataplane.hpp"
#include "src/fl/aggregator_runtime.hpp"
#include "src/obs/obs.hpp"
#include "src/sim/fault_plan.hpp"
#include "src/sim/time.hpp"

namespace lifl::sys {

/// Stamp the LIFL function cold-start model onto a to-be-spawned runtime
/// config. The single definition both campaign modes use, so the fixed
/// baseline and the orchestrator always model the identical spawn cost —
/// the A/B `bench/micro_hierarchy_replan` gates on.
void apply_lifl_cold_start(fl::AggregatorRuntime::Config& cfg);

/// Per-group engine of the streaming hierarchy orchestrator: owns a warm
/// pool of `AggregatorRuntime`s and runs the planner-driven multi-level
/// tree (leaf → middle → group relay) of one node group, for one round at
/// a time, with mid-round re-planning and cross-round instance reuse.
///
/// Lifecycle per round (plan → arm → stream → re-plan):
///  - **plan**: the coordinator sizes the group's tree from the planner's
///    smoothed estimate at the round barrier (`begin_round` takes the
///    GroupPlan);
///  - **arm**: relay, middles and the initial leaf set are re-armed from
///    the warm pool (`rearm`: zero start-up cost); only a pool miss spawns
///    a new runtime, paying the LIFL cold start;
///  - **stream**: each leaf *claims* a batch of up to `updates_per_leaf`
///    client updates from the round target, pulls them off the group pool,
///    sends the partial aggregate to its parent, and re-arms itself for
///    the next batch — one warm instance folds many batches per round. The
///    relay counts **folded client updates** (GoalKind::kFoldedUpdates), so
///    it completes exactly when every one of the round's `target` updates
///    has been folded through *any* shape of tree — the invariant that
///    makes re-planning lossless;
///  - **re-plan**: a deterministic, group-local periodic pulse samples the
///    pool backlog, feeds the planner's EWMA, and applies leaf-target
///    changes through the hysteresis band: growth activates parked leaves
///    (claiming fresh batches), shrink *drains* retiring leaves — their
///    partial accumulators are sealed and sent to their parent, the
///    unfilled remainder of their claim is released for survivors to
///    re-claim, and no update is lost.
///
/// **Asynchronous streams** (`begin_stream`, campaign mode kAsync) reuse
/// the identical machinery with the round barrier removed: the target is
/// the whole campaign's update stream, leaves are FedBuff buffers that
/// seal on count or deadline and fold with FedAsync staleness weights
/// against the group's server-version slot, and the relay forwards partial
/// aggregates continuously (a recurring runtime) instead of waiting for
/// the full round. Re-planning samples buffer pressure (queued updates +
/// arrival flux) with the same EWMA/hysteresis rule.
///
/// Every decision is made in group-local event order (the planner slot,
/// the pool, the claims), so results are bitwise identical for any shard
/// count, and the *final model* is invariant under the number of re-plans.
/// Its state is written on every arrival and seal by the group's shard, so
/// it occupies whole cache lines of its own.
class alignas(64) StreamingHierarchy {
 public:
  struct Config {
    std::size_t group = 0;       ///< planner slot this engine owns
    sim::NodeId node = 0;        ///< the group's (single) worker node
    fl::ParticipantId relay_id = 2;
    fl::ParticipantId middle_base = 100;
    fl::ParticipantId leaf_base = 1000;
    std::uint32_t updates_per_leaf = sim::calib::kUpdatesPerLeaf;  ///< I
    fl::AggTiming leaf_timing = fl::AggTiming::kEager;
    std::size_t result_bytes = 0;   ///< wire size of intermediate updates
    bool reuse = true;           ///< warm cross-round reuse (false: the
                                 ///< churn baseline — pool dropped between
                                 ///< rounds, every round spawns cold)
    /// Mid-round re-plan period in simulated seconds (0 disables; the
    /// initial plan then holds for the whole round).
    double replan_interval = 0.0;
    /// Spawned instances pay the LIFL function cold start; re-armed warm
    /// instances never do.
    bool cold_start_spawns = true;
    /// Sink for the relay's round aggregate (the group's one cross-group
    /// message; the campaign posts it to the top aggregator's shard). In
    /// async mode it fires once per relay *flush* instead of once per
    /// round.
    fl::AggregatorRuntime::ResultFn on_relay_result;

    // ---- asynchronous streaming (`begin_stream`) -------------------------
    /// Run FedBuff-style buffers instead of a synchronous round: leaves
    /// accept any model version (staleness-weighted via `live_version`),
    /// seal on count or on `seal_deadline_secs`, and the relay becomes a
    /// recurring forwarder flushing every `flush_updates` folded updates.
    bool async = false;
    /// Leaf-buffer seal deadline in simulated seconds (0 = seal on count
    /// only). A buffer that holds at least one update for this long is
    /// force-sealed (`drain`) so stragglers cannot pin a partial batch.
    double seal_deadline_secs = 0.0;
    /// Relay flush threshold in folded client updates (0 = one middle's
    /// worth: planner middle_fanin × updates_per_leaf).
    std::uint32_t flush_updates = 0;
    /// The group's server-version slot (planner `version_ptr`): wired into
    /// leaf configs so folds are discounted by staleness.
    const std::uint32_t* live_version = nullptr;

    // ---- fault domain ----------------------------------------------------
    /// Deterministic fault schedule (null = fault-free). When set, every
    /// aggregator consumes under lease semantics and each leaf/middle
    /// arming draws a crash point from the plan; a crashed instance is
    /// replaced from the warm pool and its un-acked claims are re-folded
    /// (leaves: aborted leases re-queue to the group pool; middles: the
    /// retained leaf partials re-inject into the replacement).
    const sim::FaultPlan* faults = nullptr;
    /// Graceful degradation for synchronous rounds: after
    /// `round_deadline_secs` the round seals at this fraction of its target
    /// instead of stalling on stragglers (1.0 = wait for everything).
    /// Active leaves drain their partial buffers upward, unclaimed work is
    /// abandoned (reported via `on_quorum_shortfall` so the campaign can
    /// shrink the top goal), and late uploads fall through to the next
    /// round's stale-drop path. Async buffers already force-seal.
    double quorum = 1.0;
    /// Round deadline (simulated seconds past the round epoch) after which
    /// quorum sealing may fire; progress is re-checked periodically until
    /// the quorum is met or the round finishes. 0 disables.
    double round_deadline_secs = 0.0;
    /// Fired when a quorum seal abandons part of the round target, with the
    /// number of abandoned client updates (the campaign shrinks the top
    /// aggregator's folded-count goal by it).
    std::function<void(std::uint64_t)> on_quorum_shortfall;

    // ---- observability ---------------------------------------------------
    /// Passive trace/metrics handle for this group (default: disabled —
    /// every emit is a single branch). Recording never schedules events,
    /// so traced runs stay bitwise identical to untraced ones.
    obs::GroupObs obs;
  };

  /// Spawn/reuse/re-plan accounting of the current round (or stream);
  /// reset at begin_round/begin_stream. `run_sharded_campaign` harvests it
  /// into `ShardedCampaignResult` at every round epilogue — the counts'
  /// one cumulative home.
  struct Stats {
    std::uint64_t spawned = 0;   ///< runtimes constructed (cold)
    std::uint64_t reused = 0;    ///< runtimes re-armed warm (activations
                                 ///< from the pool; per-batch self-re-arms
                                 ///< are streaming, not reuse, and are not
                                 ///< counted here)
    std::uint64_t replans = 0;   ///< mid-round plan changes applied
    std::uint64_t drains = 0;    ///< partial accumulators drained on shrink
    std::uint32_t peak_leaves = 0;

    // ---- fault/recovery telemetry ---------------------------------------
    std::uint64_t leaf_crashes = 0;    ///< injected leaf crashes recovered
    std::uint64_t middle_crashes = 0;  ///< injected middle crashes recovered
    std::uint64_t refolded = 0;    ///< client updates re-queued from aborted
                                   ///< leaf leases and folded again
    std::uint64_t reinjected = 0;  ///< leaf partials re-injected into a
                                   ///< replacement middle
    std::uint64_t quorum_seals = 0;      ///< rounds sealed at quorum
    std::uint64_t quorum_abandoned = 0;  ///< client updates abandoned by seals
    double recovery_secs = 0.0;  ///< replacement spawn time paid (cold-start
                                 ///< seconds; warm re-arms recover for free)
  };

  StreamingHierarchy(dp::DataPlane& plane, ctrl::CampaignPlanner& planner,
                     Config cfg);
  ~StreamingHierarchy();
  StreamingHierarchy(const StreamingHierarchy&) = delete;
  StreamingHierarchy& operator=(const StreamingHierarchy&) = delete;

  /// Arm the group's tree for a round of exactly `target` client updates
  /// (coordinator thread, shard idle). `plan` is the round-boundary plan
  /// for this group. `epoch` anchors the round's wall pulses (re-plan
  /// sampler, quorum deadline): pass the campaign's round epoch — the
  /// *global* barrier time — so pulse times do not depend on this shard's
  /// local clock, which varies with the shard count. Negative (the
  /// default) anchors to this shard's clock, fine for single-shard use.
  void begin_round(std::uint32_t round, std::uint64_t target,
                   const ctrl::GroupPlan& plan, double epoch = -1.0);

  /// Arm the group's tree for one continuous asynchronous stream of
  /// `target` client updates (kAsync: the whole campaign, not one round).
  /// Same claim machinery and warm pool as `begin_round`, but the leaves
  /// are FedBuff buffers — they accept any model version, fold with
  /// staleness-discounted weights against `Config::live_version`, and seal
  /// on count *or* on `Config::seal_deadline_secs` — and the relay is a
  /// recurring forwarder that flushes partial aggregates upward every
  /// `Config::flush_updates` folded updates (shrinking to the remainder at
  /// the tail), so nothing ever waits for a round barrier. `round_done()`
  /// flips when all `target` updates have been forwarded.
  void begin_stream(std::uint64_t target, const ctrl::GroupPlan& plan,
                    double epoch = -1.0);

  /// Park the round's (or stream's) remaining instances into the warm pool
  /// (coordinator thread, shard idle, after the round completed). With
  /// reuse disabled the pool is dropped instead.
  void end_round();

  /// Re-materialize the cross-round warm state from a checkpoint onto a
  /// freshly constructed engine (coordinator thread, before any round):
  /// `pool_n` parked warm runtimes and `slot_n` stable leaf slots. A parked
  /// runtime is stateless under `rearm`, so only the pool *size* and the
  /// slot count (which pins leaf participant ids) are needed to make the
  /// resumed rounds' spawn/reuse decisions — and their telemetry — bitwise
  /// identical. The materialized instances are not counted as spawns: their
  /// cold starts were paid (and billed) by the run that wrote the
  /// checkpoint.
  void restore_warm(std::size_t pool_n, std::size_t slot_n);

  /// Apply a leaf-count target now (the re-plan pulse uses this; tests use
  /// it to force grow/shrink at chosen instants). Clamped to >= 1 while
  /// unclaimed work remains.
  void apply_leaf_target(std::uint32_t target);

  /// Lower bound on the simulated time of the relay's next emission
  /// (`on_relay_result`) in an async stream — the *emission floor* a
  /// sharded campaign builds its outbound promises from. Partial aggregates
  /// move upward only at seal events, so when the units the relay holds or
  /// has in transit cannot meet its goal, its next flush waits on as many
  /// leaf seals as it takes to carry the missing units. A live leaf's first
  /// seal comes no earlier than the earlier of its armed deadline and the
  /// time it needs to fold the rest of its goal, and carries at most that
  /// goal (a retiring leaf's goal is what it had accepted); after it the
  /// leaf adds at most one unit per fold. The floor is the earliest time
  /// those seals can carry the deficit, capped at the next re-plan tick (a
  /// re-plan changes the leaf set), plus one relay Agg step. +inf once the
  /// stream is forwarded; 0 (no bound) when the relay may flush from what
  /// it already has, outside async streams, with middles, and under faults
  /// (a crashed leaf re-folds through the pool). Re-plans forced through
  /// `apply_leaf_target` outside the tick are not covered. Reads only
  /// group-local state; allocates nothing (it sorts into a member buffer
  /// sized when leaves activate).
  double relay_emit_floor() const;
  /// Async: client updates the relay has forwarded upward so far.
  std::uint64_t forwarded() const noexcept { return forwarded_; }
  /// Relay flush threshold (async): Config::flush_updates or one middle's
  /// worth (planner middle_fanin × updates_per_leaf).
  std::uint32_t relay_flush() const;

  bool round_done() const noexcept { return relay_done_; }
  std::uint32_t active_leaves() const noexcept { return active_; }
  std::uint64_t claimed() const noexcept { return claimed_; }
  const Stats& round_stats() const noexcept { return round_; }
  std::size_t warm_pool_size() const noexcept { return pool_.size(); }
  /// Stable leaf slots ever materialized (slot index pins the leaf's
  /// participant id, so a checkpoint must carry it).
  std::size_t leaf_slot_count() const noexcept { return slots_.size(); }

 private:
  /// Stable per-leaf slot: the runtime moves between the slot (active) and
  /// the warm pool (parked); `on_result` functors capture the slot pointer,
  /// which outlives every activation.
  struct LeafSlot {
    std::size_t idx = 0;
    std::unique_ptr<fl::AggregatorRuntime> rt;  ///< null when parked
    std::uint64_t batch = 0;    ///< size of the currently claimed batch
    std::size_t middle = kNoMiddle;  ///< parent middle, or relay
    bool retiring = false;
    /// Activation generation: bumped at every (re)arm so a parked deadline
    /// timer from an earlier activation recognizes it is stale.
    std::uint64_t gen = 0;
    /// Fire time of the current activation's seal deadline (+inf: none).
    sim::SimTime deadline_at = std::numeric_limits<sim::SimTime>::infinity();
  };
  struct Middle {
    fl::ParticipantId id = 0;
    std::unique_ptr<fl::AggregatorRuntime> rt;
    std::uint64_t assigned = 0;  ///< client updates routed through it
  };
  static constexpr std::size_t kNoMiddle = static_cast<std::size_t>(-1);

  sim::Simulator& sim();
  fl::ParticipantId leaf_id(const LeafSlot& s) const {
    return cfg_.leaf_base + s.idx;
  }

  /// Pop a warm runtime and re-arm it, or construct one (cold start).
  std::unique_ptr<fl::AggregatorRuntime> acquire(
      fl::AggregatorRuntime::Config rc);
  void park(std::unique_ptr<fl::AggregatorRuntime> rt);

  std::uint64_t claim_batch();
  /// Choose the parent for a fresh batch of `n` updates and account it.
  std::size_t assign_parent(std::uint64_t n);
  void seal_middles();
  fl::AggregatorRuntime::Config leaf_config(const LeafSlot& s);
  /// Middle config as armed at begin_round; `recover_middle` rebuilds from
  /// it so a replacement resumes with the goal state the round reached.
  fl::AggregatorRuntime::Config middle_config(fl::ParticipantId id,
                                              std::size_t mi);
  bool activate_leaf();
  void retire_leaf(LeafSlot& s);
  void park_leaf(LeafSlot& s);
  void on_leaf_batch(LeafSlot* s, fl::ModelUpdate u);
  bool sampler_tick();
  /// Start the re-plan pulse at `anchor + replan_interval` (if enabled) and
  /// record its next tick for `relay_emit_floor`.
  void arm_replan_pulse(double anchor);
  /// Lossless leaf recovery: abort the dead instance's leases back into the
  /// group pool, move the dead sandbox to the graveyard, and re-arm the
  /// slot with a warm (or cold-spawned) replacement that re-claims and
  /// re-folds them. Runs synchronously from the crashed runtime's
  /// `on_failed`.
  void recover_leaf(LeafSlot* s);
  /// Lossless middle recovery: aborted leases (whole leaf partials) are
  /// re-injected straight into the same-id replacement — routing them
  /// through the pool would corrupt the leaves' message accounting.
  void recover_middle(std::size_t mi);
  /// Periodic post-deadline quorum probe; seals the round once arrivals
  /// reach quorum * target (or immediately if they already have).
  void quorum_check(std::uint32_t round);
  void seal_quorum();
  /// The per-round (or per-stream) reset `begin_round` and `begin_stream`
  /// share: counters, stats, fault draws, the graveyard, pool waiters and
  /// pushed baselines. False, with the group sitting the round out, when
  /// `target` is 0.
  bool reset_round(std::uint32_t round, std::uint64_t target);
  /// Bump the slot generation and, in async mode, start its seal deadline.
  void arm_leaf_deadline(LeafSlot& s);
  /// Deadline fire: force-seal the slot's partial buffer (if still on the
  /// same activation), or push the deadline back if nothing arrived yet.
  void flush_leaf(LeafSlot* s, std::uint64_t gen);

  dp::DataPlane& plane_;
  ctrl::CampaignPlanner& planner_;
  Config cfg_;
  Stats round_;

  std::unique_ptr<fl::AggregatorRuntime> relay_;
  std::vector<Middle> middles_;
  std::vector<std::unique_ptr<LeafSlot>> slots_;
  std::vector<std::unique_ptr<fl::AggregatorRuntime>> pool_;
  /// Crashed sandboxes: a runtime cannot be destroyed from inside its own
  /// crash callback, so recovery parks the corpse here; reclaimed at
  /// end_round. Never re-armed.
  std::vector<std::unique_ptr<fl::AggregatorRuntime>> graveyard_;

  std::uint32_t round_num_ = 0;
  std::uint64_t target_ = 0;
  std::uint64_t claimed_ = 0;
  std::uint64_t forwarded_ = 0;  ///< async: client updates relayed upward
  /// Client updates the leaves have sent to their parents (folded units of
  /// every leaf partial); minus `forwarded_`, what the relay holds or has
  /// in transit.
  std::uint64_t sent_up_ = 0;
  /// Fire time of the next re-plan tick (+inf: no re-plan pulse).
  sim::SimTime next_tick_ = std::numeric_limits<sim::SimTime>::infinity();
  /// `relay_emit_floor` working buffer: (first-seal floor, goal) of each
  /// live leaf. Reserved to the slot count whenever a leaf activates, so
  /// the floor never allocates; mutable because the floor is a logical
  /// read.
  mutable std::vector<std::pair<sim::SimTime, std::uint32_t>> seal_floors_;
  bool sealed_ = false;      ///< the round's batches are fully assigned
  bool relay_done_ = false;
  bool quorum_sealed_ = false;   ///< this round was sealed at quorum
  std::uint32_t active_ = 0;     ///< live, non-retiring leaves
  std::size_t rr_ = 0;           ///< middle round-robin cursor
  std::uint64_t last_pushed_ = 0;  ///< pool total_pushed at last sample
  /// Round-local fault-draw counter: each leaf/middle arming consumes one
  /// draw, in group-local event order, so checkpoint replay re-derives the
  /// identical crash schedule with nothing serialized.
  std::uint64_t fault_seq_ = 0;
  std::uint64_t round_base_pushed_ = 0;  ///< pool total_pushed at round epoch
};

}  // namespace lifl::sys
