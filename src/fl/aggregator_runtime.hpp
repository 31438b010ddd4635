#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "src/dataplane/dataplane.hpp"
#include "src/fl/fedavg.hpp"
#include "src/fl/model_update.hpp"
#include "src/sim/fifo.hpp"
#include "src/sim/task.hpp"
#include "src/sim/time.hpp"

namespace lifl::fl {

/// Level of an aggregator in the hierarchy (§2.2, §5.2).
enum class AggRole : std::uint8_t { kLeaf, kMiddle, kTop };

/// When aggregation work is triggered (§2.1, Fig. 1).
enum class AggTiming : std::uint8_t {
  kEager,  ///< fold each update as it arrives (Recv overlaps Agg)
  kLazy,   ///< queue updates; aggregate the whole batch once the goal is met
};

/// What the aggregation goal counts.
enum class GoalKind : std::uint8_t {
  kMessages,       ///< direct updates received by this instance (the classic
                   ///< leaf batch: fold `goal` messages, then Send)
  kFoldedUpdates,  ///< *client* updates the aggregate represents (sum of
                   ///< `ModelUpdate::updates_folded` over the inputs). This
                   ///< makes an upper-level aggregator's completion invariant
                   ///< under the shape of the tree below it — the property
                   ///< the streaming hierarchy's mid-round re-planning rests
                   ///< on: however the leaf set grows or shrinks, the relay
                   ///< finishes exactly when every client update arrived.
};

std::string to_string(AggRole role);

/// When the cold-start clock of a new instance begins.
enum class ColdStartTrigger : std::uint8_t {
  kNone,           ///< warm instance: ready immediately
  kOnStart,        ///< proactive spawn: cold start runs from start()
  kOnFirstUpdate,  ///< reactive (Knative-style) spawn: cold start begins when
                   ///< the first update shows up — the cascading effect of
                   ///< §2.3 when scaling a function chain
};

/// The LIFL aggregator runtime: the step-based processing model of Fig. 14.
///
/// A multiple-producer / single-consumer pipeline of three steps —
///   Recv: take the next update (object key) off the FIFO and map/decode it;
///   Agg:  fold it into the running FedAvg accumulator, repeating until the
///         aggregation goal is met;
///   Send: emit the aggregate to the designated consumer.
/// Steps execute strictly sequentially (the runtime is single-threaded),
/// but Recv and Agg overlap across *updates* under eager timing: each
/// arrival is processed immediately instead of waiting for the batch.
///
/// **Goal semantics.** A goal is *sealed* (goal_open == false) when its
/// count is final: the instance Sends exactly when the count is reached.
/// An *open* goal (goal_open == true) may still grow via `set_goal` — the
/// instance keeps folding but never Sends until the goal is sealed. The
/// streaming hierarchy's middles start open and are sealed once the
/// round's batches are fully assigned; `drain()` is the forced seal — it
/// seals at whatever was already accepted so a partial buffer flushes.
/// Asynchronous leaf buffers reuse exactly this machinery: seal-on-count
/// is the ordinary sealed goal, seal-on-deadline is a timer calling
/// `drain()`.
///
/// The runtime is **stateless** across aggregation tasks: `convert_role`
/// re-purposes a finished instance as a higher-level aggregator with no
/// state synchronization — the opportunistic-reuse mechanism of §5.3.
/// With `Config::recurring` the same instance additionally self-renews
/// *within* a task stream: each filled buffer is emitted and the
/// accumulator resets in place (FedBuff-style buffered asynchronous
/// aggregation, absorbed here from the retired `fl::AsyncEngine`).
class AggregatorRuntime {
 public:
  using ResultFn = std::function<void(ModelUpdate)>;

  struct Config {
    ParticipantId id = 0;
    sim::NodeId node = 0;
    AggRole role = AggRole::kLeaf;
    AggTiming timing = AggTiming::kEager;
    std::uint32_t goal = 1;        ///< updates to fold before Send (see kind)
    GoalKind goal_kind = GoalKind::kMessages;
    /// An *open* goal may still grow (`set_goal`): the instance keeps
    /// folding but never Sends until the goal is sealed (open = false).
    /// Middles in the streaming hierarchy start open and are sealed once
    /// the round's batches are fully assigned.
    bool goal_open = false;
    ParticipantId consumer = 0;    ///< downstream aggregator (0: use on_result)
    std::size_t result_bytes = 0;  ///< wire size of the produced update
    bool pull_from_pool = false;   ///< leaf: pull updates off the node pool
    ResultFn on_result;            ///< sink for the aggregate (top level)
    /// Accept only updates for this global model version (0 = accept any);
    /// stale stragglers from earlier rounds are discarded (§2.1). The
    /// synchronous-round mechanism — asynchronous aggregation accepts any
    /// version and discounts by staleness instead (see `live_version`).
    std::uint32_t expected_version = 0;

    // ---- fault domain (lease/ack recovery + crash injection) ------------
    /// Consume under lease semantics: every accepted update leaves a
    /// retained copy in the node pool's lease table under this instance's
    /// id, acked at Send (all but the still-buffered tail) and at graceful
    /// stop()/rearm(). A crash (`fail()`) acks nothing — the orchestrator
    /// aborts the lease and re-folds the retained copies, so no client
    /// sample is lost to a dead runtime.
    bool leased = false;
    /// Fault injection: crash (`fail()`) synchronously after folding this
    /// many messages, before any Send the fold would have triggered —
    /// including the edge where the crash lands between the buffer filling
    /// and its emission. 0 = never.
    std::uint32_t fail_after_folds = 0;
    /// Invoked (by copy) right after an injected crash; the handler may
    /// re-register a replacement under the same id — in-flight sends
    /// resolve their route at delivery time and reach it — but must not
    /// destroy this runtime mid-callback (park it in a graveyard instead).
    std::function<void()> on_failed;

    // ---- asynchronous aggregation (FedBuff/FedAsync semantics) ----------
    /// Pointer to the live global model version (the campaign's per-group
    /// server-version slot). When set, each fold is weighted by the
    /// FedAsync staleness factor 1/(1 + (*live_version - update.version)):
    /// the factor rides the accumulator's fused axpy sweep, so discounted
    /// folding costs no extra pass. Null = synchronous (unit weights).
    const std::uint32_t* live_version = nullptr;
    /// With `live_version` set: drop updates staler than this many versions
    /// instead of folding them (basic staleness control). Default accepts
    /// everything at discounted weight.
    std::uint32_t max_staleness = UINT32_MAX;
    /// FedBuff buffer semantics: after each Send the runtime *continues* —
    /// the accumulator resets in place and keeps folding toward the same
    /// goal (adjust per emission via `set_goal` from `on_result`), emitting
    /// one aggregate per filled buffer instead of completing once. This is
    /// the absorbed async-engine mechanism: a recurring kFoldedUpdates top
    /// emits a model version every `goal` folded client updates.
    bool recurring = false;

    // Cold-start modelling (filled in by the node agent).
    ColdStartTrigger cold_trigger = ColdStartTrigger::kNone;
    double cold_start_secs = 0.0;
    double cold_start_cycles = 0.0;
  };

  AggregatorRuntime(dp::DataPlane& plane, Config cfg);
  ~AggregatorRuntime();
  AggregatorRuntime(const AggregatorRuntime&) = delete;
  AggregatorRuntime& operator=(const AggregatorRuntime&) = delete;

  /// CPU cycles of the Agg step that folds an update of `logical_bytes`.
  /// Over the node's clock rate it is the least time a fold takes
  /// (waiting for a core only adds to it) — the unit emission floors count
  /// in.
  static double agg_cycles(std::size_t logical_bytes) noexcept;

  /// Register routes and begin operating (subject to cold start).
  void start();

  /// Unregister and stop. Unprocessed updates return to the node pool so a
  /// successor instance can aggregate them (stateless failover, §3).
  void stop();

  /// Re-arm this warm instance in place under a new configuration with zero
  /// start-up cost — the §5.3 reuse mechanism, also the streaming
  /// hierarchy's per-batch / cross-round leaf reuse path. Drops all
  /// aggregation state (buffered updates return to the node pool), keeps
  /// the warm sandbox, re-registers routes, starts immediately. Requires
  /// the runtime not to be mid-step; calling it from inside `on_result` of
  /// the finishing aggregation is supported (self-re-arm after Send).
  void rearm(Config cfg);

  /// Stateless role conversion (§5.3): alias of `rearm` under the paper's
  /// name for cross-level promotion.
  void convert_role(Config cfg) { rearm(std::move(cfg)); }

  /// Crash this instance: the sandbox dies taking its accumulator, FIFO
  /// and in-flight update with it — nothing returns to the pool and no
  /// lease is acked (contrast `stop()`, the graceful path). Recovery runs
  /// through the pool's lease table: `lease_abort(id)` yields every update
  /// this instance had accepted but not yet emitted, for a replacement to
  /// re-fold. Idempotent.
  void fail();

  /// Adjust the goal of a live instance. Growing is always safe; shrinking
  /// to (or below) the work already folded triggers the Send immediately.
  /// `open = true` keeps the goal growable and suppresses the Send.
  void set_goal(std::uint32_t goal, bool open = false);

  /// Force this instance to finish with what it already has: seal the goal
  /// at the updates accepted so far (buffered and mid-step included) so the
  /// partial aggregate is sent to the consumer — the shrink path of the
  /// streaming hierarchy, where a retiring leaf's accumulator drains into
  /// its parent instead of being discarded. Returns the goal it was sealed
  /// at (in this instance's goal units); 0 means nothing was ever accepted
  /// (no Send will happen — the caller can park the instance directly).
  std::uint32_t drain();

  /// Hand an update to this runtime directly, bypassing the data plane —
  /// used when a converted instance keeps its own previous output (the
  /// aggregate is already in its memory; no transfer happens). The plane
  /// holds its payload (`DataPlane::hold`) until the fold.
  void inject(ModelUpdate u) { deliver(plane_.hold(std::move(u))); }
  /// Hand over a descriptor this runtime's node holds (a lease copy
  /// returned by `UpdatePool::lease_abort`), with its payload reference.
  void inject(const UpdateDesc& u) { deliver(u); }

  const Config& config() const noexcept { return cfg_; }
  bool started() const noexcept { return started_; }
  bool ready() const noexcept { return ready_; }
  /// The aggregation goal was met and the result sent. A recurring
  /// instance is never done — it emits and continues.
  bool done() const noexcept { return sent_; }
  /// Started, not processing, nothing buffered (reusable when also done).
  bool idle() const noexcept {
    return started_ && !processing_ && fifo_.empty();
  }

  std::uint32_t received() const noexcept { return received_; }
  std::uint32_t aggregated() const noexcept { return aggregated_; }
  /// Client updates folded into the running aggregate so far.
  std::uint32_t folded() const noexcept { return acc_.updates_folded(); }
  std::uint32_t stale_dropped() const noexcept { return stale_dropped_; }
  /// Updates discarded at Recv for failing their integrity check.
  std::uint32_t corrupt_dropped() const noexcept { return corrupt_dropped_; }
  /// This instance was crashed by `fail()`.
  bool failed() const noexcept { return failed_; }
  /// Aggregates emitted by a recurring instance (model versions, for a
  /// recurring top).
  std::uint32_t emissions() const noexcept { return emissions_; }
  sim::SimTime first_arrival_at() const noexcept { return first_arrival_at_; }
  sim::SimTime sent_at() const noexcept { return sent_at_; }
  /// Total seconds spent in Recv+Agg+Send processing.
  sim::SimTime busy_secs() const noexcept { return busy_secs_; }

 private:
  /// What every continuation the runtime parks in simulator or pool
  /// queues holds: 16 bytes, trivially copyable and trivially destructible
  /// (`sim::is_hot_callable_v`), so parking, moving and dropping one costs
  /// no refcount and no indirect call. It names the runtime's liveness
  /// record in the plane's slab and the record generation it was taken
  /// under. `stop()`/`fail()` null the record's runtime and `start()` sets
  /// it again (a restarted runtime revives its own parked waiters);
  /// `rearm()` and destruction bump the generation, so older handles stay
  /// dead. Either way a dead handle still reaches the plane, so a late
  /// continuation can recycle its update into `node`'s pool.
  struct Handle {
    dp::RuntimeRecord* rec;
    std::uint32_t gen;
    sim::NodeId node;
    /// The runtime, or null when it is gone for this handle.
    AggregatorRuntime* live() const noexcept { return rec->live(gen); }
    dp::DataPlane& plane() const noexcept { return *rec->plane; }
  };
  /// Pool-waiter callback.
  struct PoolWaiter {
    Handle h;
    void operator()(UpdateDesc u) const;
  };
  /// Broker-consume continuation: the consume flight carries the update.
  struct ConsumeReady {
    Handle h;
    void operator()(UpdateDesc u) const;
  };
  /// Recv / Agg step completions (ride in the core pool's finish events).
  struct RecvDone {
    Handle h;
    void operator()() const;
  };
  struct AggDone {
    Handle h;
    void operator()() const;
  };
  /// Cold-start completion and lazy-batch depth wake.
  struct ColdStartDone {
    Handle h;
    void operator()() const;
  };
  struct DepthReached {
    Handle h;
    void operator()() const;
  };
  static_assert(sim::is_hot_callable_v<PoolWaiter> &&
                sim::is_hot_callable_v<ConsumeReady> &&
                sim::is_hot_callable_v<RecvDone> &&
                sim::is_hot_callable_v<AggDone> &&
                sim::is_hot_callable_v<ColdStartDone> &&
                sim::is_hot_callable_v<DepthReached>);

  Handle handle() const noexcept {
    return Handle{rec_, rec_->gen, cfg_.node};
  }
  void validate_config() const;
  /// Whether `messages` folded messages / `folded` folded updates meet
  /// the goal (never for an open or zero goal).
  bool goal_met(std::uint32_t messages, std::uint32_t folded) const noexcept;
  bool goal_reached() const noexcept;
  void maybe_complete();
  void deliver(const UpdateDesc& u);
  /// Drop `u`'s payload reference (after its fold, or a discard).
  void release(const UpdateDesc& u) { plane_.release(cfg_.node, u); }
  /// Ack this instance's leases (if leased) but the `keep_newest` newest,
  /// releasing the acked copies' payload references.
  void ack_leases(std::size_t keep_newest);
  void begin_cold_start();
  void on_ready();
  void pump();
  void process_one(const UpdateDesc& u);
  void on_recv_done();
  void on_agg_done();
  void do_send();
  void maybe_pull();

  dp::DataPlane& plane_;
  sim::Simulator& sim_;
  Config cfg_;
  FedAvgAccumulator acc_;
  sim::Fifo<UpdateDesc> fifo_;
  std::optional<UpdateDesc> in_flight_;  ///< update mid-Recv/Agg
  dp::RuntimeRecord* rec_;  ///< liveness record in the plane's slab

  // Cost of the step currently in service on the node cores (the runtime
  // is a single-threaded pipeline: at most one step is in flight).
  double step_cycles_ = 0.0;
  double step_secs_ = 0.0;

  bool started_ = false;
  bool ready_ = false;
  bool cold_start_begun_ = false;
  bool processing_ = false;
  bool sent_ = false;
  bool failed_ = false;
  std::uint32_t received_ = 0;
  std::uint32_t pulled_ = 0;
  std::uint32_t aggregated_ = 0;
  std::uint32_t stale_dropped_ = 0;
  std::uint32_t corrupt_dropped_ = 0;
  std::uint32_t emissions_ = 0;
  std::uint32_t version_ = 0;
  sim::SimTime first_arrival_at_ = -1.0;
  sim::SimTime sent_at_ = -1.0;
  sim::SimTime busy_secs_ = 0.0;
};

}  // namespace lifl::fl
