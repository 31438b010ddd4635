#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/control/selection.hpp"
#include "src/fl/aggregator_runtime.hpp"
#include "src/fl/checkpoint.hpp"
#include "src/obs/obs.hpp"
#include "src/sim/calibration.hpp"
#include "src/sim/fault_plan.hpp"
#include "src/sim/sharded_simulator.hpp"
#include "src/sim/time.hpp"
#include "src/workload/device_tier.hpp"
#include "src/workload/lifecycle.hpp"

namespace lifl::sys {

/// How the campaign builds its aggregation trees.
enum class HierarchyMode : std::uint8_t {
  kFixed,    ///< the pre-orchestrator baseline: a fixed two-level tree per
             ///< group, torn down and respawned every round (per-round
             ///< aggregator churn; every spawn pays the LIFL cold start)
  kPlanned,  ///< the streaming hierarchy orchestrator: planner-driven
             ///< multi-level trees (leaf → middle → group relay → top),
             ///< mid-round re-planning, warm cross-round instance reuse
  kAsync,    ///< asynchronous buffered aggregation (FedBuff/FedAsync): the
             ///< same orchestrator with the round barrier removed. The
             ///< whole campaign is ONE continuous arrival stream;
             ///< `rounds` becomes the number of model *versions* — the
             ///< recurring top emits a version every `uploads_per_round()`
             ///< folded updates and broadcasts it to every group's
             ///< server-version slot; leaves fold any version at the
             ///< FedAsync staleness discount 1/(1+staleness) and seal
             ///< their buffers on count or `async_deadline_secs`. Same
             ///< determinism, shard-equivalence and checkpoint guarantees
             ///< as the synchronous modes.
};

/// A mega-campaign (examples/mega_campaign) partitioned into node *groups*
/// so it can execute on the sharded simulator core.
///
/// The cluster is split into `groups` independent node groups, each with
/// its own LIFL data plane, arrival process and population slice; group 0
/// additionally hosts the round's top aggregator. Leaf aggregates cross
/// groups through `ShardedSimulator::post` with the minimum cross-group
/// network latency (`calib::kCrossShardLatencySecs` + wire + kernel
/// wake-up) — the same path and the same timestamps whether the groups run
/// on 1 shard or on N worker threads. Everything a group touches is
/// group-local, which is exactly the property that makes the sharded
/// execution (a) lock-free within a window and (b) equivalent across shard
/// counts: the wiring is fixed by `groups`, and `shards` only chooses how
/// many worker threads the groups are dealt onto.
struct ShardedCampaignConfig {
  std::size_t shards = 1;        ///< worker threads (1 = plain single core)
  std::size_t groups = 8;        ///< node groups — fixes the wiring, NOT the
                                 ///< parallelism; results are identical for
                                 ///< any `shards` given the same `groups`
  std::size_t rounds = 2;
  std::uint32_t updates_per_leaf = 200;
  std::size_t leaves_per_group = 62;
  std::size_t model_bytes = 100'000;  ///< compressed mobile update
  std::size_t population = 1'000'000;
  double peak_per_sec = 2500.0;  ///< aggregate arrival rate across groups
  double ramp_secs = 60.0;
  double diurnal_amplitude = 0.3;
  double diurnal_period_secs = 600.0;
  std::uint64_t seed = 2026;
  fl::AggTiming timing = fl::AggTiming::kEager;
  std::uint32_t gateway_cores = 2;
  std::uint32_t gateway_queues = 0;  ///< 0 = one RSS queue per gateway core

  // ---- aggregation engine (the streaming hierarchy orchestrator) -------
  HierarchyMode hierarchy = HierarchyMode::kFixed;
  /// Warm cross-round instance reuse in planned mode (false = churn A/B:
  /// every round respawns cold, like the fixed baseline).
  bool reuse = true;
  /// Mid-round re-plan period in simulated seconds (planned mode; 0
  /// disables — the round-boundary plan then holds for the whole round).
  double replan_interval_secs = 5.0;
  /// Leaf batches per middle aggregator; also the relay fan-in threshold
  /// above which the planner inserts the middle level.
  std::uint32_t middle_fanin = 8;
  double ewma_alpha = sim::calib::kEwmaAlpha;   ///< §5.2 smoothing
  double replan_hysteresis = 0.25;  ///< dead band around the current size
  /// Spawned aggregator runtimes pay the LIFL function cold start (both
  /// modes; warm re-arms never do).
  bool cold_start_spawns = true;

  // ---- asynchronous mode (hierarchy == kAsync) -------------------------
  /// Leaf-buffer seal deadline in simulated seconds (0 = seal on count
  /// only): a buffer holding at least one update this long is force-sealed
  /// so delayed stragglers cannot pin a partial batch.
  double async_deadline_secs = 0.0;
  /// Relay flush threshold in folded client updates (0 = one middle's
  /// worth: middle_fanin × updates_per_leaf).
  std::uint32_t async_flush_updates = 0;

  // ---- fault domain (orchestrated modes) -------------------------------
  /// Deterministic fault schedule (`sim::FaultPlan`): leaf/middle/top
  /// crashes mid-fold, upload drops/corruptions with client retry +
  /// capped exponential backoff, per-round gateway outage windows, and
  /// gateway overflow admission. All-zero (the default) = fault-free.
  /// Requires planned or async mode — recovery runs through the streaming
  /// hierarchy's warm pools and lease tables. Top crashes are injected in
  /// planned mode only (the async top is the version cadence itself; a
  /// process-level crash there restarts from the latest checkpoint blob).
  sim::FaultPlan::Config fault;
  /// Graceful degradation (planned mode): seal each round at this fraction
  /// of its upload target once `round_deadline_secs` has passed, instead
  /// of stalling on stragglers. 1.0 (default) waits for everything.
  /// Requires `round_deadline_secs > 0` and is incompatible with
  /// checkpointing (abandoned in-flight uploads violate the quiescent
  /// round boundary the snapshots rely on).
  double quorum = 1.0;
  /// Round deadline (simulated seconds past the round epoch) after which
  /// quorum sealing may fire.
  double round_deadline_secs = 0.0;
  /// Async mode: size each leaf buffer's seal deadline from the planner's
  /// arrival EWMA (expected buffer fill time with 2x slack) instead of the
  /// fixed `async_deadline_secs`, which becomes the upper clamp.
  bool async_adaptive_deadline = false;
  /// Async mode: auto-tune the per-version fold quota from the staleness
  /// telemetry. Each emitted version updates an EWMA of its effective/raw
  /// weight ratio (1 = no staleness discount); the next version's quota is
  /// `uploads_per_round() * ratio`, clamped to
  /// [`async_min_quota`, `uploads_per_round()`] — heavy staleness shrinks
  /// the buffer (fresher versions), clean streams keep the full quota.
  bool async_auto_quota = false;
  /// Lower clamp for the auto-tuned quota (0 = uploads_per_round() / 4).
  std::uint64_t async_min_quota = 0;

  // ---- edge-realistic clients (device tiers + flaky lifecycle) ---------
  /// Tiered device population (flagship / mid-range / IoT compute+uplink
  /// classes). All-zero (the default) keeps the legacy synthetic mobile
  /// population bitwise; when enabled the shares must sum to ~1 and each
  /// group's population slice is laid out in contiguous tier ranges.
  wl::TierMix device_tiers;
  /// Deterministic client-lifecycle schedule (`wl::LifecyclePlan`):
  /// mid-upload disconnects with bounded per-client offline queues and
  /// chunk-wise resumable uploads, plus optional connectivity/charging
  /// session gates. Disabled by default. Works in all three hierarchy
  /// modes; incompatible with wire-level upload faults (drop / corruption /
  /// outage / overflow — the chunked session layer supersedes the
  /// whole-stream retry model).
  wl::LifecyclePlan::Config lifecycle;
  /// Client-selection strategy for the arrival chain. `kRandom` keeps the
  /// legacy hash oracle bitwise; `kScored` / `kClusterScan` require a
  /// tiered population and learn from per-tier completion telemetry.
  ctrl::SelectorPolicy selector = ctrl::SelectorPolicy::kRandom;
  ctrl::SelectionStrategy::Config selection;

  // ---- stragglers (both modes; the fig9 sync-vs-async A/B knob) --------
  /// Deterministic fraction of arrivals whose upload is delayed by
  /// `straggler_delay_secs` (hash of the group-local arrival sequence, so
  /// identical for every shard count). Synchronous rounds stall on them;
  /// async versions keep bumping on count and fold them late at the
  /// staleness discount.
  double straggler_fraction = 0.0;
  double straggler_delay_secs = 60.0;

  // ---- checkpoint/restore (sys::CampaignCheckpoint) --------------------
  /// Snapshot cadence on the *global simulated-time grid* k·every (0 =
  /// off). Each crossed mark bills the CheckpointManager cost model in-sim
  /// (marshal CPU on group 0's node + storage latency off it) and emits a
  /// blob at the next quiescent barrier. Resuming from any emitted blob is
  /// bitwise identical to the uninterrupted run — see
  /// tests/campaign_checkpoint_test.cpp.
  double checkpoint_every_secs = 0.0;
  /// When set, the latest blob is kept at this path (atomic replace), so a
  /// crashed campaign restarts from its most recent mark.
  std::string checkpoint_path;
  /// Optional in-process sink for every emitted blob (tests/benches): called
  /// with the blob, the in-progress round, and the mark it cuts at.
  std::function<void(const std::vector<std::uint8_t>&, std::uint32_t round,
                     double mark)>
      on_checkpoint;
  /// Resume source: a blob file, or an in-memory blob (takes precedence).
  /// The blob's config digest and shard count must match this config.
  std::string resume_path;
  const std::vector<std::uint8_t>* resume_blob = nullptr;
  /// Cost model for the snapshot writes (cadence field is ignored — the
  /// mark grid above decides when).
  fl::CheckpointManager::Config checkpoint_cost;

  // ---- shard synchronization (src/sim/sharded_simulator.hpp) -----------
  /// How the worker shards synchronize. `kConservative` is the classic
  /// fixed-lookahead barrier; `kAdaptive` widens barrier windows through
  /// campaign-aware outbound promises (each shard publishes a lower bound
  /// on its next cross-group delivery derived from its groups' arrival
  /// chains), collapsing the empty windows of diurnal troughs. Both
  /// produce bitwise identical results for any shard count
  /// (tests/sync_equivalence_test); with `shards == 1` they are the same
  /// code path.
  sim::SyncMode sync_mode = sim::SyncMode::kConservative;

  // ---- observability (src/obs) -----------------------------------------
  /// Sim-time tracing + histograms. Strictly passive: recording never
  /// schedules sim events, so enabling it leaves campaign results bitwise
  /// identical (tests/obs_campaign_test.cpp) for every shard count. Trace
  /// state is not checkpointed — a resumed run re-emits from the cut.
  obs::Config obs;

  std::size_t uploads_per_round() const {
    return groups * leaves_per_group * updates_per_leaf;
  }
  std::size_t per_group_target() const {
    return leaves_per_group * updates_per_leaf;
  }
};

/// Per-group aggregates used by the shard-equivalence test: every value is
/// produced by group-local event order only, so it must be *identical*
/// (bitwise, not approximately) across shard counts.
struct ShardedGroupStats {
  std::uint64_t uploads = 0;        ///< client uploads launched
  std::uint64_t pool_pushed = 0;    ///< updates that landed in the node pool
  double gateway_busy_secs = 0.0;   ///< gateway busy integral
  double gateway_wait_secs = 0.0;   ///< gateway queueing
  double cpu_cycles = 0.0;          ///< node CPU ledger total
};

/// Per-round (sync) or per-model-version (async) and whole-campaign
/// telemetry. In async mode the `round_*` vectors hold one entry per
/// *emitted model version*; `round_spawned`/`round_reused` attribute the
/// stream's churn to its first entry (spawns happen while the initial
/// fleet ramps; steady state spawns zero — the entries after the first).
struct ShardedCampaignResult {
  std::vector<double> round_started_at;    ///< round epoch (sim s)
  std::vector<double> round_completed_at;  ///< top aggregate landed (sim s)
  std::vector<std::uint64_t> round_samples;  ///< global FedAvg weight (raw)
  /// Effective (staleness-discounted) FedAvg weight per round/version.
  /// Equals `round_samples` bitwise in synchronous mode and in an async
  /// run with no stale folds; the gap is exactly the staleness discount.
  std::vector<double> round_weight;
  /// Aggregator-runtime churn per round, across all groups plus the top:
  /// `spawned` counts constructions (each pays the cold start when
  /// `cold_start_spawns`), `reused` counts warm in-place re-arms. With the
  /// orchestrator (planned mode + reuse), steady-state rounds spawn zero
  /// new runtimes — see tests/streaming_hierarchy_test.cpp.
  std::vector<std::uint64_t> round_spawned;
  std::vector<std::uint64_t> round_reused;
  /// Client updates re-folded from aborted leases per round (async: total
  /// attributed to the first version entry) — the lossless-recovery work
  /// the round performed. Zero everywhere in a fault-free run.
  std::vector<std::uint64_t> round_refolded;
  std::vector<ShardedGroupStats> groups;
  std::uint64_t spawned_total = 0;
  std::uint64_t reused_total = 0;
  std::uint64_t replans = 0;      ///< mid-round plan changes applied
  std::uint64_t leaf_drains = 0;  ///< partial accumulators drained on shrink
  std::uint32_t peak_leaves = 0;  ///< max concurrent leaves in any group
  // Barrier totals (events, cross_posts, windows, windows_skipped) are part
  // of the snapshot, so a resumed run reports the uninterrupted run's.
  std::uint64_t events = 0;       ///< dispatched across all shards
  std::uint64_t cross_posts = 0;  ///< cross-shard mailbox traffic
  std::uint64_t windows = 0;      ///< barrier windows actually run
  /// Barrier windows proven empty and skipped by adaptive horizon
  /// widening, in conservative-window units (0 under kConservative).
  /// `windows + windows_skipped` ≈ the conservative count.
  std::uint64_t windows_skipped = 0;
  /// Snapshot marks whose cost model was billed in-sim. Deterministic and
  /// part of the snapshot itself, so a resumed run reports the same total
  /// as the uninterrupted one.
  std::uint64_t checkpoint_marks = 0;
  /// Blobs this *process* emitted / their byte total / encode wall time.
  /// Process-local by design: a resumed run does not re-emit the blobs the
  /// pre-crash process already persisted.
  std::uint64_t checkpoints_written = 0;
  std::uint64_t checkpoint_bytes = 0;
  double checkpoint_encode_secs = 0.0;

  // ---- fault/recovery telemetry (all zero in a fault-free run) ---------
  std::uint64_t faults_injected = 0;  ///< crashes + drops + corruptions +
                                      ///< outage/overflow rejects
  std::uint64_t leaf_crashes = 0;     ///< leaf runtimes crashed + recovered
  std::uint64_t middle_crashes = 0;   ///< middle runtimes crashed + recovered
  std::uint64_t top_crashes = 0;      ///< top runtimes crashed + recovered
  std::uint64_t refolded_updates = 0;   ///< client updates re-folded from
                                        ///< aborted leaf leases
  std::uint64_t reinjected_partials = 0;  ///< leaf partials re-injected into
                                          ///< replacement middles/tops
  std::uint64_t upload_retries = 0;     ///< client retransmissions scheduled
  std::uint64_t upload_drops = 0;       ///< attempts lost on the wire
  std::uint64_t upload_corruptions = 0;  ///< attempts arrived bit-flipped
  std::uint64_t overflow_rejects = 0;   ///< gateway admission rejections
  std::uint64_t outage_rejects = 0;     ///< attempts hitting an outage window
  std::uint64_t quorum_seals = 0;       ///< rounds sealed at quorum
  std::uint64_t quorum_abandoned = 0;   ///< uploads abandoned by those seals
  double recovery_secs = 0.0;  ///< replacement spawn time paid (cold starts;
                               ///< warm re-arms recover for free)

  // ---- client lifecycle / selection telemetry --------------------------
  /// Per-device-tier participation (all zero unless the population is
  /// tiered). Selected counts arrival-chain picks; completed counts
  /// delivered updates; disconnects/stragglers attribute session drops and
  /// straggler delays to the tier that suffered them.
  struct TierStats {
    std::uint64_t selected = 0;
    std::uint64_t completed = 0;
    std::uint64_t disconnects = 0;
    std::uint64_t stragglers = 0;
  };
  std::array<TierStats, wl::kTierCount> tiers{};
  std::uint64_t disconnects = 0;       ///< mid-upload session drops
  std::uint64_t resumed_uploads = 0;   ///< reconnect+resume events
  std::uint64_t chunks_sent = 0;       ///< upload chunks acked end-to-end
  std::uint64_t chunks_resent = 0;     ///< acked chunks that were re-sends
  std::uint64_t selection_redraws = 0; ///< picks refused (full offline queue)
  std::uint64_t offline_queue_peak = 0;  ///< max parked updates, any client
  double gate_wait_secs = 0.0;  ///< connectivity/charge gate delay total
  /// Async auto-quota telemetry: quota changes applied, and the quota in
  /// force when the stream ended (uploads_per_round() when tuning is off).
  std::uint64_t quota_adjustments = 0;
  std::uint64_t async_quota_final = 0;

  // ---- observability ---------------------------------------------------
  /// Per-shard barrier telemetry, always filled (the sharded core counts
  /// windows regardless of tracing): conservative windows run, windows in
  /// which the shard dispatched nothing, and wall seconds the shard spent
  /// parked at barriers waiting for the slowest shard. Process-local, like
  /// the idle wall time it reports: a resumed run covers its own windows.
  std::vector<std::uint64_t> shard_windows;
  std::vector<std::uint64_t> shard_empty_windows;
  std::vector<double> shard_idle_secs;
  /// The run's trace rings + histogram registry when `cfg.obs` enabled
  /// them; null otherwise. Shared so the result stays copy/move friendly.
  std::shared_ptr<obs::CampaignObs> obs;

  double wall_secs = 0.0;
  double sim_secs = 0.0;          ///< final simulated time (max over groups)
};

/// Run the campaign. Deterministic: same config (including `groups`) =>
/// same result for any `shards`; see tests/sharded_sim_test.cpp.
ShardedCampaignResult run_sharded_campaign(const ShardedCampaignConfig& cfg);

/// Write the run's Perfetto-loadable Chrome trace JSON to `path`. Throws
/// std::logic_error if the run was not traced (`cfg.obs.trace`).
void write_campaign_trace(const ShardedCampaignResult& result,
                          const std::string& path);

/// Write the per-round/per-version timeseries, per-shard window stats and a
/// final summary row as JSON lines. The summary row writes every campaign
/// count once, under its field name above; registry histograms appear only
/// when metrics were on, ring accounting only when the run was traced.
void write_campaign_metrics_jsonl(const ShardedCampaignResult& result,
                                  const std::string& path);

}  // namespace lifl::sys
