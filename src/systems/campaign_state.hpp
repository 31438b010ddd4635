#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/control/campaign_planner.hpp"
#include "src/control/selection.hpp"
#include "src/dataplane/dataplane.hpp"
#include "src/dataplane/resumable_upload.hpp"
#include "src/fl/aggregator_runtime.hpp"
#include "src/fl/checkpoint.hpp"
#include "src/sim/count_map.hpp"
#include "src/sim/node.hpp"
#include "src/sim/random.hpp"
#include "src/sim/sharded_simulator.hpp"
#include "src/sim/simulator.hpp"
#include "src/systems/campaign_promises.hpp"
#include "src/systems/sharded_campaign.hpp"
#include "src/systems/streaming_hierarchy.hpp"
#include "src/workload/population.hpp"

namespace lifl::sys::detail {

/// Promise-side state of one group when the campaign runs on K > 1 shards
/// (sharded_campaign.cpp, `install_promises`). Written by the group's own
/// shard during a run, and by the calling thread when arrivals are armed.
struct GroupPromise {
  /// Clone of the arrival chain taken when arrivals were armed: its RNG
  /// after the first draw, and that first draw.
  sim::Rng clone{0};
  double first_rel = 0.0;
  /// Replayed from the clone by the owning shard on first use, then
  /// published by `table_ready` (release) for the top's shard to merge.
  ArrivalTable table;
  std::atomic<bool> table_ready{false};
  /// The relay snapshot the owning shard republishes at each refresh.
  RelayBoard relay;
};

/// One node group of the sharded mega-campaign: a single-node cluster with
/// its own LIFL data plane, arrival process and population slice. All
/// fields are touched only by the shard the group maps to (or by the
/// coordinator between rounds). Shared between the campaign driver
/// (sharded_campaign.cpp) and the checkpoint subsystem
/// (campaign_checkpoint.cpp), which snapshots/restores the cross-round
/// durable fields — everything else is re-armed per round. Groups sit side
/// by side in `CampaignState::groups` while neighbours run on different
/// shards, so each starts on its own cache line.
struct alignas(64) Group {
  std::size_t id = 0;
  std::size_t shard = 0;
  sim::Simulator* sim = nullptr;
  std::unique_ptr<sim::Cluster> cluster;
  std::unique_ptr<dp::DataPlane> plane;
  wl::ClientPopulation population;
  std::unique_ptr<wl::ArrivalProcess> arrivals;
  sim::Rng rng{0};
  std::vector<std::unique_ptr<fl::AggregatorRuntime>> aggs;  ///< fixed mode
  std::unique_ptr<StreamingHierarchy> hier;                  ///< planned mode
  /// Passive observability handle (this group's track + shard ring).
  /// Disabled (all-null) unless the campaign config enabled obs.
  obs::GroupObs obs;
  /// Outbound-promise state; null with one shard (no promises).
  std::unique_ptr<GroupPromise> promise;

  // Open-loop arrival chain state for the current round (one pending
  // arrival event at a time, profiles derived lazily per index).
  double epoch = 0.0;
  double next_rel = 0.0;
  std::uint64_t launched = 0;
  std::uint64_t target = 0;
  std::uint64_t participant_counter = 0;
  std::uint32_t round = 0;
  std::uint64_t total_uploads = 0;
  /// Cross-shard relay posts this group's hierarchy has made in the
  /// current round (stream, in async mode). Feeds the shard's outbound
  /// promise at K > 1 shards; re-armed with the round, and
  /// never serialized — resume replay re-derives it from the boundary.
  std::uint64_t relays_done = 0;

  // Client-side fault telemetry, cumulative across rounds (group-local
  // event order only, so bitwise shard-invariant; checkpointed).
  std::uint64_t upload_retries = 0;
  std::uint64_t upload_drops = 0;
  std::uint64_t upload_corruptions = 0;
  std::uint64_t overflow_rejects = 0;
  std::uint64_t outage_rejects = 0;

  // ---- edge-client lifecycle + selection (cumulative; checkpointed) ----
  /// Selection strategy for this group's arrival chain. Null when the
  /// campaign runs the legacy random oracle over an untiered population
  /// (that path stays allocation-free and bitwise unchanged).
  std::unique_ptr<ctrl::SelectionStrategy> strategy;
  /// Resumable-upload session telemetry (chunk counts, disconnects).
  dp::ResumableUpload::Counters lifecycle;
  std::uint64_t selection_redraws = 0;  ///< picks refused, redrawn
  std::uint32_t offline_peak = 0;       ///< max parked sessions, any client
  double gate_wait_secs = 0.0;          ///< duty-cycle gate delay total
  /// Per-tier participation counters (index = wl::DeviceTier).
  std::array<std::uint64_t, wl::kTierCount> tier_selected{};
  std::array<std::uint64_t, wl::kTierCount> tier_completed{};
  std::array<std::uint64_t, wl::kTierCount> tier_disconnects{};
  std::array<std::uint64_t, wl::kTierCount> tier_stragglers{};
  /// Per-tier straggler probability (precomputed at setup from
  /// straggler_fraction and the tier mix; empty-handed in legacy mode).
  std::array<double, wl::kTierCount> straggler_p{};
  /// Live upload sessions per population index (bounds the per-client
  /// offline queue at pick time) and currently parked (offline) sessions
  /// per index. Transient event-driven state: empty at every quiescent
  /// round boundary, so never serialized.
  sim::CountMap live_sessions;
  sim::CountMap parked;
};
static_assert(alignof(Group) >= 64);

/// The group's plain durable members, in their blob order (a change here
/// is a `CampaignCheckpoint::kVersion` bump). The checkpoint walk
/// (campaign_checkpoint.cpp) writes and reads them in this order, ahead of
/// the state its components keep behind accessors.
#define LIFL_GROUP_DURABLE_FIELDS(X)                                   \
  X(rng) X(participant_counter) X(total_uploads) X(upload_retries)     \
  X(upload_drops) X(upload_corruptions) X(overflow_rejects)            \
  X(outage_rejects) X(lifecycle) X(selection_redraws) X(offline_peak)  \
  X(gate_wait_secs) X(tier_selected) X(tier_completed)                 \
  X(tier_disconnects) X(tier_stragglers)

/// Whole-campaign runtime state, owned by `run_sharded_campaign` for the
/// duration of one call.
struct CampaignState {
  const ShardedCampaignConfig* cfg = nullptr;
  sim::ShardedSimulator* sharded = nullptr;
  std::vector<Group> groups;
  std::unique_ptr<ctrl::CampaignPlanner> planner;  ///< planned/async modes
  std::unique_ptr<fl::AggregatorRuntime> top_rt;   ///< planned: reused
  fl::AggregatorRuntime* top = nullptr;  ///< current round's top (group 0)
  /// The deterministic fault schedule (cfg->fault); disabled = fault-free.
  sim::FaultPlan faults;
  /// The deterministic client-lifecycle schedule (cfg->lifecycle with the
  /// campaign seed mixed in); disabled = reliable always-on clients.
  wl::LifecyclePlan lifecycle;
  /// The top's current folded-update goal this round: starts at
  /// uploads_per_round() and shrinks as groups report quorum shortfalls;
  /// a crashed top's replacement re-arms at this goal.
  std::uint64_t top_goal = 0;
  /// Crashed top sandboxes: a runtime cannot be destroyed from inside its
  /// own crash callback; reclaimed at the round epilogue.
  std::vector<std::unique_ptr<fl::AggregatorRuntime>> graveyard;
  bool round_done = false;
  double completed_at = -1.0;
  std::uint64_t round_samples = 0;
  double round_weight = 0.0;  ///< effective weight of the last round/version

  // ---- observability (passive; never checkpointed) ---------------------
  /// Campaign-track handle writing group 0's shard ring: checkpoint-mark
  /// pulses and async version emissions run on that shard's thread.
  obs::GroupObs camp_obs;
  /// Campaign-track handle writing the coordinator ring — only touched
  /// between runs (round epilogues, checkpoint blob cuts).
  obs::GroupObs coord_obs;

  // ---- async stream (hierarchy == kAsync) ------------------------------
  // Version-cadence state of the recurring top. Written by group 0's shard
  // during the stream, read by the coordinator between runs (the end-of-run
  // handshake orders the accesses).
  std::uint64_t async_total = 0;   ///< client updates in the whole stream
  std::uint64_t async_folded = 0;  ///< cumulative folded updates
  std::uint32_t async_version = 1; ///< current global model version
  double version_started_at = 0.0;

  /// The result being built. Group 0's shard writes it during a run: the
  /// recurring async top appends per-version telemetry, and crashed-top
  /// recovery and checkpoint marks count into it. The coordinator reads it
  /// between runs; the checkpoint blob carries its deterministic rows.
  ShardedCampaignResult* out = nullptr;

  // ---- outbound promises (K > 1; the top's shard only) -----------------
  /// Merged launch bound of the async stream, built once every group's
  /// arrival table is ready; reset when arrivals are armed.
  std::unique_ptr<LaunchBound> launches;
  /// Scratch for the relay snapshots the top's promise reads.
  std::vector<RelaySnapshot> relay_snapshots;

  // ---- checkpointing ---------------------------------------------------
  /// Snapshot persistence cost model, on group 0's node (Appendix B path).
  std::unique_ptr<fl::CheckpointManager> ckpt;
  /// Size the in-sim pulse bills per mark: the current round's boundary
  /// image plus the cut trailer — identical on replay because the boundary
  /// encoding is deterministic.
  std::size_t ckpt_blob_bytes = 0;
};

}  // namespace lifl::sys::detail
