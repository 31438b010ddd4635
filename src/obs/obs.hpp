#pragma once

// Campaign observability bundle: the interned histogram id set, the
// per-emitter handle (`GroupObs`) threaded through subsystem configs,
// and the `CampaignObs` aggregate a campaign run owns.

#include <cstddef>
#include <cstdio>

#include "src/obs/registry.hpp"
#include "src/obs/trace.hpp"

namespace lifl::obs {

/// Observability knobs on a campaign config. All off by default: a
/// campaign with default `Config` allocates nothing and emits nothing.
struct Config {
  bool trace = false;    ///< record sim-time trace events
  bool metrics = false;  ///< histogram registry (JSONL summary "hists")
  std::size_t trace_ring_kb = 4096;  ///< per-shard ring cap (KiB)

  bool enabled() const { return trace || metrics; }
};

/// Field-table rows (src/systems/campaign_config.hpp).
#define LIFL_OBS_FIELDS(X)                         \
  X(trace, nullptr, kAny, false)                   \
  X(metrics, nullptr, kAny, false)                 \
  X(trace_ring_kb, "trace-ring-kb=N", kPos, false)

/// Every histogram the campaign stack emits, interned once at setup.
struct Ids {
  HistId round_secs;                      // campaign slot
  HistId fold_secs, gateway_wait_secs;    // group slots
  HistId retry_depth, upload_session_secs;

  static Ids intern(Registry& r);
};

/// Handle one emitting entity (a node group, or the campaign driver)
/// carries: its shard's trace ring, the registry, and its slot/track.
/// Copyable POD of pointers; a default-constructed handle is disabled
/// and every emit through it is a single branch.
struct GroupObs {
  ShardTrace* ring = nullptr;
  Registry* reg = nullptr;
  const Ids* ids = nullptr;
  std::uint16_t track = 0;
  std::uint32_t slot = 0;

  bool tracing() const { return ring != nullptr; }
  bool metering() const { return reg != nullptr; }

  void instant(double t, Ev kind, std::uint32_t a, std::uint64_t b = 0,
               std::uint8_t flags = 0) const {
    if (ring != nullptr) ring->instant(t, kind, track, a, b, flags);
  }
  void span(double t0, double t1, Ev kind, std::uint32_t a,
            std::uint64_t b = 0) const {
    if (ring != nullptr) ring->span(t0, t1, kind, track, a, b);
  }
  /// Pointer-to-member form, safe to call on a disabled handle (the id
  /// set is only dereferenced once the registry is known non-null).
  void observe_id(HistId Ids::*m, double v) const {
    if (reg != nullptr && ids != nullptr) reg->observe(slot, ids->*m, v);
  }
  HistSlot hist_slot(HistId id) const {
    if (reg == nullptr) return HistSlot{};
    return HistSlot{reg, slot, id};
  }
};

/// Everything a traced/metered campaign run accumulates. Owned by the
/// driver, surfaced on the campaign result; never checkpointed.
class CampaignObs {
 public:
  CampaignObs(const Config& cfg, std::size_t shards, std::size_t groups);

  const Config& config() const { return cfg_; }
  std::size_t shards() const { return shards_; }
  std::size_t groups() const { return groups_; }

  TraceRecorder& trace() { return trace_; }
  const TraceRecorder& trace() const { return trace_; }
  Registry& registry() { return registry_; }
  const Registry& registry() const { return registry_; }
  const Ids& ids() const { return ids_; }

  // Slot layout: one per group, campaign last.
  std::uint32_t group_slot(std::size_t g) const {
    return static_cast<std::uint32_t>(g);
  }
  std::uint32_t campaign_slot() const {
    return static_cast<std::uint32_t>(groups_);
  }

  /// Handle for node group `g`, which lives on shard `shard`.
  GroupObs group_obs(std::size_t g, std::size_t shard) {
    GroupObs o;
    o.ring = trace_.shard(shard);
    o.reg = cfg_.metrics ? &registry_ : nullptr;
    o.ids = &ids_;
    o.track = static_cast<std::uint16_t>(g);
    o.slot = group_slot(g);
    return o;
  }

  /// Handle for campaign-level events emitted from shard `shard`'s
  /// thread (checkpoint marks, async versions).
  GroupObs campaign_obs_on_shard(std::size_t shard) {
    GroupObs o;
    o.ring = trace_.shard(shard);
    o.reg = cfg_.metrics ? &registry_ : nullptr;
    o.ids = &ids_;
    o.track = kCampaignTrack;
    o.slot = campaign_slot();
    return o;
  }

  /// Handle for the coordinator thread (between-run emits only).
  GroupObs coordinator_obs() {
    GroupObs o;
    o.ring = trace_.coordinator();
    o.reg = cfg_.metrics ? &registry_ : nullptr;
    o.ids = &ids_;
    o.track = kCampaignTrack;
    o.slot = campaign_slot();
    return o;
  }

  /// Write the Perfetto-loadable trace JSON.
  void write_trace_json(std::FILE* out) const {
    trace_.write_chrome_json(out, groups_);
  }

 private:
  Config cfg_;
  std::size_t shards_;
  std::size_t groups_;
  TraceRecorder trace_;
  Registry registry_;
  Ids ids_;
};

}  // namespace lifl::obs
