#pragma once

// The seeded campaign matrix shared by the shard-equivalence harness
// (sync_equivalence_test) and the pinned config digests
// (campaign_config_test): 3 hierarchy modes x faults on/off x flaky
// clients on/off, plus an edge-client async cell.

#include <cstddef>

#include "src/control/selection.hpp"
#include "src/systems/sharded_campaign.hpp"
#include "src/workload/device_tier.hpp"

namespace lifl::matrix {

namespace sys = lifl::sys;
namespace wl = lifl::wl;

struct Scenario {
  const char* name;
  sys::HierarchyMode hierarchy;
  bool faults;
  bool flaky;
  /// The benchmark's async edge-client knobs at test scale: scored
  /// selection over the tier mix, stragglers and a fixed seal deadline.
  bool edge = false;
};

/// Every valid cell of hierarchy x faults x flaky. Faults require the
/// streaming hierarchy (planned/async); with the client lifecycle on they
/// must be crash-only (the session layer supersedes wire-level faults).
inline constexpr Scenario kScenarios[] = {
    {"fixed", sys::HierarchyMode::kFixed, false, false},
    {"fixed+flaky", sys::HierarchyMode::kFixed, false, true},
    {"planned", sys::HierarchyMode::kPlanned, false, false},
    {"planned+faults", sys::HierarchyMode::kPlanned, true, false},
    {"planned+flaky", sys::HierarchyMode::kPlanned, false, true},
    {"planned+faults+flaky", sys::HierarchyMode::kPlanned, true, true},
    {"async", sys::HierarchyMode::kAsync, false, false},
    {"async+faults", sys::HierarchyMode::kAsync, true, false},
    {"async+flaky", sys::HierarchyMode::kAsync, false, true},
    {"async+faults+flaky", sys::HierarchyMode::kAsync, true, true},
    {"async+edge", sys::HierarchyMode::kAsync, false, true, true},
};

inline sys::ShardedCampaignConfig matrix_campaign(const Scenario& sc,
                                                  std::size_t shards) {
  sys::ShardedCampaignConfig cfg;
  cfg.shards = shards;
  cfg.groups = 4;
  cfg.rounds = 2;
  cfg.leaves_per_group = 8;
  cfg.updates_per_leaf = 10;
  cfg.model_bytes = 50'000;
  cfg.population = 20'000;
  cfg.peak_per_sec = 400.0;
  cfg.ramp_secs = 1.0;
  cfg.diurnal_amplitude = 0.4;
  cfg.diurnal_period_secs = 4.0;
  cfg.seed = 77;
  cfg.hierarchy = sc.hierarchy;
  if (sc.hierarchy != sys::HierarchyMode::kFixed) {
    cfg.replan_interval_secs = 0.5;
    cfg.middle_fanin = 4;
  }
  if (sc.faults) {
    cfg.fault.seed = 9001;
    cfg.fault.leaf_crash_rate = 0.10;
    cfg.fault.middle_crash_rate = 0.05;
    if (sc.hierarchy == sys::HierarchyMode::kPlanned) {
      cfg.fault.top_crash_rate = 0.25;
    }
    if (!sc.flaky) {
      // Wire-level faults, only without the lifecycle session layer.
      cfg.fault.upload_drop_rate = 0.1;
      cfg.fault.upload_corrupt_rate = 0.05;
      cfg.fault.retry_base_secs = 0.05;
      cfg.fault.retry_cap_secs = 1.0;
    }
  }
  if (sc.flaky) {
    cfg.device_tiers = wl::TierMix{0.4, 0.3, 0.3};
    cfg.lifecycle.disconnect_rate = 0.2;
    cfg.lifecycle.chunk_bytes = 10'000;
    cfg.lifecycle.offline_base_secs = 0.05;
    cfg.lifecycle.offline_cap_secs = 1.0;
  }
  if (sc.edge) {
    cfg.selector = ctrl::SelectorPolicy::kScored;
    cfg.straggler_fraction = 0.1;
    cfg.straggler_delay_secs = 1.0;
    cfg.async_deadline_secs = 0.2;
  }
  return cfg;
}

}  // namespace lifl::matrix
