#pragma once

#include <cstddef>
#include <cstdint>

namespace lifl::wl {

/// Edge-device class of a client (compute + uplink + availability). The
/// X-macro keeps the enum, its printable names and its count in lockstep —
/// the same table-driven idiom as the firmware state machines this
/// lifecycle is modeled on.
#define LIFL_FOREACH_DEVICE_TIER(X) \
  X(kFlagship, "flagship")          \
  X(kMidRange, "mid-range")         \
  X(kIoT, "iot")

enum class DeviceTier : std::uint8_t {
#define LIFL_TIER_ENUM(name, str) name,
  LIFL_FOREACH_DEVICE_TIER(LIFL_TIER_ENUM)
#undef LIFL_TIER_ENUM
};

inline constexpr std::size_t kTierCount = 3;

inline const char* tier_name(DeviceTier t) noexcept {
  switch (t) {
#define LIFL_TIER_NAME(name, str) \
  case DeviceTier::name:          \
    return str;
    LIFL_FOREACH_DEVICE_TIER(LIFL_TIER_NAME)
#undef LIFL_TIER_NAME
  }
  return "?";
}

/// Population shares of the three tiers. All-zero (the default) means the
/// population is not tiered (the legacy synthetic profiles). Shares must
/// sum to ~1 when enabled; `ClientPopulation::tiered` lays the tiers out in
/// contiguous index ranges so tier-of-index and uniform-within-tier draws
/// stay O(1) with no hashing or rejection.
struct TierMix {
  double flagship = 0.0;
  double mid = 0.0;
  double iot = 0.0;

  bool enabled() const noexcept { return flagship + mid + iot > 0.0; }
  double share(DeviceTier t) const noexcept {
    switch (t) {
      case DeviceTier::kFlagship:
        return flagship;
      case DeviceTier::kMidRange:
        return mid;
      case DeviceTier::kIoT:
        return iot;
    }
    return 0.0;
  }
};

/// Field-table rows (src/systems/campaign_config.hpp).
#define LIFL_TIER_MIX_FIELDS(X)       \
  X(flagship, nullptr, kNonNeg, true) \
  X(mid, nullptr, kNonNeg, true)      \
  X(iot, nullptr, kNonNeg, true)

/// Per-tier profile distributions and session behavior. Speeds and dataset
/// sizes are lognormal like the legacy synthetic profiles; uplinks and
/// duty cycles separate the tiers: a flagship phone uploads a 100 KB
/// update in ~4 ms and is almost always reachable, an IoT node takes ~70 ms
/// on a constrained radio, sleeps on a connectivity duty cycle and only
/// uploads while its battery gate (charging window) is open.
struct TierTraits {
  double speed_mu;        ///< lognormal log-mean of relative compute speed
  double speed_sigma;
  double speed_lo;
  double speed_hi;
  double uplink_bytes_per_sec;
  double samples_mu;      ///< lognormal log-mean of local dataset size
  double samples_sigma;
  double samples_lo;
  double samples_hi;
  /// Multiplier on the campaign's base mid-upload disconnect rate.
  double disconnect_scale;
  /// Fraction of the connectivity duty cycle the device is reachable.
  double online_frac;
  /// Fraction of the charge cycle the battery gate is open (1 = always).
  double charge_frac;
};

inline const TierTraits& tier_traits(DeviceTier t) noexcept {
  // flagship / mid-range / IoT compute+uplink classes. The mid-range row
  // matches the legacy mobile synthetic profile, so a tiered population
  // with mix {0,1,0} is distribution-identical to the old one.
  static constexpr TierTraits kTraits[kTierCount] = {
      {0.6931471805599453, 0.25, 0.5, 6.0, 24e6,      // flagship
       6.684611727667927, 0.4, 50.0, 5000.0, 0.25, 0.98, 1.0},
      {0.0, 0.45, 0.25, 4.0, 12e6,                    // mid-range
       6.396929655216146, 0.5, 50.0, 5000.0, 1.0, 0.90, 0.85},
      {-0.916290731874155, 0.5, 0.1, 1.5, 1.5e6,      // IoT
       5.298317366548036, 0.5, 50.0, 2000.0, 2.5, 0.60, 0.50},
  };
  return kTraits[static_cast<std::size_t>(t)];
}

}  // namespace lifl::wl
