#pragma once

#include <algorithm>
#include <cstdint>

#include "src/sim/random.hpp"
#include "src/workload/device_tier.hpp"

namespace lifl::wl {

// ---------------------------------------------------------------------------
// Firmware-grade client state machine (idle → training → uploading →
// offline → resuming → done), table-driven like an embedded OCPP stack:
// the transition table is the single source of truth, every driver walks
// it, and an event that has no row is a hard protocol error rather than a
// silent fallthrough.
// ---------------------------------------------------------------------------

#define LIFL_FOREACH_CLIENT_STATE(X) \
  X(kIdle, "idle")                   \
  X(kTraining, "training")           \
  X(kUploading, "uploading")         \
  X(kOffline, "offline")             \
  X(kResuming, "resuming")           \
  X(kDone, "done")

enum class ClientState : std::uint8_t {
#define LIFL_STATE_ENUM(name, str) name,
  LIFL_FOREACH_CLIENT_STATE(LIFL_STATE_ENUM)
#undef LIFL_STATE_ENUM
      kCount  ///< sentinel: also the "invalid transition" result
};

inline const char* client_state_name(ClientState s) noexcept {
  switch (s) {
#define LIFL_STATE_NAME(name, str) \
  case ClientState::name:          \
    return str;
    LIFL_FOREACH_CLIENT_STATE(LIFL_STATE_NAME)
#undef LIFL_STATE_NAME
    default:
      return "?";
  }
}

enum class ClientEvent : std::uint8_t {
  kSelected,    ///< the selector picked the client for a round
  kTrained,     ///< local training finished; the update is ready to ship
  kChunkAcked,  ///< the gateway acked one upload chunk
  kDisconnect,  ///< the session died mid-upload (radio loss, battery)
  kReconnect,   ///< the device came back online with a parked update
  kComplete,    ///< the final chunk acked; the update is fully delivered
  kCount
};

/// The transition table. `ClientState::kCount` marks an invalid (state,
/// event) pair. A disconnect always parks the client offline; a reconnect
/// always re-enters through kResuming (the re-send of the partially
/// transmitted chunk); only kComplete reaches kDone.
inline ClientState client_transition(ClientState s, ClientEvent e) noexcept {
  constexpr auto X = ClientState::kCount;  // invalid
  using S = ClientState;
  // Rows: state. Columns: kSelected, kTrained, kChunkAcked, kDisconnect,
  // kReconnect, kComplete.
  static constexpr ClientState kTable[6][6] = {
      /* kIdle      */ {S::kTraining, X, X, X, X, X},
      /* kTraining  */ {X, S::kUploading, X, X, X, X},
      /* kUploading */ {X, X, S::kUploading, S::kOffline, X, S::kDone},
      /* kOffline   */ {X, X, X, X, S::kResuming, X},
      /* kResuming  */ {X, X, S::kUploading, S::kOffline, X, S::kDone},
      /* kDone      */ {X, X, X, X, X, X},
  };
  if (s >= S::kCount || e >= ClientEvent::kCount) return X;
  return kTable[static_cast<std::size_t>(s)][static_cast<std::size_t>(e)];
}

// ---------------------------------------------------------------------------
// LifecyclePlan: the deterministic session-behavior schedule.
// ---------------------------------------------------------------------------

/// Seeded, stateless schedule of client-session behavior: mid-upload
/// disconnects, offline durations, partial-chunk fractions and
/// connectivity/charging gate delays. Like `sim::FaultPlan`, the plan holds
/// no mutable state — every decision is a pure function of the plan seed
/// and group-local identifiers (group, upload sequence, session attempt),
/// each draw seeding a fresh `Rng` from a SplitMix-style hash. K-shard runs
/// therefore stay bitwise equal and checkpoint replay re-derives the
/// identical session schedule with nothing serialized.
class LifecyclePlan {
 public:
  struct Config {
    std::uint64_t seed = 1u;

    /// Per-session-attempt probability of a mid-upload disconnect, scaled
    /// by the client tier's `disconnect_scale` (clamped below 1 so every
    /// session terminates with probability 1). 0 disables disconnects.
    double disconnect_rate = 0.0;
    /// Resumable-upload chunk size in bytes: the gateway acks per chunk and
    /// a reconnecting client resumes from the last acked offset.
    std::size_t chunk_bytes = 25'000;
    /// Bound on each client's offline queue: a client already holding this
    /// many live upload sessions is skipped (deterministic re-draw) until
    /// one drains — parked updates can never exceed the cap.
    std::size_t offline_queue_cap = 4;

    // ---- offline duration: capped exponential backoff + jitter ----------
    double offline_base_secs = 0.5;
    double offline_cap_secs = 30.0;
    double offline_jitter = 0.25;

    // ---- connectivity / battery duty cycles -----------------------------
    /// Gate upload starts on the tier's connect/charge windows (hibernating
    /// IoT radios, battery-charging gates). Off by default.
    bool session_gates = false;
    double connect_period_secs = 60.0;
    double charge_period_secs = 240.0;

    bool enabled() const noexcept {
      return disconnect_rate > 0.0 || session_gates;
    }
  };

/// Field-table rows (src/systems/campaign_config.hpp).
#define LIFL_LIFECYCLE_FIELDS(X)                           \
  X(seed, nullptr, kAny, true)                             \
  X(disconnect_rate, "disconnect-rate=F", kUnitOpen, true) \
  X(chunk_bytes, nullptr, kPos, true)                      \
  X(offline_queue_cap, nullptr, kPos, true)                \
  X(offline_base_secs, nullptr, kNonNeg, true)             \
  X(offline_cap_secs, nullptr, kNonNeg, true)              \
  X(offline_jitter, nullptr, kNonNeg, true)                \
  X(session_gates, nullptr, kAny, true)                    \
  X(connect_period_secs, nullptr, kPos, true)              \
  X(charge_period_secs, nullptr, kPos, true)

  LifecyclePlan() = default;
  explicit LifecyclePlan(Config cfg) : cfg_(cfg) {}

  const Config& config() const noexcept { return cfg_; }
  bool enabled() const noexcept { return cfg_.enabled(); }

  /// Which chunk of session attempt `attempt` dies mid-transmission:
  /// 0 = the attempt completes, else k in [1, chunks_left] — the k-th chunk
  /// this attempt sends is cut short and never acked. `rate_scale` is the
  /// client tier's disconnect multiplier.
  std::uint32_t disconnect_chunk(std::uint64_t group, std::uint64_t seq,
                                 std::uint64_t attempt,
                                 std::uint64_t chunks_left,
                                 double rate_scale) const noexcept {
    if (cfg_.disconnect_rate <= 0.0 || chunks_left == 0) return 0;
    const double rate =
        std::min(0.95, cfg_.disconnect_rate * std::max(0.0, rate_scale));
    sim::Rng r(key(0xd15cull, group, seq, attempt));
    if (r.uniform() >= rate) return 0;
    return static_cast<std::uint32_t>(1 + r.uniform_index(chunks_left));
  }

  /// Fraction of the dying chunk that was on the wire before the session
  /// dropped, in [0, 1). The client re-sends the whole chunk on resume, so
  /// this fraction is billed twice — partial-chunk re-send, never a
  /// double-counted sample.
  double partial_fraction(std::uint64_t group, std::uint64_t seq,
                          std::uint64_t attempt) const noexcept {
    sim::Rng r(key(0xf2acull, group, seq, attempt));
    return r.uniform();
  }

  /// Offline duration before the reconnect of session attempt `attempt`:
  /// min(base * 2^attempt, cap) * (1 + jitter * u) — capped deterministic
  /// backoff with per-session jitter, so reconnect storms de-synchronize.
  double offline_secs(std::uint64_t group, std::uint64_t seq,
                      std::uint64_t attempt) const noexcept {
    const double exp =
        cfg_.offline_base_secs *
        static_cast<double>(1ull << std::min<std::uint64_t>(attempt, 32));
    double d = std::min(exp, cfg_.offline_cap_secs);
    if (cfg_.offline_jitter > 0.0) {
      sim::Rng r(key(0x0ffull, group, seq, attempt));
      d *= 1.0 + cfg_.offline_jitter * r.uniform();
    }
    return d;
  }

  /// Seconds from `now` until client `client`'s next window where it is
  /// both connected and (for battery-gated tiers) charging — 0 if both
  /// gates are open now. Each client gets a deterministic hash-derived
  /// phase per cycle, so the fleet's windows interleave instead of
  /// thundering. Pure in (seed, group, client, tier, now): shard-invariant
  /// and replay-safe.
  double gate_delay(std::uint64_t group, std::uint64_t client, DeviceTier tier,
                    double now) const noexcept {
    if (!cfg_.session_gates) return 0.0;
    const TierTraits& tt = tier_traits(tier);
    double t = now;
    // Iterate until a time satisfies both windows; the windows overlap
    // within a few cycles for any open fractions > 0, but bound the walk.
    for (int i = 0; i < 16; ++i) {
      const double cw = window_wait(key(0xc0ddull, group, client, 0), t,
                                    cfg_.connect_period_secs, tt.online_frac);
      if (cw > 0.0) {
        t += cw;
        continue;
      }
      const double bw = window_wait(key(0xba77ull, group, client, 0), t,
                                    cfg_.charge_period_secs, tt.charge_frac);
      if (bw > 0.0) {
        t += bw;
        continue;
      }
      break;
    }
    return t - now;
  }

 private:
  /// Wait until the periodic window (phase-shifted per client, open for
  /// `frac` of each `period`) is next open at or after time `t`.
  static double window_wait(std::uint64_t phase_key, double t, double period,
                            double frac) noexcept {
    if (frac >= 1.0 || period <= 0.0) return 0.0;
    sim::Rng r(phase_key);
    const double phase = r.uniform() * period;
    const double pos = std::fmod(t + phase, period);
    const double open = frac * period;
    return pos < open ? 0.0 : period - pos;
  }

  /// SplitMix64-style key mix: seed + tagged identifiers -> Rng seed.
  std::uint64_t key(std::uint64_t tag, std::uint64_t a, std::uint64_t b,
                    std::uint64_t c) const noexcept {
    std::uint64_t x = cfg_.seed;
    for (std::uint64_t v : {tag, a, b, c}) {
      x ^= v + 0x9E3779B97F4A7C15ull + (x << 6) + (x >> 2);
      x *= 0xBF58476D1CE4E5B9ull;
      x ^= x >> 29;
    }
    return x;
  }

  Config cfg_;
};

}  // namespace lifl::wl
