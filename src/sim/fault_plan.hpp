#pragma once

#include <algorithm>
#include <cstdint>

#include "src/sim/random.hpp"

namespace lifl::sim {

/// Seeded, deterministic schedule of injectable faults.
///
/// A FaultPlan never holds mutable state: every decision — does this leaf
/// activation crash, and after how many folds? is this upload attempt
/// dropped or corrupted? is the node in an outage window? — is a pure
/// function of the plan seed and the *group-local* identifiers of the
/// decision point (group, round, activation sequence, upload sequence,
/// attempt number). Each draw seeds a fresh `Rng` from a SplitMix-style
/// hash of those identifiers, so
///  - K-shard runs stay bitwise equal under a fixed plan (every input to a
///    draw is group-local and shard-count invariant), and
///  - checkpoint replay re-derives the identical fault schedule with
///    nothing to serialize (the counters that key the draws are themselves
///    rebuilt by the deterministic replay).
///
/// Rates are probabilities per decision point, not global fractions: a
/// `leaf_crash_rate` of 0.1 crashes ~10% of leaf activations, each at a
/// uniformly drawn fold index inside its batch ("mid-fold").
class FaultPlan {
 public:
  struct Config {
    std::uint64_t seed = 1u;

    // ---- aggregator runtime crashes (mid-fold) -------------------------
    /// Probability a leaf activation crashes, after a uniform k-th fold of
    /// its batch (k in [1, batch] — k == batch is the crash landing between
    /// the buffer filling and the Send).
    double leaf_crash_rate = 0.0;
    /// Probability a middle aggregator crashes after a uniform k-th folded
    /// leaf partial (k in [1, fanin]).
    double middle_crash_rate = 0.0;
    /// Probability the round's top aggregator crashes, after a uniform
    /// fraction of its folded-update goal (synchronous planned mode).
    double top_crash_rate = 0.0;

    // ---- client upload faults ------------------------------------------
    /// Probability an upload attempt is lost on the wire (retried with
    /// backoff).
    double upload_drop_rate = 0.0;
    /// Probability an upload attempt arrives bit-flipped: the corrupted
    /// copy is delivered (and discarded by the consumer's integrity check),
    /// and the client retransmits with backoff.
    double upload_corrupt_rate = 0.0;

    // ---- node outages ---------------------------------------------------
    /// Probability a group suffers one gateway outage window per round.
    double outage_rate = 0.0;
    /// Outage duration in simulated seconds.
    double outage_secs = 5.0;
    /// Outage start, uniform in [0, outage_start_max_secs) after the round
    /// epoch.
    double outage_start_max_secs = 30.0;

    // ---- gateway overflow -----------------------------------------------
    /// Admission limit on the gateway ingest queue: an upload arriving
    /// while this many requests are already queued is rejected (and
    /// retried with backoff). 0 = unbounded.
    std::size_t gateway_overflow_depth = 0;

    // ---- retry/backoff (client side) ------------------------------------
    double retry_base_secs = 0.5;   ///< first retry delay
    double retry_cap_secs = 16.0;   ///< exponential backoff cap
    double retry_jitter = 0.25;     ///< uniform jitter fraction on top

    bool enabled() const noexcept {
      return leaf_crash_rate > 0.0 || middle_crash_rate > 0.0 ||
             top_crash_rate > 0.0 || upload_drop_rate > 0.0 ||
             upload_corrupt_rate > 0.0 || outage_rate > 0.0 ||
             gateway_overflow_depth > 0;
    }
  };

/// Field-table rows (src/systems/campaign_config.hpp).
#define LIFL_FAULT_PLAN_FIELDS(X)                      \
  X(seed, "fault-plan=SEED", kAny, true)               \
  X(leaf_crash_rate, "leaf-crash-rate=F", kUnit, true) \
  X(middle_crash_rate, nullptr, kUnit, true)           \
  X(top_crash_rate, nullptr, kUnit, true)              \
  X(upload_drop_rate, nullptr, kUnitOpen, true)        \
  X(upload_corrupt_rate, nullptr, kUnitOpen, true)     \
  X(outage_rate, nullptr, kUnit, true)                 \
  X(outage_secs, nullptr, kAny, true)                  \
  X(outage_start_max_secs, nullptr, kAny, true)        \
  X(gateway_overflow_depth, nullptr, kAny, true)       \
  X(retry_base_secs, nullptr, kAny, true)              \
  X(retry_cap_secs, nullptr, kAny, true)               \
  X(retry_jitter, nullptr, kAny, true)

  FaultPlan() = default;
  explicit FaultPlan(Config cfg) : cfg_(cfg) {}

  const Config& config() const noexcept { return cfg_; }
  bool enabled() const noexcept { return cfg_.enabled(); }

  /// Crash point of a leaf activation: 0 = no crash, else the fold index
  /// k in [1, batch] after which the runtime dies. `seq` is the group's
  /// round-local activation counter (rebuilt identically on replay).
  std::uint32_t leaf_crash_point(std::uint64_t group, std::uint64_t round,
                                 std::uint64_t seq,
                                 std::uint64_t batch) const noexcept {
    if (cfg_.leaf_crash_rate <= 0.0 || batch == 0) return 0;
    Rng r(key(0x1eafull, group, round, seq));
    if (r.uniform() >= cfg_.leaf_crash_rate) return 0;
    return static_cast<std::uint32_t>(1 + r.uniform_index(batch));
  }

  /// Crash point of a middle aggregator arming: 0 = no crash, else the
  /// number of folded leaf partials after which it dies.
  std::uint32_t middle_crash_point(std::uint64_t group, std::uint64_t round,
                                   std::uint64_t seq,
                                   std::uint64_t fanin) const noexcept {
    if (cfg_.middle_crash_rate <= 0.0 || fanin == 0) return 0;
    Rng r(key(0x31dd1eull, group, round, seq));
    if (r.uniform() >= cfg_.middle_crash_rate) return 0;
    return static_cast<std::uint32_t>(1 + r.uniform_index(fanin));
  }

  /// Crash point of the round's top aggregator: 0 = no crash, else the
  /// number of folded messages after which it dies (goal counts folded
  /// client updates; the draw is over received messages so it lands
  /// mid-round for any tree shape).
  std::uint32_t top_crash_point(std::uint64_t round,
                                std::uint64_t messages) const noexcept {
    if (cfg_.top_crash_rate <= 0.0 || messages == 0) return 0;
    Rng r(key(0x70ffull, 0, round, 0));
    if (r.uniform() >= cfg_.top_crash_rate) return 0;
    return static_cast<std::uint32_t>(1 + r.uniform_index(messages));
  }

  /// Is upload attempt `attempt` of group-local client sequence `seq`
  /// dropped on the wire?
  bool upload_dropped(std::uint64_t group, std::uint64_t seq,
                      std::uint64_t attempt) const noexcept {
    if (cfg_.upload_drop_rate <= 0.0) return false;
    Rng r(key(0xd209ull, group, seq, attempt));
    return r.uniform() < cfg_.upload_drop_rate;
  }

  /// Does upload attempt `attempt` of sequence `seq` arrive corrupted?
  bool upload_corrupted(std::uint64_t group, std::uint64_t seq,
                        std::uint64_t attempt) const noexcept {
    if (cfg_.upload_corrupt_rate <= 0.0) return false;
    Rng r(key(0xc024ull, group, seq, attempt));
    return r.uniform() < cfg_.upload_corrupt_rate;
  }

  /// The group's outage window for a round, as offsets from the round
  /// epoch; returns false when the round has no outage. `t` in
  /// [epoch+begin, epoch+end) rejects uploads.
  bool outage_window(std::uint64_t group, std::uint64_t round, double* begin,
                     double* end) const noexcept {
    if (cfg_.outage_rate <= 0.0 || cfg_.outage_secs <= 0.0) return false;
    Rng r(key(0x07a6eull, group, round, 0));
    if (r.uniform() >= cfg_.outage_rate) return false;
    *begin = r.uniform() * cfg_.outage_start_max_secs;
    *end = *begin + cfg_.outage_secs;
    return true;
  }

  /// Capped exponential backoff with deterministic per-client jitter:
  /// min(base * 2^attempt, cap) * (1 + jitter * u), u from the client's
  /// own hash stream — retries de-synchronize instead of thundering.
  double backoff_secs(std::uint64_t group, std::uint64_t seq,
                      std::uint64_t attempt) const noexcept {
    const double exp =
        cfg_.retry_base_secs *
        static_cast<double>(1ull << std::min<std::uint64_t>(attempt, 32));
    double d = std::min(exp, cfg_.retry_cap_secs);
    if (cfg_.retry_jitter > 0.0) {
      Rng r(key(0xbac0ffull, group, seq, attempt));
      d *= 1.0 + cfg_.retry_jitter * r.uniform();
    }
    return d;
  }

 private:
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

}  // namespace lifl::sim
