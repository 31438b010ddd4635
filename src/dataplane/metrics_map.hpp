#pragma once

#include <array>
#include <cstddef>

namespace lifl::dp {

/// In-kernel metrics table written by the eBPF sidecar (§4.3).
///
/// Mirrors a BPF array map: the sidecar program updates its fixed slots at
/// event time (send() invocations, gateway arrivals, aggregator
/// executions) with no userspace involvement; the per-node LIFL agent
/// periodically drains it and feeds the metrics server. Every write is a
/// flat array index — no string hashing on the hot path.
class MetricsMap {
 public:
  /// The sidecar's slots.
  enum Id : std::size_t {
    kArrivals = 0,
    kAggExecSum,
    kAggExecCount,
    kSends,
    kSendBytes,
    kIdCount  // number of slots (not a metric)
  };
  using Slots = std::array<double, kIdCount>;

  /// Add `delta` to a slot.
  void add(Id id, double delta = 1.0) { slots_[id] += delta; }

  /// Read a slot.
  double get(Id id) const { return slots_[id]; }

  /// Read a slot and reset it to zero (the agent's poll-and-drain).
  double drain(Id id) {
    const double v = slots_[id];
    slots_[id] = 0.0;
    return v;
  }

  /// Every slot, in `Id` order (checkpoint encoding).
  const Slots& slots() const noexcept { return slots_; }

  /// Replace every slot with a checkpointed image.
  void restore(const Slots& slots) { slots_ = slots; }

 private:
  Slots slots_{};
};

}  // namespace lifl::dp
