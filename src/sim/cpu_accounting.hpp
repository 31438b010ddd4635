#pragma once

#include <array>
#include <cstdint>
#include <string_view>

#include "src/sim/time.hpp"

namespace lifl::sim {

/// Who is burning CPU. Mirrors the component breakdown the paper reports
/// (e.g. the +SC / +MB shares of Fig. 7 and the per-round CPU of Fig. 10).
enum class CostTag : std::uint8_t {
  kAggregator,        ///< aggregation compute (FedAvg arithmetic)
  kGateway,           ///< per-node gateway payload processing
  kKernelNet,         ///< kernel TCP/IP stack work (copies, protocol)
  kSerialization,     ///< (de)serialization / tensor conversion
  kSidecarContainer,  ///< container-based sidecar interception (SL baseline)
  kSidecarEbpf,       ///< eBPF SKMSG sidecar (LIFL), event-driven
  kBroker,            ///< message broker processing (SL baseline)
  kStartup,           ///< function cold-start / runtime initialization
  kTraining,          ///< client-side local training (not billed to service)
  kEvaluation,        ///< global-model evaluation task
  kControlPlane,      ///< placement / autoscaling / coordinator work
  kCheckpoint,        ///< async model checkpointing
  kIdleReservation,   ///< always-on reservation of serverful components
  kCount
};

/// Human-readable tag name.
std::string_view to_string(CostTag tag) noexcept;

/// Per-node CPU ledger, in cycles, broken down by `CostTag`.
///
/// The ledger records *cycles*; convert with `seconds(hz)` for CPU-time
/// figures. It deliberately has no notion of wall time: contention and
/// queueing are modeled by `Resource`, while this class answers "how much
/// work was done and by whom" (cost-to-accuracy, Fig. 9(b)/(d)).
class CpuAccountant {
 public:
  /// Bill `cycles` of work to `tag`.
  void add(CostTag tag, double cycles) noexcept {
    cycles_[static_cast<std::size_t>(tag)] += cycles;
    total_ += cycles;
  }

  /// Cycles billed to one tag.
  double cycles(CostTag tag) const noexcept {
    return cycles_[static_cast<std::size_t>(tag)];
  }

  /// Cycles billed per tag (index = CostTag).
  const std::array<double, static_cast<std::size_t>(CostTag::kCount)>&
  tag_cycles() const noexcept {
    return cycles_;
  }

  /// Total cycles billed.
  double total_cycles() const noexcept { return total_; }

  /// Total CPU-seconds at the given clock rate.
  double total_seconds(double hz) const noexcept { return total_ / hz; }

  /// CPU-seconds for one tag at the given clock rate.
  double seconds(CostTag tag, double hz) const noexcept {
    return cycles(tag) / hz;
  }

  /// Merge another ledger into this one (cluster-wide totals).
  void merge(const CpuAccountant& other) noexcept {
    for (std::size_t i = 0; i < cycles_.size(); ++i) {
      cycles_[i] += other.cycles_[i];
    }
    total_ += other.total_;
  }

  /// Reset all counters to zero.
  void reset() noexcept {
    cycles_.fill(0.0);
    total_ = 0.0;
  }

  /// Restore a checkpointed ledger bit-exactly. The running total is a
  /// floating-point sum whose value depends on the order of `add` calls, so
  /// it is restored verbatim rather than recomputed from the per-tag array.
  void restore(
      const std::array<double, static_cast<std::size_t>(CostTag::kCount)>&
          cycles,
      double total) noexcept {
    cycles_ = cycles;
    total_ = total;
  }

 private:
  std::array<double, static_cast<std::size_t>(CostTag::kCount)> cycles_{};
  double total_ = 0.0;
};

}  // namespace lifl::sim
