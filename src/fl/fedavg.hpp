#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/fl/model_update.hpp"
#include "src/ml/kernels.hpp"
#include "src/ml/tensor.hpp"
#include "src/ml/tensor_pool.hpp"

namespace lifl::fl {

/// Streaming FedAvg (Eq. 1) in **sum form**: maintains the weighted *sum*
///     S_k = Σ c_i · w_i
/// of the updates added so far and divides once at finalize,
///     avg = S / Σ c_i.
///
/// The seed kept the running *mean* instead, which costs a full `scale`
/// sweep plus a full `axpy` sweep per fold (2× the memory traffic of the
/// fused form) and a per-fold rescaling rounding step. Sum form folds
/// with fused passes, and the accumulator batches them: each arriving
/// tensor is parked in a ring of `kFoldSlots` (tensor, weight) slots, and
/// a full ring folds in ONE read-modify-write sweep of the accumulator
/// (`kernels::axpyn`: 5 bytes per parameter per fold at k = 8, where a
/// two-update sweep moves 8). `result()` flushes a partial ring. Parking
/// costs no copy: a slot holds a `shared_ptr` to the shm-resident update,
/// so the buffer is not recycled while parked. The price is held memory:
/// between sweeps up to `kFoldSlots - 1` = 7 parked handles stay alive.
///
/// Rounding: a sweep sums the k weighted terms in slot (arrival) order
/// and then adds that sum to the accumulator, so the float grouping
/// depends on where the ring boundaries fall. The fold order, and hence
/// the grouping, is a function of arrival order alone: fixed-order folds
/// are bitwise deterministic.
///
/// Eager == lazy still holds (addition commutes), and mixed logical/real
/// mode is now *exact*: a logical-only update (no tensor) contributes its
/// weight to the divisor and nothing to the sum — exactly the "carries a
/// zero tensor" definition, with no rescaling of already-folded state.
///
/// **Staleness weighting** (FedAsync-style async aggregation): `add` takes
/// an optional `scale` multiplied into the update's effective weight; the
/// scaled coefficient rides the same `axpyn` sweep, so a
/// staleness-discounted fold costs exactly the same memory traffic as an
/// unweighted one. The divisor becomes the *effective* weight total
/// `total_weight()` (a double; integer sample counts are exact in it, so
/// the synchronous `scale == 1` path is bitwise identical to the historical
/// integer-divisor behaviour).
///
/// All buffers (the running sum, the finalized average) come from
/// `ml::TensorPool::global()`: steady-state rounds perform zero tensor heap
/// allocations.
class FedAvgAccumulator {
 public:
  /// Ring size: updates folded per accumulator sweep.
  static constexpr std::size_t kFoldSlots = ml::kernels::kMaxFan;

  /// Fold one update into the running aggregate. `scale` discounts the
  /// update's effective weight (1 = plain FedAvg; async mode passes the
  /// FedAsync staleness factor 1/(1+staleness)).
  void add(const ModelUpdate& update, double scale = 1.0);

  /// Fold a raw (tensor, weight) pair.
  void add(const std::shared_ptr<const ml::Tensor>& params,
           std::uint64_t sample_count);

  /// Number of updates folded in (counting folded sub-updates).
  std::uint32_t updates_folded() const noexcept { return updates_folded_; }

  /// Total sample weight aggregated so far (T of Eq. 1) — raw samples,
  /// undiscounted; kept for telemetry.
  std::uint64_t total_samples() const noexcept { return total_samples_; }

  /// Effective weight aggregated so far: Σ (weight_i · scale_i). This is
  /// the divisor of the average. Equals `total_samples()` exactly (and
  /// bitwise, integer sums being exact in double) when every fold used
  /// scale 1 and carried no explicit weight.
  double total_weight() const noexcept { return total_weight_; }

  /// The weighted average of everything added so far; null if only logical
  /// updates were added. Finalizes lazily (flush the parked update, one
  /// divide pass) and caches until the next add().
  std::shared_ptr<const ml::Tensor> result() const;

  /// Produce the intermediate/final ModelUpdate for this aggregate.
  ModelUpdate make_update(std::uint32_t model_version, ParticipantId producer,
                          std::size_t logical_bytes) const;

  /// Clear all state (aggregators are stateless across rounds). Releases
  /// the pooled buffers back to the pool.
  void reset();

  /// Reference batch implementation: weighted mean of (tensor, weight)
  /// pairs. Used by tests to prove eager == lazy and hierarchical == flat.
  static ml::Tensor batch_average(
      const std::vector<std::pair<const ml::Tensor*, std::uint64_t>>& updates);

 private:
  void add_tensor_weighted(const std::shared_ptr<const ml::Tensor>& params,
                           float weight);
  /// Fold the parked ring (if any) into the sum in one sweep.
  void flush_ring();
  /// Compute (and cache) the finalized average.
  void finalize() const;

  std::shared_ptr<ml::Tensor> sum_;  ///< pooled Σ c_i·w_i
  /// Updates parked zero-copy, in arrival order, until the ring fills.
  std::array<std::shared_ptr<const ml::Tensor>, kFoldSlots> ring_;
  std::array<float, kFoldSlots> ring_weights_{};
  std::size_t parked_ = 0;  ///< occupied prefix of `ring_`
  mutable std::shared_ptr<const ml::Tensor> finalized_;  ///< cached average
  std::uint64_t total_samples_ = 0;
  double total_weight_ = 0.0;  ///< Σ effective weights — the divisor
  std::uint32_t updates_folded_ = 0;
};

}  // namespace lifl::fl
