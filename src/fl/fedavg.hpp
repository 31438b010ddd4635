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
/// two-update sweep moves 8). Parking costs no copy: a slot holds a
/// `shared_ptr` to the shm-resident update, so the buffer is not recycled
/// while parked. The price is held memory: between sweeps up to
/// `kFoldSlots - 1` = 7 parked handles stay alive.
///
/// **The closing fold divides in the same sweep.** Finalizing folds the
/// parked ring and multiplies each chunk by 1 / Σ c_i right after folding
/// it, so an aggregate pays no second sweep (and no second pool wake) for
/// its divide. A caller that knows an add meets its goal calls
/// `mark_closing()` first: that add leaves even a full ring parked for the
/// finalize to fold. Up to `kFoldSlots` = 8 parked handles are then held
/// from the closing add to its finalize, which the caller runs at once.
/// Only a finalize that finds the ring empty sweeps a separate divide.
///
/// Rounding: a sweep sums the k weighted terms in slot (arrival) order
/// and then adds that sum to the accumulator, so the float grouping
/// depends on where the ring boundaries fall. The fold order, and hence
/// the grouping, is a function of arrival order alone: fixed-order folds
/// are bitwise deterministic.
///
/// Threads: the ring sweeps (and a lone finalize divide) run through
/// `ml::parallel_sweep`, so a tensor of at least `ml::kSweepMinSplit`
/// floats is swept in 16K-float chunks by the calling thread and the
/// parked sweep-pool workers. The kernels are element-wise, so the result
/// is bitwise the single-call result; smaller tensors, and callers that
/// find the pool busy, sweep inline. An accumulator is used by one
/// thread at a time.
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
/// **One buffer per aggregate.** The running sum is the only tensor the
/// accumulator owns. Finalizing (`result()` or `take_update()`) folds the
/// ring and divides that buffer in place — the same single multiply per
/// element as dividing into a second buffer, so bitwise the same average —
/// and seals the accumulator: `add()` throws until `reset()`.
/// `take_update()` moves the buffer into the outgoing update and keeps no
/// reference, so it returns to `ml::TensorPool::global()` as soon as the
/// consumer drops it (a parent's ring sweep, or the round's global
/// model), not when this accumulator is reset. Steady-state rounds
/// perform zero tensor heap allocations.
class FedAvgAccumulator {
 public:
  /// Ring size: updates folded per accumulator sweep.
  static constexpr std::size_t kFoldSlots = ml::kernels::kMaxFan;

  /// Fold one update into the running aggregate. `scale` discounts the
  /// update's effective weight (1 = plain FedAvg; async mode passes the
  /// FedAsync staleness factor 1/(1+staleness)). Throws
  /// `std::logic_error` once the accumulator is sealed by a finalize.
  void add(const ModelUpdate& update, double scale = 1.0);

  /// Fold a data-plane update: `update`'s weights, with `tensor` (null for
  /// a logical-only payload) as its parameters. Same rules as above.
  void add(const UpdateDesc& update,
           const std::shared_ptr<const ml::Tensor>& tensor,
           double scale = 1.0);

  /// Fold a raw (tensor, weight) pair. Same sealing rule.
  void add(const std::shared_ptr<const ml::Tensor>& params,
           std::uint64_t sample_count);

  /// The next add meets the caller's goal and finalize follows it: that
  /// add (and any later one) leaves a full ring parked, so the finalize
  /// folds it and divides in one sweep. Results are bitwise the same
  /// either way. `reset()` and finalizing clear the mark.
  void mark_closing() noexcept { closing_ = true; }

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
  /// updates were added, or once `take_update()` handed it over. The first
  /// call finalizes (fold the parked ring and divide in place, one sweep)
  /// and seals the accumulator; later calls share the same buffer.
  std::shared_ptr<const ml::Tensor> result();

  /// Finalize and hand this aggregate over as the intermediate/final
  /// ModelUpdate: its tensor *is* the sum buffer, moved out, so the
  /// accumulator holds no reference to it afterwards. The counts stay
  /// readable; the accumulator stays sealed until `reset()`.
  ModelUpdate take_update(std::uint32_t model_version, ParticipantId producer,
                          std::size_t logical_bytes);

  /// Clear all state (aggregators are stateless across rounds) and unseal.
  /// Releases the pooled buffers back to the pool.
  void reset();

  /// Reference batch implementation: weighted mean of (tensor, weight)
  /// pairs. Used by tests to prove eager == lazy and hierarchical == flat.
  static ml::Tensor batch_average(
      const std::vector<std::pair<const ml::Tensor*, std::uint64_t>>& updates);

 private:
  void add_tensor_weighted(const std::shared_ptr<const ml::Tensor>& params,
                           float weight);
  /// Fold the parked (non-empty) ring into the sum in one sweep; with
  /// `divide`, also divide each chunk by the weight total once folded.
  void fold_ring(bool divide);
  /// Throw if sealed (the sum already holds the average).
  void check_open() const;
  /// Fold the ring, divide the sum in place and seal (idempotent).
  void finalize();

  /// Pooled Σ c_i·w_i; after finalize, the average Σ c_i·w_i / Σ c_i.
  std::shared_ptr<ml::Tensor> sum_;
  /// Updates parked zero-copy, in arrival order, until the ring fills.
  std::array<std::shared_ptr<const ml::Tensor>, kFoldSlots> ring_;
  std::array<float, kFoldSlots> ring_weights_{};
  std::size_t parked_ = 0;  ///< occupied prefix of `ring_`
  bool sealed_ = false;  ///< finalized: `sum_` is the average
  bool closing_ = false;  ///< a full ring waits for finalize to fold it
  std::uint64_t total_samples_ = 0;
  double total_weight_ = 0.0;  ///< Σ effective weights — the divisor
  std::uint32_t updates_folded_ = 0;
};

}  // namespace lifl::fl
