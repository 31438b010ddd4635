#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>

#include "src/ml/tensor.hpp"

namespace lifl::ml {

/// Usage statistics of a tensor pool.
struct TensorPoolStats {
  std::uint64_t acquires = 0;   ///< buffers requested
  std::uint64_t pool_hits = 0;  ///< requests served from the free list
  std::uint64_t misses = 0;     ///< requests that had to heap-allocate
  std::uint64_t adopted = 0;    ///< externally built tensors taken over
  std::uint64_t recycles = 0;   ///< buffers returned to the free list
  std::uint64_t dropped = 0;    ///< returns freed because the pool was full
  std::size_t bytes_pooled = 0;       ///< bytes currently parked, free
  std::size_t peak_bytes_pooled = 0;  ///< high-water mark of bytes_pooled
  std::size_t buffers_pooled = 0;     ///< buffers currently parked, free
  /// Bytes handed out by `acquire`/`adopt` and not yet returned: what the
  /// pool's clients hold right now. Exact, unlike process RSS.
  std::size_t live_bytes = 0;
  std::size_t peak_live_bytes = 0;  ///< high-water mark of live_bytes
};

/// Recycling allocator for `ml::Tensor` buffers — the physical counterpart
/// of the shared-memory store's allocate/recycle/destroy lifecycle (§4.1).
///
/// Model aggregation is a steady-state loop over a handful of equal-sized
/// parameter buffers: every aggregate needs an accumulator (divided in
/// place, it is also the output), every local-training step a gradient.
/// Allocating them fresh makes the FedAvg hot path allocator-bound (and,
/// worse, page-fault-bound: a new 100 MB buffer is faulted in on first
/// touch). The pool keeps fully
/// released tensors on an exact-size free list, so steady-state rounds
/// perform **zero tensor heap allocations** — pool hits are counted in
/// `TensorPoolStats` and asserted by `tests/tensor_pool_test.cpp`.
///
/// Handles are `shared_ptr<Tensor>` whose deleter parks the whole tensor
/// (object + storage) back into the pool when the last reference drops.
/// This composes with the zero-copy object store: a pooled tensor `put`
/// into `shm::ObjectStore` recycles automatically when its final shm
/// reference is released, wherever in the pipeline that happens. The pool is
/// internally synchronized; handles may be dropped on any thread.
class TensorPool {
 public:
  /// Default free-list capacity: enough for the working set of a 25M-param
  /// round (the accumulator, which the average is divided into in place,
  /// plus the in-flight updates) with room to spare, small enough to not
  /// matter on laptops.
  static constexpr std::size_t kDefaultCapacityBytes = 1ull << 30;

  explicit TensorPool(std::size_t capacity_bytes = kDefaultCapacityBytes);

  /// Acquire an n-element tensor with **unspecified contents** (recycled
  /// buffers keep their old values; first write must be a pure store, e.g.
  /// `kernels::scale_into`).
  std::shared_ptr<Tensor> acquire(std::size_t n);

  /// Acquire an n-element tensor filled with zeros.
  std::shared_ptr<Tensor> acquire_zeroed(std::size_t n);

  /// Take ownership of an externally built tensor; its buffer recycles
  /// through this pool when the last reference drops.
  std::shared_ptr<Tensor> adopt(Tensor&& t);

  TensorPoolStats stats() const;
  /// Zero the counters. The gauges (`bytes_pooled`, `buffers_pooled`,
  /// `live_bytes`) keep their values and each peak restarts from its gauge.
  void reset_stats();

  /// Free every parked buffer (keeps stats, minus the parked bytes).
  void trim();

  std::size_t capacity_bytes() const noexcept;

  /// The process-wide pool the FedAvg fold path draws from.
  static TensorPool& global();

 private:
  struct Core;
  struct Recycler;

  /// Give `t`, already counted live, the recycling deleter.
  std::shared_ptr<Tensor> wrap(std::unique_ptr<Tensor> t);

  /// Shared with every handle's deleter, so handles may outlive the pool.
  std::shared_ptr<Core> core_;
};

}  // namespace lifl::ml
