#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "src/ml/tensor.hpp"

namespace lifl::dp {

/// Reference-counted, generation-checked cells of real tensor payloads the
/// data plane holds outside the shm store: every real payload on the SF/SL
/// planes, and on the LIFL plane a payload on its way to a gateway (an
/// ingest flight or a resumable session) or handed to a runtime directly
/// (`AggregatorRuntime::inject`). A cell is found by index, so retaining,
/// reading and releasing it costs no lookup, and a put/release cycle
/// allocates nothing once the slab has grown to the live high-water mark.
///
/// The slab owns its tensors: destroying it drops every payload still
/// referenced (by descriptors parked in queues that will never run), so a
/// torn-down plane neither leaks them nor releases into freed memory.
class PayloadSlab {
 public:
  /// One reference on a cell: its index and the generation it was taken at.
  struct Ref {
    std::uint32_t slot = 0;
    std::uint16_t gen = 0;
  };

  /// Hold `tensor` (non-null) with one reference.
  Ref put(std::shared_ptr<const ml::Tensor> tensor) {
    std::uint32_t slot;
    if (!free_.empty()) {
      slot = free_.back();
      free_.pop_back();
    } else {
      slot = static_cast<std::uint32_t>(cells_.size());
      cells_.emplace_back();
    }
    Cell& c = cells_[slot];
    c.tensor = std::move(tensor);
    c.refs = 1;
    ++live_;
    return Ref{slot, c.gen};
  }

  /// Add one reference. Throws if `r` is stale.
  void retain(Ref r) { ++cell(r).refs; }

  /// Drop one reference; the last one frees the cell and its tensor.
  /// Throws if `r` is stale.
  void release(Ref r) {
    Cell& c = cell(r);
    if (--c.refs == 0) free_cell(r.slot);
  }

  /// The payload `r` names. Throws if `r` is stale.
  const std::shared_ptr<const ml::Tensor>& get(Ref r) { return cell(r).tensor; }

  /// Release `r`, handing its payload over: the tensor itself when `r` was
  /// the last reference, else a copy of it.
  std::shared_ptr<const ml::Tensor> take(Ref r) {
    Cell& c = cell(r);
    if (--c.refs != 0) return c.tensor;
    std::shared_ptr<const ml::Tensor> t = std::move(c.tensor);
    free_cell(r.slot);
    return t;
  }

  /// Payloads currently held.
  std::size_t size() const noexcept { return live_; }

 private:
  struct Cell {
    std::shared_ptr<const ml::Tensor> tensor;
    std::uint32_t refs = 0;  ///< 0 = free
    std::uint16_t gen = 0;   ///< bumped whenever the cell is freed
  };

  Cell& cell(Ref r) {
    if (r.slot >= cells_.size() || cells_[r.slot].refs == 0 ||
        cells_[r.slot].gen != r.gen) {
      throw std::logic_error("PayloadSlab: stale payload reference");
    }
    return cells_[r.slot];
  }

  void free_cell(std::uint32_t slot) {
    Cell& c = cells_[slot];
    c.tensor.reset();
    ++c.gen;
    free_.push_back(slot);
    --live_;
  }

  std::vector<Cell> cells_;
  std::vector<std::uint32_t> free_;
  std::size_t live_ = 0;
};

}  // namespace lifl::dp
