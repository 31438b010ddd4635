#pragma once

#include <cstddef>
#include <cstdlib>
#include <new>
#include <utility>
#include <vector>

#include "src/sim/random.hpp"
#include "src/sim/snapshot.hpp"

namespace lifl::ml {

/// `Tensor` storage: blocks come from `calloc`, and an element constructed
/// without arguments is default-initialised (left as the block holds it,
/// i.e. zero). So a fresh `Tensor(n)` reads as zero though its creator
/// stores nothing: a large block is fresh pages the kernel zeroes on first
/// touch, and the thread that first writes a page (a sweep's chunk writer)
/// takes its fault. `Tensor` never resizes its storage, so every element
/// it default-constructs sits in a block `calloc` just zeroed.
template <class T>
struct ZeroedAllocator {
  using value_type = T;

  ZeroedAllocator() noexcept = default;
  template <class U>
  ZeroedAllocator(const ZeroedAllocator<U>&) noexcept {}

  T* allocate(std::size_t n) {
    if (void* p = std::calloc(n, sizeof(T))) return static_cast<T*>(p);
    throw std::bad_alloc();
  }
  void deallocate(T* p, std::size_t) noexcept { std::free(p); }

  template <class U>
  void construct(U* p) noexcept {
    ::new (static_cast<void*>(p)) U;
  }
  template <class U, class... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }

  friend bool operator==(ZeroedAllocator, ZeroedAllocator) noexcept {
    return true;
  }
  friend bool operator!=(ZeroedAllocator, ZeroedAllocator) noexcept {
    return false;
  }
};

/// Dense float32 vector — the flat parameter/update representation that
/// FedAvg aggregates.
///
/// Model updates in FL are (weighted) linear combinations of parameter
/// vectors, so a flat tensor plus BLAS-1 operations is the entire algebra
/// the aggregation plane needs. Kept deliberately simple and value-semantic.
class Tensor {
 public:
  Tensor() = default;
  /// n zeros (+0.0f), pages untouched (see `ZeroedAllocator`).
  explicit Tensor(std::size_t n) : data_(n) {}
  /// n copies of `value`; stores only when its bits are nonzero, so -0.0f
  /// keeps its sign bit.
  explicit Tensor(std::size_t n, float value);

  /// Gaussian-initialized tensor (e.g. He/Xavier-style scaled by caller),
  /// filled by `fill_normal`: bitwise the floats and final `rng` state of
  /// `n` sequential `rng.normal(0.0, stddev)` draws, with the Box-Muller
  /// transforms of a large tensor split across the sweep pool.
  static Tensor randn(sim::Rng& rng, std::size_t n, float stddev);

  std::size_t size() const noexcept { return data_.size(); }
  bool empty() const noexcept { return data_.empty(); }
  float* data() noexcept { return data_.data(); }
  const float* data() const noexcept { return data_.data(); }
  float& operator[](std::size_t i) noexcept { return data_[i]; }
  float operator[](std::size_t i) const noexcept { return data_[i]; }

  /// Bytes of the parameter payload (what travels as a model update).
  std::size_t bytes() const noexcept { return data_.size() * sizeof(float); }

  /// this += a * x. Sizes must match.
  void axpy(float a, const Tensor& x);

  /// this = a * this + b * x in ONE read-modify-write pass — the fused form
  /// of the scale-then-axpy pair. Sizes must match.
  void axpby(float a, float b, const Tensor& x);

  /// this *= a.
  void scale(float a) noexcept;

  /// Set every element to `value`.
  void fill(float value) noexcept;

  /// Dot product. Sizes must match.
  double dot(const Tensor& x) const;

  /// Euclidean norm.
  double l2norm() const;

  /// Max |a_i - b_i| between two tensors. Sizes must match.
  static double max_abs_diff(const Tensor& a, const Tensor& b);

  bool operator==(const Tensor& o) const noexcept { return data_ == o.data_; }

 private:
  std::vector<float, ZeroedAllocator<float>> data_;
};

/// Fill `out[0, n)` with `static_cast<float>(rng.normal(0.0, stddev))`,
/// bitwise as the sequential loop would, leaving `rng` in the same state
/// (a spare cached at entry is used first; one is left cached when the
/// pairs drawn here end on an odd element).
///
/// Below `kSweepMinSplit` elements that loop runs as is. Above it,
/// `parallel_sweep` splits the fill into `kSweepChunk` chunks of whole
/// pairs, and the stream walk is chained through them: the thread that
/// takes chunk c waits until the generator state at c's start is
/// published, walks c's uniform pairs on a copy without the transform,
/// publishes the state at c + 1's start, and only then runs c's transforms
/// from the state it started with. So the walk moves from chunk to chunk
/// while the transforms run in parallel, and every chunk regenerates
/// exactly the draws the sequential loop makes there. When the pool is
/// busy the chunks run in order on the caller.
void fill_normal(sim::Rng& rng, float* out, std::size_t n, double stddev);

/// Bit-exact tensor snapshot: the raw float payload, length-prefixed. Every
/// IEEE bit pattern (NaNs, signed zeros, denormals) round-trips verbatim —
/// see tests/snapshot_test.cpp.
inline void save(sim::Serializer& s, const Tensor& t) {
  s.u64(t.size());
  s.raw(t.data(), t.bytes());
}

inline void load(sim::Deserializer& d, Tensor& t) {
  const std::uint64_t n = d.u64();
  t = Tensor(static_cast<std::size_t>(n));
  d.raw(t.data(), t.bytes());
}

}  // namespace lifl::ml
