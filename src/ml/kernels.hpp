#pragma once

#include <cstddef>
#include <string>

namespace lifl::ml::kernels {

/// Dispatch level of the fused BLAS-1 aggregation kernels.
///
/// Every level implements the same operation table with identical semantics;
/// they differ only in the instruction set the compiler is allowed to use
/// and in how aggressively the loops are unrolled:
///
///   kScalar  — straight-line reference loops, one accumulator. This is the
///              semantics oracle the unit tests compare everything against.
///   kWide    — `__restrict` multi-accumulator loops the compiler can
///              auto-vectorize at the build's baseline ISA (SSE2 on
///              vanilla x86-64 builds).
///   kAvx2    — the kWide loop bodies compiled for AVX2+FMA via function
///              multi-versioning (256-bit lanes).
///   kAvx512  — the same, compiled for AVX-512F (512-bit lanes).
///
/// The level is selected **once** at startup: the highest level the CPU
/// supports, unless the `LIFL_KERNEL` environment variable names one of
/// {scalar, wide, avx2, avx512} for A/B benching. `select()` can re-pin the
/// level at runtime (used by tests and by `bench/micro_agg_kernels`).
enum class Level : int { kScalar = 0, kWide = 1, kAvx2 = 2, kAvx512 = 3 };

/// Widest fan-in of `Ops::axpyn` / `Ops::axpyn_into`.
inline constexpr std::size_t kMaxFan = 8;

/// The fused aggregation-kernel operation table.
///
/// These are the single-pass primitives the FedAvg hot path is built from.
/// The design rule: a fold of one model update must read the update once and
/// read-modify-write the accumulator once — never two sweeps (the seed's
/// `scale` + `axpy` pair), and never a hidden allocation.
struct Ops {
  /// p[i] = v.
  void (*fill)(float* p, float v, std::size_t n);
  /// p[i] *= a.
  void (*scale)(float* p, float a, std::size_t n);
  /// out[i] = a * x[i] — write-only "first fold" into a pooled buffer.
  void (*scale_into)(float* out, float a, const float* x, std::size_t n);
  /// acc[i] += a * x[i] — the fused weighted accumulate (one fold).
  void (*axpy)(float* acc, float a, const float* x, std::size_t n);
  /// acc[i] = a * acc[i] + b * x[i] — the seed's scale+axpy pair in ONE
  /// read-modify-write pass (streaming-mean form folds, server momentum).
  void (*axpby)(float* acc, float a, float b, const float* x, std::size_t n);
  /// acc[i] += Σ_j w[j] * xs[j][i], j < k, for 1 <= k <= kMaxFan — the
  /// k-way fold: one read-modify-write pass over the accumulator folds k
  /// updates. The k products are summed first, in slot order, and the sum
  /// is then added to acc[i]. Slots may repeat a pointer; none may alias
  /// `acc`.
  void (*axpyn)(float* acc, const float* w, const float* const* xs,
                std::size_t k, std::size_t n);
  /// out[i] = Σ_j w[j] * xs[j][i] — the write-only k-way "first fold".
  void (*axpyn_into)(float* out, const float* w, const float* const* xs,
                     std::size_t k, std::size_t n);
  /// Dot product accumulated in double.
  double (*dot)(const float* x, const float* y, std::size_t n);
  /// Euclidean norm accumulated in double.
  double (*nrm2)(const float* x, std::size_t n);
};

/// The operation table of the currently selected level.
const Ops& ops() noexcept;

/// The operation table of a specific level (A/B benching). Falls back to
/// the highest *supported* level at or below `level`.
const Ops& ops_for(Level level) noexcept;

/// Currently selected dispatch level.
Level level() noexcept;

/// Highest level this CPU supports.
Level max_supported() noexcept;

/// Pin the dispatch level (clamped to what the CPU supports); returns the
/// level actually selected.
Level select(Level level) noexcept;

/// Parse a `LIFL_KERNEL` value; returns true and writes `out` on success.
bool parse_level(const std::string& name, Level& out) noexcept;

const char* level_name(Level level) noexcept;

}  // namespace lifl::ml::kernels
