#include "src/ml/kernels.hpp"

#include <atomic>
#include <cmath>
#include <cstdlib>

// Function multi-versioning (one compiled body per ISA, selected at startup)
// is only wired up for x86-64 GCC/Clang; every other toolchain still gets
// the scalar and wide levels, which are ISA-portable.
#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
#define LIFL_KERNELS_X86 1
#else
#define LIFL_KERNELS_X86 0
#endif

namespace lifl::ml::kernels {

namespace {

// ---------------------------------------------------------------- scalar
// Reference implementations: one accumulator, no unrolling. `dot` is kept
// deliberately in the seed's single-double-accumulator shape — it is the
// baseline the "multi-accumulator actually vectorizes" claim is benched
// against, and the semantics oracle for the unit tests.

void fill_scalar(float* p, float v, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) p[i] = v;
}

void scale_scalar(float* p, float a, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) p[i] *= a;
}

void scale_into_scalar(float* out, float a, const float* x, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = a * x[i];
}

void axpy_scalar(float* acc, float a, const float* x, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) acc[i] += a * x[i];
}

void axpby_scalar(float* acc, float a, float b, const float* x,
                  std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) acc[i] = a * acc[i] + b * x[i];
}

template <bool kInto>
void axpyn_scalar(float* out, const float* w, const float* const* xs,
                  std::size_t k, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    float s = w[0] * xs[0][i];
    for (std::size_t j = 1; j < k; ++j) s += w[j] * xs[j][i];
    if constexpr (kInto) {
      out[i] = s;
    } else {
      out[i] += s;
    }
  }
}

double dot_scalar(const float* x, const float* y, std::size_t n) {
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    acc += static_cast<double>(x[i]) * static_cast<double>(y[i]);
  }
  return acc;
}

double nrm2_scalar(const float* x, std::size_t n) {
  return std::sqrt(dot_scalar(x, x, n));
}

constexpr Ops kScalarOps = {fill_scalar, scale_scalar, scale_into_scalar,
                            axpy_scalar, axpby_scalar, axpyn_scalar<false>,
                            axpyn_scalar<true>, dot_scalar, nrm2_scalar};

// ------------------------------------------------------------------ wide
// One loop-body set, stamped out per ISA. The bodies are plain `__restrict`
// loops the compiler auto-vectorizes; the reductions carry four independent
// accumulators so the float->double converts and adds pipeline instead of
// serializing on a single register.
//
// The k-way fold (`axpyn`) is stamped once per fan-in k = 1..kMaxFan with k
// a template argument, so the slot loop unrolls and the element loop
// vectorizes over k+1 streams; a switch on the runtime k picks the body.
//
// `ATTRS` is a function attribute list: empty for the baseline-ISA build,
// `target("avx2,fma")` / `target("avx512f,fma")` for the multi-versioned
// levels (same source, wider lanes).

#define LIFL_DEFINE_WIDE_KERNELS(SUFFIX, ATTRS)                               \
  ATTRS void fill_##SUFFIX(float* __restrict p, float v, std::size_t n) {     \
    for (std::size_t i = 0; i < n; ++i) p[i] = v;                             \
  }                                                                           \
  ATTRS void scale_##SUFFIX(float* __restrict p, float a, std::size_t n) {    \
    for (std::size_t i = 0; i < n; ++i) p[i] *= a;                            \
  }                                                                           \
  ATTRS void scale_into_##SUFFIX(float* __restrict out, float a,              \
                                 const float* __restrict x, std::size_t n) {  \
    for (std::size_t i = 0; i < n; ++i) out[i] = a * x[i];                    \
  }                                                                           \
  ATTRS void axpy_##SUFFIX(float* __restrict acc, float a,                    \
                           const float* __restrict x, std::size_t n) {        \
    for (std::size_t i = 0; i < n; ++i) acc[i] += a * x[i];                   \
  }                                                                           \
  ATTRS void axpby_##SUFFIX(float* __restrict acc, float a, float b,          \
                            const float* __restrict x, std::size_t n) {       \
    for (std::size_t i = 0; i < n; ++i) acc[i] = a * acc[i] + b * x[i];       \
  }                                                                           \
  template <std::size_t K, bool kInto>                                        \
  ATTRS void fan_##SUFFIX(float* __restrict out, const float* w,              \
                          const float* const* xs, std::size_t n) {            \
    float c[K];                                                               \
    const float* x[K];                                                        \
    for (std::size_t j = 0; j < K; ++j) {                                     \
      c[j] = w[j];                                                            \
      x[j] = xs[j];                                                           \
    }                                                                         \
    for (std::size_t i = 0; i < n; ++i) {                                     \
      float s = c[0] * x[0][i];                                               \
      for (std::size_t j = 1; j < K; ++j) s += c[j] * x[j][i];                \
      if constexpr (kInto) {                                                  \
        out[i] = s;                                                           \
      } else {                                                                \
        out[i] += s;                                                          \
      }                                                                       \
    }                                                                         \
  }                                                                           \
  template <bool kInto>                                                       \
  ATTRS void axpyn_##SUFFIX(float* out, const float* w,                       \
                            const float* const* xs, std::size_t k,            \
                            std::size_t n) {                                  \
    switch (k) {                                                              \
      case 1: return fan_##SUFFIX<1, kInto>(out, w, xs, n);                   \
      case 2: return fan_##SUFFIX<2, kInto>(out, w, xs, n);                   \
      case 3: return fan_##SUFFIX<3, kInto>(out, w, xs, n);                   \
      case 4: return fan_##SUFFIX<4, kInto>(out, w, xs, n);                   \
      case 5: return fan_##SUFFIX<5, kInto>(out, w, xs, n);                   \
      case 6: return fan_##SUFFIX<6, kInto>(out, w, xs, n);                   \
      case 7: return fan_##SUFFIX<7, kInto>(out, w, xs, n);                   \
      case 8: return fan_##SUFFIX<8, kInto>(out, w, xs, n);                   \
      default: return;                                                        \
    }                                                                         \
  }                                                                           \
  ATTRS double dot_##SUFFIX(const float* __restrict x,                        \
                            const float* __restrict y, std::size_t n) {       \
    double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;                            \
    std::size_t i = 0;                                                        \
    for (; i + 4 <= n; i += 4) {                                              \
      a0 += static_cast<double>(x[i]) * static_cast<double>(y[i]);            \
      a1 += static_cast<double>(x[i + 1]) * static_cast<double>(y[i + 1]);    \
      a2 += static_cast<double>(x[i + 2]) * static_cast<double>(y[i + 2]);    \
      a3 += static_cast<double>(x[i + 3]) * static_cast<double>(y[i + 3]);    \
    }                                                                         \
    double acc = (a0 + a1) + (a2 + a3);                                       \
    for (; i < n; ++i) {                                                      \
      acc += static_cast<double>(x[i]) * static_cast<double>(y[i]);           \
    }                                                                         \
    return acc;                                                               \
  }                                                                           \
  ATTRS double nrm2_##SUFFIX(const float* __restrict x, std::size_t n) {      \
    double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;                            \
    std::size_t i = 0;                                                        \
    for (; i + 4 <= n; i += 4) {                                              \
      a0 += static_cast<double>(x[i]) * static_cast<double>(x[i]);            \
      a1 += static_cast<double>(x[i + 1]) * static_cast<double>(x[i + 1]);    \
      a2 += static_cast<double>(x[i + 2]) * static_cast<double>(x[i + 2]);    \
      a3 += static_cast<double>(x[i + 3]) * static_cast<double>(x[i + 3]);    \
    }                                                                         \
    double acc = (a0 + a1) + (a2 + a3);                                       \
    for (; i < n; ++i) {                                                      \
      acc += static_cast<double>(x[i]) * static_cast<double>(x[i]);           \
    }                                                                         \
    return std::sqrt(acc);                                                    \
  }                                                                           \
  constexpr Ops k##SUFFIX##Table = {                                          \
      fill_##SUFFIX, scale_##SUFFIX, scale_into_##SUFFIX,                     \
      axpy_##SUFFIX, axpby_##SUFFIX, axpyn_##SUFFIX<false>,                   \
      axpyn_##SUFFIX<true>, dot_##SUFFIX, nrm2_##SUFFIX};

LIFL_DEFINE_WIDE_KERNELS(Wide, )

#if LIFL_KERNELS_X86
LIFL_DEFINE_WIDE_KERNELS(Avx2, __attribute__((target("avx2,fma"))))
LIFL_DEFINE_WIDE_KERNELS(Avx512, __attribute__((target("avx512f,fma"))))
#endif

#undef LIFL_DEFINE_WIDE_KERNELS

const Ops* table_of(Level level) noexcept {
  switch (level) {
    case Level::kScalar: return &kScalarOps;
    case Level::kWide: return &kWideTable;
#if LIFL_KERNELS_X86
    case Level::kAvx2: return &kAvx2Table;
    case Level::kAvx512: return &kAvx512Table;
#else
    case Level::kAvx2:
    case Level::kAvx512: return &kWideTable;
#endif
  }
  return &kScalarOps;
}

Level clamp_supported(Level level) noexcept {
  const Level top = max_supported();
  return static_cast<int>(level) > static_cast<int>(top) ? top : level;
}

std::atomic<const Ops*> g_ops{nullptr};
std::atomic<int> g_level{-1};

/// Startup selection: LIFL_KERNEL override, else the best the CPU can run.
Level initial_level() noexcept {
  if (const char* env = std::getenv("LIFL_KERNEL")) {
    Level parsed;
    if (parse_level(env, parsed)) return clamp_supported(parsed);
  }
  return max_supported();
}

void ensure_selected() noexcept {
  if (g_ops.load(std::memory_order_acquire) == nullptr) {
    select(initial_level());  // benign race: all writers agree
  }
}

}  // namespace

Level max_supported() noexcept {
#if LIFL_KERNELS_X86
  if (__builtin_cpu_supports("avx512f")) return Level::kAvx512;
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
    return Level::kAvx2;
  }
#endif
  return Level::kWide;
}

Level select(Level level) noexcept {
  const Level chosen = clamp_supported(level);
  // Level first: ensure_selected() gates on g_ops, so once g_ops is
  // visible the matching g_level must already be too.
  g_level.store(static_cast<int>(chosen), std::memory_order_release);
  g_ops.store(table_of(chosen), std::memory_order_release);
  return chosen;
}

const Ops& ops() noexcept {
  ensure_selected();
  return *g_ops.load(std::memory_order_acquire);
}

const Ops& ops_for(Level level) noexcept {
  return *table_of(clamp_supported(level));
}

Level level() noexcept {
  ensure_selected();
  return static_cast<Level>(g_level.load(std::memory_order_acquire));
}

bool parse_level(const std::string& name, Level& out) noexcept {
  if (name == "scalar") {
    out = Level::kScalar;
  } else if (name == "wide") {
    out = Level::kWide;
  } else if (name == "avx2") {
    out = Level::kAvx2;
  } else if (name == "avx512") {
    out = Level::kAvx512;
  } else {
    return false;
  }
  return true;
}

const char* level_name(Level level) noexcept {
  switch (level) {
    case Level::kScalar: return "scalar";
    case Level::kWide: return "wide";
    case Level::kAvx2: return "avx2";
    case Level::kAvx512: return "avx512";
  }
  return "unknown";
}

}  // namespace lifl::ml::kernels
