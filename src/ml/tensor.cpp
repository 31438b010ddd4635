#include "src/ml/tensor.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "src/ml/kernels.hpp"
#include "src/ml/sweep_pool.hpp"
#include "src/sim/futex.hpp"

namespace lifl::ml {

void fill_normal(sim::Rng& rng, float* out, std::size_t n, double stddev) {
  if (n < kSweepMinSplit) {
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = static_cast<float>(rng.normal(0.0, stddev));
    }
    return;
  }
  if (rng.state().has_spare) {
    *out++ = static_cast<float>(rng.normal(0.0, stddev));
    --n;
  }
  // Whole pairs go to the sweep, all but the last one. That last pair (or
  // odd element) is drawn here, so `rng` ends with the spare the loop
  // leaves: cached after an odd element, spent but still stored after a
  // pair.
  const std::size_t swept = (n - 1) & ~std::size_t{1};
  const std::size_t chunks = (swept + kSweepChunk - 1) / kSweepChunk;
  // starts[c] is the generator at chunk c's first pair. The first
  // `published` entries are written; the walker of chunk c writes c + 1.
  std::vector<sim::Rng> starts(chunks + 1);
  starts[0] = rng;
  std::atomic<std::size_t> published{1};
  parallel_sweep(swept, [&](std::size_t lo, std::size_t hi) {
    // One chunk per call on the pool; every chunk, in order, inline.
    for (; lo < hi; lo += kSweepChunk) {
      const std::size_t c = lo / kSweepChunk;
      const std::size_t end = std::min(hi, lo + kSweepChunk);
      sim::spin_until(
          [&] { return published.load(std::memory_order_acquire) > c; });
      sim::Rng draw = starts[c];
      sim::Rng walk = draw;
      double u1 = 0.0;
      double u2 = 0.0;
      for (std::size_t p = lo; p < end; p += 2) {
        walk.box_muller_uniforms(u1, u2);
      }
      starts[c + 1] = walk;
      published.store(c + 2, std::memory_order_release);
      for (std::size_t i = lo; i < end; ++i) {
        out[i] = static_cast<float>(draw.normal(0.0, stddev));
      }
    }
  });
  rng = starts[chunks];
  for (std::size_t i = swept; i < n; ++i) {
    out[i] = static_cast<float>(rng.normal(0.0, stddev));
  }
}

Tensor::Tensor(std::size_t n, float value) : data_(n) {
  std::uint32_t bits;
  std::memcpy(&bits, &value, sizeof bits);
  if (bits != 0) fill(value);
}

Tensor Tensor::randn(sim::Rng& rng, std::size_t n, float stddev) {
  Tensor t(n);
  fill_normal(rng, t.data(), n, stddev);
  return t;
}

void Tensor::axpy(float a, const Tensor& x) {
  if (x.size() != size()) {
    throw std::invalid_argument("Tensor::axpy: size mismatch");
  }
  kernels::ops().axpy(data_.data(), a, x.data_.data(), data_.size());
}

void Tensor::axpby(float a, float b, const Tensor& x) {
  if (x.size() != size()) {
    throw std::invalid_argument("Tensor::axpby: size mismatch");
  }
  kernels::ops().axpby(data_.data(), a, b, x.data_.data(), data_.size());
}

void Tensor::scale(float a) noexcept {
  kernels::ops().scale(data_.data(), a, data_.size());
}

void Tensor::fill(float value) noexcept {
  kernels::ops().fill(data_.data(), value, data_.size());
}

double Tensor::dot(const Tensor& x) const {
  if (x.size() != size()) {
    throw std::invalid_argument("Tensor::dot: size mismatch");
  }
  return kernels::ops().dot(data_.data(), x.data_.data(), data_.size());
}

double Tensor::l2norm() const {
  return kernels::ops().nrm2(data_.data(), data_.size());
}

double Tensor::max_abs_diff(const Tensor& a, const Tensor& b) {
  if (a.size() != b.size()) {
    throw std::invalid_argument("Tensor::max_abs_diff: size mismatch");
  }
  double m = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    m = std::max(
        m, std::abs(static_cast<double>(a[i]) - static_cast<double>(b[i])));
  }
  return m;
}

}  // namespace lifl::ml
