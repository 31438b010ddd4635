#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

namespace lifl::sim {

/// Deterministic pseudo-random source (xoshiro256** seeded via SplitMix64).
///
/// Every stochastic component of the platform draws from an explicitly
/// owned `Rng` so that simulations are reproducible given a seed and
/// independent components can use independent streams (`split()`).
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull) noexcept {
    // SplitMix64 expansion of the seed into the xoshiro state.
    std::uint64_t x = seed;
    for (auto& s : state_) {
      x += 0x9E3779B97F4A7C15ull;
      std::uint64_t z = x;
      z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
      z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
      s = z ^ (z >> 31);
    }
  }

  /// Next raw 64-bit value (xoshiro256**).
  std::uint64_t next_u64() noexcept {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Derive an independent stream, keyed by `key`; does not perturb *this.
  [[nodiscard]] Rng split(std::uint64_t key) const noexcept {
    Rng r;
    for (int i = 0; i < 4; ++i) r.state_[i] = state_[i];
    // Mix the key into the copied state and decorrelate with a few steps.
    r.state_[0] ^= 0xD1B54A32D192ED03ull * (key + 1);
    r.state_[3] ^= 0x8CB92BA72F3D8DD7ull * (key + 0x9E37ull);
    for (int i = 0; i < 8; ++i) (void)r.next_u64();
    return r;
  }

  /// Uniform double in [0, 1).
  double uniform() noexcept {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) noexcept {
    return lo + (hi - lo) * uniform();
  }

  /// Uniform integer in [0, n). Requires n > 0.
  std::uint64_t uniform_index(std::uint64_t n) noexcept {
    // Bounded generation via 128-bit multiply (Lemire); slight bias at this
    // scale is irrelevant for simulation purposes but we debias anyway.
    std::uint64_t x = next_u64();
    __uint128_t m = static_cast<__uint128_t>(x) * n;
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < n) {
      const std::uint64_t threshold = (0 - n) % n;
      while (lo < threshold) {
        x = next_u64();
        m = static_cast<__uint128_t>(x) * n;
        lo = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Standard normal via Box-Muller (with cached spare).
  double normal() noexcept {
    if (has_spare_) {
      has_spare_ = false;
      return spare_;
    }
    double u1 = 0.0;
    double u2 = 0.0;
    box_muller_uniforms(u1, u2);
    const double r = std::sqrt(-2.0 * std::log(u1));
    const double theta = 2.0 * M_PI * u2;
    spare_ = r * std::sin(theta);
    has_spare_ = true;
    return r * std::cos(theta);
  }

  /// Draw the two uniforms of one Box-Muller pair exactly as `normal()`
  /// does (u1 re-drawn while it is at most 1e-300). Calling it and
  /// discarding the pair advances the stream past one `normal()` pair, which
  /// is how `ml::fill_normal` walks ahead without the transform.
  void box_muller_uniforms(double& u1, double& u2) noexcept {
    u1 = 0.0;
    while (u1 <= 1e-300) u1 = uniform();
    u2 = uniform();
  }

  /// Normal with the given mean and standard deviation.
  double normal(double mean, double stddev) noexcept {
    return mean + stddev * normal();
  }

  /// Exponential with the given rate (events per unit time).
  double exponential(double rate) noexcept {
    double u = 0.0;
    while (u <= 1e-300) u = uniform();
    return -std::log(u) / rate;
  }

  /// Log-normal with the given parameters of the underlying normal.
  double lognormal(double mu, double sigma) noexcept {
    return std::exp(normal(mu, sigma));
  }

  /// Gamma(shape, 1) via Marsaglia-Tsang; shape > 0.
  double gamma(double shape) noexcept {
    if (shape < 1.0) {
      // Boost to shape+1 and correct with a power of a uniform.
      const double g = gamma(shape + 1.0);
      double u = 0.0;
      while (u <= 1e-300) u = uniform();
      return g * std::pow(u, 1.0 / shape);
    }
    const double d = shape - 1.0 / 3.0;
    const double c = 1.0 / std::sqrt(9.0 * d);
    for (;;) {
      double x = normal();
      double v = 1.0 + c * x;
      if (v <= 0.0) continue;
      v = v * v * v;
      const double u = uniform();
      if (u < 1.0 - 0.0331 * x * x * x * x) return d * v;
      if (u > 1e-300 &&
          std::log(u) < 0.5 * x * x + d * (1.0 - v + std::log(v))) {
        return d * v;
      }
    }
  }

  /// Complete generator state, for checkpointing. Restoring it resumes the
  /// stream bit-exactly — including the cached Box-Muller spare, which is
  /// part of the observable sequence of `normal()` draws.
  struct State {
    std::uint64_t s[4];
    double spare;
    bool has_spare;
  };

  State state() const noexcept {
    State st;
    for (int i = 0; i < 4; ++i) st.s[i] = state_[i];
    st.spare = spare_;
    st.has_spare = has_spare_;
    return st;
  }

  void restore(const State& st) noexcept {
    for (int i = 0; i < 4; ++i) state_[i] = st.s[i];
    spare_ = st.spare;
    has_spare_ = st.has_spare;
  }

  /// Symmetric Dirichlet(alpha) over `k` categories; returns a probability
  /// vector. Used for non-IID label-skew partitioning of federated data.
  std::vector<double> dirichlet(double alpha, std::size_t k) noexcept {
    std::vector<double> out(k);
    double sum = 0.0;
    for (auto& v : out) {
      v = gamma(alpha);
      sum += v;
    }
    if (sum <= 0.0) {
      std::fill(out.begin(), out.end(), 1.0 / static_cast<double>(k));
      return out;
    }
    for (auto& v : out) v /= sum;
    return out;
  }

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) noexcept {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::swap(v[i - 1], v[uniform_index(i)]);
    }
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t state_[4]{};
  double spare_ = 0.0;
  bool has_spare_ = false;
};

}  // namespace lifl::sim
