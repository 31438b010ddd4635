#include "src/ml/sweep_pool.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <system_error>
#include <thread>
#include <vector>

#include "src/sim/futex.hpp"

namespace lifl::ml {

namespace {

using sim::cpu_relax;
using sim::futex_wait;
using sim::futex_wake_all;

/// The process-wide sweep pool.
///
/// One sweep at a time owns the pool (`busy_`). The owner publishes the
/// sweep (`fn_`, `ctx_`, `n_`), then the chunk ticket, then bumps `gen_`;
/// workers park on `gen_` between sweeps and the owner wakes them only if
/// one is asleep. Every thread claims chunk indices from `ticket_` (chunk
/// count in the high half, next index in the low half) with a CAS, so a
/// claim always belongs to the sweep that is published at that moment.
/// The owner returns once `done_` counts every chunk, so a sweep's
/// description is never rewritten while a claimed chunk still reads it.
class SweepPool {
 public:
  SweepPool() = default;
  SweepPool(const SweepPool&) = delete;
  SweepPool& operator=(const SweepPool&) = delete;

  ~SweepPool() {
    stop_.store(true, std::memory_order_seq_cst);
    gen_.fetch_add(1, std::memory_order_seq_cst);
#if LIFL_HAVE_FUTEX
    futex_wake_all(gen_);
#endif
    for (auto& t : workers_) t.join();
  }

  /// Runs the sweep; false (nothing run) if the pool is busy or empty.
  bool run(std::size_t n, detail::SweepFn fn, void* ctx) {
    if (busy_.exchange(true, std::memory_order_acquire)) return false;
    if (!start_workers()) {
      busy_.store(false, std::memory_order_release);
      return false;
    }
    const std::uint64_t chunks = (n + kSweepChunk - 1) / kSweepChunk;
    fn_ = fn;
    ctx_ = ctx;
    n_ = n;
    done_.store(0, std::memory_order_relaxed);
    ticket_.store(chunks << 32, std::memory_order_release);
    gen_.fetch_add(1, std::memory_order_seq_cst);
#if LIFL_HAVE_FUTEX
    if (sleepers_.load(std::memory_order_seq_cst) > 0) futex_wake_all(gen_);
#endif
    drain();
    for (unsigned spins = 0; done_.load(std::memory_order_acquire) < chunks;
         ++spins) {
      if (spins < 4096) {
        cpu_relax();
      } else {
        std::this_thread::yield();
      }
    }
    busy_.store(false, std::memory_order_release);
    return true;
  }

  std::size_t started() const noexcept {
    return started_.load(std::memory_order_relaxed);
  }

 private:
  /// Start the workers on first use (the caller owns the pool). False on
  /// a one-thread host or without futexes: the sweep then runs inline.
  bool start_workers() {
    if (!workers_.empty()) return true;
#if LIFL_HAVE_FUTEX
    const unsigned hw = std::thread::hardware_concurrency();
    const std::size_t want =
        std::min<std::size_t>(hw > 1 ? hw - 1 : 0, kSweepMaxWorkers);
    for (std::size_t i = 0; i < want; ++i) {
      try {
        workers_.emplace_back([this] { work(); });
      } catch (const std::system_error&) {
        break;  // out of threads: sweep with the workers already running
      }
      started_.fetch_add(1, std::memory_order_relaxed);
    }
#endif
    return !workers_.empty();
  }

  /// Claim and run chunks of the published sweep until none is left.
  void drain() {
    std::uint64_t t = ticket_.load(std::memory_order_acquire);
    for (;;) {
      const std::uint64_t chunks = t >> 32;
      const std::uint64_t idx = t & 0xffffffffu;
      if (idx >= chunks) return;
      if (!ticket_.compare_exchange_weak(t, t + 1, std::memory_order_acquire,
                                         std::memory_order_acquire)) {
        continue;
      }
      const std::size_t lo = static_cast<std::size_t>(idx) * kSweepChunk;
      fn_(ctx_, lo, std::min(n_, lo + kSweepChunk));
      done_.fetch_add(1, std::memory_order_release);
      t = ticket_.load(std::memory_order_acquire);
    }
  }

  void work() {
#if LIFL_HAVE_FUTEX
    // Read the generation before draining: a sweep published after the
    // read bumps `gen_` past `seen`, so the wait below never sleeps
    // through it.
    std::uint32_t seen = gen_.load(std::memory_order_acquire);
    while (!stop_.load(std::memory_order_acquire)) {
      drain();
      sleepers_.fetch_add(1, std::memory_order_seq_cst);
      while (gen_.load(std::memory_order_seq_cst) == seen) {
        futex_wait(gen_, seen);
      }
      sleepers_.fetch_sub(1, std::memory_order_relaxed);
      seen = gen_.load(std::memory_order_acquire);
    }
#endif
  }

  std::atomic<bool> busy_{false};
  std::atomic<bool> stop_{false};
  std::atomic<std::uint32_t> gen_{0};  ///< futex word, bumped per sweep
  std::atomic<std::uint32_t> sleepers_{0};
  std::atomic<std::uint64_t> ticket_{0};  ///< chunks << 32 | next index
  std::atomic<std::uint64_t> done_{0};    ///< chunks finished this sweep
  std::atomic<std::size_t> started_{0};
  detail::SweepFn fn_ = nullptr;
  void* ctx_ = nullptr;
  std::size_t n_ = 0;
  std::vector<std::thread> workers_;
};

SweepPool& pool() {
  static SweepPool p;
  return p;
}

}  // namespace

namespace detail {

void split_sweep(std::size_t n, SweepFn fn, void* ctx) {
  if (!pool().run(n, fn, ctx)) fn(ctx, 0, n);
}

}  // namespace detail

std::size_t sweep_workers_started() noexcept { return pool().started(); }

}  // namespace lifl::ml
