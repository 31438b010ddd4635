#pragma once

#include <atomic>
#include <climits>
#include <cstdint>
#include <thread>

#if defined(__linux__)
#include <linux/futex.h>
#include <sys/syscall.h>
#include <unistd.h>
#define LIFL_HAVE_FUTEX 1
#else
#define LIFL_HAVE_FUTEX 0
#endif

/// Parking for threads that wait on one another (the sharded simulator's
/// shards, the sweep pool's workers): a waiter spins a little with
/// `cpu_relax`, then sleeps on a 32-bit atomic word until a waker changes
/// the word and wakes every sleeper on it.
namespace lifl::sim {

inline void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

/// Wait until `ready()` holds without sleeping: 4,096 polls with
/// `cpu_relax`, then a yield between polls. For waits of microseconds on a
/// thread that some running thread will release.
template <class Ready>
void spin_until(Ready&& ready) {
  for (unsigned spins = 0; !ready(); ++spins) {
    if (spins < 4096) {
      cpu_relax();
    } else {
      std::this_thread::yield();
    }
  }
}

static_assert(sizeof(std::atomic<std::uint32_t>) == sizeof(std::uint32_t),
              "the futex word must be a plain 32-bit integer");

/// Sleep while `word` still holds `seen`. Returns at once otherwise, and
/// may return spuriously: callers re-check their condition. Without
/// futexes it only yields.
inline void futex_wait(std::atomic<std::uint32_t>& word,
                       std::uint32_t seen) noexcept {
#if LIFL_HAVE_FUTEX
  syscall(SYS_futex, reinterpret_cast<std::uint32_t*>(&word),
          FUTEX_WAIT_PRIVATE, seen, nullptr, nullptr, 0);
#else
  if (word.load() == seen) std::this_thread::yield();
#endif
}

/// Wake every thread sleeping on `word`.
inline void futex_wake_all(std::atomic<std::uint32_t>& word) noexcept {
#if LIFL_HAVE_FUTEX
  syscall(SYS_futex, reinterpret_cast<std::uint32_t*>(&word),
          FUTEX_WAKE_PRIVATE, INT_MAX, nullptr, nullptr, 0);
#else
  (void)word;
#endif
}

}  // namespace lifl::sim
