#include "src/sim/thread_placement.hpp"

#include <algorithm>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#include <unistd.h>
#endif

namespace lifl::sim {

namespace {

/// The process's allowed CPUs in ascending order, empty when unknown. The
/// main thread's mask, which nothing pins, not the calling thread's (a
/// pinned shard thread's holds one CPU).
std::vector<int> allowed_cpus() {
  std::vector<int> out;
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(getpid(), sizeof set, &set) != 0) return out;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) out.push_back(c);
  }
#endif
  return out;
}

}  // namespace

std::size_t allowed_cpu_count() {
  const std::size_t n = allowed_cpus().size();
  if (n > 0) return n;
  return std::max(1u, std::thread::hardware_concurrency());
}

ThreadPlacement::ThreadPlacement(std::size_t threads) {
#if defined(__linux__)
  const std::vector<int> allowed = allowed_cpus();
  if (allowed.size() < threads + 1) return;
  const auto at = std::find(allowed.begin(), allowed.end(), sched_getcpu());
  if (at == allowed.end()) return;
  // Rotate so the creator's CPU comes first: thread k takes cpus_[k].
  cpus_.assign(at, allowed.end());
  cpus_.insert(cpus_.end(), allowed.begin(), at);
#else
  (void)threads;
#endif
}

void ThreadPlacement::place(std::thread& t, std::size_t k) const noexcept {
#if defined(__linux__)
  if (k == 0 || k >= cpus_.size()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpus_[k], &set);
  // A failed pin (the mask changed meanwhile) leaves the thread floating.
  (void)pthread_setaffinity_np(t.native_handle(), sizeof set, &set);
#else
  (void)t;
  (void)k;
#endif
}

}  // namespace lifl::sim
