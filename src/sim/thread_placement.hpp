#pragma once

#include <cstddef>
#include <thread>
#include <vector>

namespace lifl::sim {

/// CPUs this process may run on (its main thread's affinity mask); at
/// least 1. Thread pools size themselves from this, not from
/// `hardware_concurrency()`: a container or `taskset` may allow fewer CPUs
/// than the host has.
std::size_t allowed_cpu_count();

/// Places the threads one creator starts on CPUs of their own.
///
/// Built on the creating thread, it reads the allowed CPU set and the CPU
/// the creator runs on. `place(t, k)` pins the k-th thread (k >= 1) to the
/// k-th allowed CPU after the creator's, so the creator and its threads run
/// on pairwise-distinct CPUs. Where the kernel does not balance load (a
/// cpuset with `sched_load_balance` 0), an unpinned thread stays on the CPU
/// it was created on, and a pool of them shares one CPU.
///
/// Pin each thread from the creator right after constructing it: a pin the
/// thread sets itself takes effect only once the thread first runs, which
/// on its creator's busy CPU waits until the creator yields.
///
/// Pins nothing when the allowed set holds fewer CPUs than the creator plus
/// `threads`, or off Linux; those threads run where the kernel puts them.
class ThreadPlacement {
 public:
  explicit ThreadPlacement(std::size_t threads);

  /// Pin `t`, the k-th thread started (1-based), if the plan pins at all.
  void place(std::thread& t, std::size_t k) const noexcept;

 private:
  std::vector<int> cpus_;  ///< allowed CPUs, the creator's first; empty: none
};

}  // namespace lifl::sim
