#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>

namespace lifl::ml {

/// Chunk size of a split sweep, in elements (16K floats = 64 KB).
inline constexpr std::size_t kSweepChunk = std::size_t{1} << 14;
/// Sweeps shorter than this run inline on the calling thread (64K floats).
inline constexpr std::size_t kSweepMinSplit = std::size_t{1} << 16;
/// Most worker threads the pool starts, besides the calling thread.
inline constexpr std::size_t kSweepMaxWorkers = 7;

namespace detail {
using SweepFn = void (*)(void* ctx, std::size_t lo, std::size_t hi);
void split_sweep(std::size_t n, SweepFn fn, void* ctx);
}  // namespace detail

/// Run `fn(lo, hi)` over `[0, n)` in fixed `kSweepChunk`-element chunks,
/// on the calling thread plus the process-wide sweep pool.
///
/// Chunk boundaries are multiples of `kSweepChunk`, whichever thread claims
/// a chunk, so an element-wise `fn` (every BLAS-1 fold kernel) computes the
/// same bits as one `fn(0, n)` call. `fn` must not throw and must only
/// touch elements of its own chunk.
///
/// The pool is one worker thread per allowed CPU besides the caller's
/// (`sim::allowed_cpu_count() - 1`, at most `kSweepMaxWorkers`), started
/// lazily by the first sweep of at least `kSweepMinSplit` elements. After a
/// sweep a worker polls for the next one for about 50 microseconds, holding
/// its CPU, and only then parks on a futex; the next sweep wakes it.
/// The starting thread pins worker k to the k-th allowed CPU after its own
/// (`sim::ThreadPlacement`), so a sweep's threads run in parallel even where
/// the kernel does not spread a process's threads. The caller claims chunks
/// too and returns only once every chunk is done. The sweep runs inline, as
/// one `fn(0, n)` call, when it is shorter than `kSweepMinSplit`, when the
/// process may use one CPU, on hosts without futexes, and when another
/// sweep already holds the pool (so concurrent callers never wait on each
/// other).
template <class F>
void parallel_sweep(std::size_t n, F&& fn) {
  if (n < kSweepMinSplit) {
    fn(std::size_t{0}, n);
    return;
  }
  using Fn = std::remove_reference_t<F>;
  const detail::SweepFn thunk = [](void* p, std::size_t lo, std::size_t hi) {
    (*static_cast<Fn*>(p))(lo, hi);
  };
  void* ctx = const_cast<void*>(static_cast<const void*>(std::addressof(fn)));
  detail::split_sweep(n, thunk, ctx);
}

/// Worker threads the sweep pool has started in this process (0 until the
/// first split sweep; tests use it to prove small and logical-payload runs
/// start none).
std::size_t sweep_workers_started() noexcept;

/// Sweeps of at least `kSweepMinSplit` elements run in this process, on the
/// pool or inline (tests use it to pin how many sweeps a fold costs).
std::uint64_t split_sweeps() noexcept;

}  // namespace lifl::ml
