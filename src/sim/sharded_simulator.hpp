#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "src/obs/trace.hpp"
#include "src/sim/calibration.hpp"
#include "src/sim/simulator.hpp"
#include "src/sim/task.hpp"
#include "src/sim/time.hpp"

namespace lifl::sim {

/// How multi-shard window barriers are synchronized. 1-shard mode ignores
/// the knob entirely (no barriers run), so every mode is trivially
/// bit-identical to the plain core at K = 1.
enum class SyncMode : std::uint8_t {
  /// Every window runs to `t_min + lookahead` — the classic bounded-lag
  /// horizon, one barrier per lookahead of simulated time under load.
  kConservative = 0,
  /// Widen the horizon using per-shard outbound *promises* ("no
  /// cross-shard delivery before T"): provably-empty barriers are
  /// skipped, results stay bitwise identical to conservative. Sound.
  /// Widening is capped at 256 lookaheads past the conservative horizon.
  kAdaptive,
};

/// A sharded discrete-event simulator: K independent `Simulator` cores, one
/// per worker thread, synchronized with conservative time windows.
///
/// The model is partitioned into *shards* (node groups in the cluster): all
/// state of a shard is touched only by that shard's events, so intra-window
/// execution is lock-free — each worker thread drains its own slab/calendar
/// core with zero shared-state traffic. Cross-shard interaction goes
/// through `post`, which enqueues the event into a single-writer mailbox;
/// mailboxes are exchanged at window barriers.
///
/// Window protocol (classic conservative / bounded-lag synchronization):
/// every cross-shard event carries a delivery time at least `lookahead`
/// after the sender's clock — `lookahead` is the minimum cross-shard
/// latency of the model (`calib::kCrossShardLatencySecs`: no network hop
/// between node groups can complete faster). Each window the coordinator
///   1. drains all mailboxes into the destination shards, in deterministic
///      (time, source shard, source sequence) order,
///   2. computes the horizon H = min over shards of the next event time,
///      plus `lookahead`,
///   3. releases all shards to execute events with t < H in parallel.
/// Any event posted during the window happens at a time >= the window's
/// minimum, so its delivery lands at or beyond H — never in a receiver's
/// past. Events therefore always execute in nondecreasing time order per
/// shard, and delivery order of cross events is independent of the shard
/// count.
///
/// `Config::sync = kAdaptive` widens H beyond the conservative bound using
/// per-shard outbound promises (`set_promise`) — still provably sound, so
/// results stay bitwise equal (see docs/ARCHITECTURE.md, "Shard
/// synchronization").
///
/// Determinism: with one shard, `run()` degenerates to the plain
/// single-threaded `Simulator::run()` (no threads, no barriers — bit
/// identical to the unsharded core). With K > 1, a model partitioned so
/// that groups share no state produces identical per-group results for any
/// K: each group's events carry the same timestamps and the same relative
/// order regardless of which shard executes them (see
/// tests/sharded_sim_test.cpp for the 2-shard vs 1-shard campaign
/// equivalence check). One caveat: *daemon* events scheduled between the
/// last regular event and the final window horizon run at K > 1 but not at
/// K = 1 (a single-threaded `run()` stops exactly at the last regular
/// event; windows quantize that cut) — a model that wants cross-K
/// equivalence must not let daemon tails feed back into measured state.
class ShardedSimulator {
 public:
  struct Config {
    std::size_t shards = 1;
    /// Conservative window lookahead — must be a lower bound on the
    /// delivery delay of every `post` (post clamps to it).
    SimTime lookahead = calib::kCrossShardLatencySecs;
    /// Window synchronization mode (see `SyncMode`).
    SyncMode sync = SyncMode::kConservative;
  };

  /// Always-on per-shard barrier accounting. `idle_wall_secs` is real wall
  /// time the shard spent finished at a window barrier waiting for the
  /// slowest shard — it never feeds back into the simulation, so recording
  /// it keeps results bitwise identical.
  struct WindowStats {
    std::uint64_t windows = 0;        ///< windows this shard executed
    std::uint64_t empty_windows = 0;  ///< windows with zero events to run
    double idle_wall_secs = 0.0;      ///< wall spent waiting on stragglers
  };

  explicit ShardedSimulator(Config cfg);
  ShardedSimulator(const ShardedSimulator&) = delete;
  ShardedSimulator& operator=(const ShardedSimulator&) = delete;
  ~ShardedSimulator();

  std::size_t shard_count() const noexcept { return shards_.size(); }
  SimTime lookahead() const noexcept { return lookahead_; }

  /// The shard-local event core. All scheduling of intra-shard events goes
  /// directly through it (zero overhead vs the unsharded simulator).
  Simulator& shard(std::size_t i) { return *shards_[i].sim; }

  /// Schedule `cb` on shard `to` at absolute time `t`, called from shard
  /// `from` (i.e. from within one of its callbacks during `run()`, or from
  /// the coordinator thread between runs). `t` is clamped up to
  /// `shard(from).now() + lookahead()` — the conservative-window invariant;
  /// the clamp is identical whether or not `from == to`, so a model's
  /// timing does not depend on how its groups map onto shards. Same-shard
  /// posts schedule directly; cross-shard posts ride the mailbox and are
  /// injected at the next window barrier. A coordinator-side cross-shard
  /// post whose (clamped) time is at or before `shard(to).now()` would land
  /// in the receiver's past and throws `std::invalid_argument`.
  void post(std::size_t from, std::size_t to, SimTime t, Task cb);

  /// Run until no regular (non-daemon) events remain on any shard and all
  /// mailboxes are empty. Returns the number of events dispatched across
  /// all shards during this call. Only the coordinator thread may call it.
  std::uint64_t run();

  /// Run like `run()` but stop at the first quiescent point — a window
  /// barrier (K > 1) or the dispatch loop (K = 1) — at which every pending
  /// event is at or beyond `mark`. Pausing is *bit-transparent*: the window
  /// horizons depend only on next-event times, so interleaving `run_to`
  /// calls (and a final `run()`) dispatches exactly the event sequence an
  /// uninterrupted `run()` would — the property campaign checkpointing
  /// rests on. Two caveats, both inherited from the window protocol: with
  /// K > 1 a window whose horizon straddles the mark finishes (a handful of
  /// events at/after `mark` may run before the pause), and in K = 1 mode
  /// daemon events below the mark run even past the last regular event
  /// (plain `run()` would stop at it) — models that keep cross-K
  /// equivalence must not let daemon tails feed measured state, as already
  /// required by `run()`.
  std::uint64_t run_to(SimTime mark);

  /// Total events dispatched across all shards so far.
  std::uint64_t dispatched() const;
  /// Regular (non-daemon) events pending across all shards + mailboxes.
  std::size_t pending_regular() const;
  /// Cross-shard events posted so far (same-shard posts excluded). Only
  /// meaningful between runs / from the coordinator (per-shard counters are
  /// owned by their worker threads during a window).
  std::uint64_t cross_posts() const noexcept;
  /// Window barriers executed by multi-shard `run()` calls.
  std::uint64_t windows() const noexcept { return windows_; }
  /// Conservative barriers provably skipped by adaptive horizon widening
  /// (an estimate: each opened window adds the number of whole lookaheads
  /// it ran beyond the conservative horizon). Zero in conservative mode.
  std::uint64_t windows_skipped() const noexcept { return windows_skipped_; }
  /// The configured synchronization mode.
  SyncMode sync_mode() const noexcept { return sync_; }

  /// Install shard `s`'s outbound promise for adaptive horizons (an empty
  /// function uninstalls it). The function must return a lower bound on the
  /// delivery time of any cross-shard `post` shard `s` will make from events it
  /// has not yet executed — considering the shard's *entire* future behavior
  /// from its current state, not just its next event. Return 0 for "no promise"
  /// (the shard contributes its conservative bound only) and +infinity for
  /// "this shard will never post again this run". The coordinator evaluates
  /// promises in the serial phase of every opened window, with all workers
  /// parked at the barrier, so the function may freely read the model state of
  /// shard `s` (and, with care, of other shards). Promises must be pure reads:
  /// evaluating one must not change model state, or `run_to` pausing stops
  /// being bit-transparent. A promise that is later contradicted by an actual
  /// post below the promised bound is a model bug and raises `std::logic_error`
  /// at the offending `post`.
  void set_promise(std::size_t s, std::function<SimTime()> fn) {
    promises_[s] = std::move(fn);
  }

  /// Per-shard barrier stats (zero in 1-shard mode — no barriers run).
  /// Only meaningful between runs / from the coordinator.
  const WindowStats& window_stats(std::size_t i) const {
    return shards_[i].stats;
  }

  /// Attach a passive trace recorder (nullptr detaches). Each shard's
  /// worker emits its window events into its own ring; the coordinator
  /// emits the mailbox-exchange events into the coordinator ring between
  /// windows — recording never schedules events or alters the window
  /// protocol, so traced runs stay bitwise identical to untraced runs.
  void set_trace(obs::TraceRecorder* trace) noexcept { trace_ = trace; }

 private:
  struct CrossEvent {
    SimTime t;
    std::uint32_t src;
    std::uint32_t dst;
    std::uint64_t seq;  ///< per-source post counter (FIFO tie-break)
    Task cb;
  };

  /// Per-shard state, cache-line separated: `sim` and `posted` (the
  /// per-source cross-post sequence, which doubles as the cross-post
  /// counter) are touched by the owning worker thread during a window, by
  /// the coordinator only between windows.
  struct alignas(64) ShardCell {
    std::unique_ptr<Simulator> sim;
    std::uint64_t posted = 0;
    /// `windows`/`empty_windows` are written by the owning thread inside
    /// `run_shard_window`; `idle_wall_secs` and `done_at` are reconciled
    /// by the coordinator in the serial phase (workers parked).
    WindowStats stats;
    std::chrono::steady_clock::time_point done_at{};
  };

  /// Single-writer mailbox for one (src, dst) pair; the src worker appends
  /// during its window, the coordinator drains at the barrier.
  struct alignas(64) Mailbox {
    std::vector<CrossEvent> events;
  };

  Mailbox& mailbox(std::size_t src, std::size_t dst) {
    return mail_[src * shards_.size() + dst];
  }
  /// Shared body of `run` / `run_to`: windows stop once the minimum next
  /// event time reaches `mark` (+infinity for an unbounded run).
  std::uint64_t run_impl(SimTime mark);
  /// Pick the horizon of the window about to open (serial phase):
  /// conservative `t_min + lookahead`, widened by promises in adaptive
  /// mode. Also ticks the skipped-window estimate — called exactly once
  /// per *opened* window, after the `run_to` mark check, so pausing stays
  /// bit-transparent.
  SimTime plan_window(SimTime t_min);
  /// Spawn the K-1 worker threads on first multi-shard use; they persist —
  /// parked on the epoch wait — across run/run_to calls (a mark-sliced
  /// checkpointed round would otherwise pay a thread create/join per
  /// slice) and are joined by the destructor.
  void ensure_workers();
  /// Sort all mailboxes by (t, src, seq) and schedule into the targets.
  /// Returns the number of cross events delivered.
  std::size_t drain_mailboxes();
  std::size_t mail_pending() const;
  void worker_loop(std::size_t s, std::uint64_t base_epoch);
  /// Run the shard's window, capturing a model-callback exception so it
  /// can be rethrown on the coordinator after the barrier (in 1-shard mode
  /// exceptions propagate natively; the threaded mode must match instead
  /// of std::terminate-ing).
  void run_shard_window(std::size_t s);
  void record_error() noexcept;

  SimTime lookahead_;
  SyncMode sync_ = SyncMode::kConservative;
  std::vector<ShardCell> shards_;
  std::vector<Mailbox> mail_;
  std::vector<CrossEvent> drain_scratch_;
  std::vector<std::thread> workers_;
  std::uint64_t windows_ = 0;
  std::uint64_t windows_skipped_ = 0;
  obs::TraceRecorder* trace_ = nullptr;  ///< passive; not owned

  // ---- adaptive horizon state (coordinator-owned) ---------------------
  /// Per-shard outbound promise functions (empty = no promise).
  std::vector<std::function<SimTime()>> promises_;
  /// Promise bounds cached at window open; `post` enforces them (a post
  /// below its shard's promised bound is an unsound promise). Written by
  /// the coordinator in the serial phase, read by workers during the
  /// window — the barrier orders the accesses. Reset to 0 between runs.
  std::vector<SimTime> promised_;

  // ---- window barrier (used only when shard_count() > 1) --------------
  // The coordinator publishes `window_end_` then bumps `epoch_`; workers
  // run their window and bump `done_`. Waiters spin briefly (windows are
  // typically microseconds apart under load), then block on the condvar so
  // oversubscribed machines don't burn whole scheduler quanta.
  std::mutex mu_;
  std::condition_variable cv_;
  std::atomic<std::uint64_t> epoch_{0};
  std::atomic<std::uint32_t> done_{0};
  std::atomic<bool> stop_{false};
  std::atomic<bool> failed_{false};
  std::exception_ptr error_;  ///< first callback exception (guarded by mu_)
  SimTime window_end_ = 0.0;
  /// True from the epoch bump to the end of the barrier wait, i.e. while
  /// shard callbacks may run; `post` checks receiver clocks only outside.
  /// Written by the coordinator; the epoch/done handshake orders the
  /// workers' reads.
  bool in_window_ = false;
};

}  // namespace lifl::sim
