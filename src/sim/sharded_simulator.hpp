#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "src/sim/calibration.hpp"
#include "src/sim/simulator.hpp"
#include "src/sim/task.hpp"
#include "src/sim/time.hpp"

namespace lifl::sim {

/// A sharded discrete-event simulator: K independent `Simulator` cores, one
/// per thread, synchronized without barriers by conservative (Chandy-Misra /
/// Bryant) horizons.
///
/// The model is partitioned into *shards* (node groups in the cluster): all
/// state of a shard is touched only by that shard's events, so each thread
/// drains its own slab/calendar core with zero shared-state traffic.
/// Cross-shard interaction goes through `post`, which pushes the event into
/// a single-producer single-consumer mailbox for the (sender, receiver)
/// pair.
///
/// Protocol. Every shard s publishes `eot[s]` (earliest outbound time), a
/// lower bound on the delivery time of any cross-shard post it can still
/// make: `max(min(next_s, H_s) + lookahead, promise_s)`, where `next_s` is
/// its next event time, `H_s` its horizon and `promise_s` its installed
/// outbound promise (`set_promise`). It stores the value with release only
/// after the posts it covers sit in their mailboxes. A shard loads
/// `H_s = min over the other shards j of eot[j]` with acquire, *then* drains
/// its inbound mailboxes, and runs its events strictly below `H_s`: every
/// post it has not yet received was made after the loaded bounds were
/// published, so it lands at or beyond `H_s`, never in the shard's past.
/// Each shard then re-publishes its own bound and waits (a brief spin, then
/// a futex) until its horizon rises. Bounds only grow, and each refresh
/// moves a shard's bound at least one lookahead past its horizon, so the
/// shards make progress with no global step. The calling thread runs shard
/// 0; shards 1..K-1 run on persistent worker threads, each pinned to a CPU
/// of its own when the process may use K CPUs (`ThreadPlacement`).
///
/// Every post names its sender's *lane* (a model partition, e.g. a node
/// group), and deliveries tied at an instant run in (lane, the lane's post
/// order) order, ahead of the receiver's other events of that instant
/// (`Simulator::schedule_delivery`), so no tie resolves differently under
/// another group->shard mapping.
///
/// Determinism: with one shard, `run()` degenerates to the plain
/// single-threaded `Simulator::run()` (no threads — bit identical to the
/// unsharded core). With K > 1, a model partitioned so that groups share no
/// state produces identical per-group results for any K: each group's
/// events carry the same timestamps and the same relative order regardless
/// of which shard executes them or how far its thread ran ahead (see
/// tests/sharded_sim_test.cpp). One caveat: *daemon* events past a shard's
/// last regular event run at K > 1 up to wherever that shard's horizon
/// stood when the run went quiescent, which depends on thread timing (a
/// single-threaded `run()` stops exactly at the last regular event) — a
/// model must not let daemon tails feed back into measured state, nor post
/// or schedule regular work from them.
class ShardedSimulator {
 public:
  struct Config {
    std::size_t shards = 1;
    /// Conservative lookahead — must be a lower bound on the delivery
    /// delay of every `post` (post clamps to it).
    SimTime lookahead = calib::kCrossShardLatencySecs;
  };

  /// Always-on per-shard synchronization accounting. Process-local: the
  /// counts depend on thread timing, never feed back into the simulation,
  /// and recording them keeps results bitwise identical.
  struct WindowStats {
    std::uint64_t windows = 0;        ///< horizon refreshes the shard ran
    std::uint64_t empty_windows = 0;  ///< refreshes that dispatched nothing
    double idle_wall_secs = 0.0;      ///< wall spent waiting for a horizon
    /// Largest finite amount (sim s) by which the installed promise raised
    /// the published bound over `min(next, H) + lookahead`; 0 if it never
    /// did (a promise of +inf — no post ever again — is not counted).
    double max_promise_lead = 0.0;
    /// CPU seconds the shard's own thread spent running it, waits included
    /// (`CLOCK_THREAD_CPUTIME_ID`). Unlike the fields above, also filled in
    /// 1-shard mode, where it is the calling thread's run time.
    double cpu_secs = 0.0;
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
  /// the calling thread between runs) on behalf of `lane`: the model
  /// partition that posts, which lives on shard `from` and makes its posts
  /// in the same order for every shard count (the campaign's node groups,
  /// plus one lane for the top). Lanes are below `kMaxLanes`. `t` is
  /// clamped up to `shard(from).now() + lookahead()`; the clamp is
  /// identical whether or not `from == to`, so a model's timing does not
  /// depend on how its groups map onto shards. Deliveries that land on one
  /// shard at one instant run before its other events of that instant,
  /// ordered by lane and then by the lane's post order. Same-shard posts
  /// schedule directly; cross-shard posts inside a run ride the mailbox.
  /// Inside a run, a cross-shard post below the sender's last published
  /// bound means its promise was unsound and throws `std::logic_error`.
  /// Between runs, a cross-shard post whose (clamped) time is at or before
  /// `shard(to).now()` would land in the receiver's past and throws
  /// `std::invalid_argument`.
  void post(std::size_t from, std::size_t to, std::uint32_t lane, SimTime t,
            Task cb);
  /// Lanes `post` accepts: a delivery key is the lane above a 40-bit
  /// per-shard post count, below `Simulator::kLocalSeqBase`.
  static constexpr unsigned kLaneShift = 40;
  static constexpr std::uint32_t kMaxLanes = 1u << (63 - kLaneShift);

  /// Run until no regular (non-daemon) event remains on any shard and no
  /// mail is in flight (global quiescence). Returns the number of events
  /// dispatched across all shards during this call. Only the thread that
  /// owns shard 0 may call it.
  std::uint64_t run();

  /// Run like `run()`, but every shard stops exactly at `mark`: it runs all
  /// of its events below the mark and none at or beyond it (or stops
  /// earlier at quiescence). Pausing is *bit-transparent*: horizons bound
  /// only what may run, never the order in which a shard runs its events,
  /// so interleaving `run_to` calls (and a final `run()`) dispatches
  /// exactly the event sequence an uninterrupted `run()` would — the
  /// property campaign checkpointing rests on. In K = 1 mode daemon events
  /// below the mark run even past the last regular event (plain `run()`
  /// would stop at it), as already allowed by the daemon caveat above.
  std::uint64_t run_to(SimTime mark);

  /// Total events dispatched across all shards so far.
  std::uint64_t dispatched() const;
  /// Regular (non-daemon) events pending across all shards + mailboxes.
  /// Between runs only.
  std::size_t pending_regular() const;
  /// Cross-shard events posted so far (same-shard posts excluded). Between
  /// runs only.
  std::uint64_t cross_posts() const noexcept;
  /// Horizon refreshes run by all shards so far (see `WindowStats`).
  /// Process-local, like the stats it sums. Zero with one shard.
  std::uint64_t windows() const noexcept;
  /// Refreshes whose published bound the shard's promise raised above the
  /// conservative `min(next, horizon) + lookahead`. Process-local.
  std::uint64_t windows_skipped() const noexcept;

  /// Install shard `s`'s outbound promise (an empty function uninstalls
  /// it). The function returns a lower bound on the delivery time of any
  /// cross-shard `post` shard `s` will make from its current state — 0 for
  /// "no promise" (the shard publishes its conservative bound only) and
  /// +infinity for "this shard will never post again". The contract:
  ///  - it is evaluated on shard `s`'s own thread, after the shard ran
  ///    every event below its horizon H_s, at every horizon refresh;
  ///  - it reads only shard `s`'s own model state, immutable setup data, or
  ///    snapshots other shards publish (with their own synchronization):
  ///    other shards run concurrently, so their live state is off limits;
  ///  - it must hold for every future the shard can still have, including
  ///    any delivery at or beyond H_s reaching it later;
  ///  - it must not change model state, or pausing stops being
  ///    bit-transparent.
  /// A promise contradicted by an actual post below the published bound is
  /// a model bug and raises `std::logic_error` at the offending `post`.
  void set_promise(std::size_t s, std::function<SimTime()> fn) {
    shards_[s].promise = std::move(fn);
  }

  /// Declare the shards `s` may post to (by default every other shard). A
  /// shard's horizon is the least bound over the shards that may post to
  /// it, so a sparse declaration lets shards that never talk run
  /// independently. A cross-shard post to an undeclared receiver is a model
  /// bug and throws `std::logic_error`. Between runs only.
  void set_receivers(std::size_t s, const std::vector<std::size_t>& to);

  /// Run `fn(s)` once for every shard s on that shard's own thread (shard
  /// 0 on the calling thread) and return when all have finished,
  /// rethrowing the first exception any of them threw. Between runs only.
  /// A model that builds each shard's state this way gets it from that
  /// thread's allocator arena, away from the other shards' cache lines.
  void on_each_shard(const std::function<void(std::size_t)>& fn);

  /// Per-shard synchronization stats (zero in 1-shard mode, but for
  /// `cpu_secs`). Between runs.
  const WindowStats& window_stats(std::size_t i) const {
    return shards_[i].stats;
  }

 private:
  struct CrossEvent {
    SimTime t;
    std::uint64_t key;  ///< delivery key: lane, then the sender's post count
    Task cb;
  };

  /// Unbounded single-producer single-consumer queue (Vyukov's intrusive
  /// node queue): the sender links a node behind `tail` with release, the
  /// receiver walks `head` with acquire. `head` is always a consumed stub.
  struct MailNode {
    CrossEvent ev;
    std::atomic<MailNode*> next{nullptr};
  };
  struct Mailbox {
    alignas(64) MailNode* tail = nullptr;  ///< sender-owned
    alignas(64) MailNode* head = nullptr;  ///< receiver-owned stub
  };

  /// Per-shard state owned by the shard's thread during a run (by the
  /// calling thread between runs), cache-line separated from its
  /// neighbours.
  struct alignas(64) ShardCell {
    std::unique_ptr<Simulator> sim;
    std::function<SimTime()> promise;
    std::uint64_t post_seq = 0;  ///< every post, the low bits of its keys
    std::uint64_t posted = 0;    ///< cross-shard posts
    std::uint64_t skipped = 0;   ///< see `windows_skipped`
    SimTime eot = 0.0;           ///< owner's copy of the published bound
    bool active = false;         ///< counted in `active_`
    WindowStats stats;
    std::vector<std::size_t> senders;    ///< shards that may post here
    std::vector<std::size_t> receivers;  ///< shards this one may post to
  };

  /// What a shard shares with the others: its published bound, the horizon
  /// value it is blocked at (+inf when not waiting) and its futex word.
  struct alignas(64) Link {
    std::atomic<SimTime> eot{0.0};
    std::atomic<SimTime> need{0.0};
    std::atomic<std::uint32_t> wake{0};
  };

  Mailbox& mailbox(std::size_t src, std::size_t dst) {
    return mail_[src * shards_.size() + dst];
  }
  std::uint64_t run_impl(SimTime mark);
  /// Spawn the K-1 worker threads on first multi-shard use; they persist,
  /// parked on `run_epoch_`, across run/run_to calls and are joined by the
  /// destructor.
  void ensure_workers();
  /// One shard's run: refresh, drain, run below the horizon, publish, wait.
  void shard_loop(std::size_t s);
  /// Rebuild every shard's sender and receiver lists from `may_post_`.
  void relink();
  /// min over the published bounds of the shards that may post to `s`.
  SimTime horizon(std::size_t s) const;
  /// Move shard `s`'s inbound mail into its core. Returns the count.
  std::size_t drain_inbound(std::size_t s);
  /// Publish `v` as shard `s`'s bound and wake receivers blocked below it.
  void publish(std::size_t s, SimTime v);
  /// Block shard `s` until its horizon exceeds `at`, or the run ends.
  void wait_for_horizon(std::size_t s, SimTime at);
  /// The run is over (quiescent or failed): release every waiter.
  void end_run();
  void record_error() noexcept;
  /// Start the workers on the current epoch's job (a run, or `task_`).
  void start_workers();
  /// Wait until every worker finished the current job, end the run
  /// (`running_`), and rethrow the job's first error.
  void join_workers();

  SimTime lookahead_;
  std::vector<ShardCell> shards_;
  std::unique_ptr<Link[]> links_;
  std::vector<Mailbox> mail_;
  /// may_post_[src * K + dst]: `set_receivers` declared the pair.
  std::vector<char> may_post_;
  std::vector<std::thread> workers_;

  // ---- run control (shard_count() > 1) ---------------------------------
  /// Bumped by the calling thread to start a run (and at shutdown);
  /// workers futex-wait on it between runs.
  alignas(64) std::atomic<std::uint32_t> run_epoch_{0};
  std::atomic<bool> shutdown_{false};
  /// Workers that finished the current run; the caller futex-waits on it.
  alignas(64) std::atomic<std::uint32_t> workers_done_{0};
  /// Active shards plus cross-shard mail in flight: the run is quiescent
  /// when it reaches zero.
  alignas(64) std::atomic<std::int64_t> active_{0};
  /// Set once the run is quiescent or failed; every shard loop exits.
  alignas(64) std::atomic<bool> stop_{false};
  std::atomic<bool> failed_{false};
  std::mutex error_mu_;
  std::exception_ptr error_;  ///< first callback exception
  /// The current run's mark (+inf for `run()`); written before the epoch
  /// bump that starts the run.
  SimTime mark_ = 0.0;
  /// The `on_each_shard` job the workers run instead of a shard loop
  /// (null during runs); written before the epoch bump.
  const std::function<void(std::size_t)>* task_ = nullptr;
  /// True while a multi-shard run is in progress (set and cleared by the
  /// calling thread around the epoch handshake): selects mailbox posts and
  /// the promise check over the between-runs receiver check.
  bool running_ = false;
};

}  // namespace lifl::sim
