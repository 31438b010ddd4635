#pragma once

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/sim/task.hpp"
#include "src/sim/time.hpp"

namespace lifl::sim {

/// Discrete-event simulator: a virtual clock plus an event queue.
///
/// Events scheduled for the same instant run in scheduling order (FIFO
/// tie-breaking on a monotonically increasing sequence number), which makes
/// runs fully deterministic. Callbacks may schedule or cancel further events,
/// including at the current instant. *Keyed deliveries*
/// (`schedule_delivery`) are the one exception: at their instant they run
/// before every other event, in key order.
///
/// *Daemon* events model background periodic work (metrics polling,
/// samplers): they execute normally while regular events exist, but do not
/// by themselves keep `run()` alive — exactly like daemon threads.
///
/// The core is built for million-event campaigns:
///  - Every event is one slab record (callback, time, sequence number)
///    allocated off a free list, with the callable built in place:
///    scheduling performs no per-event heap allocation and no map
///    insert/erase.
///  - Timed events run through a two-stage queue. The near stage serves
///    dispatch: a latest-first sorted run while it holds at most
///    `kNearRunCap` events (campaign shards hold ~30-110 pending, and a new
///    event lands a few ranks from the front), a binary min-heap above
///    that. Only past `kCalendarBuildThreshold` pending does the calendar
///    stage build: far events then sit in intrusive bucket chains (a `next`
///    index threaded through the slab, one O(1) splice per event), and
///    each opening time window moves its chain into the near stage, which
///    so stays cache-resident instead of growing to the full population.
///  - Zero-delay events (`schedule_now`, or any schedule that lands exactly
///    at `now()`) take a FIFO ring fast-path that bypasses the calendar
///    entirely; cross-queue ordering is preserved by comparing sequence
///    numbers whenever a timed event is also due at the current instant.
///  - `cancel` is O(1): it destroys the callback and tombstones the record;
///    the queue entry is discarded (and the slot recycled) when it
///    surfaces, never transiting the dispatch heap.
///
/// A sharded run gives each shard thread its own core, and every field here
/// is written on each dispatch, so the core starts on a cache line of its
/// own: no two shards' clocks, counters and ring indices share a line.
class alignas(64) Simulator {
 public:
  using Callback = Task;

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time (seconds).
  SimTime now() const noexcept { return now_; }

  // Every `schedule_*` takes the callable by forwarding reference and builds
  // it directly in its event slot (`TaskFn::emplace`): a lambda or functor
  // is constructed once, a `Task` rvalue relocated once. An lvalue `Task`
  // does not compile (`TaskFn::accepts_v`); std::move it in.
  template <typename F>
  using IfCallback = std::enable_if_t<Callback::accepts_v<F>, int>;

  /// Schedule `cb` at absolute time `t` (clamped to `now()` if in the past).
  template <typename F, IfCallback<F> = 0>
  EventId schedule_at(SimTime t, F&& cb) {
    return schedule_impl(t, std::forward<F>(cb), /*daemon=*/false,
                         next_seq_++);
  }

  /// Schedule `cb` after a relative delay `dt >= 0`.
  template <typename F, IfCallback<F> = 0>
  EventId schedule_after(SimTime dt, F&& cb) {
    return schedule_impl(now_ + (dt > 0 ? dt : 0), std::forward<F>(cb),
                         /*daemon=*/false, next_seq_++);
  }

  /// Schedule `cb` at the current instant, after all events already
  /// scheduled for this instant (same semantics as `schedule_after(0, cb)`
  /// but guaranteed to take the heap-free fast path).
  template <typename F, IfCallback<F> = 0>
  EventId schedule_now(F&& cb) {
    return schedule_impl(now_, std::forward<F>(cb), /*daemon=*/false,
                         next_seq_++);
  }

  /// Schedule a daemon event: runs like a normal event but does not keep
  /// `run()` going once all regular events have drained.
  template <typename F, IfCallback<F> = 0>
  EventId schedule_daemon_at(SimTime t, F&& cb) {
    return schedule_impl(t, std::forward<F>(cb), /*daemon=*/true,
                         next_seq_++);
  }

  /// Daemon variant of `schedule_after`.
  template <typename F, IfCallback<F> = 0>
  EventId schedule_daemon_after(SimTime dt, F&& cb) {
    return schedule_impl(now_ + (dt > 0 ? dt : 0), std::forward<F>(cb),
                         /*daemon=*/true, next_seq_++);
  }

  /// Daemon variant of `schedule_now`.
  template <typename F, IfCallback<F> = 0>
  EventId schedule_daemon_now(F&& cb) {
    return schedule_impl(now_, std::forward<F>(cb), /*daemon=*/true,
                         next_seq_++);
  }

  /// Schedule a keyed delivery at `t`, which must lie after `now()`. Among
  /// the events of one instant, keyed deliveries run first, in `key` order,
  /// and all other events after them in scheduling order. `key` must be
  /// below `kLocalSeqBase` and unique among the deliveries pending for `t`.
  /// The sharded core schedules every `post` this way, so that deliveries
  /// tied at an instant run in an order no shard mapping can change.
  template <typename F, IfCallback<F> = 0>
  EventId schedule_delivery(SimTime t, std::uint64_t key, F&& cb) {
    return schedule_impl(t, std::forward<F>(cb), /*daemon=*/false, key);
  }
  /// Sequence numbers of ordinary events start here; delivery keys lie
  /// below, so they sort first among equal timestamps.
  static constexpr std::uint64_t kLocalSeqBase = std::uint64_t{1} << 63;

  /// Cancel a pending event. Returns false if it already ran or was cancelled.
  bool cancel(EventId id);

  /// Run a single event (daemon or not). Returns false if the queue is empty.
  bool step();

  /// Run until no regular (non-daemon) events remain, or until `max_events`
  /// were dispatched; returns the number of events dispatched (daemons
  /// included).
  std::size_t run(std::size_t max_events = SIZE_MAX);

  /// Run events with time <= `t` (regular and daemon), then set the clock
  /// to `t`. Returns the number of events dispatched.
  std::size_t run_until(SimTime t);

  /// Run events with time strictly < `end` (regular and daemon) and stop.
  /// Unlike `run_until` the clock is left at the last dispatched event, not
  /// advanced to `end`. This is the body of the sharded core's horizon
  /// protocol: a shard may safely execute everything below its horizon
  /// because no cross-shard event can land earlier. Stops early once
  /// `max_events` were dispatched: a shard republishes its own bound
  /// between such slices.
  std::size_t run_window(SimTime end, std::size_t max_events = SIZE_MAX);

  /// Timestamp of the earliest pending event (daemons included), or
  /// +infinity when the queue is empty. May rotate calendar windows to find
  /// the front, but never dispatches and never advances the clock.
  SimTime next_event_time();

  /// Restore a checkpointed clock onto an idle simulator: sets `now()` and
  /// the dispatched total so a rebuilt model resumes at its snapshot time.
  /// Only legal while no events are pending (a fresh core, or one that has
  /// fully drained) and the clock does not move backwards; the calendar
  /// re-anchors itself on the restored time at its next build. The sequence
  /// counter is deliberately left alone: FIFO tie-breaking depends only on
  /// the *relative* order of schedule calls, which a deterministic replay
  /// reproduces.
  void restore_clock(SimTime t, std::uint64_t dispatched);

  /// Number of pending (non-cancelled) events, daemons included.
  std::size_t pending() const noexcept { return pending_; }

  /// Number of pending regular (non-daemon) events.
  std::size_t pending_regular() const noexcept { return regular_pending_; }

  /// Total events dispatched so far.
  std::uint64_t dispatched() const noexcept { return dispatched_; }

  /// Largest near stage kept as a sorted run (a heap above it).
  static constexpr std::size_t kNearRunCap = 64;
  /// Near-stage size that triggers the first calendar build.
  static constexpr std::size_t kCalendarBuildThreshold = 2048;

 private:
  static constexpr std::uint32_t kNil = 0xffffffffu;

  /// One event record. A slot is owned by exactly one queue entry (bucket
  /// chain link, near-stage handle, or ring handle) from schedule until that
  /// entry surfaces, so cancellation only tombstones it here and the
  /// surfacing code recycles it. Exactly one cache line: the chain link is
  /// written while the line is already open for the callback store, so
  /// scheduling into a bucket costs no extra fill.
  struct alignas(64) Slot {
    Callback cb;
    SimTime t = 0.0;
    std::uint64_t seq = 0;
    std::uint32_t next = kNil;  ///< intrusive bucket-chain link
    std::uint32_t gen = 0;      ///< stale-EventId guard; bumped on recycle
    bool daemon = false;
    bool timed = false;      ///< calendar/near (vs ring)
    bool tombstone = false;  ///< cancelled; recycle on surface
  };
  /// Near-stage handle: plain data, cheap to shift and sift.
  struct TimedEntry {
    SimTime t;
    std::uint64_t seq;
    std::uint32_t slot;
  };

  /// `seq` orders the event among those of its instant: the next ordinary
  /// sequence number, or a delivery key.
  template <typename F>
  EventId schedule_impl(SimTime t, F&& cb, bool daemon, std::uint64_t seq) {
    // Take the slot off the free list only once the callable is built in
    // it, so a throwing constructor leaks nothing.
    if (free_.empty()) grow_slots();
    const std::uint32_t slot = free_.back();
    slots_[slot].cb.emplace(std::forward<F>(cb));
    free_.pop_back();
    return enqueue(slot, t, daemon, seq);
  }
  /// Queue a slot whose callback is already in place.
  EventId enqueue(std::uint32_t slot, SimTime t, bool daemon,
                  std::uint64_t seq);
  /// Append one empty slot to the slab and free list.
  void grow_slots();
  /// Dispatch the earliest event. `bounded` restricts dispatch to events at
  /// or below `limit`; `strict` tightens that to strictly below.
  bool dispatch_next(SimTime limit, bool bounded, bool strict = false);

  void free_slot(std::uint32_t slot) {
    ++slots_[slot].gen;
    slots_[slot].tombstone = false;
    free_.push_back(slot);
  }

  static bool entry_later(const TimedEntry& a, const TimedEntry& b) noexcept {
    if (a.t != b.t) return a.t > b.t;
    return a.seq > b.seq;  // FIFO among equal timestamps
  }
  /// The earliest near entry (the run's back, or the heap's root).
  const TimedEntry& near_front() const noexcept {
    return near_heap_ ? near_.front() : near_.back();
  }
  void near_push(SimTime t, std::uint64_t seq, std::uint32_t slot);
  void near_pop();

  // Calendar stage.
  std::size_t bucket_of(SimTime t) const noexcept {
    return static_cast<std::size_t>(t / bucket_width_) & (buckets_.size() - 1);
  }
  void calendar_insert(std::uint32_t slot);
  /// Move the window forward until the near stage holds a live event (or no
  /// timed events remain). Never touches `now_`.
  void open_windows();
  /// Resize/re-anchor the calendar for the current live population/spread.
  void rebuild_calendar();

  struct RingEntry {
    std::uint64_t seq;
    std::uint32_t slot;
  };
  void ring_push(RingEntry e);
  void ring_pop() noexcept {
    ring_head_ = (ring_head_ + 1) & (ring_.size() - 1);
    --ring_size_;
  }
  /// Recycle cancelled entries until both queue fronts are live.
  void skim_tombstones();

  SimTime now_ = 0.0;
  std::uint64_t next_seq_ = kLocalSeqBase;
  std::uint64_t dispatched_ = 0;
  std::size_t pending_ = 0;
  std::size_t regular_pending_ = 0;
  std::size_t timed_live_ = 0;  ///< live events in near stage + calendar

  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;

  // Near stage: the events with t < win_end_, in one of two forms. Up to
  // `kNearRunCap` entries it is a run sorted latest-first, so the earliest
  // event is near_.back(): a pop is pop_back, and an insert shifts only the
  // entries earlier than the new one (campaign inserts land a few ranks from
  // the front). Past the cap it becomes a binary min-heap on (t, seq) — the
  // reversed run already is one — and it returns to a run once it drains
  // below half the cap, which bounds an insert at O(cap). May hold
  // tombstoned handles; `skim_tombstones` recycles them at the front.
  std::vector<TimedEntry> near_;
  bool near_heap_ = false;
  // Calendar stage: chain heads, one per bucket of width bucket_width_; an
  // event at t chains into bucket (t / width) mod nbuckets, so far-future
  // "years" share buckets with the current rotation and are filtered out by
  // time when a window opens. Empty until the first calendar build.
  std::vector<std::uint32_t> buckets_;
  double bucket_width_ = 1.0;
  std::uint64_t cur_window_ = 0;  ///< absolute index of the open window
  SimTime win_end_ = 0.0;         ///< exclusive end of the open window

  // Power-of-two circular buffer of same-instant events.
  std::vector<RingEntry> ring_;
  std::size_t ring_head_ = 0;
  std::size_t ring_size_ = 0;
};
static_assert(alignof(Simulator) >= 64);

}  // namespace lifl::sim
