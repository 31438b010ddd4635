#include "src/sim/simulator.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <utility>

namespace lifl::sim {

namespace {
/// Rebuild (grow the bucket array) past this average bucket occupancy.
constexpr std::size_t kMaxAvgOccupancy = 8;
/// Fruitless window advances before jumping straight to the earliest event.
constexpr std::size_t kJumpAfterEmptyWindows = 64;
}  // namespace

void Simulator::grow_slots() {
  free_.push_back(static_cast<std::uint32_t>(slots_.size()));
  slots_.emplace_back();
}

void Simulator::near_push(SimTime t, std::uint64_t seq, std::uint32_t slot) {
  const TimedEntry e{t, seq, slot};
  if (!near_heap_ && near_.size() == kNearRunCap) {
    // Ascending order is a valid min-heap.
    std::reverse(near_.begin(), near_.end());
    near_heap_ = true;
  }
  std::size_t i = near_.size();
  near_.emplace_back();
  if (!near_heap_) {
    // Latest-first run: shift the entries due before `e` one step back.
    while (i > 0 && entry_later(e, near_[i - 1])) {
      near_[i] = near_[i - 1];
      --i;
    }
  } else {
    // Sift the hole up.
    while (i > 0) {
      const std::size_t parent = (i - 1) / 2;
      if (!entry_later(near_[parent], e)) break;
      near_[i] = near_[parent];
      i = parent;
    }
  }
  near_[i] = e;
}

void Simulator::near_pop() {
  if (!near_heap_) {
    near_.pop_back();
    return;
  }
  const TimedEntry last = near_.back();
  near_.pop_back();
  const std::size_t n = near_.size();
  if (n < kNearRunCap / 2) {
    // Drained: back to a run. The root is already gone, so `last` simply
    // joins the rest before sorting.
    if (n > 0) near_[0] = last;
    std::sort(near_.begin(), near_.end(), entry_later);
    near_heap_ = false;
    return;
  }
  // Sift the hole at the root down, then drop `last` into it.
  std::size_t i = 0;
  for (;;) {
    const std::size_t l = 2 * i + 1;
    if (l >= n) break;
    const std::size_t r = l + 1;
    std::size_t next = (r < n && entry_later(near_[l], near_[r])) ? r : l;
    if (!entry_later(last, near_[next])) break;
    near_[i] = near_[next];
    i = next;
  }
  near_[i] = last;
}

void Simulator::calendar_insert(std::uint32_t slot) {
  const Slot& s = slots_[slot];
  if (buckets_.empty() || s.t < win_end_) {
    near_push(s.t, s.seq, slot);
    if (buckets_.empty() && near_.size() > kCalendarBuildThreshold) {
      rebuild_calendar();
    }
    return;
  }
  // O(1) intrusive splice; the slot's line is already open from the
  // callback store, so only the 4-byte head write touches new memory.
  std::uint32_t& head = buckets_[bucket_of(s.t)];
  slots_[slot].next = head;
  head = slot;
  if (timed_live_ > buckets_.size() * kMaxAvgOccupancy) rebuild_calendar();
}

void Simulator::rebuild_calendar() {
  // Gather live timed slots; recycle tombstones met along the way.
  std::vector<std::uint32_t> live;
  live.reserve(timed_live_);
  for (const TimedEntry& e : near_) {
    if (slots_[e.slot].tombstone) {
      free_slot(e.slot);
    } else {
      live.push_back(e.slot);
    }
  }
  near_.clear();
  near_heap_ = false;
  for (std::uint32_t head : buckets_) {
    while (head != kNil) {
      const std::uint32_t next = slots_[head].next;
      if (next != kNil) __builtin_prefetch(&slots_[next]);
      if (slots_[head].tombstone) {
        free_slot(head);
      } else {
        live.push_back(head);
      }
      head = next;
    }
  }

  std::size_t nb = 16;
  while (nb * 2 < live.size()) nb <<= 1;
  buckets_.assign(nb, kNil);

  SimTime hi = now_;
  for (const std::uint32_t s : live) hi = std::max(hi, slots_[s].t);
  const SimTime span = hi - now_;
  bucket_width_ = span > 0 ? span / static_cast<double>(nb) : 1.0;
  // Numeric floor so the absolute window index stays well inside 64 bits.
  bucket_width_ = std::max(bucket_width_, std::max(hi, 1.0) * 1e-12);

  cur_window_ = static_cast<std::uint64_t>(now_ / bucket_width_);
  win_end_ = static_cast<SimTime>(cur_window_ + 1) * bucket_width_;
  for (const std::uint32_t s : live) {
    if (slots_[s].t < win_end_) {
      near_push(slots_[s].t, slots_[s].seq, s);
    } else {
      std::uint32_t& head = buckets_[bucket_of(slots_[s].t)];
      slots_[s].next = head;
      head = s;
    }
  }
}

void Simulator::open_windows() {
  std::size_t fruitless = 0;
  while (near_.empty() && timed_live_ > 0) {
    ++cur_window_;
    win_end_ = static_cast<SimTime>(cur_window_ + 1) * bucket_width_;
    std::uint32_t& bucket = buckets_[cur_window_ & (buckets_.size() - 1)];
    std::uint32_t chain = bucket;
    std::uint32_t kept = kNil;
    while (chain != kNil) {
      const std::uint32_t next = slots_[chain].next;
      // The chain wanders the slab; start the next line's fetch while this
      // entry is classified (pointer-chase latency dominates the walk).
      if (next != kNil) __builtin_prefetch(&slots_[next]);
      if (slots_[chain].tombstone) {
        free_slot(chain);
      } else if (slots_[chain].t < win_end_) {
        near_push(slots_[chain].t, slots_[chain].seq, chain);
      } else {
        slots_[chain].next = kept;  // a later "year" of this bucket
        kept = chain;
      }
      chain = next;
    }
    bucket = kept;
    if (!near_.empty()) return;
    if (++fruitless >= kJumpAfterEmptyWindows) {
      // Sparse region: jump the window straight to the earliest live event
      // instead of grinding through empty buckets one by one.
      SimTime min_t = std::numeric_limits<SimTime>::infinity();
      for (std::uint32_t head : buckets_) {
        for (std::uint32_t s = head; s != kNil; s = slots_[s].next) {
          if (!slots_[s].tombstone) min_t = std::min(min_t, slots_[s].t);
        }
      }
      if (min_t == std::numeric_limits<SimTime>::infinity()) return;
      // Every chained event has t >= win_end_, so this lands ahead of the
      // current window and the ++ above reopens exactly its window.
      cur_window_ = static_cast<std::uint64_t>(min_t / bucket_width_) - 1;
      fruitless = 0;
    }
  }
}

void Simulator::ring_push(RingEntry e) {
  if (ring_size_ == ring_.size()) {
    // Grow to the next power of two, unwrapping head..tail.
    std::vector<RingEntry> bigger(ring_.empty() ? 16 : ring_.size() * 2);
    for (std::size_t i = 0; i < ring_size_; ++i) {
      bigger[i] = ring_[(ring_head_ + i) & (ring_.size() - 1)];
    }
    ring_ = std::move(bigger);
    ring_head_ = 0;
  }
  ring_[(ring_head_ + ring_size_) & (ring_.size() - 1)] = e;
  ++ring_size_;
}

EventId Simulator::enqueue(std::uint32_t slot, SimTime t, bool daemon,
                           std::uint64_t seq) {
  if (t < now_) t = now_;
  Slot& s = slots_[slot];
  s.daemon = daemon;
  s.next = kNil;
  s.t = t;
  s.seq = seq;
  if (t == now_) {
    s.timed = false;
    ring_push(RingEntry{s.seq, slot});
  } else {
    s.timed = true;
    ++timed_live_;
    calendar_insert(slot);
  }
  ++pending_;
  if (!daemon) ++regular_pending_;
  return (static_cast<EventId>(slots_[slot].gen) << 32) | slot;
}

bool Simulator::cancel(EventId id) {
  const auto slot = static_cast<std::uint32_t>(id & 0xffffffffu);
  const auto gen = static_cast<std::uint32_t>(id >> 32);
  if (slot >= slots_.size()) return false;
  Slot& s = slots_[slot];
  if (s.gen != gen || s.tombstone) return false;
  // Destroy the callback now (it may pin resources); the queue handle is
  // recycled when it surfaces, never transiting the dispatch heap.
  s.cb = nullptr;
  s.tombstone = true;
  if (!s.daemon) --regular_pending_;
  if (s.timed) --timed_live_;
  --pending_;
  return true;
}

void Simulator::skim_tombstones() {
  while (ring_size_ > 0) {
    const std::uint32_t slot = ring_[ring_head_].slot;
    if (!slots_[slot].tombstone) break;
    free_slot(slot);
    ring_pop();
  }
  for (;;) {
    while (!near_.empty() && slots_[near_front().slot].tombstone) {
      free_slot(near_front().slot);
      near_pop();
    }
    if (!near_.empty() || timed_live_ == 0 || buckets_.empty()) break;
    open_windows();
    if (near_.empty()) break;  // nothing live anywhere in the calendar
  }
}

bool Simulator::dispatch_next(SimTime limit, bool bounded, bool strict) {
  skim_tombstones();
  const bool ring_ok = ring_size_ > 0;
  const bool near_ok = !near_.empty();
  if (!ring_ok && !near_ok) return false;

  // Ring entries are due at `now_` (time cannot advance while any are
  // pending); the near front is due at `now_` or later. When both are due
  // at the same instant, the smaller sequence number was scheduled first.
  bool use_ring;
  if (ring_ok && near_ok) {
    const TimedEntry& front = near_front();
    use_ring = front.t > now_ || ring_[ring_head_].seq < front.seq;
  } else {
    use_ring = ring_ok;
  }

  std::uint32_t slot;
  if (use_ring) {
    if (bounded && (now_ > limit || (strict && now_ >= limit))) return false;
    slot = ring_[ring_head_].slot;
    ring_pop();
  } else {
    const TimedEntry& front = near_front();
    if (bounded && (front.t > limit || (strict && front.t >= limit))) {
      return false;
    }
    slot = front.slot;
    now_ = front.t;
    near_pop();
    --timed_live_;
  }

  Callback cb = std::move(slots_[slot].cb);
  if (!slots_[slot].daemon) --regular_pending_;
  --pending_;
  free_slot(slot);
  ++dispatched_;
  cb();
  return true;
}

bool Simulator::step() { return dispatch_next(0, /*bounded=*/false); }

std::size_t Simulator::run(std::size_t max_events) {
  std::size_t n = 0;
  while (n < max_events && regular_pending_ > 0 &&
         dispatch_next(0, /*bounded=*/false)) {
    ++n;
  }
  return n;
}

std::size_t Simulator::run_until(SimTime t) {
  std::size_t n = 0;
  while (dispatch_next(t, /*bounded=*/true)) ++n;
  if (t > now_) now_ = t;
  return n;
}

std::size_t Simulator::run_window(SimTime end, std::size_t max_events) {
  std::size_t n = 0;
  while (n < max_events &&
         dispatch_next(end, /*bounded=*/true, /*strict=*/true)) {
    ++n;
  }
  return n;
}

void Simulator::restore_clock(SimTime t, std::uint64_t dispatched) {
  if (pending_ != 0) {
    throw std::logic_error(
        "Simulator::restore_clock: events are pending; the clock can only "
        "be restored onto an idle core");
  }
  if (t < now_) {
    throw std::logic_error(
        "Simulator::restore_clock: the clock cannot move backwards");
  }
  now_ = t;
  dispatched_ = dispatched;
}

SimTime Simulator::next_event_time() {
  skim_tombstones();
  if (ring_size_ > 0) return now_;  // ring entries are always due at now()
  if (!near_.empty()) return near_front().t;
  return std::numeric_limits<SimTime>::infinity();
}

}  // namespace lifl::sim
