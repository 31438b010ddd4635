#pragma once

#include <map>
#include <stdexcept>
#include <utility>
#include <vector>

#include "src/fl/model_update.hpp"
#include "src/obs/registry.hpp"
#include "src/sim/fifo.hpp"
#include "src/sim/simulator.hpp"
#include "src/sim/task.hpp"

namespace lifl::dp {

/// Event-driven FIFO of pending model updates on a node.
///
/// This is the node-level message queue that client updates land in after
/// the gateway's one-time payload processing (§4.2): leaf aggregators pull
/// from it (pull model = the "in fact function chains" consumption order of
/// §5). Under LIFL the payload already sits in shared memory and the entry
/// is just a key: the pool holds `fl::UpdateDesc`s, whose payload handles
/// name shm store entries (LIFL) or plane payload-slab cells (baseline
/// planes). Under baseline planes it stands in for the broker queue /
/// aggregator in-memory queue, with costs billed by the plane. A
/// descriptor's payload reference moves with it: the pool neither retains
/// nor releases, and dropping a pool with entries releases nothing (the
/// plane that owns the payloads frees them with itself).
///
/// A consumer's pull requests park as runs: `pop_async(w, n)` is one
/// {waiter, requests left} entry however large `n` is, so an idle leaf
/// fleet holds one entry per leaf, not one callable per unit of its goal.
class UpdatePool {
 public:
  /// Consumer callback. A `sim::TaskFn` (24-byte inline, move-only): the
  /// aggregator's pool waiter is a 16-byte runtime handle, so parking and
  /// waking a consumer never heap-allocates for the callable itself, and
  /// a run's wakes copy it (`TaskFn::copy`).
  using Waiter = sim::TaskFn<fl::UpdateDesc>;

  explicit UpdatePool(sim::Simulator& sim) : sim_(sim) {}

  /// Enqueue; wakes the longest-waiting request, if any: the front run's
  /// waiter, which leaves the pool with the run's last request. Delivery
  /// happens at the current instant through the simulator's zero-delay
  /// fast path: the (waiter, update) pair parks in the pool's wake slab and
  /// the event is a 12-byte {pool, slot} trampoline, so a wake allocates
  /// nothing once the slab has grown to the pending-wake high-water mark.
  void push(const fl::UpdateDesc& u) {
    ++total_pushed_;
    if (!runs_.empty()) {
      Run& r = runs_.front();
      --parked_;
      if (--r.left != 0) {
        wake(r.waiter.copy(), u);
      } else {
        wake(std::move(r.waiter), u);
        runs_.pop_front();
      }
      return;
    }
    entries_.push_back(Entry{u, sim_.now()});
    max_depth_ = std::max(max_depth_, entries_.size());
    wake_depth_watchers();
  }

  /// Synchronous pop; false if empty.
  bool try_pop(fl::UpdateDesc& out) {
    if (entries_.empty()) return false;
    out = take_front();
    return true;
  }

  /// Asynchronous pop of `n` updates, as `n` back-to-back single pops: each
  /// fires immediately if buffered, else on a later push. The requests
  /// left unserved park as ONE run that the next pushes drain in order.
  /// Every wake but a run's last gets a copy of `w`, so `n > 1` requires a
  /// hot callable (`Waiter::hot()`, e.g. a runtime handle); otherwise
  /// throws std::invalid_argument.
  void pop_async(Waiter w, std::size_t n = 1) {
    if (n == 0) return;
    if (n > 1 && !w.hot()) {
      throw std::invalid_argument(
          "UpdatePool::pop_async: a run of requests needs a hot waiter");
    }
    for (; n > 1 && !entries_.empty(); --n) wake(w.copy(), take_front());
    if (!entries_.empty()) {
      wake(std::move(w), take_front());
      return;
    }
    parked_ += n;
    runs_.push_back(Run{std::move(w), n});
  }

  /// Remove all unclaimed waiters (e.g. when aggregators are torn down).
  void clear_waiters() {
    runs_.clear();
    parked_ = 0;
    depth_watchers_.clear();
  }

  /// Fire `fn` once the pool holds at least `n` buffered updates
  /// (immediately if it already does). Lazy aggregation tasks use this to
  /// defer consuming until their whole batch is queued (Fig. 1 "lazy":
  /// updates queue at the broker until the aggregator is ready for them).
  void when_depth(std::size_t n, sim::Task fn) {
    if (entries_.size() >= n) {
      sim_.schedule_now(std::move(fn));
      return;
    }
    depth_watchers_.push_back(DepthWatcher{n, std::move(fn)});
  }

  // ---- lease/ack recovery protocol ------------------------------------
  //
  // An aggregator consuming under lease semantics retains a copy of every
  // update it accepts, keyed by its own ParticipantId. The copy is a
  // descriptor holding one more reference on the payload (the consumer
  // retains it before handing it here), which keeps the backing shm object
  // alive: the pool is the pool half, the retained reference is the
  // ObjectStore half of "un-acked claims survive their consumer". On Send
  // the consumer acks its leases, releasing those references; on crash the
  // orchestrator aborts them and the retained copies come back — re-queued
  // to the pool for leaves, or re-injected into the replacement for
  // middles/top — so no client sample is ever lost to a crashed runtime.

  /// Record a retained copy of an accepted update under `owner`'s lease.
  /// The copy owns one payload reference, which the caller has retained.
  void lease_retain(fl::ParticipantId owner, const fl::UpdateDesc& u) {
    leases_[owner].push_back(u);
    ++total_retained_;
  }

  /// Ack `owner`'s leases, keeping only the `keep_newest` most recently
  /// retained entries — a recurring consumer acks at each Send but must
  /// keep updates still buffered for the *next* emission under lease.
  /// `release(desc)` drops each acked copy's payload reference, oldest
  /// first.
  template <typename Release>
  void lease_ack(fl::ParticipantId owner, std::size_t keep_newest,
                 Release&& release) {
    auto it = leases_.find(owner);
    if (it == leases_.end()) return;
    auto& v = it->second;
    if (v.size() > keep_newest) {
      const auto end = v.end() - static_cast<std::ptrdiff_t>(keep_newest);
      for (auto i = v.begin(); i != end; ++i) release(*i);
      total_acked_ += v.size() - keep_newest;
      v.erase(v.begin(), end);
    }
    if (v.empty()) leases_.erase(it);
  }

  /// Abort `owner`'s leases (consumer crashed): returns the retained
  /// copies in retention order for re-fold, clearing the lease. Their
  /// payload references pass to the caller.
  std::vector<fl::UpdateDesc> lease_abort(fl::ParticipantId owner) {
    auto it = leases_.find(owner);
    if (it == leases_.end()) return {};
    std::vector<fl::UpdateDesc> v = std::move(it->second);
    leases_.erase(it);
    total_aborted_ += v.size();
    return v;
  }

  /// Total updates currently retained under any lease.
  std::size_t leases() const noexcept {
    std::size_t n = 0;
    for (const auto& [owner, v] : leases_) n += v.size();
    return n;
  }
  std::uint64_t leases_retained() const noexcept { return total_retained_; }
  std::uint64_t leases_acked() const noexcept { return total_acked_; }
  std::uint64_t leases_aborted() const noexcept { return total_aborted_; }

  std::size_t depth() const noexcept { return entries_.size(); }
  /// Parked pull requests: a run of `n` counts `n`, less what it served.
  std::size_t waiter_count() const noexcept { return parked_; }
  std::size_t depth_watcher_count() const noexcept {
    return depth_watchers_.size();
  }
  std::size_t max_depth() const noexcept { return max_depth_; }
  std::uint64_t total_pushed() const noexcept { return total_pushed_; }
  double total_queueing_delay() const noexcept { return total_delay_; }

  /// Attach a passive per-pop queue-wait observer (the campaign's
  /// gateway-wait histogram). Observing never touches sim state, so an
  /// attached observer leaves results bitwise identical.
  void set_wait_observer(obs::HistSlot h) noexcept { wait_obs_ = h; }

  /// Restore checkpointed counters onto an idle pool (nothing buffered, no
  /// waiters or depth watchers parked); throws std::logic_error otherwise.
  /// The delay accumulator is a floating-point running sum and restores
  /// verbatim so post-resume accumulation stays bitwise identical.
  void restore_stats(std::size_t max_depth, std::uint64_t total_pushed,
                     double total_delay) {
    if (!entries_.empty() || !runs_.empty() || !depth_watchers_.empty()) {
      throw std::logic_error("UpdatePool::restore_stats: pool is not idle");
    }
    max_depth_ = max_depth;
    total_pushed_ = total_pushed;
    total_delay_ = total_delay;
  }

 private:
  struct Entry {
    fl::UpdateDesc update;
    double enqueued_at;
  };

  /// `left` back-to-back pull requests of one consumer.
  struct Run {
    Waiter waiter;
    std::size_t left;
  };

  struct DepthWatcher {
    std::size_t depth;
    sim::Task fn;
  };

  /// A consumer wake parked until its zero-delay event runs.
  struct Wake {
    Waiter waiter;
    fl::UpdateDesc update;
  };
  struct WakeFn {
    UpdatePool* pool;
    std::uint32_t slot;
    void operator()() const { pool->fire(slot); }
  };

  void wake(Waiter w, const fl::UpdateDesc& u) {
    std::uint32_t slot;
    if (!free_wakes_.empty()) {
      slot = free_wakes_.back();
      free_wakes_.pop_back();
      wakes_[slot] = Wake{std::move(w), u};
    } else {
      slot = static_cast<std::uint32_t>(wakes_.size());
      wakes_.push_back(Wake{std::move(w), u});
    }
    sim_.schedule_now(WakeFn{this, slot});
  }

  void fire(std::uint32_t slot) {
    Wake w = std::move(wakes_[slot]);
    free_wakes_.push_back(slot);
    w.waiter(w.update);
  }

  /// Fire every watcher satisfied by the current depth as ONE batched
  /// zero-delay event (registration order preserved) instead of an event
  /// per watcher: a push that releases a whole lazy-aggregation fan-in
  /// costs a single wake-up (and the batch vector is 24 bytes — the wake
  /// event's callable stays Task-inline).
  void wake_depth_watchers() {
    const std::size_t depth = entries_.size();
    std::vector<sim::Task> due;
    for (std::size_t i = 0; i < depth_watchers_.size();) {
      if (depth >= depth_watchers_[i].depth) {
        due.push_back(std::move(depth_watchers_[i].fn));
        depth_watchers_.erase(depth_watchers_.begin() +
                              static_cast<std::ptrdiff_t>(i));
      } else {
        ++i;
      }
    }
    if (due.empty()) return;
    sim_.schedule_now([due = std::move(due)]() mutable {
      for (auto& fn : due) fn();
    });
  }

  fl::UpdateDesc take_front() {
    const Entry e = entries_.front();
    entries_.pop_front();
    const double wait = sim_.now() - e.enqueued_at;
    total_delay_ += wait;
    wait_obs_.observe(wait);
    return e.update;
  }

  sim::Simulator& sim_;
  sim::Fifo<Entry> entries_;
  sim::Fifo<Run> runs_;
  std::size_t parked_ = 0;  ///< requests left over all runs
  std::vector<DepthWatcher> depth_watchers_;
  std::vector<Wake> wakes_;  ///< parked wakes, indexed by WakeFn::slot
  std::vector<std::uint32_t> free_wakes_;
  std::map<fl::ParticipantId, std::vector<fl::UpdateDesc>> leases_;
  std::size_t max_depth_ = 0;
  std::uint64_t total_pushed_ = 0;
  std::uint64_t total_retained_ = 0;
  std::uint64_t total_acked_ = 0;
  std::uint64_t total_aborted_ = 0;
  double total_delay_ = 0.0;
  obs::HistSlot wait_obs_;  ///< passive; disabled by default
};

}  // namespace lifl::dp
