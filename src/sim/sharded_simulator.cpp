#include "src/sim/sharded_simulator.hpp"

#include <algorithm>
#include <chrono>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

#include "src/sim/futex.hpp"

namespace lifl::sim {

namespace {

constexpr SimTime kInf = std::numeric_limits<SimTime>::infinity();

/// Horizon polls a blocked shard spins through before it futex-waits. A
/// busy sender usually republishes within microseconds; past that the
/// waiter sleeps instead of burning a core another shard could use.
constexpr int kSpinPolls = 512;

/// Events a shard runs between two publications of its bound.
constexpr std::size_t kSliceEvents = 2048;

}  // namespace

ShardedSimulator::ShardedSimulator(Config cfg)
    : lookahead_(cfg.lookahead) {
  if (cfg.shards == 0) {
    throw std::invalid_argument("ShardedSimulator: shards must be >= 1");
  }
  if (!(lookahead_ > 0.0)) {
    throw std::invalid_argument("ShardedSimulator: lookahead must be > 0");
  }
  shards_.resize(cfg.shards);
  for (auto& cell : shards_) cell.sim = std::make_unique<Simulator>();
  links_ = std::make_unique<Link[]>(cfg.shards);
  mail_.resize(cfg.shards * cfg.shards);
  for (auto& box : mail_) box.head = box.tail = new MailNode{};
  // Every shard may post to every other one until told otherwise.
  may_post_.assign(cfg.shards * cfg.shards, 1);
  for (std::size_t s = 0; s < cfg.shards; ++s) {
    may_post_[s * cfg.shards + s] = 0;
  }
  relink();
}

void ShardedSimulator::set_receivers(std::size_t s,
                                     const std::vector<std::size_t>& to) {
  const std::size_t k = shards_.size();
  for (std::size_t r : to) {
    if (r >= k || r == s) {
      throw std::invalid_argument("ShardedSimulator: bad receiver " +
                                  std::to_string(r) + " for shard " +
                                  std::to_string(s));
    }
  }
  std::fill_n(may_post_.begin() + static_cast<std::ptrdiff_t>(s * k), k, 0);
  for (std::size_t r : to) may_post_[s * k + r] = 1;
  relink();
}

void ShardedSimulator::relink() {
  const std::size_t k = shards_.size();
  for (std::size_t r = 0; r < k; ++r) {
    ShardCell& cell = shards_[r];
    cell.senders.clear();
    cell.receivers.clear();
    for (std::size_t j = 0; j < k; ++j) {
      if (may_post_[j * k + r] != 0) cell.senders.push_back(j);
      if (may_post_[r * k + j] != 0) cell.receivers.push_back(j);
    }
  }
}

ShardedSimulator::~ShardedSimulator() {
  if (!workers_.empty()) {
    shutdown_.store(true, std::memory_order_release);
    run_epoch_.fetch_add(1, std::memory_order_acq_rel);
    futex_wake_all(run_epoch_);
    for (auto& w : workers_) w.join();
  }
  for (auto& box : mail_) {
    for (MailNode* n = box.head; n != nullptr;) {
      MailNode* next = n->next.load(std::memory_order_relaxed);
      delete n;
      n = next;
    }
  }
}

void ShardedSimulator::post(std::size_t from, std::size_t to,
                            std::uint32_t lane, SimTime t, Task cb) {
  ShardCell& cell = shards_[from];
  Simulator& src = *cell.sim;
  // A cross-shard delivery can never land closer than `lookahead` ahead of
  // the sender's clock. The clamp applies to same-shard posts too, so
  // timing is independent of the group->shard mapping.
  const SimTime tmin = src.now() + lookahead_;
  if (t < tmin) t = tmin;
  if (lane >= kMaxLanes) {
    throw std::invalid_argument("ShardedSimulator: post lane " +
                                std::to_string(lane) + " out of range");
  }
  // The lane's posts all come from this shard, so the shard's post count
  // orders them in the lane's own post order.
  const std::uint64_t key =
      (static_cast<std::uint64_t>(lane) << kLaneShift) | cell.post_seq++;
  if (from == to) {
    src.schedule_delivery(t, key, std::move(cb));
    return;
  }
  if (may_post_[from * shards_.size() + to] == 0) {
    throw std::logic_error("ShardedSimulator: shard " + std::to_string(from) +
                           " posted to undeclared receiver shard " +
                           std::to_string(to));
  }
  if (!running_) {
    // Between runs every core is idle on the calling thread, so the
    // delivery goes straight in; the sender clamp above cannot catch a
    // receiver that already ran past `t`.
    Simulator& dst = *shards_[to].sim;
    const SimTime receiver_now = dst.now();
    if (t <= receiver_now) {
      throw std::invalid_argument(
          "ShardedSimulator: cross-shard post at t=" + std::to_string(t) +
          " lands at or before receiver shard " + std::to_string(to) +
          "'s clock " + std::to_string(receiver_now) + " (sender shard " +
          std::to_string(from) + " is at " + std::to_string(src.now()) +
          ")");
    }
    ++cell.posted;
    dst.schedule_delivery(t, key, std::move(cb));
    return;
  }
  // The receivers trusted this shard not to deliver before its published
  // bound. A post below it means the installed promise was unsound — a
  // model bug — so fail loudly (the shard loop rethrows on the caller).
  if (t < cell.eot) {
    throw std::logic_error(
        "ShardedSimulator: cross-shard post below the shard's published "
        "outbound bound (unsound promise function)");
  }
  ++cell.posted;
  // Count the mail before it becomes visible, so the run cannot look
  // quiescent while it is in flight.
  active_.fetch_add(1, std::memory_order_relaxed);
  auto* node = new MailNode{CrossEvent{t, key, std::move(cb)}};
  Mailbox& box = mailbox(from, to);
  box.tail->next.store(node, std::memory_order_release);
  box.tail = node;
}

std::size_t ShardedSimulator::drain_inbound(std::size_t s) {
  ShardCell& cell = shards_[s];
  Simulator& dst = *cell.sim;
  // Injection order is free: each delivery carries its lane key, which
  // fixes its place among the receiver's events of its instant.
  std::size_t drained = 0;
  for (std::size_t j : cell.senders) {
    Mailbox& box = mailbox(j, s);
    while (MailNode* next = box.head->next.load(std::memory_order_acquire)) {
      CrossEvent& e = next->ev;
      // Causality audit (`schedule_delivery` requires a future instant):
      // the shard ran strictly below a horizon no delivery undercuts.
      if (e.t <= dst.now()) {
        throw std::logic_error(
            "ShardedSimulator: horizon protocol admitted a cross-shard post "
            "into a receiver's past");
      }
      dst.schedule_delivery(e.t, e.key, std::move(e.cb));
      delete box.head;
      box.head = next;
      ++drained;
    }
  }
  if (drained > 0 && running_) {
    if (!cell.active) {
      cell.active = true;
      active_.fetch_add(1, std::memory_order_relaxed);
    }
    active_.fetch_sub(static_cast<std::int64_t>(drained),
                      std::memory_order_relaxed);
  }
  return drained;
}

std::uint64_t ShardedSimulator::cross_posts() const noexcept {
  std::uint64_t n = 0;
  for (const auto& cell : shards_) n += cell.posted;
  return n;
}

std::uint64_t ShardedSimulator::windows() const noexcept {
  std::uint64_t n = 0;
  for (const auto& cell : shards_) n += cell.stats.windows;
  return n;
}

std::uint64_t ShardedSimulator::windows_skipped() const noexcept {
  std::uint64_t n = 0;
  for (const auto& cell : shards_) n += cell.skipped;
  return n;
}

std::uint64_t ShardedSimulator::dispatched() const {
  std::uint64_t n = 0;
  for (const auto& cell : shards_) n += cell.sim->dispatched();
  return n;
}

std::size_t ShardedSimulator::pending_regular() const {
  std::size_t n = 0;
  for (const auto& box : mail_) {
    for (const MailNode* m = box.head->next.load(std::memory_order_acquire);
         m != nullptr; m = m->next.load(std::memory_order_acquire)) {
      ++n;
    }
  }
  for (const auto& cell : shards_) n += cell.sim->pending_regular();
  return n;
}

SimTime ShardedSimulator::horizon(std::size_t s) const {
  SimTime h = kInf;
  for (std::size_t j : shards_[s].senders) {
    h = std::min(h, links_[j].eot.load(std::memory_order_seq_cst));
  }
  return h;
}

void ShardedSimulator::publish(std::size_t s, SimTime v) {
  ShardCell& cell = shards_[s];
  if (!(v > cell.eot)) return;  // bounds only grow
  const SimTime prev = cell.eot;
  cell.eot = v;
  // Release (seq_cst) after the posts it covers were linked into their
  // mailboxes. The waiter check below pairs with `wait_for_horizon`: either
  // the waiter's re-check sees this bound, or this load sees its need.
  links_[s].eot.store(v, std::memory_order_seq_cst);
  for (std::size_t r : cell.receivers) {
    Link& l = links_[r];
    // Wake only a receiver this shard was holding back: it waits for a
    // horizon above `need`, and this bound just crossed it.
    const SimTime need = l.need.load(std::memory_order_seq_cst);
    if (prev <= need && need < v) {
      l.wake.fetch_add(1, std::memory_order_seq_cst);
      futex_wake_all(l.wake);
    }
  }
}

void ShardedSimulator::wait_for_horizon(std::size_t s, SimTime at) {
  const auto t0 = std::chrono::steady_clock::now();
  Link& me = links_[s];
  for (int polls = 0;; ++polls) {
    if (stop_.load(std::memory_order_acquire) || horizon(s) > at) break;
    if (polls < kSpinPolls) {
      cpu_relax();
      continue;
    }
    const std::uint32_t seen = me.wake.load(std::memory_order_seq_cst);
    me.need.store(at, std::memory_order_seq_cst);
    if (!stop_.load(std::memory_order_seq_cst) && !(horizon(s) > at)) {
      futex_wait(me.wake, seen);
    }
    me.need.store(kInf, std::memory_order_relaxed);
  }
  shards_[s].stats.idle_wall_secs +=
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
}

void ShardedSimulator::end_run() {
  stop_.store(true, std::memory_order_seq_cst);
  for (std::size_t r = 0; r < shards_.size(); ++r) {
    links_[r].wake.fetch_add(1, std::memory_order_seq_cst);
    futex_wake_all(links_[r].wake);
  }
}

void ShardedSimulator::record_error() noexcept {
  {
    std::lock_guard<std::mutex> lock(error_mu_);
    if (!error_) error_ = std::current_exception();
  }
  failed_.store(true, std::memory_order_release);
  end_run();
}

void ShardedSimulator::shard_loop(std::size_t s) {
  ShardCell& cell = shards_[s];
  Simulator& sim = *cell.sim;
  const SimTime mark = mark_;
  const bool bounded = mark != kInf;
  SimTime done_to = -kInf;  // the horizon this shard already ran up to
  try {
    while (!stop_.load(std::memory_order_acquire)) {
      // Load the horizon *before* draining: mail the loaded bounds do not
      // cover was posted after them, at or beyond the horizon.
      const SimTime h = horizon(s);
      if (!(h > done_to)) {
        wait_for_horizon(s, done_to);
        continue;
      }
      drain_inbound(s);
      // Work through the stretch below the horizon in slices, republishing
      // the bound after each: receivers need not wait for the whole stretch.
      SimTime next;
      bool sliced;
      std::size_t ran;
      if (!bounded && h == kInf) {
        // No sender will post again: run the regular work out. Daemons past
        // the last regular event stay queued, and nothing can wake them.
        ran = sim.run(kSliceEvents);
        sliced = sim.pending_regular() > 0;
        next = sliced ? sim.next_event_time() : kInf;
      } else {
        const SimTime end = std::min(h, mark);
        ran = sim.run_window(end, kSliceEvents);
        next = sim.next_event_time();
        sliced = next < end;
      }
      ++cell.stats.windows;
      if (ran == 0) ++cell.stats.empty_windows;
      const bool has_regular = sim.pending_regular() > 0;
      if (cell.active != has_regular) {
        cell.active = has_regular;
        if (has_regular) {
          active_.fetch_add(1, std::memory_order_relaxed);
        } else if (active_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
          end_run();  // quiescent: no regular work and no mail anywhere
          break;
        }
      }
      SimTime bound = std::min(next, h) + lookahead_;
      if (cell.promise) {
        const SimTime promised = cell.promise();
        if (promised > bound) {
          if (promised < kInf) {
            cell.stats.max_promise_lead =
                std::max(cell.stats.max_promise_lead, promised - bound);
          }
          bound = promised;
          ++cell.skipped;
        }
      }
      publish(s, bound);
      if (sliced) continue;
      done_to = h;
      // Paused exactly at the mark: every event below it ran, and no
      // delivery below it can still arrive.
      if (bounded && h >= mark) break;
    }
  } catch (...) {
    // The shard's state is torn mid-callback; stop every shard and rethrow
    // on the caller (matching the 1-shard mode, where this propagates).
    record_error();
  }
}

void ShardedSimulator::ensure_workers() {
  if (!workers_.empty()) return;
  // The baseline epoch is captured before spawning: reading it in the
  // worker would race with the first run's bump.
  const std::uint32_t base = run_epoch_.load(std::memory_order_acquire);
  workers_.reserve(shards_.size() - 1);
  for (std::size_t s = 1; s < shards_.size(); ++s) {
    workers_.emplace_back([this, s, base] {
      std::uint32_t seen = base;
      for (;;) {
        std::uint32_t e;
        while ((e = run_epoch_.load(std::memory_order_acquire)) == seen) {
          futex_wait(run_epoch_, seen);
        }
        seen = e;
        if (shutdown_.load(std::memory_order_acquire)) return;
        if (task_ != nullptr) {
          try {
            (*task_)(s);
          } catch (...) {
            record_error();
          }
        } else {
          shard_loop(s);
        }
        const std::uint32_t done =
            workers_done_.fetch_add(1, std::memory_order_acq_rel) + 1;
        if (done == shards_.size() - 1) futex_wake_all(workers_done_);
      }
    });
  }
}

std::uint64_t ShardedSimulator::run() { return run_impl(kInf); }

std::uint64_t ShardedSimulator::run_to(SimTime mark) {
  return run_impl(mark);
}

std::uint64_t ShardedSimulator::run_impl(SimTime mark) {
  const bool bounded = mark != kInf;
  const std::uint64_t before = dispatched();
  const std::size_t k = shards_.size();
  if (k == 1) {
    // Deterministic single-shard mode: the plain single-threaded core, bit
    // identical to an unsharded `Simulator` (mailboxes are never used —
    // same-shard posts schedule directly). A bounded run dispatches the
    // strict-< prefix of the same sequence.
    Simulator& s0 = *shards_[0].sim;
    if (!bounded) {
      s0.run();
    } else if (s0.pending_regular() > 0) {
      s0.run_window(mark);
    }
    return s0.dispatched() - before;
  }

  // ---- start (every core idle on this thread). Mail a paused run left
  // behind goes in first; every shard then starts from the bound all of
  // them share: no event anywhere is earlier than `t0`, so no post can
  // deliver before `t0 + lookahead`.
  std::int64_t active = 0;
  SimTime t0 = kInf;
  for (std::size_t s = 0; s < k; ++s) {
    drain_inbound(s);
    ShardCell& cell = shards_[s];
    cell.active = cell.sim->pending_regular() > 0;
    active += cell.active ? 1 : 0;
    t0 = std::min(t0, cell.sim->next_event_time());
  }
  if (active == 0 || (bounded && t0 >= mark)) return 0;
  for (std::size_t s = 0; s < k; ++s) {
    shards_[s].eot = t0 + lookahead_;
    links_[s].eot.store(shards_[s].eot, std::memory_order_relaxed);
    links_[s].need.store(kInf, std::memory_order_relaxed);
  }
  active_.store(active, std::memory_order_relaxed);
  mark_ = mark;
  running_ = true;
  start_workers();
  shard_loop(0);
  join_workers();
  return dispatched() - before;
}

void ShardedSimulator::on_each_shard(
    const std::function<void(std::size_t)>& fn) {
  if (shards_.size() == 1) {
    fn(0);
    return;
  }
  task_ = &fn;
  start_workers();
  try {
    fn(0);
  } catch (...) {
    record_error();
  }
  join_workers();
  task_ = nullptr;
}

void ShardedSimulator::start_workers() {
  ensure_workers();
  stop_.store(false, std::memory_order_relaxed);
  failed_.store(false, std::memory_order_relaxed);
  workers_done_.store(0, std::memory_order_relaxed);
  run_epoch_.fetch_add(1, std::memory_order_acq_rel);
  futex_wake_all(run_epoch_);
}

void ShardedSimulator::join_workers() {
  const std::uint32_t k = static_cast<std::uint32_t>(shards_.size());
  for (int polls = 0;; ++polls) {
    const std::uint32_t done = workers_done_.load(std::memory_order_acquire);
    if (done == k - 1) break;
    if (polls < kSpinPolls) {
      cpu_relax();
    } else {
      futex_wait(workers_done_, done);
    }
  }
  running_ = false;
  if (failed_.load(std::memory_order_acquire)) {
    std::exception_ptr err;
    {
      std::lock_guard<std::mutex> lock(error_mu_);
      err = error_;
      error_ = nullptr;
    }
    failed_.store(false, std::memory_order_relaxed);
    std::rethrow_exception(err);
  }
}

}  // namespace lifl::sim
