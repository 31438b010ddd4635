#include "src/sim/sharded_simulator.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

namespace lifl::sim {

namespace {
/// Barrier spin budget before falling back to the condition variable. Spins
/// cover the common case (all shards busy, windows microseconds apart);
/// the blocking fallback keeps oversubscribed machines (fewer cores than
/// shards) from melting down.
constexpr int kSpinIters = 4096;
/// Cap on adaptive horizon widening, in lookaheads past the conservative
/// horizon. It keeps every window finite (idle tails and daemon chains
/// would otherwise run unbounded) and bounds how far a window can straddle
/// a `run_to` mark.
constexpr double kMaxWidenLookaheads = 256.0;
}  // namespace

ShardedSimulator::ShardedSimulator(Config cfg)
    : lookahead_(cfg.lookahead), sync_(cfg.sync) {
  if (cfg.shards == 0) {
    throw std::invalid_argument("ShardedSimulator: shards must be >= 1");
  }
  if (!(lookahead_ > 0.0)) {
    throw std::invalid_argument("ShardedSimulator: lookahead must be > 0");
  }
  shards_.resize(cfg.shards);
  for (auto& cell : shards_) cell.sim = std::make_unique<Simulator>();
  mail_.resize(cfg.shards * cfg.shards);
  promises_.resize(cfg.shards);
  promised_.assign(cfg.shards, 0.0);
}

void ShardedSimulator::post(std::size_t from, std::size_t to, SimTime t,
                            Task cb) {
  Simulator& src = *shards_[from].sim;
  // Conservative-window invariant: a cross-shard delivery can never land
  // closer than `lookahead` ahead of the sender's clock. The clamp applies
  // to same-shard posts too, so timing is independent of the group->shard
  // mapping.
  const SimTime tmin = src.now() + lookahead_;
  if (t < tmin) t = tmin;
  if (from == to) {
    src.schedule_at(t, std::move(cb));
    return;
  }
  // A coordinator-side post between runs (workers parked, so the
  // receiver's clock is safe to read) can name a receiver that already ran
  // past `t`; the sender clamp above cannot catch that. Inside a window the
  // receiver's clock belongs to its worker, and the window protocol
  // guarantees `t` clears it (audited at the next drain).
  if (!in_window_) {
    const SimTime receiver_now = shards_[to].sim->now();
    if (t <= receiver_now) {
      throw std::invalid_argument(
          "ShardedSimulator: cross-shard post at t=" + std::to_string(t) +
          " lands at or before receiver shard " + std::to_string(to) +
          "'s clock " + std::to_string(receiver_now) + " (sender shard " +
          std::to_string(from) + " is at " + std::to_string(src.now()) +
          ")");
    }
  }
  // Promise enforcement: the adaptive horizon trusted this shard not to
  // deliver before `promised_[from]`. A post below that bound means the
  // installed promise was unsound — a model bug — so fail loudly
  // (worker-thread throws ride the record_error path).
  if (t < promised_[from]) {
    throw std::logic_error(
        "ShardedSimulator: cross-shard post below the shard's outbound "
        "promise (unsound promise function)");
  }
  mailbox(from, to).events.push_back(
      CrossEvent{t, static_cast<std::uint32_t>(from),
                 static_cast<std::uint32_t>(to), shards_[from].posted++,
                 std::move(cb)});
}

std::uint64_t ShardedSimulator::cross_posts() const noexcept {
  std::uint64_t n = 0;
  for (const auto& cell : shards_) n += cell.posted;
  return n;
}

std::size_t ShardedSimulator::drain_mailboxes() {
  // Gather into the persistent scratch (capacity survives clear(), so a
  // steady-state barrier allocates nothing).
  drain_scratch_.clear();
  for (auto& box : mail_) {
    for (auto& e : box.events) drain_scratch_.push_back(std::move(e));
    box.events.clear();
  }
  // Deterministic injection order — (time, source shard, source sequence) —
  // so the delivery order of cross events never depends on the shard
  // count or on thread timing.
  std::sort(drain_scratch_.begin(), drain_scratch_.end(),
            [](const CrossEvent& x, const CrossEvent& y) {
              if (x.t != y.t) return x.t < y.t;
              if (x.src != y.src) return x.src < y.src;
              return x.seq < y.seq;
            });
  // Causality audit before injection (`schedule_at` would silently clamp
  // a past delivery to the receiver's clock). Every shard ran strictly
  // below a horizon no delivery undercuts, so a delivery at or below the
  // receiver's clock is an internal invariant failure of the window
  // protocol.
  for (CrossEvent& e : drain_scratch_) {
    Simulator& dst = *shards_[e.dst].sim;
    if (e.t <= dst.now()) {
      throw std::logic_error(
          "ShardedSimulator: window protocol admitted a cross-shard post "
          "into a receiver's past");
    }
    dst.schedule_at(e.t, std::move(e.cb));
  }
  const std::size_t drained = drain_scratch_.size();
  drain_scratch_.clear();
  return drained;
}

std::size_t ShardedSimulator::mail_pending() const {
  std::size_t n = 0;
  for (const auto& box : mail_) n += box.events.size();
  return n;
}

std::uint64_t ShardedSimulator::dispatched() const {
  std::uint64_t n = 0;
  for (const auto& cell : shards_) n += cell.sim->dispatched();
  return n;
}

std::size_t ShardedSimulator::pending_regular() const {
  std::size_t n = mail_pending();
  for (const auto& cell : shards_) n += cell.sim->pending_regular();
  return n;
}

void ShardedSimulator::record_error() noexcept {
  std::lock_guard<std::mutex> lock(mu_);
  if (!error_) error_ = std::current_exception();
  failed_.store(true, std::memory_order_release);
}

void ShardedSimulator::run_shard_window(std::size_t s) {
  ShardCell& cell = shards_[s];
  const std::uint64_t before = cell.sim->dispatched();
  try {
    cell.sim->run_window(window_end_);
  } catch (...) {
    // The shard's state is torn mid-callback; remember the first error and
    // let the barrier complete so the coordinator can shut down and
    // rethrow (matching the 1-shard mode, where this would propagate).
    record_error();
  }
  // Passive per-window accounting, written only by the owning thread.
  // Dispatch counts are deterministic, so the trace event is too.
  const std::uint64_t ran = cell.sim->dispatched() - before;
  ++cell.stats.windows;
  if (ran == 0) ++cell.stats.empty_windows;
  cell.done_at = std::chrono::steady_clock::now();
  if (trace_ != nullptr) {
    obs::ShardTrace* ring = trace_->shard(s);
    if (ring != nullptr) {
      ring->instant(window_end_, obs::Ev::kWindow, obs::shard_track(s),
                    static_cast<std::uint32_t>(windows_ - 1), ran,
                    ran == 0 ? obs::kFlagEmpty : 0);
    }
  }
}

ShardedSimulator::~ShardedSimulator() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_.store(true, std::memory_order_release);
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ShardedSimulator::ensure_workers() {
  if (!workers_.empty()) return;
  // Workers are spawned once, on the first multi-shard run, and persist
  // parked on the epoch wait between runs; epoch_ may already be nonzero,
  // so the coordinator captures the baseline *before* spawning and hands
  // it over — reading epoch_ in the worker would race with the first
  // window's bump.
  const std::uint64_t base_epoch = epoch_.load(std::memory_order_acquire);
  const std::size_t k = shards_.size();
  workers_.reserve(k - 1);
  for (std::size_t s = 1; s < k; ++s) {
    workers_.emplace_back([this, s, base_epoch] {
      worker_loop(s, base_epoch);
    });
  }
}

void ShardedSimulator::worker_loop(std::size_t s, std::uint64_t base_epoch) {
  std::uint64_t seen = base_epoch;
  for (;;) {
    // Wait for the next window (or shutdown).
    int spins = 0;
    while (epoch_.load(std::memory_order_acquire) == seen &&
           !stop_.load(std::memory_order_acquire)) {
      if (++spins < kSpinIters) {
        std::this_thread::yield();
      } else {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [&] {
          return epoch_.load(std::memory_order_acquire) != seen ||
                 stop_.load(std::memory_order_acquire);
        });
      }
    }
    if (stop_.load(std::memory_order_acquire)) return;
    seen = epoch_.load(std::memory_order_acquire);
    run_shard_window(s);
    if (done_.fetch_add(1, std::memory_order_acq_rel) + 1 ==
        shards_.size() - 1) {
      std::lock_guard<std::mutex> lock(mu_);
      cv_.notify_all();
    }
  }
}

SimTime ShardedSimulator::plan_window(SimTime t_min) {
  const SimTime conservative = t_min + lookahead_;
  if (sync_ == SyncMode::kConservative) return conservative;

  // Sound horizon: each shard caps the window at the earliest cross-shard
  // delivery it may still cause — the conservative `next event + lookahead`
  // or its installed promise, whichever is later. An empty shard can only
  // react to future deliveries (themselves at or beyond any horizon we
  // pick), so it contributes no cap; the promises are cached for `post`
  // to enforce during the window.
  SimTime sound = std::numeric_limits<SimTime>::infinity();
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const SimTime next = shards_[s].sim->next_event_time();
    SimTime bound = next == std::numeric_limits<SimTime>::infinity()
                        ? next
                        : next + lookahead_;
    const SimTime promise = promises_[s] ? promises_[s]() : 0.0;
    promised_[s] = promise;
    if (promise > bound) bound = promise;
    sound = std::min(sound, bound);
  }
  // The cap keeps the window finite when every shard promises forever
  // (the rest of the run is shard-local) and bounds the straddle past a
  // `run_to` mark.
  const SimTime cap = conservative + kMaxWidenLookaheads * lookahead_;
  const SimTime horizon = std::max(conservative, std::min(sound, cap));
  windows_skipped_ +=
      static_cast<std::uint64_t>((horizon - conservative) / lookahead_);
  return horizon;
}

std::uint64_t ShardedSimulator::run() {
  return run_impl(std::numeric_limits<SimTime>::infinity());
}

std::uint64_t ShardedSimulator::run_to(SimTime mark) {
  return run_impl(mark);
}

std::uint64_t ShardedSimulator::run_impl(SimTime mark) {
  const bool bounded = mark != std::numeric_limits<SimTime>::infinity();
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

  ensure_workers();

  for (;;) {
    if (failed_.load(std::memory_order_acquire)) break;
    // ---- serial phase (coordinator only): exchange + plan the window.
    const std::size_t drained = drain_mailboxes();
    std::size_t regular = 0;
    for (const auto& cell : shards_) regular += cell.sim->pending_regular();
    if (regular == 0) break;
    SimTime t_min = std::numeric_limits<SimTime>::infinity();
    for (const auto& cell : shards_) {
      t_min = std::min(t_min, cell.sim->next_event_time());
    }
    if (t_min == std::numeric_limits<SimTime>::infinity()) break;
    // Bounded run: pause at the barrier once every pending event sits at or
    // beyond the mark. The next `run_impl` call recomputes the identical
    // horizon, so the window sequence — and with it the event order — is
    // the same whether or not the run was paused here.
    if (bounded && t_min >= mark) break;
    window_end_ = plan_window(t_min);
    ++windows_;
    if (trace_ != nullptr) {
      obs::ShardTrace* ring = trace_->coordinator();
      if (ring != nullptr) {
        ring->instant(t_min, obs::Ev::kWindow, obs::kCampaignTrack,
                      static_cast<std::uint32_t>(windows_ - 1), drained,
                      drained == 0 ? obs::kFlagEmpty : 0);
      }
    }

    // ---- parallel phase: all shards execute events below the horizon.
    done_.store(0, std::memory_order_release);
    in_window_ = true;
    {
      std::lock_guard<std::mutex> lock(mu_);
      epoch_.fetch_add(1, std::memory_order_acq_rel);
    }
    cv_.notify_all();
    run_shard_window(0);
    int spins = 0;
    while (done_.load(std::memory_order_acquire) != k - 1) {
      if (++spins < kSpinIters) {
        std::this_thread::yield();
      } else {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [&] {
          return done_.load(std::memory_order_acquire) == k - 1;
        });
      }
    }
    in_window_ = false;
    // Barrier-idle accounting (serial phase again; workers parked): each
    // shard was idle from its own finish until the slowest shard's.
    std::chrono::steady_clock::time_point last = shards_[0].done_at;
    for (const auto& cell : shards_) {
      if (cell.done_at > last) last = cell.done_at;
    }
    for (auto& cell : shards_) {
      cell.stats.idle_wall_secs +=
          std::chrono::duration<double>(last - cell.done_at).count();
    }
  }

  // Workers stay parked on the epoch wait for the next run; the
  // destructor stops and joins them. Cached promise bounds are only
  // meaningful inside the window that evaluated them — clear them so
  // coordinator-side posts between runs are not checked against stale
  // bounds.
  std::fill(promised_.begin(), promised_.end(), 0.0);
  if (failed_.load(std::memory_order_acquire)) {
    std::exception_ptr err;
    {
      std::lock_guard<std::mutex> lock(mu_);
      err = error_;
      error_ = nullptr;
    }
    failed_.store(false, std::memory_order_release);
    std::rethrow_exception(err);
  }
  return dispatched() - before;
}

}  // namespace lifl::sim
