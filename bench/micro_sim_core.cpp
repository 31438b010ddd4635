// Event-core throughput: the seed's priority_queue + unordered_map event
// loop vs the current slab/calendar-queue core, on the operation mixes a
// million-client campaign produces:
//
//   campaign — the headline mix (gated at >= 3x): a standing backlog of 1M
//              armed client timers (round deadlines, mostly cancelled when
//              the client returns) behind foreground burst traffic of
//              near-term hops and same-instant pool deliveries. The legacy
//              core drags every foreground push/pop through the
//              million-deep heap; the calendar core parks the backlog in
//              O(1) buckets and serves the foreground from a cache-resident
//              window heap plus the zero-delay ring.
//   churn    — 1M events at uniform random times, 25% cancelled before
//              firing: the adversarial all-pending-at-once shape.
//   ring     — a pure zero-delay storm (the ingest fast path: every
//              UpdatePool delivery is a same-instant wake-up).
//   front    — report-only: the small, nearly sorted pending sets campaign
//              shards actually hold. A few hop chains re-arm a short delay
//              behind a band of long timers, so a new event lands a few
//              ranks from the front: 28 pending at a mean rank of ~2.8
//              (`async-edge-4shard` per shard at 4 shards), and 109 pending
//              at ~11.8 (the same workload on 1 shard). Rank counts the
//              pending events due before the new one.
//
// Throughput counts core operations (schedule + cancel + dispatch) over the
// full mix, identical for both cores. Emits BENCH_sim_core.json; CI uploads
// it as an artifact and fails the run if the campaign speedup drops below
// 3x.
//
// Build & run:  cmake -B build && cmake --build build -j
//               ./build/bench/micro_sim_core

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <queue>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench/bench_util.hpp"
#include "src/sim/random.hpp"
#include "src/sim/simulator.hpp"

namespace {

using lifl::sim::EventId;
using lifl::sim::SimTime;

/// The seed event core, kept verbatim as the benchmark baseline: one heap
/// entry plus one hash-map insert/find/erase per event, and no zero-delay
/// fast path.
class LegacySimulator {
 public:
  using Callback = std::function<void()>;

  SimTime now() const noexcept { return now_; }

  EventId schedule_at(SimTime t, Callback cb) {
    return schedule_impl(t, std::move(cb), /*daemon=*/false);
  }
  EventId schedule_after(SimTime dt, Callback cb) {
    return schedule_at(now_ + (dt > 0 ? dt : 0), std::move(cb));
  }

  bool cancel(EventId id) {
    auto it = callbacks_.find(id);
    if (it == callbacks_.end()) return false;
    if (!it->second.daemon) --regular_pending_;
    callbacks_.erase(it);  // lazy removal from the heap
    return true;
  }

  std::size_t run() {
    std::size_t n = 0;
    while (regular_pending_ > 0 && dispatch_next(0, /*bounded=*/false)) ++n;
    return n;
  }

  std::uint64_t dispatched() const noexcept { return dispatched_; }

 private:
  struct Entry {
    SimTime t;
    EventId id;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const noexcept {
      if (a.t != b.t) return a.t > b.t;
      return a.id > b.id;  // FIFO among equal timestamps
    }
  };
  struct Pending {
    Callback cb;
    bool daemon = false;
  };

  EventId schedule_impl(SimTime t, Callback cb, bool daemon) {
    if (t < now_) t = now_;
    const EventId id = next_id_++;
    heap_.push(Entry{t, id});
    callbacks_.emplace(id, Pending{std::move(cb), daemon});
    if (!daemon) ++regular_pending_;
    return id;
  }

  bool dispatch_next(SimTime limit, bool bounded) {
    while (!heap_.empty()) {
      const Entry e = heap_.top();
      auto it = callbacks_.find(e.id);
      if (it == callbacks_.end()) {
        heap_.pop();  // cancelled
        continue;
      }
      if (bounded && e.t > limit) return false;
      heap_.pop();
      Callback cb = std::move(it->second.cb);
      if (!it->second.daemon) --regular_pending_;
      callbacks_.erase(it);
      now_ = e.t;
      ++dispatched_;
      cb();
      return true;
    }
    return false;
  }

  SimTime now_ = 0.0;
  EventId next_id_ = 1;
  std::uint64_t dispatched_ = 0;
  std::size_t regular_pending_ = 0;
  std::priority_queue<Entry, std::vector<Entry>, Later> heap_;
  std::unordered_map<EventId, Pending> callbacks_;
};

struct Run {
  std::uint64_t ops = 0;  ///< schedules + cancels + dispatches
  double secs = 0.0;
  double ops_per_sec() const { return ops / secs; }
};

/// Shared state of one campaign-mix run; hop callbacks capture a single
/// pointer to it, so the callable fits every core's inline buffer and the
/// measurement stays on the event queues rather than on allocator traffic.
template <typename Sim>
struct CampaignCtx {
  Sim sim;
  lifl::sim::Rng rng{42};
  std::vector<EventId> deadlines;
  std::uint64_t scheduled = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t steps = 0;
  std::uint64_t retired = 0;
  std::size_t foreground = 0;
};

/// One upload hop: a few same-instant deliveries, one deadline retired and
/// re-armed, then the next hop.
template <typename Sim>
struct CampaignHop {
  CampaignCtx<Sim>* c;
  void operator()() const {
    if (++c->steps >= c->foreground) return;
    // One upload fans out into same-instant events: the pool waiter
    // wake-up, the depth-watcher batch, the aggregator pump, the metrics
    // flush (mega_campaign measures ~7 events per upload, mostly
    // same-instant).
    for (int d = 0; d < 4; ++d) c->sim.schedule_after(0.0, [] {});
    c->scheduled += 5;
    // The client returned: retire this round's deadline and arm the next
    // one, so the million-timer backlog stands for the whole campaign.
    if (c->sim.cancel(c->deadlines[c->retired])) {
      ++c->cancelled;
      c->deadlines[c->retired] =
          c->sim.schedule_after(c->rng.uniform(60.0, 3600.0), [] {});
      ++c->scheduled;
    }
    c->retired = (c->retired + 1) % c->deadlines.size();
    c->sim.schedule_after(c->rng.uniform(0.001, 0.1), CampaignHop{c});
  }
};

/// The million-client regime: `clients` armed deadline timers as backlog,
/// `foreground` chained hops each doing same-instant deliveries and
/// retiring (cancelling) one client's deadline.
template <typename Sim>
Run campaign_mix(std::size_t clients, std::size_t foreground) {
  auto ctx = std::make_unique<CampaignCtx<Sim>>();
  ctx->foreground = foreground;

  const auto t0 = std::chrono::steady_clock::now();
  ctx->deadlines.reserve(clients);
  for (std::size_t i = 0; i < clients; ++i) {
    ctx->deadlines.push_back(
        ctx->sim.schedule_at(ctx->rng.uniform(60.0, 3600.0), [] {}));
    ++ctx->scheduled;
  }
  for (int i = 0; i < 8; ++i) {
    ++ctx->scheduled;
    const double jitter = ctx->rng.uniform(0.0, 0.01);
    ctx->sim.schedule_after(jitter, CampaignHop<Sim>{ctx.get()});
  }
  ctx->sim.run();
  const auto t1 = std::chrono::steady_clock::now();

  Run r;
  r.ops = ctx->scheduled + ctx->cancelled + ctx->sim.dispatched();
  r.secs = std::chrono::duration<double>(t1 - t0).count();
  return r;
}

/// All-pending-at-once churn: n events at uniform random times, 25%
/// cancelled before the run.
template <typename Sim>
Run churn_mix(std::size_t n) {
  Sim sim;
  lifl::sim::Rng rng(7);
  std::vector<EventId> cancellable;
  cancellable.reserve(n / 4);

  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < n; ++i) {
    const EventId id = sim.schedule_at(rng.uniform(0.0, 1000.0), [] {});
    if (rng.uniform() < 0.25) cancellable.push_back(id);
  }
  for (const EventId id : cancellable) sim.cancel(id);
  sim.run();
  const auto t1 = std::chrono::steady_clock::now();

  Run r;
  r.ops = n + cancellable.size() + sim.dispatched();
  r.secs = std::chrono::duration<double>(t1 - t0).count();
  return r;
}

/// Zero-delay storm: batches of same-instant wake-ups scheduled from within
/// events — the shape of the ingest path.
template <typename Sim>
Run ring_mix(std::size_t n) {
  Sim sim;
  const std::size_t kBatch = 64;
  std::uint64_t fired = 0;
  std::function<void()> wave = [&] {
    for (std::size_t i = 0; i < kBatch; ++i) {
      sim.schedule_after(0.0, [&fired] { ++fired; });
    }
    if (fired < n) sim.schedule_after(0.0, wave);
  };

  const auto t0 = std::chrono::steady_clock::now();
  sim.schedule_after(0.0, wave);
  sim.run();
  const auto t1 = std::chrono::steady_clock::now();

  Run r;
  r.ops = 2 * sim.dispatched();  // every dispatch was also a schedule
  r.secs = std::chrono::duration<double>(t1 - t0).count();
  return r;
}

/// Shared state of one front-mix run.
template <typename Sim>
struct FrontCtx {
  Sim sim;
  lifl::sim::Rng rng{11};
  std::uint64_t scheduled = 0;
  std::uint64_t budget = 0;  ///< dispatches after which nothing re-arms
};

/// A hop chain (re-arms within ~1 time unit) or a long timer (~1000).
template <typename Sim>
struct FrontEvent {
  FrontCtx<Sim>* c;
  bool hop;
  void operator()() const {
    if (c->sim.dispatched() >= c->budget) return;
    ++c->scheduled;
    const double dt =
        hop ? c->rng.uniform(0.0, 2.0) : c->rng.uniform(500.0, 1500.0);
    c->sim.schedule_after(dt, FrontEvent{c, hop});
  }
};

/// A steady pending set of `chains + timers` events over `n` dispatches;
/// the chain count sets how far from the front new events land.
template <typename Sim>
Run front_mix(std::size_t n, std::size_t chains, std::size_t timers) {
  auto ctx = std::make_unique<FrontCtx<Sim>>();
  ctx->budget = n;

  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < chains; ++i) {
    ctx->sim.schedule_after(ctx->rng.uniform(0.0, 2.0),
                            FrontEvent<Sim>{ctx.get(), true});
  }
  for (std::size_t i = 0; i < timers; ++i) {
    ctx->sim.schedule_after(ctx->rng.uniform(0.0, 1500.0),
                            FrontEvent<Sim>{ctx.get(), false});
  }
  ctx->scheduled += chains + timers;
  ctx->sim.run();
  const auto t1 = std::chrono::steady_clock::now();

  Run r;
  r.ops = ctx->scheduled + ctx->sim.dispatched();
  r.secs = std::chrono::duration<double>(t1 - t0).count();
  return r;
}

/// Best of `reps` runs (single-core CI runners are noisy).
template <typename Fn>
Run best_of(int reps, Fn fn) {
  Run best = fn();
  for (int i = 1; i < reps; ++i) {
    const Run r = fn();
    if (r.ops_per_sec() > best.ops_per_sec()) best = r;
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t n = 1'000'000;
  if (argc > 1) {
    char* end = nullptr;
    n = std::strtoul(argv[1], &end, 10);
    if (end == argv[1] || *end != '\0' || n == 0) {
      std::fprintf(stderr, "usage: %s [event_count > 0]\n", argv[0]);
      return 2;
    }
  }

  const lifl::bench::BenchMeta meta;
  std::printf("sim-core microbench, %zu-event mixes\n\n", n);

  // One armed deadline per client, one foreground hop per client.
  const Run c_old =
      best_of(3, [&] { return campaign_mix<LegacySimulator>(n, n); });
  const Run c_new =
      best_of(3, [&] { return campaign_mix<lifl::sim::Simulator>(n, n); });
  const Run h_old = best_of(2, [&] { return churn_mix<LegacySimulator>(n); });
  const Run h_new =
      best_of(2, [&] { return churn_mix<lifl::sim::Simulator>(n); });
  const Run r_old = best_of(2, [&] { return ring_mix<LegacySimulator>(n); });
  const Run r_new =
      best_of(2, [&] { return ring_mix<lifl::sim::Simulator>(n); });

  // Front mixes: {hop chains, long timers} giving 28 and 109 pending.
  const Run f28_old =
      best_of(3, [&] { return front_mix<LegacySimulator>(n, 5, 23); });
  const Run f28_new =
      best_of(3, [&] { return front_mix<lifl::sim::Simulator>(n, 5, 23); });
  const Run f109_old =
      best_of(3, [&] { return front_mix<LegacySimulator>(n, 18, 91); });
  const Run f109_new =
      best_of(3, [&] { return front_mix<lifl::sim::Simulator>(n, 18, 91); });

  const double c_speedup = c_new.ops_per_sec() / c_old.ops_per_sec();
  const double h_speedup = h_new.ops_per_sec() / h_old.ops_per_sec();
  const double r_speedup = r_new.ops_per_sec() / r_old.ops_per_sec();
  const double f28_speedup = f28_new.ops_per_sec() / f28_old.ops_per_sec();
  const double f109_speedup = f109_new.ops_per_sec() / f109_old.ops_per_sec();

  std::printf("campaign: legacy %9.0f op/s | new %9.0f op/s | %.2fx\n",
              c_old.ops_per_sec(), c_new.ops_per_sec(), c_speedup);
  std::printf("churn:    legacy %9.0f op/s | new %9.0f op/s | %.2fx\n",
              h_old.ops_per_sec(), h_new.ops_per_sec(), h_speedup);
  std::printf("ring:     legacy %9.0f op/s | new %9.0f op/s | %.2fx\n",
              r_old.ops_per_sec(), r_new.ops_per_sec(), r_speedup);
  std::printf("front28:  legacy %9.0f op/s | new %9.0f op/s | %.2fx (report)\n",
              f28_old.ops_per_sec(), f28_new.ops_per_sec(), f28_speedup);
  std::printf("front109: legacy %9.0f op/s | new %9.0f op/s | %.2fx (report)\n",
              f109_old.ops_per_sec(), f109_new.ops_per_sec(), f109_speedup);

  FILE* out = std::fopen("BENCH_sim_core.json", "w");
  if (out != nullptr) {
    std::fprintf(out, "{\n");
    meta.write_json_fields(out);
    std::fprintf(
        out,
        "  \"bench\": \"sim_core\",\n"
        "  \"events\": %zu,\n"
        "  \"campaign\": {\"legacy_ops_per_sec\": %.0f, "
        "\"new_ops_per_sec\": %.0f, \"speedup\": %.3f},\n"
        "  \"churn\": {\"legacy_ops_per_sec\": %.0f, "
        "\"new_ops_per_sec\": %.0f, \"speedup\": %.3f},\n"
        "  \"ring\": {\"legacy_ops_per_sec\": %.0f, "
        "\"new_ops_per_sec\": %.0f, \"speedup\": %.3f},\n"
        "  \"front28\": {\"pending\": 28, \"legacy_ops_per_sec\": %.0f, "
        "\"new_ops_per_sec\": %.0f, \"speedup\": %.3f},\n"
        "  \"front109\": {\"pending\": 109, \"legacy_ops_per_sec\": %.0f, "
        "\"new_ops_per_sec\": %.0f, \"speedup\": %.3f}\n"
        "}\n",
        n, c_old.ops_per_sec(), c_new.ops_per_sec(), c_speedup,
        h_old.ops_per_sec(), h_new.ops_per_sec(), h_speedup,
        r_old.ops_per_sec(), r_new.ops_per_sec(), r_speedup,
        f28_old.ops_per_sec(), f28_new.ops_per_sec(), f28_speedup,
        f109_old.ops_per_sec(), f109_new.ops_per_sec(), f109_speedup);
    std::fclose(out);
    std::printf("\nwrote BENCH_sim_core.json\n");
  }

  if (c_speedup < 3.0) {
    std::fprintf(stderr,
                 "FAIL: campaign-mix speedup %.2fx below the 3x floor the "
                 "core refactor is held to\n",
                 c_speedup);
    return 1;
  }
  return 0;
}
