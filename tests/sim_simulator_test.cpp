// Unit tests for the discrete-event simulator core.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <limits>
#include <map>
#include <utility>
#include <vector>

#include "src/sim/simulator.hpp"

namespace lifl::sim {
namespace {

TEST(Simulator, StartsAtTimeZero) {
  Simulator sim;
  EXPECT_DOUBLE_EQ(sim.now(), 0.0);
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(Simulator, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(3.0, [&] { order.push_back(3); });
  sim.schedule_at(1.0, [&] { order.push_back(1); });
  sim.schedule_at(2.0, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);
}

TEST(Simulator, SameTimestampIsFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(5.0, [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Simulator, KeyedDeliveriesRunFirstAtTheirInstantInKeyOrder) {
  // Deliveries scheduled after ordinary events of the same instant still
  // run before them, in key order rather than scheduling order, and a
  // zero-delay follow-up of a delivery runs after everything already due.
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(5.0, [&] { order.push_back(3); });
  sim.schedule_delivery(5.0, 7, [&] { order.push_back(2); });
  sim.schedule_delivery(5.0, 4, [&] {
    order.push_back(1);
    sim.schedule_now([&] { order.push_back(4); });
  });
  sim.schedule_delivery(2.0, 9, [&] { order.push_back(0); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulator, ScheduleAfterIsRelative) {
  Simulator sim;
  double fired_at = -1;
  sim.schedule_at(10.0, [&] {
    sim.schedule_after(5.0, [&] { fired_at = sim.now(); });
  });
  sim.run();
  EXPECT_DOUBLE_EQ(fired_at, 15.0);
}

TEST(Simulator, PastTimesClampToNow) {
  Simulator sim;
  double fired_at = -1;
  sim.schedule_at(10.0, [&] {
    sim.schedule_at(3.0, [&] { fired_at = sim.now(); });
  });
  sim.run();
  EXPECT_DOUBLE_EQ(fired_at, 10.0);
}

TEST(Simulator, NegativeDelayClampsToZero) {
  Simulator sim;
  double fired_at = -1;
  sim.schedule_at(2.0, [&] {
    sim.schedule_after(-7.0, [&] { fired_at = sim.now(); });
  });
  sim.run();
  EXPECT_DOUBLE_EQ(fired_at, 2.0);
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator sim;
  bool ran = false;
  const EventId id = sim.schedule_at(1.0, [&] { ran = true; });
  EXPECT_TRUE(sim.cancel(id));
  sim.run();
  EXPECT_FALSE(ran);
}

TEST(Simulator, CancelReturnsFalseTwice) {
  Simulator sim;
  const EventId id = sim.schedule_at(1.0, [] {});
  EXPECT_TRUE(sim.cancel(id));
  EXPECT_FALSE(sim.cancel(id));
}

TEST(Simulator, CancelAfterRunReturnsFalse) {
  Simulator sim;
  const EventId id = sim.schedule_at(1.0, [] {});
  sim.run();
  EXPECT_FALSE(sim.cancel(id));
}

TEST(Simulator, CancelledEventDoesNotBlockOthers) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(1.0, [&] { order.push_back(1); });
  const EventId id = sim.schedule_at(1.0, [&] { order.push_back(2); });
  sim.schedule_at(1.0, [&] { order.push_back(3); });
  sim.cancel(id);
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST(Simulator, StepRunsExactlyOneEvent) {
  Simulator sim;
  int count = 0;
  sim.schedule_at(1.0, [&] { ++count; });
  sim.schedule_at(2.0, [&] { ++count; });
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(count, 1);
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(count, 2);
  EXPECT_FALSE(sim.step());
}

TEST(Simulator, RunUntilStopsAtBoundaryInclusive) {
  Simulator sim;
  int count = 0;
  sim.schedule_at(1.0, [&] { ++count; });
  sim.schedule_at(2.0, [&] { ++count; });
  sim.schedule_at(3.0, [&] { ++count; });
  EXPECT_EQ(sim.run_until(2.0), 2u);
  EXPECT_EQ(count, 2);
  EXPECT_DOUBLE_EQ(sim.now(), 2.0);
  sim.run();
  EXPECT_EQ(count, 3);
}

TEST(Simulator, RunUntilAdvancesClockWithNoEvents) {
  Simulator sim;
  sim.run_until(42.0);
  EXPECT_DOUBLE_EQ(sim.now(), 42.0);
}

TEST(Simulator, EventsScheduledDuringRunAreExecuted) {
  Simulator sim;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 100) sim.schedule_after(1.0, recurse);
  };
  sim.schedule_after(1.0, recurse);
  sim.run();
  EXPECT_EQ(depth, 100);
  EXPECT_DOUBLE_EQ(sim.now(), 100.0);
}

TEST(Simulator, DispatchedCountsEvents) {
  Simulator sim;
  for (int i = 0; i < 17; ++i) sim.schedule_at(i, [] {});
  sim.run();
  EXPECT_EQ(sim.dispatched(), 17u);
}

TEST(Simulator, PendingExcludesCancelled) {
  Simulator sim;
  const EventId a = sim.schedule_at(1.0, [] {});
  sim.schedule_at(2.0, [] {});
  EXPECT_EQ(sim.pending(), 2u);
  sim.cancel(a);
  EXPECT_EQ(sim.pending(), 1u);
}

TEST(Simulator, ScheduleNowRunsAtCurrentInstant) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(5.0, [&] {
    order.push_back(1);
    sim.schedule_now([&] { order.push_back(3); });
    order.push_back(2);
  });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);
}

TEST(Simulator, ScheduleNowInterleavesFifoWithTimedEvents) {
  // A zero-delay event scheduled *during* an event at time T must not
  // overtake an event already scheduled for T: FIFO is by schedule order,
  // across the fast-path ring and the timed queue.
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(5.0, [&] {
    order.push_back(1);
    sim.schedule_now([&] { order.push_back(3); });  // ring, seq > B's
  });
  sim.schedule_at(5.0, [&] { order.push_back(2); });  // timed, earlier seq
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulator, ZeroDelayChainsStayFifoUnderLoad) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 100; ++i) {
    sim.schedule_after(0.0, [&sim, &order, i] {
      order.push_back(i);
      if (i % 3 == 0) {
        sim.schedule_now([&order, i] { order.push_back(1000 + i); });
      }
    });
  }
  sim.run();
  // The first 100 dispatches are the original events in schedule order.
  ASSERT_GE(order.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(order[i], i);
}

TEST(Simulator, CancelOfDispatchedRingEventReturnsFalse) {
  Simulator sim;
  EventId id = 0;
  sim.schedule_at(1.0, [&] { id = sim.schedule_now([] {}); });
  sim.run();
  EXPECT_FALSE(sim.cancel(id));  // already ran via the fast path
}

TEST(Simulator, CancelOfStaleIdAfterSlotReuseReturnsFalse) {
  // Dispatching recycles the event record; an old EventId whose slot was
  // reused by a newer event must not cancel the newer one.
  Simulator sim;
  const EventId old_id = sim.schedule_at(1.0, [] {});
  sim.run();  // old event runs; its slot returns to the free list
  bool ran = false;
  sim.schedule_at(2.0, [&] { ran = true; });  // likely reuses the slot
  EXPECT_FALSE(sim.cancel(old_id));
  sim.run();
  EXPECT_TRUE(ran);
}

TEST(Simulator, CancelledTombstoneDoesNotResurrect) {
  // Cancel marks the record; the stale queue handle surfacing later must
  // be discarded silently, and double-cancel stays false.
  Simulator sim;
  std::vector<int> order;
  const EventId id = sim.schedule_at(1.0, [&] { order.push_back(-1); });
  sim.schedule_at(1.0, [&] { order.push_back(1); });
  EXPECT_TRUE(sim.cancel(id));
  EXPECT_FALSE(sim.cancel(id));
  sim.schedule_at(1.0, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_FALSE(sim.cancel(id));
}

TEST(Simulator, DaemonsOnFastPathDoNotKeepRunAlive) {
  Simulator sim;
  int daemon_runs = 0;
  sim.schedule_daemon_after(0.0, [&] { ++daemon_runs; });  // ring daemon
  EXPECT_EQ(sim.run(), 0u);  // no regular events: run() must not start
  EXPECT_EQ(daemon_runs, 0);
  EXPECT_EQ(sim.pending(), 1u);
  EXPECT_EQ(sim.pending_regular(), 0u);
}

TEST(Simulator, DaemonRingEventsRunWhileRegularWorkRemains) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(1.0, [&] {
    // Daemon wake-up on the ring, then more regular work at this instant.
    sim.schedule_daemon_after(0.0, [&] { order.push_back(10); });
    sim.schedule_now([&] { order.push_back(2); });
    order.push_back(1);
  });
  sim.run();
  // The daemon ran (regular work existed behind it), in FIFO position.
  EXPECT_EQ(order, (std::vector<int>{1, 10, 2}));
}

TEST(Simulator, RunStopsWithDaemonsStrandedOnRing) {
  // run() must halt as soon as the last regular event retires even if
  // daemons sit ready on the fast-path ring.
  Simulator sim;
  int daemon_runs = 0;
  sim.schedule_at(1.0, [&] {
    sim.schedule_daemon_now([&]() mutable { ++daemon_runs; });
  });
  sim.run();
  EXPECT_EQ(daemon_runs, 0);
  EXPECT_EQ(sim.pending(), 1u);
  // A later regular event lets the stranded daemon drain first (FIFO).
  bool regular_ran = false;
  sim.schedule_at(2.0, [&] { regular_ran = true; });
  sim.run();
  EXPECT_TRUE(regular_ran);
  EXPECT_EQ(daemon_runs, 1);
}

TEST(Simulator, SparseScheduleCrossesLongGaps) {
  // Exercises the calendar's empty-window jump: events separated by huge
  // gaps relative to the bucket width chosen for the dense prefix.
  Simulator sim;
  std::vector<double> fired;
  for (int i = 0; i < 3000; ++i) {
    sim.schedule_at(i * 0.001, [&fired, &sim] { fired.push_back(sim.now()); });
  }
  sim.schedule_at(1e6, [&fired, &sim] { fired.push_back(sim.now()); });
  sim.schedule_at(2e9, [&fired, &sim] { fired.push_back(sim.now()); });
  sim.run();
  ASSERT_EQ(fired.size(), 3002u);
  EXPECT_DOUBLE_EQ(fired[3000], 1e6);
  EXPECT_DOUBLE_EQ(fired[3001], 2e9);
  EXPECT_DOUBLE_EQ(sim.now(), 2e9);
}

TEST(Simulator, RunUntilBoundaryWithFastPathEvents) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(1.0, [&] {
    order.push_back(1);
    sim.schedule_now([&] { order.push_back(2); });
  });
  sim.schedule_at(3.0, [&] { order.push_back(3); });
  EXPECT_EQ(sim.run_until(2.0), 2u);  // the ring event at t=1 counts
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_DOUBLE_EQ(sim.now(), 2.0);
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

// Property sweep: dispatch order equals sorted (time, seq) order for
// randomized schedules of different sizes.
class SimulatorOrderProperty : public ::testing::TestWithParam<int> {};

TEST_P(SimulatorOrderProperty, DispatchOrderIsStableSort) {
  const int n = GetParam();
  Simulator sim;
  std::vector<std::pair<double, int>> fired;
  // Deterministic pseudo-random times with many collisions.
  std::uint64_t x = 0x1234 + n;
  for (int i = 0; i < n; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    const double t = static_cast<double>((x >> 33) % 16);
    sim.schedule_at(t, [&fired, t, i] { fired.emplace_back(t, i); });
  }
  sim.run();
  ASSERT_EQ(fired.size(), static_cast<std::size_t>(n));
  for (std::size_t i = 1; i < fired.size(); ++i) {
    // Non-decreasing time; FIFO within a timestamp (seq increases).
    EXPECT_LE(fired[i - 1].first, fired[i].first);
    if (fired[i - 1].first == fired[i].first) {
      EXPECT_LT(fired[i - 1].second, fired[i].second);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, SimulatorOrderProperty,
                         ::testing::Values(1, 2, 10, 100, 1000, 5000));

// Calendar-scale property: 50k events over a continuous time range with a
// 25% cancellation mix — dispatch order must still be a stable sort and no
// cancelled event may fire.
TEST(Simulator, LargeChurnDispatchOrderIsStableSort) {
  Simulator sim;
  std::vector<std::pair<double, int>> fired;
  std::vector<EventId> to_cancel;
  std::uint64_t x = 0xC0FFEE;
  auto next = [&x] {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    return x >> 11;
  };
  const int n = 50'000;
  std::vector<bool> cancelled(n, false);
  for (int i = 0; i < n; ++i) {
    const double t = static_cast<double>(next() % 1'000'000) / 1000.0;
    const EventId id = sim.schedule_at(t, [&fired, t, i] {
      fired.emplace_back(t, i);
    });
    if (next() % 4 == 0) {
      to_cancel.push_back(id);
      cancelled[i] = true;
    }
  }
  for (const EventId id : to_cancel) EXPECT_TRUE(sim.cancel(id));
  sim.run();
  ASSERT_EQ(fired.size(), static_cast<std::size_t>(n) - to_cancel.size());
  for (std::size_t i = 0; i < fired.size(); ++i) {
    EXPECT_FALSE(cancelled[static_cast<std::size_t>(fired[i].second)]);
    if (i == 0) continue;
    EXPECT_LE(fired[i - 1].first, fired[i].first);
    if (fired[i - 1].first == fired[i].first) {
      EXPECT_LT(fired[i - 1].second, fired[i].second);
    }
  }
}

// Differential order check of the near stage's two forms (sorted run and
// heap) and the calendar, against a std::map reference model keyed by
// (time, schedule order). Unlike the sweeps above, the pending set changes
// shape mid-run: fired events schedule 0-3 follow-ups (zero-delay, a few
// ranks from the front, or far out), cancel the model's front and back and
// random events, and the pending count oscillates across `kNearRunCap` many
// times and once past `kCalendarBuildThreshold`. The driver mixes `step`,
// `run_window`, `run_until` and external schedules. Every dispatch must be
// the model's front, at the model's time.
class ReferenceModelHarness {
 public:
  using Key = std::pair<SimTime, std::uint64_t>;  // (t, schedule order)

  void add(SimTime dt) {
    const Key k{sim.now() + dt, order_++};
    model_.emplace(k, sim.schedule_after(dt, Fire{this, k}));
  }

  void add_follow_ups() {
    // Growing: 1-3 follow-ups (mean 2). Draining: mean ~0.56. Times are
    // multiples of 1/64, so equal timestamps are common.
    const std::uint64_t n =
        growing_ ? 1 + rnd(3) : (rnd(8) < 5 ? 0 : 1 + rnd(2));
    for (std::uint64_t i = 0; i < n; ++i) {
      const std::uint64_t kind = rnd(10);
      if (kind < 3) {
        add(0.0);  // zero-delay: the ring
      } else if (kind < 7) {
        add(static_cast<double>(1 + rnd(4)) / 64.0);  // near the front
      } else {
        add(static_cast<double>(64 + rnd(64 * 64)) / 64.0);  // far out
      }
    }
  }

  void cancel(std::map<Key, EventId>::iterator it) {
    if (!sim.cancel(it->second)) ++errors;
    model_.erase(it);
    ++cancels;
  }

  void maybe_cancel() {
    if (model_.empty() || rnd(8) != 0) return;
    switch (rnd(3)) {
      case 0:
        cancel(model_.begin());
        break;
      case 1:
        cancel(std::prev(model_.end()));
        break;
      default: {
        auto it = model_.begin();
        std::advance(it, static_cast<std::ptrdiff_t>(rnd(model_.size())));
        cancel(it);
      }
    }
  }

  void on_fire(const Key& k) {
    ++fired;
    if (model_.empty() || model_.begin()->first != k || sim.now() != k.first) {
      ++errors;
      model_.erase(k);
    } else {
      model_.erase(model_.begin());
    }
    add_follow_ups();
    maybe_cancel();
    track();
  }

  /// Flip growth direction at the phase bounds and count cap crossings.
  void track() {
    const std::size_t n = sim.pending();
    max_pending = std::max(max_pending, n);
    const bool above = n > Simulator::kNearRunCap;
    if (above && !above_) ++crossings_up;
    if (!above && above_) ++crossings_down;
    above_ = above;
    if (growing_ && n > hi) growing_ = false;
    if (!growing_ && n < lo) growing_ = true;
  }

  /// Model and core agree on what is pending and when it is next due.
  bool consistent() {
    return sim.pending() == model_.size() &&
           sim.next_event_time() == model_front();
  }
  SimTime model_front() const {
    return model_.empty() ? std::numeric_limits<SimTime>::infinity()
                          : model_.begin()->first.first;
  }

  std::uint64_t rnd(std::uint64_t n) {
    x_ = x_ * 6364136223846793005ull + 1442695040888963407ull;
    return (x_ >> 33) % n;
  }

  Simulator sim;
  std::size_t lo = 20;
  std::size_t hi = 100;
  std::size_t errors = 0;
  std::size_t fired = 0;
  std::size_t cancels = 0;
  std::size_t crossings_up = 0;
  std::size_t crossings_down = 0;
  std::size_t max_pending = 0;

 private:
  struct Fire {
    ReferenceModelHarness* h;
    Key k;
    void operator()() const { h->on_fire(k); }
  };

  std::map<Key, EventId> model_;
  std::uint64_t order_ = 0;
  std::uint64_t x_ = 0x5EEDF00Dull;
  bool growing_ = true;
  bool above_ = false;
};

TEST(Simulator, DispatchMatchesReferenceModelAcrossNearStageForms) {
  ReferenceModelHarness h;
  Simulator& sim = h.sim;
  // Phases: oscillate across the run cap, make one excursion past the
  // calendar threshold, oscillate again (now over a built calendar), drain.
  struct Phase {
    std::size_t lo, hi, cycles;
  };
  const Phase phases[] = {
      {20, 100, 100},
      {20, Simulator::kCalendarBuildThreshold + 500, 1},
      {20, 100, 100},
  };
  std::size_t budget = 1'000'000;  // driver steps; a stuck core fails here
  for (const auto& ph : phases) {
    h.lo = ph.lo;
    h.hi = ph.hi;
    const std::size_t target = h.crossings_down + ph.cycles;
    while (h.crossings_down < target) {
      ASSERT_GT(budget--, 0u) << "pending count stopped oscillating";
      if (sim.pending() == 0) h.add(1.0 / 64.0);
      const SimTime span = static_cast<double>(1 + h.rnd(32)) / 64.0;
      switch (h.rnd(5)) {
        case 0: {
          const SimTime end = sim.now() + span;
          sim.run_window(end);
          if (h.model_front() < end) ++h.errors;
          break;
        }
        case 1: {
          const SimTime until = sim.now() + span;
          sim.run_until(until);
          if (h.model_front() <= until || sim.now() != until) ++h.errors;
          break;
        }
        case 2:
          h.add(span);  // external schedule between runs
          h.track();
          break;
        default:
          for (std::uint64_t i = 0, n = 1 + h.rnd(16); i < n; ++i) sim.step();
      }
      ASSERT_TRUE(h.consistent());
      ASSERT_EQ(h.errors, 0u) << "after " << h.fired << " dispatches";
    }
  }
  h.lo = 0;
  h.hi = 0;  // drain: follow-ups become rare, then the queue empties
  while (sim.pending() > 0) {
    ASSERT_TRUE(sim.step()) << "events pending but none dispatchable";
    ASSERT_EQ(h.errors, 0u) << "after " << h.fired << " dispatches";
  }
  EXPECT_TRUE(h.consistent());
  EXPECT_GE(h.crossings_up, 200u);
  EXPECT_GE(h.crossings_down, 200u);
  EXPECT_GT(h.max_pending, Simulator::kCalendarBuildThreshold);
  EXPECT_GT(h.cancels, 1000u);
}

}  // namespace
}  // namespace lifl::sim
