// Unit tests for the FIFO multi-server Resource (contention model).

#include <gtest/gtest.h>

#include <cmath>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/sim/resource.hpp"

namespace lifl::sim {
namespace {

TEST(Resource, SingleServerSerializesJobs) {
  Simulator sim;
  Resource r(sim, "r", 1);
  std::vector<double> done;
  for (int i = 0; i < 3; ++i) {
    r.acquire(2.0, [&] { done.push_back(sim.now()); });
  }
  sim.run();
  EXPECT_EQ(done, (std::vector<double>{2.0, 4.0, 6.0}));
}

TEST(Resource, MultiServerRunsInParallel) {
  Simulator sim;
  Resource r(sim, "r", 3);
  std::vector<double> done;
  for (int i = 0; i < 3; ++i) {
    r.acquire(2.0, [&] { done.push_back(sim.now()); });
  }
  sim.run();
  EXPECT_EQ(done, (std::vector<double>{2.0, 2.0, 2.0}));
}

TEST(Resource, QueueIsFifo) {
  Simulator sim;
  Resource r(sim, "r", 1);
  std::vector<int> order;
  r.acquire(1.0, [&] { order.push_back(0); });
  r.acquire(5.0, [&] { order.push_back(1); });
  r.acquire(0.5, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(Resource, TwoServersEightJobs) {
  // 8 jobs x 1s on 2 servers => makespan 4s. This is exactly the kernel
  // contention pattern of Fig. 4 (8 trainer transfers over 2 kernel cores).
  Simulator sim;
  Resource r(sim, "knet", 2);
  double last = 0;
  for (int i = 0; i < 8; ++i) {
    r.acquire(1.0, [&] { last = sim.now(); });
  }
  sim.run();
  EXPECT_DOUBLE_EQ(last, 4.0);
}

TEST(Resource, ZeroDurationJobsCompleteRespectingOrder) {
  Simulator sim;
  Resource r(sim, "r", 1);
  std::vector<int> order;
  r.acquire(0.0, [&] { order.push_back(0); });
  r.acquire(0.0, [&] { order.push_back(1); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
}

TEST(Resource, BusyTimeIntegralIsExact) {
  Simulator sim;
  Resource r(sim, "r", 2);
  r.acquire(3.0, [] {});
  r.acquire(5.0, [] {});
  sim.run();
  EXPECT_DOUBLE_EQ(r.busy_time(), 8.0);
  EXPECT_EQ(r.completed(), 2u);
}

TEST(Resource, UtilizationOverWindow) {
  Simulator sim;
  Resource r(sim, "r", 2);
  r.acquire(5.0, [] {});  // one of two servers busy for 5s
  sim.run_until(10.0);
  EXPECT_NEAR(r.utilization(), 5.0 / 20.0, 1e-12);
}

TEST(Resource, WaitTimeAccounted) {
  Simulator sim;
  Resource r(sim, "r", 1);
  r.acquire(4.0, [] {});
  r.acquire(1.0, [] {});  // waits 4s
  sim.run();
  EXPECT_DOUBLE_EQ(r.total_wait_time(), 4.0);
}

TEST(Resource, GrowCapacityStartsQueuedJobs) {
  Simulator sim;
  Resource r(sim, "r", 1);
  std::vector<double> done;
  r.acquire(10.0, [&] { done.push_back(sim.now()); });
  r.acquire(1.0, [&] { done.push_back(sim.now()); });
  sim.schedule_at(2.0, [&] { r.set_capacity(2); });  // vertical scale-up
  sim.run();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_DOUBLE_EQ(done[0], 3.0);   // queued job starts at 2.0
  EXPECT_DOUBLE_EQ(done[1], 10.0);
}

TEST(Resource, ShrinkCapacityDoesNotPreempt) {
  Simulator sim;
  Resource r(sim, "r", 2);
  std::vector<double> done;
  r.acquire(5.0, [&] { done.push_back(sim.now()); });
  r.acquire(7.0, [&] { done.push_back(sim.now()); });
  r.acquire(1.0, [&] { done.push_back(sim.now()); });
  sim.schedule_at(1.0, [&] { r.set_capacity(1); });
  sim.run();
  ASSERT_EQ(done.size(), 3u);
  // Both in-service jobs run to completion despite the shrink at t=1.
  EXPECT_DOUBLE_EQ(done[0], 5.0);
  EXPECT_DOUBLE_EQ(done[1], 7.0);
  // The queued job starts only once busy(1) < capacity(1), i.e. at t=7.
  EXPECT_DOUBLE_EQ(done[2], 8.0);
}

TEST(Resource, ResetStatsClearsCounters) {
  Simulator sim;
  Resource r(sim, "r", 1);
  r.acquire(2.0, [] {});
  sim.run();
  r.reset_stats();
  EXPECT_DOUBLE_EQ(r.busy_time(), 0.0);
  EXPECT_EQ(r.completed(), 0u);
  EXPECT_DOUBLE_EQ(r.total_wait_time(), 0.0);
}

TEST(Resource, QueueLengthReflectsBacklog) {
  Simulator sim;
  Resource r(sim, "r", 1);
  for (int i = 0; i < 5; ++i) r.acquire(1.0, [] {});
  EXPECT_EQ(r.busy(), 1u);
  EXPECT_EQ(r.queue_length(), 4u);
  sim.run();
  EXPECT_EQ(r.queue_length(), 0u);
  EXPECT_EQ(r.busy(), 0u);
}

// Property: makespan of n identical jobs on c servers = ceil(n/c) * t.
class ResourceMakespan
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(ResourceMakespan, MatchesClosedForm) {
  const auto [n, c] = GetParam();
  Simulator sim;
  Resource r(sim, "r", c);
  for (int i = 0; i < n; ++i) r.acquire(2.5, [] {});
  sim.run();
  const double expect = std::ceil(static_cast<double>(n) / c) * 2.5;
  EXPECT_NEAR(sim.now(), expect, 1e-9);
  EXPECT_NEAR(r.busy_time(), n * 2.5, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ResourceMakespan,
    ::testing::Combine(::testing::Values(1, 2, 7, 16, 64),
                       ::testing::Values(1, 2, 4, 8)));

// ---------------------------------------------------------------------------
// RSS multi-queue resource (gateway-parallel ingest).

TEST(MultiQueueResource, SingleQueueMatchesPlainResource) {
  // queues=1 must behave exactly like a Resource with `cores` servers.
  Simulator sim;
  MultiQueueResource mq(sim, "gw", 2, 1);
  Resource plain(sim, "ref", 2);
  std::vector<double> mq_done, plain_done;
  for (int i = 0; i < 5; ++i) {
    mq.acquire(/*flow=*/i, 2.0, [&] { mq_done.push_back(sim.now()); });
    plain.acquire(2.0, [&] { plain_done.push_back(sim.now()); });
  }
  sim.run();
  EXPECT_EQ(mq_done, plain_done);
  EXPECT_EQ(mq.capacity(), 2u);
  EXPECT_EQ(mq.queue_count(), 1u);
  EXPECT_NEAR(mq.busy_time(), plain.busy_time(), 1e-12);
}

TEST(MultiQueueResource, FlowsStayOrderedOnTheirQueue) {
  Simulator sim;
  MultiQueueResource mq(sim, "gw", 4, 4);
  // One hot flow: its jobs serialize on one queue regardless of 4 cores.
  std::vector<double> done;
  for (int i = 0; i < 3; ++i) {
    mq.acquire(/*flow=*/42, 1.0, [&] { done.push_back(sim.now()); });
  }
  sim.run();
  EXPECT_EQ(done, (std::vector<double>{1.0, 2.0, 3.0}));
}

TEST(MultiQueueResource, ScaleUpRedistributesAcrossQueues) {
  Simulator sim;
  MultiQueueResource mq(sim, "gw", 2, 2);
  mq.set_capacity(8);
  EXPECT_EQ(mq.capacity(), 8u);
  // 64 distinct flows over 2 queues x 4 cores: 8 in service at once.
  int started = 0;
  for (int i = 0; i < 64; ++i) {
    mq.acquire(/*flow=*/i, 1.0, [&] { ++started; });
  }
  EXPECT_EQ(mq.busy(), 8u);
  sim.run();
  EXPECT_EQ(started, 64);
}

TEST(MultiQueueResource, ScaleDownNarrowsSteeringAndDrains) {
  Simulator sim;
  MultiQueueResource mq(sim, "gw", 4, 4);
  // Park a job on every queue, then scale down to 1 core.
  for (int f = 0; f < 64; ++f) mq.acquire(f, 10.0, [] {});
  mq.set_capacity(1);
  EXPECT_EQ(mq.capacity(), 1u);
  // In-flight jobs are not preempted and queued jobs must not stall:
  // everything completes.
  std::uint64_t before = mq.completed();
  sim.run();
  EXPECT_EQ(mq.completed() - before, 64u);
  // After draining, a further set_capacity reclaims surplus servers and
  // new flows land only on the live queue.
  mq.set_capacity(1);
  std::uint32_t live_busy = 0;
  for (int f = 0; f < 16; ++f) mq.acquire(f, 1.0, [] {});
  live_busy = mq.busy();
  EXPECT_EQ(live_busy, 1u);  // one live queue, one server
  sim.run();
}

// Lvalue guard: the scheduling and acquire entry points take callables by
// forwarding reference and build them in place. An lvalue `Task` must not
// compile there — it would silently empty the caller's callback — while
// rvalue Tasks and lambdas/functors (copied when passed as lvalues) must.
template <template <typename> class Expr, typename F, typename = void>
struct Detect : std::false_type {};
template <template <typename> class Expr, typename F>
struct Detect<Expr, F, std::void_t<Expr<F>>> : std::true_type {};

template <typename F>
using ScheduleAt =
    decltype(std::declval<Simulator&>().schedule_at(0.0, std::declval<F>()));
template <typename F>
using ScheduleNow =
    decltype(std::declval<Simulator&>().schedule_now(std::declval<F>()));
template <typename F>
using Acquire =
    decltype(std::declval<Resource&>().acquire(0.0, std::declval<F>()));
using Mqr = MultiQueueResource;
template <typename F>
using AcquireFlow =
    decltype(std::declval<Mqr&>().acquire(0u, 0.0, std::declval<F>()));

struct Noop {
  void operator()() const {}
};
[[maybe_unused]] auto kLambda = [] {};
using Lambda = decltype(kLambda);
struct TakesArg {
  void operator()(int) const {}
};

static_assert(!Detect<ScheduleAt, Task&>::value);
static_assert(!Detect<ScheduleAt, const Task&>::value);
static_assert(!Detect<ScheduleNow, Task&>::value);
static_assert(!Detect<Acquire, Task&>::value);
static_assert(!Detect<Acquire, const Task&>::value);
static_assert(!Detect<AcquireFlow, Task&>::value);
static_assert(Detect<ScheduleAt, Task>::value);
static_assert(Detect<ScheduleNow, Task>::value);
static_assert(Detect<Acquire, Task>::value);
static_assert(Detect<AcquireFlow, Task>::value);
static_assert(Detect<ScheduleAt, Noop>::value);
static_assert(Detect<ScheduleAt, Noop&>::value);
static_assert(Detect<ScheduleAt, const Noop&>::value);
static_assert(Detect<ScheduleAt, Lambda>::value);
static_assert(Detect<ScheduleNow, Lambda&>::value);
static_assert(Detect<Acquire, Noop&>::value);
static_assert(Detect<Acquire, Lambda>::value);
static_assert(Detect<AcquireFlow, const Noop&>::value);
static_assert(!Detect<ScheduleAt, TakesArg>::value);
static_assert(!Detect<Acquire, TakesArg>::value);

TEST(Resource, ForwardedCallablesRunOnceAndLvaluesAreCopied) {
  Simulator sim;
  Resource r(sim, "r", 1);
  int runs = 0;
  auto bump = [&runs] { ++runs; };
  r.acquire(1.0, bump);  // copied: `bump` stays usable
  r.acquire(1.0, bump);  // queued behind the first, built in the queue
  Task moved = [&runs] { runs += 10; };
  r.acquire(1.0, std::move(moved));
  sim.schedule_after(0.5, bump);
  bump();
  sim.run();
  EXPECT_EQ(runs, 1 + 1 + 1 + 1 + 10);
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);
}

}  // namespace
}  // namespace lifl::sim
