// Exact bounds of the sharded campaign's outbound promises on hand-built
// inputs: the sparse arrival table, the merged launch bound, the group
// relay bound and the async top's version bound, plus the relay snapshot
// board the top reads across shards.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <limits>
#include <thread>
#include <vector>

#include "src/sim/random.hpp"
#include "src/systems/campaign_promises.hpp"
#include "src/workload/population.hpp"

namespace {

namespace sys = lifl::sys;
using sys::ArrivalTable;
using sys::GroupFlow;
using sys::LaunchBound;
using sys::RelaySnapshot;
using sys::TopFlow;

constexpr double kInf = std::numeric_limits<double>::infinity();

// Arrivals 1024, 2048 and 3000 (the last) at t = 10, 20, 30.
ArrivalTable table_a() { return ArrivalTable({10.0, 20.0, 30.0}, 3000); }
// Arrivals 1024 and 1500 (the last) at t = 15, 25.
ArrivalTable table_b() { return ArrivalTable({15.0, 25.0}, 1500); }

TEST(ArrivalTable, NthFloorIsTheLatestEntryAtOrBelowN) {
  const ArrivalTable a = table_a();
  EXPECT_EQ(a.count_at(0), 1024u);
  EXPECT_EQ(a.count_at(2), 3000u);
  EXPECT_EQ(a.nth_floor(1), -kInf);
  EXPECT_EQ(a.nth_floor(1023), -kInf);
  EXPECT_EQ(a.nth_floor(1024), 10.0);
  EXPECT_EQ(a.nth_floor(2047), 10.0);
  EXPECT_EQ(a.nth_floor(2048), 20.0);
  EXPECT_EQ(a.nth_floor(2999), 20.0);
  EXPECT_EQ(a.nth_floor(3000), 30.0);
  EXPECT_EQ(a.nth_floor(9000), 30.0);
  // A share below one stride keeps only its last arrival.
  const ArrivalTable small({9.0}, 40);
  EXPECT_EQ(small.nth_floor(39), -kInf);
  EXPECT_EQ(small.nth_floor(40), 9.0);
  EXPECT_EQ(ArrivalTable().nth_floor(1), -kInf);
}

TEST(ArrivalTable, ReplayReproducesTheArrivalChainBitForBit) {
  const lifl::wl::ArrivalProcess process({300.0, 2.0, 0.3, 4.0});
  lifl::sim::Rng rng(99);
  const double epoch = 5.0;
  const double first = process.next_after(0.0, rng);
  const std::uint64_t total = 2500;
  const ArrivalTable t =
      ArrivalTable::replay(process, rng, epoch, first, total);
  ASSERT_EQ(t.at().size(), 3u);
  EXPECT_EQ(t.total(), total);
  // The chain itself: launch n at epoch + rel_n, draw the next while n <
  // total — from the very RNG the replay was handed a copy of.
  double rel = first;
  std::size_t entry = 0;
  for (std::uint64_t n = 1; n <= total; ++n) {
    if (n % ArrivalTable::kStride == 0 || n == total) {
      EXPECT_EQ(t.at()[entry++], epoch + rel) << "arrival " << n;
    }
    if (n < total) rel = process.next_after(rel, rng);
  }
  EXPECT_EQ(entry, 3u);
}

TEST(LaunchBound, EarliestIsTheFirstEntryWhereTheMergedBoundReachesNeed) {
  const ArrivalTable a = table_a();
  const ArrivalTable b = table_b();
  const LaunchBound bound({&a, &b});
  // Before every entry: A <= 1023, B <= 1023. Then A@10 +1024 (3070),
  // B@15 +476 (3546), A@20 +952 (4498), B@25 +1 (4499), A@30 +1 (4500).
  EXPECT_EQ(bound.earliest(0), -kInf);
  EXPECT_EQ(bound.earliest(2046), -kInf);
  EXPECT_EQ(bound.earliest(2047), 10.0);
  EXPECT_EQ(bound.earliest(3070), 10.0);
  EXPECT_EQ(bound.earliest(3071), 15.0);
  EXPECT_EQ(bound.earliest(3546), 15.0);
  EXPECT_EQ(bound.earliest(3547), 20.0);
  EXPECT_EQ(bound.earliest(4498), 20.0);
  EXPECT_EQ(bound.earliest(4499), 25.0);
  EXPECT_EQ(bound.earliest(4500), 30.0);
  EXPECT_EQ(bound.earliest(4501), kInf);  // more than both shares hold
}

sys::ShardedCampaignConfig promise_cfg(sys::HierarchyMode mode) {
  sys::ShardedCampaignConfig cfg;
  cfg.hierarchy = mode;
  cfg.updates_per_leaf = 10;
  cfg.leaves_per_group = 4;
  cfg.model_bytes = 50'000;
  return cfg;
}

TEST(GroupOutboundBound, FixedLeavesWaitForTheirKthRelaysArrivals) {
  const auto cfg = promise_cfg(sys::HierarchyMode::kFixed);
  const double lat = sys::cross_latency_secs(cfg.model_bytes);
  GroupFlow g;
  g.relays_done = 1;  // the next relay needs 20 folds
  g.launched = 15;
  g.target = 40;
  g.next_arrival = 2.0;
  EXPECT_EQ(sys::group_outbound_bound(cfg, g), 2.0 + lat);
  g.launched = 20;  // enough launched: the arrivals bound nothing
  EXPECT_EQ(sys::group_outbound_bound(cfg, g), 0.0);
  g.relays_done = 4;  // every leaf relayed
  EXPECT_EQ(sys::group_outbound_bound(cfg, g), kInf);
}

TEST(GroupOutboundBound, PlannedRelayWaitsForTheLastArrivalOrTheDeadline) {
  auto cfg = promise_cfg(sys::HierarchyMode::kPlanned);
  const double lat = sys::cross_latency_secs(cfg.model_bytes);
  const ArrivalTable table({9.0}, 40);
  GroupFlow g;
  g.launched = 10;
  g.target = 40;
  g.epoch = 1.0;
  g.next_arrival = 2.0;
  EXPECT_EQ(sys::group_outbound_bound(cfg, g), 2.0 + lat);
  // The table knows the 40th arrival: the relay cannot fire before it.
  g.arrivals = &table;
  EXPECT_EQ(sys::group_outbound_bound(cfg, g), 9.0 + lat);
  // Under quorum the deadline probe may seal earlier, and bounds the
  // shrink once the relay has fired.
  cfg.quorum = 0.8;
  cfg.round_deadline_secs = 3.0;
  const double deadline = 1.0 + 3.0 + sys::cross_latency_secs(0);
  EXPECT_EQ(sys::group_outbound_bound(cfg, g), deadline);
  g.relays_done = 1;
  EXPECT_EQ(sys::group_outbound_bound(cfg, g), deadline);
}

TEST(GroupOutboundBound, AsyncRelayTakesTheLaterOfTableAndEmissionFloor) {
  const auto cfg = promise_cfg(sys::HierarchyMode::kAsync);
  const double lat = sys::cross_latency_secs(cfg.model_bytes);
  // Arrivals 1024, 2048, 3072, 4096 and 5000 (the last) at t = 1..5.
  const ArrivalTable table({1.0, 2.0, 3.0, 4.0, 5.0}, 5000);
  GroupFlow g;
  g.relay_flush = 2000;
  g.relays_done = 1;  // the next flush needs 4000 folds
  g.launched = 2500;
  g.target = 5000;
  g.next_arrival = 2.6;
  g.arrivals = &table;
  // Arrival 4000 comes no earlier than arrival 3072, at t = 3.
  EXPECT_EQ(sys::group_outbound_bound(cfg, g), 3.0 + lat);
  g.emit_floor = 3.5;
  EXPECT_EQ(sys::group_outbound_bound(cfg, g), 3.5 + lat);
  g.launched = 4000;  // arrivals launched: only the seals bound it
  EXPECT_EQ(sys::group_outbound_bound(cfg, g), 3.5 + lat);
  g.relays_done = 2;  // the last flush takes the remainder: 5000
  g.emit_floor = 0.0;
  EXPECT_EQ(sys::group_outbound_bound(cfg, g), 5.0 + lat);
  g.relays_done = 3;  // the share is forwarded
  EXPECT_EQ(sys::group_outbound_bound(cfg, g), kInf);
}

TEST(AsyncTopBound, VersionWaitsForLaunchesAndTheRelayChain) {
  const auto cfg = promise_cfg(sys::HierarchyMode::kAsync);
  const double lat = sys::cross_latency_secs(cfg.model_bytes);
  const ArrivalTable a = table_a();
  const ArrivalTable b = table_b();
  const LaunchBound launches({&a, &b});
  TopFlow top;
  top.quota = 4000;
  top.total = 4500;
  top.goal = 4000;
  top.top_step = 0.001;
  // Version 1 needs 4000 launches: no earlier than t = 20. The relays
  // forwarded 1500 by their snapshots, so a later emission is needed too,
  // no earlier than the least floor: t = 3 (looser here).
  std::vector<RelaySnapshot> relays = {{1000, 3.0}, {500, 5.0}};
  EXPECT_EQ(sys::async_top_bound(cfg, top, &launches, relays), 20.0 + lat);
  relays = {{1000, 30.0}, {500, 40.0}};
  EXPECT_EQ(sys::async_top_bound(cfg, top, &launches, relays),
            30.0 + lat + 0.001 + lat);
  // Forwarded enough for the goal: the chain bounds nothing.
  relays = {{3000, 50.0}, {1500, 60.0}};
  EXPECT_EQ(sys::async_top_bound(cfg, top, &launches, relays), 20.0 + lat);
  // No merged table yet: the chain alone.
  relays = {{1000, 30.0}, {500, 40.0}};
  EXPECT_EQ(sys::async_top_bound(cfg, top, nullptr, relays),
            30.0 + lat + 0.001 + lat);
  // The last version is the remainder: 4500 launches, t = 30. A stale
  // snapshot below what the top already folded still floors what follows.
  top.folded = 4000;
  top.goal = 500;
  relays = {{2000, 1.0}, {1000, 2.0}};
  EXPECT_EQ(sys::async_top_bound(cfg, top, &launches, relays), 30.0 + lat);
  top.done = true;
  EXPECT_EQ(sys::async_top_bound(cfg, top, &launches, relays), kInf);
}

TEST(RelayBoard, ReadersSeeWholeSnapshots) {
  sys::RelayBoard board;
  EXPECT_EQ(board.read().forwarded, 0u);
  EXPECT_EQ(board.read().emit_floor, 0.0);
  board.publish({7, 3.5});
  EXPECT_EQ(board.read().forwarded, 7u);
  EXPECT_EQ(board.read().emit_floor, 3.5);
  // One writer, one reader: every snapshot read pairs a count with the
  // floor published beside it.
  std::atomic<bool> done{false};
  std::thread writer([&] {
    for (std::uint64_t i = 8; i < 20'000; ++i) {
      board.publish({i, static_cast<double>(i) * 0.5});
    }
    done.store(true);
  });
  std::uint64_t last = 0;
  while (!done.load()) {
    const RelaySnapshot s = board.read();
    EXPECT_EQ(s.emit_floor, static_cast<double>(s.forwarded) * 0.5);
    EXPECT_GE(s.forwarded, last);
    last = s.forwarded;
  }
  writer.join();
  EXPECT_EQ(board.read().forwarded, 19'999u);
}

}  // namespace
