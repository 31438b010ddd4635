// Unit tests for the observability layer (src/obs): trace ring overflow
// accounting, deterministic merged ordering, the Chrome-JSON exporter's
// structure, the log2 histogram / registry, and the MetricsMap sidecar
// slots.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "src/dataplane/metrics_map.hpp"
#include "src/obs/obs.hpp"
#include "src/obs/registry.hpp"
#include "src/obs/trace.hpp"

namespace {

using lifl::obs::Ev;
using lifl::obs::ShardTrace;
using lifl::obs::TraceEvent;
using lifl::obs::TraceRecorder;

TEST(ShardTraceTest, RecordsInEmissionOrder) {
  ShardTrace ring;
  ring.init(8);
  for (int i = 0; i < 5; ++i) {
    ring.instant(static_cast<double>(i), Ev::kAggSpawn, /*track=*/0,
                 static_cast<std::uint32_t>(i));
  }
  EXPECT_EQ(ring.size(), 5u);
  EXPECT_EQ(ring.dropped_events(), 0u);
  const auto ev = ring.events();
  ASSERT_EQ(ev.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_DOUBLE_EQ(ev[static_cast<std::size_t>(i)].t,
                     static_cast<double>(i));
  }
}

TEST(ShardTraceTest, OverflowDropsOldestAndCounts) {
  ShardTrace ring;
  ring.init(4);
  for (int i = 0; i < 10; ++i) {
    ring.instant(static_cast<double>(i), Ev::kAggFold, /*track=*/0,
                 static_cast<std::uint32_t>(i));
  }
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.dropped_events(), 6u);
  // The oldest surviving event is the one emitted right after the last
  // overwrite: emissions 6..9 survive, 0..5 were overwritten.
  const auto ev = ring.events();
  ASSERT_EQ(ev.size(), 4u);
  EXPECT_DOUBLE_EQ(ev.front().t, 6.0);
  EXPECT_DOUBLE_EQ(ev.back().t, 9.0);
}

TEST(ShardTraceTest, ZeroCapacityDisablesStorage) {
  ShardTrace ring;  // never init'd: capacity 0
  ring.instant(1.0, Ev::kCkptMark, 0, 0);
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_EQ(ring.dropped_events(), 0u);
}

TEST(TraceRecorderTest, MergedOrderIsDeterministic) {
  // Interleave emissions across rings out of time order; merged() must
  // sort by (t, track, kind, a, b, dur) regardless of emission order.
  const auto fill = [](TraceRecorder& r) {
    r.shard(1)->instant(2.0, Ev::kAggFold, 5, 11);
    r.shard(0)->instant(1.0, Ev::kAggSpawn, 3, 7);
    r.coordinator()->span(0.5, 2.5, Ev::kRound, lifl::obs::kCampaignTrack, 1);
    r.shard(0)->instant(1.0, Ev::kAggSpawn, 2, 9);
  };
  TraceRecorder a, b;
  a.init(/*shards=*/2, /*ring_kb=*/1);
  b.init(2, 1);
  fill(a);
  fill(b);
  const auto ma = a.merged();
  const auto mb = b.merged();
  ASSERT_EQ(ma.size(), 4u);
  ASSERT_EQ(ma.size(), mb.size());
  for (std::size_t i = 0; i < ma.size(); ++i) {
    EXPECT_DOUBLE_EQ(ma[i].t, mb[i].t);
    EXPECT_EQ(ma[i].track, mb[i].track);
    EXPECT_EQ(static_cast<int>(ma[i].kind), static_cast<int>(mb[i].kind));
    EXPECT_EQ(ma[i].a, mb[i].a);
  }
  // Sorted by t first, then track (2 before 5 at t=1? no: t=0.5 span
  // first, then the two t=1 instants ordered by track 2 < 3).
  EXPECT_DOUBLE_EQ(ma[0].t, 0.5);
  EXPECT_DOUBLE_EQ(ma[1].t, 1.0);
  EXPECT_EQ(ma[1].track, 2);
  EXPECT_EQ(ma[2].track, 3);
  EXPECT_DOUBLE_EQ(ma[3].t, 2.0);
}

TEST(TraceRecorderTest, ChromeJsonIsStructurallyValid) {
  TraceRecorder r;
  r.init(2, 1);
  r.shard(0)->instant(1.0, Ev::kAggSpawn, 0, 42);
  r.shard(1)->span(1.0, 2.0, Ev::kAggFold, 1, 7, 3);
  r.coordinator()->instant(2.0, Ev::kCkptMark, lifl::obs::shard_track(0), 0,
                           5);

  std::string path = testing::TempDir() + "obs_trace.json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  r.write_chrome_json(f, /*groups=*/2);
  std::fclose(f);

  f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  std::string body;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) body.append(buf, n);
  std::fclose(f);
  std::remove(path.c_str());

  // Structural checks: balanced braces/brackets outside strings, the
  // required top-level keys, and one "X" phase for the span.
  int brace = 0, bracket = 0;
  bool in_str = false, esc = false;
  for (const char c : body) {
    if (esc) {
      esc = false;
      continue;
    }
    if (c == '\\') {
      esc = true;
      continue;
    }
    if (c == '"') {
      in_str = !in_str;
      continue;
    }
    if (in_str) continue;
    if (c == '{') ++brace;
    if (c == '}') --brace;
    if (c == '[') ++bracket;
    if (c == ']') --bracket;
    EXPECT_GE(brace, 0);
    EXPECT_GE(bracket, 0);
  }
  EXPECT_EQ(brace, 0);
  EXPECT_EQ(bracket, 0);
  EXPECT_NE(body.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(body.find("\"displayTimeUnit\""), std::string::npos);
  EXPECT_NE(body.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(body.find("\"ph\": \"i\""), std::string::npos);
  EXPECT_NE(body.find("agg_fold"), std::string::npos);
  EXPECT_NE(body.find("\"dropped_events\": 0"), std::string::npos);
  // Metadata names every track family.
  EXPECT_NE(body.find("node groups"), std::string::npos);
  EXPECT_NE(body.find("campaign"), std::string::npos);
}

TEST(HistTest, Log2BucketsAndMoments) {
  lifl::obs::Hist h;
  h.observe(0.5);   // exponent 0 -> bucket kExpOffset
  h.observe(0.75);  // same bucket
  h.observe(3.0);   // exponent 2 -> kExpOffset + 2
  h.observe(0.0);   // non-positive -> bucket 0
  EXPECT_EQ(h.count, 4u);
  EXPECT_DOUBLE_EQ(h.sum, 4.25);
  EXPECT_DOUBLE_EQ(h.min, 0.0);
  EXPECT_DOUBLE_EQ(h.max, 3.0);
  EXPECT_EQ(h.buckets[lifl::obs::Hist::kExpOffset], 2u);
  EXPECT_EQ(h.buckets[lifl::obs::Hist::kExpOffset + 2], 1u);
  EXPECT_EQ(h.buckets[0], 1u);

  lifl::obs::Hist other;
  other.observe(1024.0);
  h.merge(other);
  EXPECT_EQ(h.count, 5u);
  EXPECT_DOUBLE_EQ(h.max, 1024.0);
}

TEST(RegistryTest, SlottedHists) {
  lifl::obs::Registry reg(/*slots=*/3);
  const auto h = reg.hist("secs");
  const auto d = reg.hist("depth");
  reg.observe(1, h, 0.25);
  reg.observe(2, h, 0.5);
  reg.observe(0, d, 3.0);
  EXPECT_EQ(reg.hist_value(0, h).count, 0u);
  EXPECT_EQ(reg.hist_value(1, h).count, 1u);
  EXPECT_EQ(reg.hist_total(h).count, 2u);
  EXPECT_DOUBLE_EQ(reg.hist_total(h).sum, 0.75);
  EXPECT_EQ(reg.hist_total(d).count, 1u);
  EXPECT_EQ(reg.hist_name(d), "depth");
  EXPECT_EQ(reg.hist_count(), 2u);
}

TEST(GroupObsTest, DisabledHandleIsInert) {
  // A default-constructed handle must swallow every emit, including the
  // pointer-to-member forms (ids is null — must not be dereferenced).
  lifl::obs::GroupObs o;
  o.instant(1.0, Ev::kAggSpawn, 1);
  o.span(1.0, 2.0, Ev::kAggFold, 1);
  o.observe_id(&lifl::obs::Ids::fold_secs, 0.5);
  EXPECT_FALSE(o.tracing());
  EXPECT_FALSE(o.metering());
  EXPECT_FALSE(static_cast<bool>(o.hist_slot(lifl::obs::HistId{})));
}

TEST(CampaignObsTest, SlotAndTrackLayout) {
  lifl::obs::Config cfg;
  cfg.trace = true;
  cfg.metrics = true;
  cfg.trace_ring_kb = 1;
  lifl::obs::CampaignObs co(cfg, /*shards=*/2, /*groups=*/4);
  EXPECT_EQ(co.group_slot(3), 3u);
  EXPECT_EQ(co.campaign_slot(), 4u);
  EXPECT_EQ(co.registry().slots(), 5u);

  auto g = co.group_obs(2, /*shard=*/1);
  EXPECT_TRUE(g.tracing());
  EXPECT_TRUE(g.metering());
  EXPECT_EQ(g.track, 2);
  g.observe_id(&lifl::obs::Ids::fold_secs, 0.5);
  EXPECT_EQ(co.registry().hist_value(2, co.ids().fold_secs).count, 1u);

  auto coord = co.coordinator_obs();
  EXPECT_EQ(coord.track, lifl::obs::kCampaignTrack);
  coord.instant(1.0, Ev::kRound, 1);
  EXPECT_EQ(co.trace().coordinator()->size(), 1u);
}

// ---------------------------------------------------------------------------
// MetricsMap: five fixed sidecar slots; drain reads and zeroes one, and a
// checkpointed image restores every slot.

TEST(MetricsMapTest, AddGetDrain) {
  lifl::dp::MetricsMap m;
  m.add(lifl::dp::MetricsMap::kSends);
  m.add(lifl::dp::MetricsMap::kSends);
  m.add(lifl::dp::MetricsMap::kSendBytes, 100.0);
  EXPECT_DOUBLE_EQ(m.get(lifl::dp::MetricsMap::kSends), 2.0);
  EXPECT_DOUBLE_EQ(m.get(lifl::dp::MetricsMap::kSendBytes), 100.0);
  EXPECT_DOUBLE_EQ(m.get(lifl::dp::MetricsMap::kArrivals), 0.0);
  EXPECT_DOUBLE_EQ(m.drain(lifl::dp::MetricsMap::kSends), 2.0);
  EXPECT_DOUBLE_EQ(m.get(lifl::dp::MetricsMap::kSends), 0.0);
  EXPECT_DOUBLE_EQ(m.get(lifl::dp::MetricsMap::kSendBytes), 100.0);
}

TEST(MetricsMapTest, SlotsRestoreRoundTrip) {
  lifl::dp::MetricsMap m;
  m.add(lifl::dp::MetricsMap::kAggExecSum, 1.5);
  m.add(lifl::dp::MetricsMap::kAggExecCount, 3.0);
  lifl::dp::MetricsMap m2;
  m2.restore(m.slots());
  EXPECT_EQ(m2.slots(), m.slots());
  EXPECT_DOUBLE_EQ(m2.get(lifl::dp::MetricsMap::kAggExecCount), 3.0);
}

}  // namespace
