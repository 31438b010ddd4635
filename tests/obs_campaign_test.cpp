// Campaign-level observability guarantees: tracing/metering is PASSIVE.
// Enabling it must leave every campaign result bitwise identical — for
// all three hierarchy modes and for 1 vs LIFL_TEST_SHARDS shards — the
// trace must be deterministic (same config => identical merged event
// sequence), and its contents must reconcile with the campaign result.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <regex>
#include <string>
#include <vector>

#include "src/obs/obs.hpp"
#include "src/obs/trace.hpp"
#include "src/systems/sharded_campaign.hpp"

namespace {

using lifl::obs::Ev;
using lifl::obs::TraceEvent;
using lifl::sys::HierarchyMode;
using lifl::sys::ShardedCampaignConfig;
using lifl::sys::ShardedCampaignResult;

std::size_t test_shards() {
  std::size_t shards = 2;
  if (const char* env = std::getenv("LIFL_TEST_SHARDS")) {
    shards = std::max<std::size_t>(2, std::strtoul(env, nullptr, 10));
  }
  return shards;
}

ShardedCampaignConfig small_campaign(HierarchyMode mode, std::size_t shards) {
  ShardedCampaignConfig cfg;
  cfg.shards = shards;
  cfg.groups = 4;
  cfg.rounds = 2;
  cfg.leaves_per_group = 8;
  cfg.updates_per_leaf = 10;
  cfg.model_bytes = 50'000;
  cfg.population = 20'000;
  cfg.peak_per_sec = 400.0;
  cfg.ramp_secs = 2.0;
  cfg.seed = 77;
  cfg.hierarchy = mode;
  if (mode == HierarchyMode::kAsync) cfg.async_deadline_secs = 2.0;
  return cfg;
}

/// Every deterministic field of the result must match bitwise.
void expect_identical(const ShardedCampaignResult& a,
                      const ShardedCampaignResult& b, const char* what) {
  ASSERT_EQ(a.round_completed_at.size(), b.round_completed_at.size()) << what;
  for (std::size_t r = 0; r < a.round_completed_at.size(); ++r) {
    EXPECT_DOUBLE_EQ(a.round_completed_at[r], b.round_completed_at[r])
        << what << " round " << r;
    EXPECT_EQ(a.round_samples[r], b.round_samples[r]) << what;
    EXPECT_DOUBLE_EQ(a.round_weight[r], b.round_weight[r]) << what;
    EXPECT_EQ(a.round_spawned[r], b.round_spawned[r]) << what;
    EXPECT_EQ(a.round_reused[r], b.round_reused[r]) << what;
  }
  ASSERT_EQ(a.groups.size(), b.groups.size()) << what;
  for (std::size_t g = 0; g < a.groups.size(); ++g) {
    EXPECT_EQ(a.groups[g].uploads, b.groups[g].uploads) << what;
    EXPECT_EQ(a.groups[g].pool_pushed, b.groups[g].pool_pushed) << what;
    EXPECT_DOUBLE_EQ(a.groups[g].gateway_busy_secs,
                     b.groups[g].gateway_busy_secs)
        << what;
    EXPECT_DOUBLE_EQ(a.groups[g].gateway_wait_secs,
                     b.groups[g].gateway_wait_secs)
        << what;
    EXPECT_DOUBLE_EQ(a.groups[g].cpu_cycles, b.groups[g].cpu_cycles) << what;
  }
  EXPECT_EQ(a.events, b.events) << what;
  EXPECT_EQ(a.spawned_total, b.spawned_total) << what;
  EXPECT_EQ(a.reused_total, b.reused_total) << what;
  EXPECT_DOUBLE_EQ(a.sim_secs, b.sim_secs) << what;
}

// ---------------------------------------------------------------------------
// Passivity: tracing + metrics on vs off, bitwise identical results, for
// every hierarchy mode at 1 shard and at LIFL_TEST_SHARDS shards.

TEST(ObsCampaign, TracingLeavesResultsBitwiseIdentical) {
  for (const HierarchyMode mode :
       {HierarchyMode::kFixed, HierarchyMode::kPlanned,
        HierarchyMode::kAsync}) {
    for (const std::size_t shards : {std::size_t{1}, test_shards()}) {
      auto plain_cfg = small_campaign(mode, shards);
      auto traced_cfg = plain_cfg;
      traced_cfg.obs.trace = true;
      traced_cfg.obs.metrics = true;
      traced_cfg.obs.trace_ring_kb = 512;
      const auto plain = lifl::sys::run_sharded_campaign(plain_cfg);
      const auto traced = lifl::sys::run_sharded_campaign(traced_cfg);
      const std::string what =
          "mode=" + std::to_string(static_cast<int>(mode)) +
          " shards=" + std::to_string(shards);
      expect_identical(plain, traced, what.c_str());
      ASSERT_NE(traced.obs, nullptr) << what;
      EXPECT_GT(traced.obs->trace().recorded_events(), 0u) << what;
      EXPECT_EQ(plain.obs, nullptr) << what;
    }
  }
}

// ---------------------------------------------------------------------------
// Determinism: two identical traced runs produce the identical merged
// event sequence, field for field.

TEST(ObsCampaign, TraceIsDeterministic) {
  auto cfg = small_campaign(HierarchyMode::kPlanned, test_shards());
  cfg.obs.trace = true;
  const auto r1 = lifl::sys::run_sharded_campaign(cfg);
  const auto r2 = lifl::sys::run_sharded_campaign(cfg);
  const auto m1 = r1.obs->trace().merged();
  const auto m2 = r2.obs->trace().merged();
  ASSERT_EQ(m1.size(), m2.size());
  ASSERT_GT(m1.size(), 0u);
  for (std::size_t i = 0; i < m1.size(); ++i) {
    EXPECT_DOUBLE_EQ(m1[i].t, m2[i].t) << "event " << i;
    EXPECT_DOUBLE_EQ(m1[i].dur, m2[i].dur) << "event " << i;
    EXPECT_EQ(m1[i].b, m2[i].b) << "event " << i;
    EXPECT_EQ(m1[i].a, m2[i].a) << "event " << i;
    EXPECT_EQ(m1[i].track, m2[i].track) << "event " << i;
    EXPECT_EQ(static_cast<int>(m1[i].kind), static_cast<int>(m2[i].kind))
        << "event " << i;
  }
  EXPECT_EQ(r1.obs->trace().dropped_events(), r2.obs->trace().dropped_events());
}

// ---------------------------------------------------------------------------
// Reconciliation: the trace's lifecycle events must agree with the
// campaign result's counts, and the registry's histograms must have seen
// what the run did.

TEST(ObsCampaign, TraceReconcilesWithResult) {
  auto cfg = small_campaign(HierarchyMode::kPlanned, 1);
  cfg.obs.trace = true;
  cfg.obs.metrics = true;
  // Lazy leaves defer consumption, so updates buffer in the node pool and
  // the gateway-wait histogram sees real queueing.
  cfg.timing = lifl::fl::AggTiming::kLazy;
  const auto r = lifl::sys::run_sharded_campaign(cfg);
  ASSERT_NE(r.obs, nullptr);
  ASSERT_EQ(r.obs->trace().dropped_events(), 0u);

  std::map<Ev, std::uint64_t> by_kind;
  std::uint64_t round_spans = 0;
  for (const TraceEvent& e : r.obs->trace().merged()) {
    ++by_kind[e.kind];
    if (e.kind == Ev::kRound) {
      EXPECT_GE(e.dur, 0.0);
      ++round_spans;
    }
  }
  // One round span per completed round.
  EXPECT_EQ(round_spans, r.round_completed_at.size());
  // Spawn + re-arm events cover the campaign's churn totals. The top
  // aggregator is driven by the campaign driver (not the per-group
  // hierarchy), so the trace counts the hierarchy side exactly and the
  // driver's top accounts for the remainder.
  const std::uint64_t spawns = by_kind[Ev::kAggSpawn];
  const std::uint64_t rearms = by_kind[Ev::kAggRearm];
  EXPECT_LE(spawns, r.spawned_total);
  EXPECT_LE(rearms, r.reused_total);
  EXPECT_GE(spawns + 2, r.spawned_total);  // top spawn/rearm per run
  EXPECT_GE(rearms + 2, r.reused_total);

  EXPECT_EQ(by_kind[Ev::kReplan], r.replans);

  const auto& reg = r.obs->registry();
  const auto& ids = r.obs->ids();
  EXPECT_EQ(reg.hist_total(ids.fold_secs).count, by_kind[Ev::kAggFold]);
  EXPECT_EQ(reg.hist_total(ids.round_secs).count, r.round_completed_at.size());
  EXPECT_GT(reg.hist_total(ids.gateway_wait_secs).count, 0u);
}

// Crash/recovery events reconcile under fault injection.
TEST(ObsCampaign, FaultEventsReconcile) {
  auto cfg = small_campaign(HierarchyMode::kPlanned, 1);
  cfg.obs.trace = true;
  cfg.obs.metrics = true;
  cfg.fault.seed = 9;
  cfg.fault.leaf_crash_rate = 0.3;
  const auto r = lifl::sys::run_sharded_campaign(cfg);
  ASSERT_GT(r.leaf_crashes, 0u);
  ASSERT_EQ(r.obs->trace().dropped_events(), 0u);
  // Only leaves crash here, so every recovery's `b` (the updates its
  // aborted leases handed back) is a re-folded client update.
  ASSERT_EQ(r.reinjected_partials, 0u);
  std::uint64_t crashes = 0, recoveries = 0, recovered_updates = 0;
  for (const TraceEvent& e : r.obs->trace().merged()) {
    if (e.kind == Ev::kAggCrash) ++crashes;
    if (e.kind == Ev::kAggRecover) {
      ++recoveries;
      recovered_updates += e.b;
    }
  }
  EXPECT_EQ(crashes, r.leaf_crashes + r.middle_crashes);
  EXPECT_EQ(recoveries, crashes);
  EXPECT_EQ(recovered_updates, r.refolded_updates);
}

// ---------------------------------------------------------------------------
// Checkpoint/resume composition: obs is not snapshotted; a traced resumed
// run completes, still matches the uninterrupted results bitwise, and its
// JSONL summary row reports the uninterrupted run's counts — each count
// has one home (the result), and the checkpoint restores it.

/// The summary row's top-level scalar fields (key -> value text), written
/// through `write_campaign_metrics_jsonl`. The nested "hists" object is cut
/// off: it holds only what this process observed.
std::map<std::string, std::string> summary_fields(
    const ShardedCampaignResult& r, const std::string& path) {
  lifl::sys::write_campaign_metrics_jsonl(r, path);
  std::FILE* f = std::fopen(path.c_str(), "r");
  std::string last;
  if (f != nullptr) {
    char buf[65536];
    while (std::fgets(buf, sizeof buf, f) != nullptr) last = buf;
    std::fclose(f);
  }
  std::remove(path.c_str());
  const std::size_t hists = last.find(", \"hists\"");
  if (hists != std::string::npos) last.resize(hists);
  std::map<std::string, std::string> fields;
  const std::regex kv("\"(\\w+)\": ([^,{}\\n]+)");
  for (auto it = std::sregex_iterator(last.begin(), last.end(), kv);
       it != std::sregex_iterator(); ++it) {
    fields[(*it)[1]] = (*it)[2];
  }
  return fields;
}

TEST(ObsCampaign, TracedResumeMatchesUninterrupted) {
  auto cfg = small_campaign(HierarchyMode::kPlanned, test_shards());
  cfg.checkpoint_every_secs = 1.0;
  std::vector<std::uint8_t> blob;
  cfg.on_checkpoint = [&blob](const std::vector<std::uint8_t>& b,
                              std::uint32_t, double) { blob = b; };
  const auto full = lifl::sys::run_sharded_campaign(cfg);
  ASSERT_FALSE(blob.empty());

  auto rcfg = cfg;
  rcfg.on_checkpoint = nullptr;
  rcfg.resume_blob = &blob;
  rcfg.obs.trace = true;
  rcfg.obs.metrics = true;
  const auto resumed = lifl::sys::run_sharded_campaign(rcfg);
  ASSERT_EQ(full.round_completed_at.size(),
            resumed.round_completed_at.size());
  for (std::size_t r = 0; r < full.round_completed_at.size(); ++r) {
    EXPECT_DOUBLE_EQ(full.round_completed_at[r],
                     resumed.round_completed_at[r]);
    EXPECT_EQ(full.round_samples[r], resumed.round_samples[r]);
  }
  EXPECT_GT(resumed.obs->trace().recorded_events(), 0u);

  const std::string dir = testing::TempDir();
  auto want = summary_fields(full, dir + "obs_full.jsonl");
  auto got = summary_fields(resumed, dir + "obs_resumed.jsonl");
  // Wall time and ring accounting are process-local by design.
  for (const char* k : {"wall_secs", "trace_recorded", "trace_dropped"}) {
    want.erase(k);
    got.erase(k);
  }
  for (const char* k :
       {"events", "cross_posts", "windows", "windows_skipped",
        "spawned_total", "reused_total", "replans", "leaf_drains",
        "peak_leaves", "checkpoint_marks", "faults_injected", "leaf_crashes",
        "middle_crashes", "top_crashes", "refolded_updates",
        "reinjected_partials", "upload_retries", "upload_drops",
        "upload_corruptions", "overflow_rejects", "outage_rejects",
        "quorum_seals", "quorum_abandoned", "disconnects", "resumed_uploads",
        "chunks_sent", "chunks_resent", "selection_redraws",
        "offline_queue_peak", "quota_adjustments", "async_quota_final"}) {
    ASSERT_EQ(want.count(k), 1u) << "summary row lacks " << k;
  }
  EXPECT_NE(want["checkpoint_marks"], "0");
  EXPECT_NE(want["windows"], "0");  // test_shards() > 1: horizons refreshed
  // Horizon refreshes depend on thread timing: process-local, like wall.
  for (const char* k : {"windows", "windows_skipped"}) {
    want.erase(k);
    got.erase(k);
  }
  for (const auto& [key, value] : want) {
    const auto it = got.find(key);
    ASSERT_NE(it, got.end()) << "resumed summary lacks " << key;
    EXPECT_EQ(it->second, value) << "summary key " << key;
  }
  EXPECT_EQ(got.size(), want.size());
}

// ---------------------------------------------------------------------------
// Ring cap: a tiny ring drops (oldest-first) but never perturbs results.

TEST(ObsCampaign, TinyRingDropsButStaysPassive) {
  auto plain_cfg = small_campaign(HierarchyMode::kPlanned, 1);
  auto traced_cfg = plain_cfg;
  traced_cfg.obs.trace = true;
  traced_cfg.obs.trace_ring_kb = 1;  // 32 events per ring
  const auto plain = lifl::sys::run_sharded_campaign(plain_cfg);
  const auto traced = lifl::sys::run_sharded_campaign(traced_cfg);
  expect_identical(plain, traced, "tiny-ring");
  EXPECT_GT(traced.obs->trace().dropped_events(), 0u);
  // Ring accounting: recorded size is exactly the cap once overflowing.
  EXPECT_LE(traced.obs->trace().recorded_events(),
            2u * (1024 / sizeof(lifl::obs::TraceEvent)));
}

// ---------------------------------------------------------------------------
// Horizon-wait report: per-shard refresh stats are always filled and sum
// to the run's refresh count.

TEST(ObsCampaign, ShardWindowStatsAlwaysFilled) {
  const std::size_t shards = test_shards();
  const auto r = lifl::sys::run_sharded_campaign(
      small_campaign(HierarchyMode::kPlanned, shards));
  ASSERT_EQ(r.shard_windows.size(), shards);
  ASSERT_EQ(r.shard_empty_windows.size(), shards);
  ASSERT_EQ(r.shard_idle_secs.size(), shards);
  std::uint64_t refreshes = 0;
  for (std::size_t s = 0; s < shards; ++s) {
    EXPECT_GT(r.shard_windows[s], 0u) << "shard " << s;
    EXPECT_LE(r.shard_empty_windows[s], r.shard_windows[s]);
    EXPECT_GE(r.shard_idle_secs[s], 0.0);
    refreshes += r.shard_windows[s];
  }
  EXPECT_EQ(refreshes, r.windows);
  // The 1-shard fast path never refreshes a horizon: all zero.
  const auto mono = lifl::sys::run_sharded_campaign(
      small_campaign(HierarchyMode::kPlanned, 1));
  ASSERT_EQ(mono.shard_windows.size(), 1u);
  EXPECT_EQ(mono.shard_windows[0], 0u);
}

// ---------------------------------------------------------------------------
// The JSONL emitter writes one parseable-looking row per round plus the
// shard and summary rows (full JSON parsing lives in tools/trace_summary.py).

TEST(ObsCampaign, MetricsJsonlWritesRows) {
  auto cfg = small_campaign(HierarchyMode::kPlanned, 1);
  cfg.obs.trace = true;
  cfg.obs.metrics = true;
  const auto r = lifl::sys::run_sharded_campaign(cfg);
  const std::string path = testing::TempDir() + "obs_metrics.jsonl";
  lifl::sys::write_campaign_metrics_jsonl(r, path);
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  std::vector<std::string> lines;
  char buf[65536];
  while (std::fgets(buf, sizeof buf, f) != nullptr) lines.emplace_back(buf);
  std::fclose(f);
  std::remove(path.c_str());
  // rounds + shards + summary.
  ASSERT_EQ(lines.size(), r.round_completed_at.size() + 1 + 1);
  EXPECT_NE(lines.front().find("\"type\": \"round\""), std::string::npos);
  EXPECT_NE(lines.back().find("\"type\": \"summary\""), std::string::npos);
  EXPECT_NE(lines.back().find("\"replans\": "), std::string::npos);
  EXPECT_NE(lines.back().find("\"hists\""), std::string::npos);
  for (const auto& l : lines) {
    EXPECT_EQ(l.front(), '{');
    EXPECT_EQ(l[l.size() - 2], '}');  // trailing newline
  }
  // An untraced result refuses the trace writer.
  const auto plain = lifl::sys::run_sharded_campaign(
      small_campaign(HierarchyMode::kPlanned, 1));
  EXPECT_THROW(lifl::sys::write_campaign_trace(plain, path), std::logic_error);
}

}  // namespace
