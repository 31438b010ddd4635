// Edge-client lifecycle: the firmware-grade state machine, the
// deterministic LifecyclePlan schedule, and chunk-wise resumable uploads.
// The load-bearing claims are lossless resume (every disconnect point
// re-sends its partial chunk and delivers the full update exactly once)
// and FaultPlan-grade determinism (pure functions of seed + identifiers).

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "src/dataplane/dataplane.hpp"
#include "src/dataplane/resumable_upload.hpp"
#include "src/workload/device_tier.hpp"
#include "src/workload/lifecycle.hpp"

namespace lifl {
namespace {

using wl::ClientEvent;
using wl::ClientState;

// ----------------------------------------------------- transition table

TEST(ClientStateMachine, HappyPathWalksIdleToDone) {
  ClientState s = ClientState::kIdle;
  s = wl::client_transition(s, ClientEvent::kSelected);
  EXPECT_EQ(s, ClientState::kTraining);
  s = wl::client_transition(s, ClientEvent::kTrained);
  EXPECT_EQ(s, ClientState::kUploading);
  s = wl::client_transition(s, ClientEvent::kChunkAcked);
  EXPECT_EQ(s, ClientState::kUploading);
  s = wl::client_transition(s, ClientEvent::kComplete);
  EXPECT_EQ(s, ClientState::kDone);
}

TEST(ClientStateMachine, DisconnectResumeCycle) {
  ClientState s = ClientState::kUploading;
  s = wl::client_transition(s, ClientEvent::kDisconnect);
  EXPECT_EQ(s, ClientState::kOffline);
  s = wl::client_transition(s, ClientEvent::kReconnect);
  EXPECT_EQ(s, ClientState::kResuming);
  // The resumed session can ack, die again, or complete.
  EXPECT_EQ(wl::client_transition(s, ClientEvent::kChunkAcked),
            ClientState::kUploading);
  EXPECT_EQ(wl::client_transition(s, ClientEvent::kDisconnect),
            ClientState::kOffline);
  EXPECT_EQ(wl::client_transition(s, ClientEvent::kComplete),
            ClientState::kDone);
}

TEST(ClientStateMachine, ForbiddenPairsAreInvalid) {
  // kDone is terminal; no event leaves it.
  for (int e = 0; e < static_cast<int>(ClientEvent::kCount); ++e) {
    EXPECT_EQ(wl::client_transition(ClientState::kDone,
                                    static_cast<ClientEvent>(e)),
              ClientState::kCount);
  }
  // An offline client cannot ack, train, or complete — only reconnect.
  EXPECT_EQ(wl::client_transition(ClientState::kOffline,
                                  ClientEvent::kChunkAcked),
            ClientState::kCount);
  EXPECT_EQ(wl::client_transition(ClientState::kOffline,
                                  ClientEvent::kComplete),
            ClientState::kCount);
  // Selection is only valid from idle.
  EXPECT_EQ(wl::client_transition(ClientState::kUploading,
                                  ClientEvent::kSelected),
            ClientState::kCount);
  // Out-of-range inputs degrade to invalid, never UB.
  EXPECT_EQ(wl::client_transition(ClientState::kCount, ClientEvent::kTrained),
            ClientState::kCount);
  EXPECT_EQ(wl::client_transition(ClientState::kIdle, ClientEvent::kCount),
            ClientState::kCount);
}

TEST(ClientStateMachine, EveryValidTransitionTargetsARealState) {
  for (int s = 0; s < static_cast<int>(ClientState::kCount); ++s) {
    for (int e = 0; e < static_cast<int>(ClientEvent::kCount); ++e) {
      const ClientState next = wl::client_transition(
          static_cast<ClientState>(s), static_cast<ClientEvent>(e));
      EXPECT_LE(static_cast<int>(next), static_cast<int>(ClientState::kCount));
    }
  }
}

// -------------------------------------------------------- LifecyclePlan

wl::LifecyclePlan flaky_plan(double rate, std::uint64_t seed = 99) {
  wl::LifecyclePlan::Config cfg;
  cfg.seed = seed;
  cfg.disconnect_rate = rate;
  return wl::LifecyclePlan(cfg);
}

TEST(LifecyclePlan, DrawsAreDeterministic) {
  const auto plan = flaky_plan(0.5);
  const auto same = flaky_plan(0.5);
  for (std::uint64_t seq = 0; seq < 200; ++seq) {
    EXPECT_EQ(plan.disconnect_chunk(3, seq, 0, 8, 1.0),
              same.disconnect_chunk(3, seq, 0, 8, 1.0));
    EXPECT_EQ(plan.offline_secs(3, seq, 1), same.offline_secs(3, seq, 1));
    EXPECT_EQ(plan.partial_fraction(3, seq, 0),
              same.partial_fraction(3, seq, 0));
  }
  // A different seed reshuffles the schedule.
  const auto other = flaky_plan(0.5, /*seed=*/100);
  int diffs = 0;
  for (std::uint64_t seq = 0; seq < 200; ++seq) {
    diffs += plan.disconnect_chunk(1, seq, 0, 8, 1.0) !=
             other.disconnect_chunk(1, seq, 0, 8, 1.0);
  }
  EXPECT_GT(diffs, 0);
}

TEST(LifecyclePlan, ZeroRateNeverDisconnects) {
  const auto plan = flaky_plan(0.0);
  for (std::uint64_t seq = 0; seq < 100; ++seq) {
    EXPECT_EQ(plan.disconnect_chunk(0, seq, 0, 16, 2.5), 0u);
  }
}

TEST(LifecyclePlan, DisconnectChunkStaysInRange) {
  const auto plan = flaky_plan(0.9);
  for (std::uint64_t seq = 0; seq < 500; ++seq) {
    for (std::uint64_t left : {1ull, 4ull, 16ull}) {
      const std::uint32_t k = plan.disconnect_chunk(2, seq, 0, left, 1.0);
      EXPECT_LE(k, left) << "seq " << seq;
    }
  }
}

TEST(LifecyclePlan, TierScaleRaisesDisconnectOdds) {
  const auto plan = flaky_plan(0.2);
  int iot = 0, flagship = 0;
  const double iot_scale =
      wl::tier_traits(wl::DeviceTier::kIoT).disconnect_scale;
  const double fl_scale =
      wl::tier_traits(wl::DeviceTier::kFlagship).disconnect_scale;
  for (std::uint64_t seq = 0; seq < 2000; ++seq) {
    iot += plan.disconnect_chunk(0, seq, 0, 8, iot_scale) != 0;
    flagship += plan.disconnect_chunk(0, seq, 0, 8, fl_scale) != 0;
  }
  EXPECT_GT(iot, flagship * 2);  // 2.5x vs 0.25x nominal rate
}

TEST(LifecyclePlan, OfflineBackoffIsCappedAndGrows) {
  const auto plan = flaky_plan(0.5);
  const auto& cfg = plan.config();
  double prev = 0.0;
  for (std::uint64_t attempt = 0; attempt < 12; ++attempt) {
    const double d = plan.offline_secs(1, 7, attempt);
    EXPECT_GE(d, cfg.offline_base_secs);
    EXPECT_LE(d, cfg.offline_cap_secs * (1.0 + cfg.offline_jitter));
    if (attempt >= 1 && attempt <= 5) {
      EXPECT_GT(d, prev * 1.2);  // doubling
    }
    prev = d;
  }
}

TEST(LifecyclePlan, GateDelayIsIdempotentAtItsOwnTarget) {
  wl::LifecyclePlan::Config cfg;
  cfg.seed = 5;
  cfg.session_gates = true;
  cfg.connect_period_secs = 60.0;
  cfg.charge_period_secs = 240.0;
  const wl::LifecyclePlan plan(cfg);
  for (std::uint64_t client = 0; client < 64; ++client) {
    const double now = 13.0 * static_cast<double>(client);
    const double d =
        plan.gate_delay(0, client, wl::DeviceTier::kIoT, now);
    EXPECT_GE(d, 0.0);
    // Once the gate opens it is open: re-asking at the target waits 0.
    EXPECT_NEAR(plan.gate_delay(0, client, wl::DeviceTier::kIoT, now + d),
                0.0, 1e-9)
        << "client " << client;
  }
}

TEST(LifecyclePlan, AlwaysOnTiersNeverWait) {
  wl::LifecyclePlan::Config cfg;
  cfg.session_gates = true;
  const wl::LifecyclePlan plan(cfg);
  // Flagship charge_frac is 1.0 and online_frac 0.98: waits are rare and
  // bounded by one connect period.
  for (std::uint64_t client = 0; client < 32; ++client) {
    EXPECT_LE(plan.gate_delay(0, client, wl::DeviceTier::kFlagship, 100.0),
              cfg.connect_period_secs);
  }
}

// ---------------------------------------------------- resumable uploads

struct UploadWorld {
  sim::Simulator sim;
  sim::Cluster cluster;
  dp::DataPlane plane;

  UploadWorld()
      : cluster(sim, 1), plane(cluster, dp::lifl_plane(), sim::Rng(7)) {}
};

fl::ModelUpdate client_update(std::uint64_t producer, std::size_t bytes,
                              std::uint64_t samples) {
  fl::ModelUpdate u;
  u.producer = producer;
  u.sample_count = samples;
  u.logical_bytes = bytes;
  u.from_client = true;
  return u;
}

/// Drive `n` sessions through one plan and return the counters; every
/// session must deposit its full update exactly once no matter where the
/// plan cuts it.
dp::ResumableUpload::Counters drive_sessions(double rate, std::size_t n,
                                             std::size_t bytes,
                                             std::uint64_t* pool_samples,
                                             std::uint64_t* pool_depth) {
  UploadWorld w;
  wl::LifecyclePlan::Config pcfg;
  pcfg.seed = 1234;
  pcfg.disconnect_rate = rate;
  pcfg.chunk_bytes = 10'000;
  pcfg.offline_base_secs = 0.01;
  pcfg.offline_cap_secs = 0.2;
  const wl::LifecyclePlan plan(pcfg);

  dp::ResumableUpload::Counters counters;
  for (std::size_t i = 0; i < n; ++i) {
    dp::ResumableUpload::Config rc;
    rc.node = 0;
    rc.uplink_bytes_per_sec = 1e6;
    rc.plan = &plan;
    rc.group = 0;
    rc.seq = i;
    rc.rate_scale = 1.0;
    rc.counters = &counters;
    dp::ResumableUpload::launch(w.plane, client_update(100 + i, bytes, 50),
                                std::move(rc));
  }
  w.sim.run();
  // No consumer was attached: every deposited update is still buffered, so
  // the pool depth counts deliveries and draining it sums the samples.
  auto& env = w.plane.env(0);
  if (pool_depth != nullptr) *pool_depth = env.pool.depth();
  if (pool_samples != nullptr) {
    std::uint64_t samples = 0;
    fl::UpdateDesc u;
    while (env.pool.try_pop(u)) samples += u.sample_count;
    *pool_samples = samples;
  }
  return counters;
}

TEST(ResumableUpload, CleanSessionDeliversEveryChunkOnce) {
  std::uint64_t samples = 0, depth = 0;
  const auto c = drive_sessions(0.0, 8, 95'000, &samples, &depth);
  EXPECT_EQ(c.sessions, 8u);
  EXPECT_EQ(c.completed, 8u);
  EXPECT_EQ(c.disconnects, 0u);
  EXPECT_EQ(c.resumes, 0u);
  EXPECT_EQ(c.chunks_sent, 8u * 10u);  // ceil(95k / 10k) = 10 chunks each
  EXPECT_EQ(c.chunks_resent, 0u);
  EXPECT_EQ(depth, 8u);
  EXPECT_EQ(samples, 8u * 50u);
}

TEST(ResumableUpload, EveryDisconnectPointResumesLosslessly) {
  // A 90% per-attempt disconnect rate over 200 sessions cuts sessions at
  // essentially every chunk position, repeatedly. Lossless resume means:
  // each session still completes, the unique-chunk count is exact, and
  // each update's samples land in the pool exactly once.
  std::uint64_t samples = 0, depth = 0;
  const auto c = drive_sessions(0.9, 200, 95'000, &samples, &depth);
  EXPECT_EQ(c.completed, 200u);
  EXPECT_GT(c.disconnects, 100u);              // the schedule really fired
  EXPECT_EQ(c.resumes, c.disconnects);         // every drop reconnected
  EXPECT_GT(c.chunks_resent, 0u);              // partial chunks re-sent
  // Every chunk is acked exactly once — a dying transmission never acks,
  // and its re-send (counted in chunks_resent) delivers it once. The
  // partial transmission is billed as wire time, never as a second ack.
  EXPECT_EQ(c.chunks_sent, 200u * 10u);
  EXPECT_LE(c.chunks_resent, c.disconnects);
  EXPECT_EQ(depth, 200u);
  EXPECT_EQ(samples, 200u * 50u);
}

TEST(ResumableUpload, DisconnectsAreBitwiseRepeatable) {
  std::uint64_t s1 = 0, s2 = 0, d1 = 0, d2 = 0;
  const auto a = drive_sessions(0.5, 64, 45'000, &s1, &d1);
  const auto b = drive_sessions(0.5, 64, 45'000, &s2, &d2);
  EXPECT_EQ(a.disconnects, b.disconnects);
  EXPECT_EQ(a.chunks_sent, b.chunks_sent);
  EXPECT_EQ(a.chunks_resent, b.chunks_resent);
  EXPECT_EQ(s1, s2);
}

TEST(ResumableUpload, TinyUpdateIsASingleChunk) {
  std::uint64_t samples = 0, depth = 0;
  const auto c = drive_sessions(0.0, 1, 500, &samples, &depth);
  EXPECT_EQ(c.chunks_sent, 1u);
  EXPECT_EQ(samples, 50u);
}

TEST(ResumableUpload, RequiresAPlan) {
  UploadWorld w;
  dp::ResumableUpload::Config rc;
  rc.plan = nullptr;
  EXPECT_THROW(dp::ResumableUpload::launch(
                   w.plane, client_update(1, 1000, 1), std::move(rc)),
               std::invalid_argument);
}

}  // namespace
}  // namespace lifl
