#include "src/systems/sharded_campaign.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/control/campaign_planner.hpp"
#include "src/dataplane/config.hpp"
#include "src/dataplane/dataplane.hpp"
#include "src/dataplane/resumable_upload.hpp"
#include "src/sim/node.hpp"
#include "src/sim/random.hpp"
#include "src/sim/sharded_simulator.hpp"
#include "src/systems/campaign_checkpoint.hpp"
#include "src/systems/campaign_state.hpp"
#include "src/systems/streaming_hierarchy.hpp"
#include "src/workload/population.hpp"

namespace lifl::sys {

namespace calib = sim::calib;

using detail::CampaignState;
using detail::Group;

namespace {

/// Latency of a relay/leaf-aggregate transfer between node groups: minimum
/// cross-group latency (propagation + switch + kernel wake-up) plus wire
/// time plus the fixed kernel receive cost. Always >= the sharded
/// simulator's lookahead, which is what makes the conservative windows
/// sound for this workload.
double cross_latency_secs(std::size_t bytes) {
  return calib::kCrossShardLatencySecs +
         static_cast<double>(bytes) / calib::kNicBytesPerSec +
         calib::kKernelFixedCycles / calib::kCpuHz;
}

/// Injects one relayed group aggregate into the top aggregator. Runs on the
/// top's shard; the update was detached from its source group (no lease, no
/// tensor) before crossing.
struct TopInject {
  CampaignState* st;
  fl::ModelUpdate u;
  void operator()() { st->top->inject(std::move(u)); }
};

/// Group-output hook (a leaf in fixed mode, the group relay in planned
/// mode): detach the aggregate from its group and post it to the top's
/// shard with the cross-group latency. Identical for every group (including
/// group 0, whose post degenerates to a local schedule), so the wiring does
/// not depend on the group->shard mapping.
struct GroupRelay {
  CampaignState* st;
  std::size_t group;
  void operator()(fl::ModelUpdate u) const {
    u.lease.reset();
    u.tensor.reset();
    Group& g = st->groups[group];
    ++g.relays_done;  // feeds the shard's outbound promise (sync modes)
    const double t = g.sim->now() + cross_latency_secs(u.logical_bytes);
    st->sharded->post(g.shard, st->groups[0].shard, t,
                      TopInject{st, std::move(u)});
  }
};

/// Applies a quorum shortfall to the top's folded-count goal. Posted from
/// the sealing group's shard to the top's shard, so the shrink lands in the
/// top's own event order (shard-count invariant). The top goal may shrink
/// to the point the already-folded count satisfies it, completing the
/// round immediately.
struct TopShrink {
  CampaignState* st;
  std::uint64_t abandoned;
  void operator()() const {
    st->top_goal -= std::min(abandoned, st->top_goal);
    st->top->set_goal(static_cast<std::uint32_t>(st->top_goal));
  }
};

/// One upload attempt under the fault plan: outage window → gateway
/// admission → wire drop → corruption, in that order; any fault schedules
/// a retransmission with capped exponential backoff + deterministic
/// per-client jitter (the client-side retry machinery). A corrupted
/// attempt is *delivered* — the consumer's integrity check discards it —
/// and retried. `seq` is the group-local arrival sequence; all draws hash
/// (group, seq, attempt), so the schedule is shard-invariant and replays
/// bitwise from a checkpoint.
void attempt_upload(CampaignState* st, Group* g, fl::ModelUpdate u,
                    double uplink, std::uint64_t seq, std::uint32_t attempt,
                    sim::Task done = {}) {
  const sim::FaultPlan& fp = st->faults;
  const auto retry = [&](fl::ModelUpdate again) {
    ++g->upload_retries;
    g->obs.instant(g->sim->now(), obs::Ev::kUploadRetry,
                   static_cast<std::uint32_t>(again.producer), attempt + 1);
    g->obs.observe_id(&obs::Ids::retry_depth,
                      static_cast<double>(attempt + 1));
    const double d = fp.backoff_secs(g->id, seq, attempt);
    g->sim->schedule_after(
        d, [st, g, again = std::move(again), uplink, seq, attempt,
            done = std::move(done)]() mutable {
          attempt_upload(st, g, std::move(again), uplink, seq, attempt + 1,
                         std::move(done));
        });
  };
  double ob = 0.0, oe = 0.0;
  if (fp.outage_window(g->id, g->round, &ob, &oe)) {
    const double now = g->sim->now();
    if (now >= g->epoch + ob && now < g->epoch + oe) {
      ++g->outage_rejects;
      retry(std::move(u));
      return;
    }
  }
  const std::size_t limit = fp.config().gateway_overflow_depth;
  if (limit > 0 && g->plane->env(0).gateway.queue_length() >= limit) {
    ++g->overflow_rejects;
    retry(std::move(u));
    return;
  }
  if (fp.upload_dropped(g->id, seq, attempt)) {
    ++g->upload_drops;
    retry(std::move(u));
    return;
  }
  if (fp.upload_corrupted(g->id, seq, attempt)) {
    ++g->upload_corruptions;
    fl::ModelUpdate bad = u;
    bad.corrupted = true;
    retry(std::move(u));
    g->plane->client_upload(0, std::move(bad), uplink);
    return;
  }
  g->plane->client_upload(0, std::move(u), uplink, std::move(done));
}

/// Pick the arrival's client through the group's selection strategy,
/// refusing clients whose offline queue (live upload sessions) is at the
/// lifecycle cap: refused picks re-draw deterministically (hashed probes,
/// then a linear scan), so the choice is a pure function of group-local
/// state and stays shard-invariant.
std::size_t pick_client(CampaignState* st, Group* g, std::uint64_t seq) {
  const bool lc = st->lifecycle.enabled();
  const std::uint32_t cap =
      static_cast<std::uint32_t>(st->cfg->lifecycle.offline_queue_cap);
  const auto has_room = [&](std::size_t i) {
    auto it = g->live_sessions.find(i);
    return it == g->live_sessions.end() || it->second < cap;
  };
  std::size_t idx = 0;
  for (std::uint64_t probe = 0; probe < 64; ++probe) {
    idx = g->strategy->pick(g->population, g->round, seq, probe);
    if (!lc || has_room(idx)) return idx;
    ++g->selection_redraws;
  }
  for (std::size_t off = 1; off <= g->population.size(); ++off) {
    const std::size_t j = (idx + off) % g->population.size();
    if (has_room(j)) {
      ++g->selection_redraws;
      return j;
    }
  }
  throw std::runtime_error(
      "sharded campaign: every client's offline queue is at capacity");
}

/// Launch one lifecycle-governed upload: optional duty-cycle gate wait and
/// straggler delay, then a chunk-wise `dp::ResumableUpload` session whose
/// completion feeds the per-tier telemetry (and the selection strategy)
/// and releases the client's offline-queue slot.
void launch_session(CampaignState* st, Group* g, fl::ModelUpdate u,
                    const wl::ClientProfile& profile, std::size_t idx,
                    std::uint64_t seq, bool straggler) {
  const ShardedCampaignConfig& cfg = *st->cfg;
  const auto ti = static_cast<std::size_t>(profile.tier);
  const double selected_at = g->sim->now();
  ++g->live_sessions[idx];

  dp::ResumableUpload::Config rc;
  rc.node = 0;
  rc.uplink_bytes_per_sec = profile.uplink_bytes_per_sec;
  rc.plan = &st->lifecycle;
  rc.group = g->id;
  rc.seq = seq;
  rc.rate_scale = wl::tier_traits(profile.tier).disconnect_scale;
  rc.counters = &g->lifecycle;
  rc.obs = g->obs;
  rc.on_complete = [g, idx, ti, selected_at](double, std::uint32_t) {
    ++g->tier_completed[ti];
    if (g->strategy) {
      g->strategy->report(static_cast<wl::DeviceTier>(ti),
                          g->sim->now() - selected_at, /*success=*/true);
    }
    auto it = g->live_sessions.find(idx);
    if (it != g->live_sessions.end() && --it->second == 0) {
      g->live_sessions.erase(it);
    }
  };
  rc.on_disconnect = [g, idx, ti]() {
    ++g->tier_disconnects[ti];
    const std::uint32_t parked = ++g->parked[idx];
    g->offline_peak = std::max(g->offline_peak, parked);
  };
  rc.on_resume = [g, idx]() {
    auto it = g->parked.find(idx);
    if (it != g->parked.end() && --it->second == 0) g->parked.erase(it);
  };

  double delay = 0.0;
  if (cfg.lifecycle.session_gates) {
    delay = st->lifecycle.gate_delay(g->id, idx, profile.tier, selected_at);
    g->gate_wait_secs += delay;
  }
  if (straggler) delay += cfg.straggler_delay_secs;
  if (delay > 0.0) {
    dp::DataPlane* plane = g->plane.get();
    g->sim->schedule_after(
        delay, [plane, u = std::move(u), rc = std::move(rc)]() mutable {
          dp::ResumableUpload::launch(*plane, std::move(u), std::move(rc));
        });
  } else {
    dp::ResumableUpload::launch(*g->plane, std::move(u), std::move(rc));
  }
}

/// One open-loop arrival: upload a lazily derived client's update into the
/// group's node, then chain the next arrival. 16 bytes — Task-inline.
///
/// The version stamp is the version the client trained from: the group's
/// round in synchronous modes, the group's server-version slot in async
/// mode. Stragglers — a deterministic hash of the group-local arrival
/// sequence, so the choice is identical for every shard count — keep that
/// stamp but deliver `straggler_delay_secs` late: a synchronous round
/// stalls on them, an async version keeps bumping on count and folds them
/// later at the staleness discount.
struct ArrivalFn {
  CampaignState* st;
  Group* g;
  void operator()() const {
    const ShardedCampaignConfig& cfg = *st->cfg;
    const std::uint64_t seq = g->participant_counter++;
    const std::size_t idx =
        g->strategy ? pick_client(st, g, seq)
                    : static_cast<std::size_t>((seq * 2654435761ull) %
                                               g->population.size());
    const wl::ClientProfile profile = g->population[idx];
    fl::ModelUpdate u;
    u.model_version = cfg.hierarchy == HierarchyMode::kAsync
                          ? st->planner->version(g->id)
                          : g->round;
    u.producer = profile.id;
    u.sample_count = profile.samples;
    u.logical_bytes = cfg.model_bytes;
    // Straggler draw: the legacy hash, with the fraction swapped for the
    // tier's precomputed probability in tiered mode (IoT absorbs the
    // straggler mass first, spilling upward — the expected fraction under
    // random selection stays exactly `straggler_fraction`).
    double sfrac = cfg.straggler_fraction;
    const auto ti = static_cast<std::size_t>(profile.tier);
    if (g->population.tiered()) {
      if (sfrac > 0.0) sfrac = g->straggler_p[ti];
      ++g->tier_selected[ti];
    }
    const bool straggler =
        sfrac > 0.0 &&
        static_cast<double>((seq * 0x9e3779b97f4a7c15ull) >> 40) <
            sfrac * 16777216.0;
    if (straggler && g->population.tiered()) ++g->tier_stragglers[ti];
    const bool faulty = st->faults.enabled();
    if (st->lifecycle.enabled()) {
      // Flaky-client path: chunked resumable session (wire-level upload
      // faults are excluded by validation; crash faults compose).
      launch_session(st, g, std::move(u), profile, idx, seq, straggler);
    } else if (g->strategy) {
      // Strategy feedback probe, armed at arrival time so the observed
      // duration includes straggler delay — that is exactly the signal
      // scored selection learns the slow tiers from.
      Group* gp = g;
      const double t0 = g->sim->now();
      sim::Task done = [gp, ti, t0]() {
        ++gp->tier_completed[ti];
        gp->strategy->report(static_cast<wl::DeviceTier>(ti),
                             gp->sim->now() - t0, /*success=*/true);
      };
      const double uplink = profile.uplink_bytes_per_sec;
      if (straggler) {
        CampaignState* stp = st;
        g->sim->schedule_after(
            cfg.straggler_delay_secs,
            [stp, gp, u = std::move(u), uplink, seq, faulty,
             done = std::move(done)]() mutable {
              if (faulty) {
                attempt_upload(stp, gp, std::move(u), uplink, seq, 0,
                               std::move(done));
              } else {
                gp->plane->client_upload(0, std::move(u), uplink,
                                         std::move(done));
              }
            });
      } else if (faulty) {
        attempt_upload(st, g, std::move(u), uplink, seq, 0, std::move(done));
      } else {
        g->plane->client_upload(0, std::move(u), uplink, std::move(done));
      }
    } else if (straggler) {
      dp::DataPlane* plane = g->plane.get();
      const double uplink = profile.uplink_bytes_per_sec;
      if (faulty) {
        CampaignState* stp = st;
        Group* gp = g;
        g->sim->schedule_after(
            cfg.straggler_delay_secs,
            [stp, gp, u = std::move(u), uplink, seq]() mutable {
              attempt_upload(stp, gp, std::move(u), uplink, seq, 0);
            });
      } else {
        g->sim->schedule_after(cfg.straggler_delay_secs,
                               [plane, u = std::move(u), uplink]() mutable {
                                 plane->client_upload(0, std::move(u), uplink);
                               });
      }
    } else if (faulty) {
      attempt_upload(st, g, std::move(u), profile.uplink_bytes_per_sec, seq,
                     0);
    } else {
      // Fault-free fast path: preserved verbatim (zero allocations).
      g->plane->client_upload(0, std::move(u), profile.uplink_bytes_per_sec);
    }
    ++g->launched;
    ++g->total_uploads;
    if (g->launched >= g->target) return;
    g->next_rel = g->arrivals->next_after(g->next_rel, g->rng);
    g->sim->schedule_at(g->epoch + g->next_rel, ArrivalFn{st, g});
  }
};

/// Applies a model-version bump to one group's server-version slot. Posted
/// from the top's shard to the group's shard with the cross-group model
/// distribution latency, so the write lands in the group's own event order
/// — which is what keeps async runs bitwise identical across shard counts.
struct VersionApply {
  CampaignState* st;
  std::size_t group;
  std::uint32_t version;
  void operator()() const { st->planner->set_version(group, version); }
};

/// The recurring top's sink in async mode: every emission is one new
/// global model version (FedBuff — the buffer filled on count). Runs on
/// group 0's shard; appends per-version telemetry directly, re-targets the
/// top's next buffer, and broadcasts the bump to every group.
void on_version(CampaignState& st, fl::ModelUpdate u) {
  st.async_folded += u.updates_folded;
  const double now = st.groups[0].sim->now();
  st.out->round_started_at.push_back(st.version_started_at);
  st.out->round_completed_at.push_back(now);
  st.out->round_samples.push_back(u.sample_count);
  st.out->round_weight.push_back(u.weight);
  st.camp_obs.span(st.version_started_at, now, obs::Ev::kRound,
                   st.async_version, u.sample_count);
  st.camp_obs.instant(now, obs::Ev::kVersion, st.async_version,
                      u.updates_folded);
  st.camp_obs.observe_id(&obs::Ids::round_secs, now - st.version_started_at);
  st.version_started_at = now;
  if (st.cfg->async_auto_quota) {
    // FedBuff quota auto-tuning: EWMA of each version's effective/raw
    // weight ratio (1 = every fold was fresh). A staleness-discounted
    // stream shrinks the buffer so versions turn over faster (less
    // staleness next version); a clean stream keeps the full quota.
    const double raw = static_cast<double>(u.sample_count);
    const double ratio = raw > 0.0 ? u.weight / raw : 1.0;
    const double a = st.cfg->ewma_alpha;
    if (!st.quota_ratio_init) {
      st.quota_ratio = ratio;
      st.quota_ratio_init = true;
    } else {
      st.quota_ratio = a * st.quota_ratio + (1.0 - a) * ratio;
    }
    const auto base =
        static_cast<std::uint64_t>(st.cfg->uploads_per_round());
    const std::uint64_t lo = st.cfg->async_min_quota > 0
                                 ? st.cfg->async_min_quota
                                 : std::max<std::uint64_t>(1, base / 4);
    const auto tuned = static_cast<std::uint64_t>(
        std::llround(static_cast<double>(base) * st.quota_ratio));
    const std::uint64_t next = std::clamp(tuned, lo, base);
    if (next != st.async_quota) {
      st.async_quota = next;
      ++st.quota_adjustments;
    }
  }
  if (st.async_folded >= st.async_total) {
    st.round_done = true;  // every update of the stream has been folded
    st.completed_at = now;
    return;
  }
  ++st.async_version;
  // The final buffer is the remainder: quotas never overhang the stream,
  // so the last version lands exactly when the last update folds.
  st.top->set_goal(static_cast<std::uint32_t>(std::min<std::uint64_t>(
      st.async_quota, st.async_total - st.async_folded)));
  for (std::size_t gi = 0; gi < st.groups.size(); ++gi) {
    const double t =
        now + cross_latency_secs(st.cfg->model_bytes);
    st.sharded->post(st.groups[0].shard, st.groups[gi].shard, t,
                     VersionApply{&st, gi, st.async_version});
  }
}

/// In-sim snapshot cost pulse: fires at every mark of the global
/// k·checkpoint_every_secs grid while the round is active, billing the
/// CheckpointManager cost model (marshal CPU on group 0's node, storage
/// latency off it) with the size the blob for this round will have. Riding
/// the event queue — not the coordinator's pause barriers — makes the
/// billing times exact grid points, identical for every shard count and
/// identical under resume-replay. The chain ends itself once the round
/// completed (one trailing no-op fire at the next mark).
struct CkptPulse {
  CampaignState* st;
  double at;
  void operator()() const {
    if (st->round_done) return;
    st->ckpt->begin_write(st->groups[0].round, st->ckpt_blob_bytes);
    ++st->ckpt_marks;
    st->camp_obs.instant(at, obs::Ev::kCkptMark,
                         static_cast<std::uint32_t>(st->ckpt_marks),
                         st->ckpt_blob_bytes);
    const double next = at + st->cfg->checkpoint_every_secs;
    st->groups[0].sim->schedule_at(next, CkptPulse{st, next});
  }
};

/// First point of the global mark grid strictly after `t`.
double first_mark_after(double t, double every) {
  return every * (std::floor(t / every) + 1.0);
}

/// Apply the configured cold-start model to a to-be-spawned runtime.
void spawn_cold(fl::AggregatorRuntime::Config& c,
                const ShardedCampaignConfig& cfg) {
  if (cfg.cold_start_spawns) apply_lifl_cold_start(c);
}

/// The planned-mode top aggregator's config at a given folded-count goal —
/// shared by the round arming and by crashed-top recovery, so a
/// replacement is indistinguishable from the original.
fl::AggregatorRuntime::Config planned_top_config(CampaignState& st,
                                                 std::uint32_t round,
                                                 std::uint64_t goal) {
  fl::AggregatorRuntime::Config tc;
  tc.id = 1;
  tc.node = 0;
  tc.role = fl::AggRole::kTop;
  tc.timing = fl::AggTiming::kEager;
  tc.goal = static_cast<std::uint32_t>(goal);
  tc.goal_kind = fl::GoalKind::kFoldedUpdates;
  tc.result_bytes = st.cfg->model_bytes;
  tc.expected_version = round;
  tc.leased = st.faults.enabled();
  tc.on_result = [&st](fl::ModelUpdate u) {
    st.round_done = true;
    st.completed_at = st.groups[0].sim->now();
    st.round_samples = u.sample_count;
    st.round_weight = u.weight;
  };
  return tc;
}

/// Crashed-top recovery (planned mode, runs on group 0's shard inside the
/// crash callback): abort the top's leases — the group relays it had
/// folded but not emitted — spawn a cold replacement at the current
/// (possibly quorum-shrunk) goal, and re-inject the retained relays.
/// In-flight TopInject posts resolve `st->top` at fire time, so relays
/// crossing shards during the crash instant land in the replacement. The
/// replacement gets no fresh crash draw (at most one top crash per round),
/// so recovery terminates.
void recover_top(CampaignState& st, std::uint32_t round) {
  ++st.top_crashes;
  auto& pool = st.groups[0].plane->env(0).pool;
  std::vector<fl::ModelUpdate> lost = pool.lease_abort(1);
  st.graveyard.push_back(std::move(st.top_rt));
  fl::AggregatorRuntime::Config tc =
      planned_top_config(st, round, st.top_goal);
  spawn_cold(tc, *st.cfg);
  if (st.cfg->cold_start_spawns) {
    st.top_recovery_secs += calib::kLiflColdStartSecs;
  }
  st.top_rt = std::make_unique<fl::AggregatorRuntime>(*st.groups[0].plane,
                                                      std::move(tc));
  st.top_rt->start();
  st.top = st.top_rt.get();
  for (auto& u : lost) st.top->inject(std::move(u));
}

/// Arm an open-loop arrival chain for one group: `target` uploads starting
/// at `epoch` (one round in synchronous modes, the whole stream in async).
void arm_arrivals(CampaignState& st, Group& g, std::uint32_t round,
                  double epoch, std::uint64_t target) {
  g.round = round;
  g.epoch = epoch;
  g.launched = 0;
  g.target = target;
  g.relays_done = 0;
  g.next_rel = g.arrivals->next_after(0.0, g.rng);
  g.sim->schedule_at(g.epoch + g.next_rel, ArrivalFn{&st, &g});
}

/// Build the fixed two-level tree of one round (the pre-orchestrator
/// baseline, preserved for A/B): fresh runtimes everywhere, torn down at
/// the end of the round. Returns the number spawned.
std::uint64_t arm_fixed_round(CampaignState& st, std::uint32_t round) {
  const ShardedCampaignConfig& cfg = *st.cfg;
  std::uint64_t spawned = 0;
  fl::AggregatorRuntime::Config tc;
  tc.id = 1;
  tc.node = 0;
  tc.role = fl::AggRole::kTop;
  tc.timing = cfg.timing;
  tc.goal = static_cast<std::uint32_t>(cfg.groups * cfg.leaves_per_group);
  tc.result_bytes = cfg.model_bytes;
  tc.expected_version = round;
  tc.on_result = [&st](fl::ModelUpdate u) {
    st.round_done = true;
    st.completed_at = st.groups[0].sim->now();
    st.round_samples = u.sample_count;
    st.round_weight = u.weight;
  };
  spawn_cold(tc, cfg);
  Group& g0 = st.groups[0];
  g0.aggs.push_back(std::make_unique<fl::AggregatorRuntime>(*g0.plane, tc));
  g0.aggs.back()->start();
  st.top = g0.aggs.back().get();
  ++spawned;

  for (std::size_t gi = 0; gi < cfg.groups; ++gi) {
    Group& g = st.groups[gi];
    fl::ParticipantId next_id = 10;
    for (std::size_t l = 0; l < cfg.leaves_per_group; ++l) {
      fl::AggregatorRuntime::Config lc;
      lc.id = next_id++;
      lc.node = 0;
      lc.role = fl::AggRole::kLeaf;
      lc.timing = cfg.timing;
      lc.goal = cfg.updates_per_leaf;
      lc.consumer = 0;  // results leave the group through the relay hook
      lc.result_bytes = cfg.model_bytes;
      lc.pull_from_pool = true;
      lc.expected_version = round;
      lc.on_result = GroupRelay{&st, gi};
      spawn_cold(lc, cfg);
      g.aggs.push_back(std::make_unique<fl::AggregatorRuntime>(*g.plane, lc));
      g.aggs.back()->start();
      ++spawned;
    }
  }
  return spawned;
}

double wall_since(const std::chrono::steady_clock::time_point& t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Config validation (bad configs must throw before the observability
/// bundle or any side effects exist).
void validate_config(const ShardedCampaignConfig& cfg) {
  if (cfg.groups == 0) {
    throw std::invalid_argument("sharded campaign: groups must be >= 1");
  }
  if (cfg.shards == 0) {
    throw std::invalid_argument("sharded campaign: shards must be >= 1");
  }
  const bool planned = cfg.hierarchy == HierarchyMode::kPlanned;
  const bool async = cfg.hierarchy == HierarchyMode::kAsync;
  const bool orchestrated = planned || async;  // has planner + hierarchies
  if (cfg.straggler_fraction < 0.0 || cfg.straggler_fraction > 1.0 ||
      !std::isfinite(cfg.straggler_fraction)) {
    throw std::invalid_argument(
        "sharded campaign: straggler_fraction must be in [0, 1]");
  }
  const bool ck = cfg.checkpoint_every_secs > 0.0;
  const bool resume = cfg.resume_blob != nullptr || !cfg.resume_path.empty();
  if (resume && !ck) {
    throw std::invalid_argument(
        "sharded campaign: resume requires the checkpoint_every_secs the "
        "blob was cut under (the config digest enforces equality)");
  }
  if (!ck && (!cfg.checkpoint_path.empty() || cfg.on_checkpoint)) {
    throw std::invalid_argument(
        "sharded campaign: checkpoint_path/on_checkpoint need "
        "checkpoint_every_secs > 0 — no blobs would ever be emitted");
  }
  if (ck && !std::isfinite(cfg.checkpoint_every_secs)) {
    throw std::invalid_argument(
        "sharded campaign: checkpoint_every_secs must be finite");
  }
  const auto rate_ok = [](double r) {
    return std::isfinite(r) && r >= 0.0 && r <= 1.0;
  };
  if (!rate_ok(cfg.fault.leaf_crash_rate) ||
      !rate_ok(cfg.fault.middle_crash_rate) ||
      !rate_ok(cfg.fault.top_crash_rate) || !rate_ok(cfg.fault.outage_rate)) {
    throw std::invalid_argument(
        "sharded campaign: fault crash/outage rates must be in [0, 1]");
  }
  if (!rate_ok(cfg.fault.upload_drop_rate) ||
      cfg.fault.upload_drop_rate >= 1.0 ||
      !rate_ok(cfg.fault.upload_corrupt_rate) ||
      cfg.fault.upload_corrupt_rate >= 1.0) {
    throw std::invalid_argument(
        "sharded campaign: upload drop/corrupt rates must be in [0, 1) — at "
        "1 every retry fails too and no upload can ever deliver");
  }
  if (sim::FaultPlan(cfg.fault).enabled() && !orchestrated) {
    throw std::invalid_argument(
        "sharded campaign: fault injection requires the streaming hierarchy "
        "(planned or async mode) — recovery runs through its warm pools");
  }
  if (!std::isfinite(cfg.quorum) || cfg.quorum <= 0.0 || cfg.quorum > 1.0) {
    throw std::invalid_argument(
        "sharded campaign: quorum must be in (0, 1]");
  }
  if (cfg.quorum < 1.0) {
    if (!planned) {
      throw std::invalid_argument(
          "sharded campaign: quorum sealing is a synchronous-round "
          "mechanism — it requires planned mode");
    }
    if (!(cfg.round_deadline_secs > 0.0) ||
        !std::isfinite(cfg.round_deadline_secs)) {
      throw std::invalid_argument(
          "sharded campaign: quorum < 1 needs a finite positive "
          "round_deadline_secs to probe at");
    }
    if (ck) {
      throw std::invalid_argument(
          "sharded campaign: quorum sealing abandons in-flight uploads, "
          "which violates the checkpoint quiescence invariant — disable "
          "checkpoint_every_secs");
    }
  }

  // ---- edge-realistic clients: tier mix, lifecycle, selection ----------
  const bool tiered = cfg.device_tiers.enabled();
  if (tiered) {
    const auto share_ok = [](double s) {
      return std::isfinite(s) && s >= 0.0;
    };
    if (!share_ok(cfg.device_tiers.flagship) ||
        !share_ok(cfg.device_tiers.mid) || !share_ok(cfg.device_tiers.iot)) {
      throw std::invalid_argument(
          "sharded campaign: device tier shares must be finite and >= 0");
    }
    const double sum = cfg.device_tiers.flagship + cfg.device_tiers.mid +
                       cfg.device_tiers.iot;
    if (std::abs(sum - 1.0) > 1e-6) {
      throw std::invalid_argument(
          "sharded campaign: device tier shares must sum to 1 (or all be 0 "
          "for the untiered legacy population)");
    }
  }
  const bool lc_on = cfg.lifecycle.enabled();
  if (lc_on) {
    const auto& l = cfg.lifecycle;
    if (!std::isfinite(l.disconnect_rate) || l.disconnect_rate < 0.0 ||
        l.disconnect_rate >= 1.0) {
      throw std::invalid_argument(
          "sharded campaign: lifecycle disconnect_rate must be in [0, 1) — "
          "at 1 every attempt drops and no session can ever finish");
    }
    if (l.chunk_bytes == 0 || l.offline_queue_cap == 0) {
      throw std::invalid_argument(
          "sharded campaign: lifecycle chunk_bytes and offline_queue_cap "
          "must be >= 1");
    }
    const auto secs_ok = [](double s) {
      return std::isfinite(s) && s >= 0.0;
    };
    if (!secs_ok(l.offline_base_secs) || !secs_ok(l.offline_cap_secs) ||
        !secs_ok(l.offline_jitter)) {
      throw std::invalid_argument(
          "sharded campaign: lifecycle offline backoff fields must be "
          "finite and >= 0");
    }
    if (l.session_gates &&
        (!std::isfinite(l.connect_period_secs) ||
         l.connect_period_secs <= 0.0 ||
         !std::isfinite(l.charge_period_secs) ||
         l.charge_period_secs <= 0.0)) {
      throw std::invalid_argument(
          "sharded campaign: lifecycle session gates need positive finite "
          "connect/charge periods");
    }
    if (cfg.fault.upload_drop_rate > 0.0 ||
        cfg.fault.upload_corrupt_rate > 0.0 || cfg.fault.outage_rate > 0.0 ||
        cfg.fault.gateway_overflow_depth > 0) {
      throw std::invalid_argument(
          "sharded campaign: the client lifecycle supersedes wire-level "
          "upload faults (drop/corruption/outage/overflow) — the chunked "
          "session layer owns the client connection; crash faults compose");
    }
  }
  if (cfg.selector != ctrl::SelectorPolicy::kRandom && !tiered) {
    throw std::invalid_argument(
        "sharded campaign: scored/cluster-scan selection learns per-tier "
        "telemetry — it requires a tiered device population");
  }
  if (tiered || lc_on || cfg.selector != ctrl::SelectorPolicy::kRandom) {
    const auto& s = cfg.selection;
    if (!std::isfinite(s.alpha) || s.alpha < 0.0 || s.alpha > 1.0 ||
        !std::isfinite(s.score_gamma) || s.score_gamma < 0.0 ||
        !std::isfinite(s.exclude_below) || s.exclude_below < 0.0 ||
        s.exclude_below >= 1.0 || !std::isfinite(s.scan_weight) ||
        s.scan_weight < 0.0 || !std::isfinite(s.straggler_factor) ||
        s.straggler_factor <= 1.0) {
      throw std::invalid_argument(
          "sharded campaign: selection config out of range (alpha in "
          "[0, 1], score_gamma >= 0, exclude_below in [0, 1), scan_weight "
          ">= 0, straggler_factor > 1)");
    }
  }
  if (cfg.async_auto_quota && !async) {
    throw std::invalid_argument(
        "sharded campaign: async_auto_quota tunes the FedBuff version "
        "quota — it requires async mode");
  }
  if (cfg.async_min_quota >
      static_cast<std::uint64_t>(cfg.uploads_per_round())) {
    throw std::invalid_argument(
        "sharded campaign: async_min_quota exceeds uploads_per_round()");
  }
}

/// Lower bound on the delivery time of group `g`'s next cross-shard post —
/// its relay aggregate into the top's shard, plus (under quorum) a possible
/// deadline-shortfall shrink — or +inf when the group provably posts no
/// more this round. 0 = no useful bound (the conservative horizon rules).
///
/// The argument: a relay output needs `needed` folded client updates, folds
/// never exceed launched uploads (leases make refolds exactly-once), and
/// arrivals launch one at a time — so while `launched < needed` the relay
/// cannot fire before the next scheduled arrival at `epoch + next_rel`,
/// and its post delivers a cross-group latency after that. Pure reads of
/// group-local state, evaluated only while the shards are parked.
double group_outbound_bound(const CampaignState& st, const Group& g) {
  const ShardedCampaignConfig& cfg = *st.cfg;
  const double inf = std::numeric_limits<double>::infinity();
  std::uint64_t needed = 0;
  double deadline = inf;  // quorum-shrink probe bound (planned only)
  switch (cfg.hierarchy) {
    case HierarchyMode::kFixed:
      // One-shot leaves relay at updates_per_leaf folds each; the k-th
      // relay needs at least k * updates_per_leaf folds in the group.
      if (g.relays_done >= cfg.leaves_per_group) return inf;
      needed = (g.relays_done + 1) *
               static_cast<std::uint64_t>(cfg.updates_per_leaf);
      break;
    case HierarchyMode::kPlanned:
      // The group relay fires once, at the full per-group target — or
      // early at a quorum seal, which cannot land (nor can the shortfall
      // shrink it posts) before the round-deadline probe.
      if (cfg.quorum < 1.0) {
        deadline = g.epoch + cfg.round_deadline_secs + cross_latency_secs(0);
      }
      if (g.relays_done >= 1) return deadline;
      needed = g.target;
      break;
    case HierarchyMode::kAsync: {
      // Recurring relay: flushes every `flush` folded updates, remainder
      // last; `g.target` is the group's whole-stream upload share.
      const std::uint64_t flush =
          cfg.async_flush_updates > 0
              ? cfg.async_flush_updates
              : static_cast<std::uint64_t>(cfg.middle_fanin) *
                    cfg.updates_per_leaf;
      const std::uint64_t done = g.relays_done * flush;
      if (done >= g.target) return inf;
      needed = std::min(done + flush, g.target);
      break;
    }
  }
  if (g.launched >= needed) return 0.0;
  const double relay =
      g.epoch + g.next_rel + cross_latency_secs(cfg.model_bytes);
  return std::min(relay, deadline);
}

/// Lower bound on the next VersionApply broadcast out of the top's shard
/// (async mode): the next version needs `async_folded + goal` cumulative
/// folds, folds never exceed launched uploads, so while the fleet has not
/// launched that many the emission waits for the earliest next arrival.
double async_top_bound(const CampaignState& st) {
  const double inf = std::numeric_limits<double>::infinity();
  if (st.round_done) return inf;  // stream over: no more broadcasts
  const std::uint64_t need =
      st.async_folded +
      std::min(st.async_quota, st.async_total - st.async_folded);
  std::uint64_t launched = 0;
  for (const Group& g : st.groups) launched += g.launched;
  if (launched >= need) return 0.0;
  double arrival = inf;
  for (const Group& g : st.groups) {
    if (g.launched >= g.target) continue;
    arrival = std::min(arrival, g.epoch + g.next_rel);
  }
  if (arrival == inf) return 0.0;
  return arrival + cross_latency_secs(st.cfg->model_bytes);
}

/// Install the per-shard outbound promises that widen adaptive barrier
/// windows: campaign-level knowledge the sharded core cannot see.
/// The core only *verifies* (a cross post below its shard's promise throws)
/// and plans windows with the published bounds. Posts between co-located
/// groups never cross shards, so a group living on the top's shard
/// contributes nothing.
void install_promises(CampaignState& st, sim::ShardedSimulator& sharded) {
  const std::size_t top_shard = st.groups[0].shard;
  const bool is_async = st.cfg->hierarchy == HierarchyMode::kAsync;
  for (std::size_t s = 0; s < sharded.shard_count(); ++s) {
    sharded.set_promise(s, [&st, s, top_shard, is_async]() {
      double bound = std::numeric_limits<double>::infinity();
      for (const Group& g : st.groups) {
        if (g.shard != s || g.shard == top_shard) continue;
        bound = std::min(bound, group_outbound_bound(st, g));
        if (bound <= 0.0) return 0.0;
      }
      if (is_async && s == top_shard) {
        bound = std::min(bound, async_top_bound(st));
      }
      return std::max(bound, 0.0);
    });
  }
}

}  // namespace

ShardedCampaignResult run_sharded_campaign(const ShardedCampaignConfig& cfg) {
  validate_config(cfg);
  const auto wall0 = std::chrono::steady_clock::now();
  const bool planned = cfg.hierarchy == HierarchyMode::kPlanned;
  const bool async = cfg.hierarchy == HierarchyMode::kAsync;
  const bool orchestrated = planned || async;
  const bool tiered = cfg.device_tiers.enabled();
  const bool lc_on = cfg.lifecycle.enabled();
  const bool ck = cfg.checkpoint_every_secs > 0.0;
  const bool resume = cfg.resume_blob != nullptr || !cfg.resume_path.empty();

  sim::ShardedSimulator::Config scfg;
  scfg.shards = cfg.shards;
  scfg.lookahead = calib::kCrossShardLatencySecs;
  scfg.sync = cfg.sync_mode;
  sim::ShardedSimulator sharded(scfg);

  // Observability bundle (passive): rings + registry live in the result's
  // shared_ptr so they outlive this call; the sharded core only holds a
  // borrowed recorder pointer for the duration of the run.
  std::shared_ptr<obs::CampaignObs> campaign_obs;
  if (cfg.obs.enabled()) {
    campaign_obs =
        std::make_shared<obs::CampaignObs>(cfg.obs, cfg.shards, cfg.groups);
  }
  if (campaign_obs && cfg.obs.trace) {
    sharded.set_trace(&campaign_obs->trace());
  }

  CampaignState st;
  st.cfg = &cfg;
  st.sharded = &sharded;
  if (campaign_obs) {
    // Group 0 always maps to shard 0; its thread runs the checkpoint
    // pulses and async version emissions.
    st.camp_obs = campaign_obs->campaign_obs_on_shard(0);
    st.coord_obs = campaign_obs->coordinator_obs();
  }
  st.faults = sim::FaultPlan(cfg.fault);
  {
    // Mix the campaign seed into the lifecycle/selection draw seeds so two
    // campaigns differing only in `seed` get different session schedules.
    wl::LifecyclePlan::Config lcfg = cfg.lifecycle;
    lcfg.seed ^= cfg.seed * 0x9E3779B97F4A7C15ull;
    st.lifecycle = wl::LifecyclePlan(lcfg);
  }
  st.groups.resize(cfg.groups);

  const std::size_t pop_per_group = std::max<std::size_t>(
      1, cfg.population / cfg.groups);
  wl::ArrivalProcess::Config acfg{cfg.peak_per_sec /
                                      static_cast<double>(cfg.groups),
                                  cfg.ramp_secs, cfg.diurnal_amplitude,
                                  cfg.diurnal_period_secs};

  if (orchestrated) {
    ctrl::CampaignPlanner::Config pcfg;
    pcfg.updates_per_leaf = cfg.updates_per_leaf;
    pcfg.middle_fanin = cfg.middle_fanin;
    pcfg.min_leaves = 1;
    pcfg.max_leaves = static_cast<std::uint32_t>(
        std::max<std::size_t>(1, cfg.leaves_per_group));
    pcfg.ewma_alpha = cfg.ewma_alpha;
    pcfg.hysteresis = cfg.replan_hysteresis;
    st.planner = std::make_unique<ctrl::CampaignPlanner>(pcfg, cfg.groups);
  }

  for (std::size_t gi = 0; gi < cfg.groups; ++gi) {
    Group& g = st.groups[gi];
    g.id = gi;
    g.shard = gi % cfg.shards;
    g.sim = &sharded.shard(g.shard);
    g.cluster = std::make_unique<sim::Cluster>(*g.sim, 1);
    dp::DataPlaneConfig pcfg = dp::lifl_plane();
    pcfg.gateway_cores = cfg.gateway_cores;
    pcfg.gateway_queues = cfg.gateway_queues;
    g.plane = std::make_unique<dp::DataPlane>(
        *g.cluster, pcfg, sim::Rng(cfg.seed * 1000003 + gi));
    if (campaign_obs) {
      g.obs = campaign_obs->group_obs(gi, g.shard);
      g.plane->env(0).pool.set_wait_observer(
          g.obs.hist_slot(campaign_obs->ids().gateway_wait_secs));
    }
    g.rng = sim::Rng(cfg.seed ^ (0x9e3779b97f4a7c15ull * (gi + 1)));
    g.population =
        tiered ? wl::ClientPopulation::tiered(
                     pop_per_group, cfg.device_tiers, g.rng,
                     /*first_id=*/1'000'000 + gi * pop_per_group)
               : wl::ClientPopulation::synthetic(
                     pop_per_group, /*mobile=*/true, g.rng,
                     /*first_id=*/1'000'000 + gi * pop_per_group);
    if (tiered || lc_on || cfg.selector != ctrl::SelectorPolicy::kRandom) {
      ctrl::SelectionStrategy::Config selcfg = cfg.selection;
      selcfg.seed ^= cfg.seed * 0xBF58476D1CE4E5B9ull;
      g.strategy = ctrl::make_selection_strategy(cfg.selector, selcfg, gi);
    }
    if (tiered && cfg.straggler_fraction > 0.0) {
      // Per-tier straggler probabilities: the straggler mass lands on the
      // IoT tier first and spills upward (mid-range, then flagship), so
      // "30% stragglers" is literally 30% of uniform-random picks — but a
      // tier-aware selector can avoid nearly all of them.
      const double n = static_cast<double>(g.population.size());
      const auto share = [&](wl::DeviceTier t) {
        return static_cast<double>(g.population.tier_count(t)) / n;
      };
      double spill = cfg.straggler_fraction;
      const wl::DeviceTier order[] = {wl::DeviceTier::kIoT,
                                      wl::DeviceTier::kMidRange,
                                      wl::DeviceTier::kFlagship};
      for (wl::DeviceTier t : order) {
        const double s = share(t);
        const double p = s > 0.0 ? std::min(1.0, spill / s) : 0.0;
        g.straggler_p[static_cast<std::size_t>(t)] = p;
        spill = std::max(0.0, spill - s * p);
      }
    }
    g.arrivals = std::make_unique<wl::ArrivalProcess>(acfg);
    if (orchestrated) {
      StreamingHierarchy::Config hcfg;
      hcfg.group = gi;
      hcfg.node = 0;
      hcfg.relay_id = 2;
      hcfg.middle_base = 100;
      hcfg.leaf_base = 1000;
      hcfg.updates_per_leaf = cfg.updates_per_leaf;
      hcfg.leaf_timing = cfg.timing;
      hcfg.result_bytes = cfg.model_bytes;
      hcfg.reuse = cfg.reuse;
      hcfg.replan_interval = cfg.replan_interval_secs;
      hcfg.cold_start_spawns = cfg.cold_start_spawns;
      hcfg.obs = g.obs;
      hcfg.on_relay_result = GroupRelay{&st, gi};
      if (st.faults.enabled()) hcfg.faults = &st.faults;
      if (planned && cfg.quorum < 1.0) {
        hcfg.quorum = cfg.quorum;
        hcfg.round_deadline_secs = cfg.round_deadline_secs;
        hcfg.on_quorum_shortfall = [&st, gi](std::uint64_t abandoned) {
          // Post the goal shrink into the top's shard so it lands in the
          // top's own event order (shard-count invariant).
          Group& g = st.groups[gi];
          const double t = g.sim->now() + cross_latency_secs(0);
          st.sharded->post(g.shard, st.groups[0].shard, t,
                           TopShrink{&st, abandoned});
        };
      }
      if (async) {
        hcfg.async = true;
        hcfg.seal_deadline_secs = cfg.async_deadline_secs;
        hcfg.adaptive_deadline = cfg.async_adaptive_deadline;
        hcfg.flush_updates = cfg.async_flush_updates;
        hcfg.live_version = st.planner->version_ptr(gi);
      }
      g.hier = std::make_unique<StreamingHierarchy>(*g.plane, *st.planner,
                                                    hcfg);
    }
  }

  if (cfg.sync_mode != sim::SyncMode::kConservative && cfg.shards > 1) {
    install_promises(st, sharded);
  }

  ShardedCampaignResult result;

  // ---- resume: apply the blob's round-boundary image onto the freshly
  // built world, then deterministically re-execute the in-progress round up
  // to the cut mark (write suppression below) — which re-materializes every
  // in-flight event bit-exactly. See src/systems/campaign_checkpoint.hpp.
  CheckpointCut cut;
  if (resume) {
    const std::vector<std::uint8_t> blob =
        cfg.resume_blob != nullptr
            ? *cfg.resume_blob
            : CampaignCheckpoint::read_file(cfg.resume_path);
    cut = CampaignCheckpoint::restore(blob, st, result);
  }
  if (ck) {
    st.ckpt = std::make_unique<fl::CheckpointManager>(*st.groups[0].cluster,
                                                      0, cfg.checkpoint_cost);
  }

  // The durable part of every snapshot `round` emits. Encoding is
  // deterministic, so a resume replaying the round re-derives the
  // identical bytes (and billing size).
  const auto encode_round_boundary = [&](std::uint32_t round) {
    const auto enc0 = std::chrono::steady_clock::now();
    std::vector<std::uint8_t> boundary =
        CampaignCheckpoint::encode_boundary(st, result, round);
    result.checkpoint_encode_secs += wall_since(enc0);
    st.ckpt_blob_bytes =
        boundary.size() + CampaignCheckpoint::cut_trailer_bytes();
    return boundary;
  };

  // Run `round` (the whole stream in async mode) to completion across all
  // shards. With checkpointing on, the in-sim pulse bills the cost model at
  // exact grid points and the coordinator pauses at the same grid
  // (bit-transparent — see ShardedSimulator::run_to) purely to emit blobs
  // while the round is in flight. On resume-replay, marks at or before the
  // cut are re-billed (the uninterrupted timeline paid them too) but their
  // blobs were already emitted by the pre-crash process and are not
  // re-emitted. A trailing `run()` drains stragglers, in-flight checkpoint
  // persistence, and the pulse's final (no-op) fire at the next mark.
  const auto run_round = [&](std::uint32_t round, double epoch,
                             const std::vector<std::uint8_t>& boundary) {
    if (ck) {
      const double every = cfg.checkpoint_every_secs;
      const double first = first_mark_after(epoch, every);
      st.groups[0].sim->schedule_at(first, CkptPulse{&st, first});
      for (double m = first;; m += every) {
        sharded.run_to(m);
        if (st.round_done || sharded.pending_regular() == 0) break;
        if (round < cut.round || (round == cut.round && m <= cut.mark)) {
          continue;
        }
        const auto enc0 = std::chrono::steady_clock::now();
        const std::vector<std::uint8_t> blob =
            CampaignCheckpoint::with_cut(boundary, m);
        result.checkpoint_encode_secs += wall_since(enc0);
        ++result.checkpoints_written;
        result.checkpoint_bytes += blob.size();
        st.coord_obs.instant(
            m, obs::Ev::kCkptEncode,
            static_cast<std::uint32_t>(result.checkpoints_written),
            blob.size());
        if (!cfg.checkpoint_path.empty()) {
          CampaignCheckpoint::write_file(cfg.checkpoint_path, blob);
        }
        if (cfg.on_checkpoint) cfg.on_checkpoint(blob, round, m);
      }
    }
    sharded.run();
  };

  if (async) {
    // ---- asynchronous mode: ONE continuous stream, no round barrier.
    // `rounds` counts model versions; the recurring top seals a FedBuff
    // buffer (emits a version) every `uploads_per_round()` folded updates
    // and the stream ends when all rounds × uploads_per_round() updates
    // have folded. The checkpoint boundary is the stream start (cut.round
    // is always 1); any mid-stream crash replays from there to the mark.
    double epoch = 0.0;
    for (std::size_t s = 0; s < sharded.shard_count(); ++s) {
      epoch = std::max(epoch, sharded.shard(s).now());
    }
    st.round_done = false;
    st.out = &result;
    st.async_quota = static_cast<std::uint64_t>(cfg.uploads_per_round());
    st.async_total = st.async_quota * cfg.rounds;
    st.async_folded = 0;
    st.async_version = 1;
    st.version_started_at = epoch;
    std::uint64_t spawned = 0;
    std::uint64_t reused = 0;

    const std::vector<std::uint8_t> boundary =
        ck ? encode_round_boundary(1) : std::vector<std::uint8_t>{};

    // The recurring top on group 0: a version-cadence buffer, re-targeted
    // by on_version after every emission. expected_version stays 0 — any
    // version folds; staleness is discounted at the leaves, not here.
    fl::AggregatorRuntime::Config tc;
    tc.id = 1;
    tc.node = 0;
    tc.role = fl::AggRole::kTop;
    tc.timing = fl::AggTiming::kEager;
    tc.goal = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(st.async_quota, st.async_total));
    tc.goal_kind = fl::GoalKind::kFoldedUpdates;
    tc.recurring = true;
    tc.result_bytes = cfg.model_bytes;
    tc.on_result = [&st](fl::ModelUpdate u) { on_version(st, std::move(u)); };
    spawn_cold(tc, cfg);
    st.top_rt = std::make_unique<fl::AggregatorRuntime>(*st.groups[0].plane,
                                                        std::move(tc));
    st.top_rt->start();
    ++spawned;
    st.top = st.top_rt.get();

    // Every group starts the stream at server version 1 (the coordinator
    // seeds the slots before any shard runs, so no race and no post).
    for (std::size_t gi = 0; gi < cfg.groups; ++gi) {
      st.planner->set_version(gi, 1);
    }

    const std::vector<double> expected(
        cfg.groups, static_cast<double>(cfg.per_group_target()));
    const ctrl::CampaignPlan plan = st.planner->plan_round(expected);
    const std::uint64_t per_group_stream =
        static_cast<std::uint64_t>(cfg.per_group_target()) * cfg.rounds;
    for (std::size_t gi = 0; gi < cfg.groups; ++gi) {
      st.groups[gi].hier->begin_stream(per_group_stream, plan.groups[gi],
                                       epoch);
      arm_arrivals(st, st.groups[gi], 1, epoch, per_group_stream);
    }

    // ---- run the stream, emitting checkpoints on the mark grid (same
    // pulse + pause machinery as the synchronous rounds).
    run_round(1, epoch, boundary);
    if (!st.round_done) {
      throw std::runtime_error(
          "sharded campaign: async stream did not complete");
    }

    // ---- stream epilogue (coordinator, shards idle): park the fleet and
    // attribute the stream's churn to its first version entry — spawns
    // happen only while the initial fleet ramps; steady state is zero.
    std::uint64_t refolded = 0;
    for (auto& g : st.groups) {
      const StreamingHierarchy::Stats& rs = g.hier->round_stats();
      spawned += rs.spawned;
      reused += rs.reused;
      result.replans += rs.replans;
      result.leaf_drains += rs.drains;
      result.peak_leaves = std::max(result.peak_leaves, rs.peak_leaves);
      result.leaf_crashes += rs.leaf_crashes;
      result.middle_crashes += rs.middle_crashes;
      result.refolded_updates += rs.refolded;
      result.reinjected_partials += rs.reinjected;
      result.recovery_secs += rs.recovery_secs;
      refolded += rs.refolded;
      g.hier->end_round();
    }
    result.round_spawned.assign(result.round_started_at.size(), 0);
    result.round_reused.assign(result.round_started_at.size(), 0);
    result.round_refolded.assign(result.round_started_at.size(), 0);
    if (!result.round_spawned.empty()) {
      result.round_spawned.front() = spawned;
      result.round_reused.front() = reused;
      result.round_refolded.front() = refolded;
    }
    result.spawned_total += spawned;
    result.reused_total += reused;
  }

  for (std::uint32_t round = cut.round; !async && round <= cfg.rounds;
       ++round) {
    // Round epoch: the latest group clock — identical for every shard
    // count (each group's event times are shard-count independent).
    double epoch = 0.0;
    for (std::size_t s = 0; s < sharded.shard_count(); ++s) {
      epoch = std::max(epoch, sharded.shard(s).now());
    }
    st.round_done = false;
    std::uint64_t spawned = 0;
    std::uint64_t reused = 0;

    // The round's boundary image (see `encode_round_boundary`).
    const std::vector<std::uint8_t> boundary =
        ck ? encode_round_boundary(round) : std::vector<std::uint8_t>{};

    if (planned) {
      // ---- streaming orchestrator: the coordinator plans at the round
      // barrier (shards idle), groups arm + re-plan locally mid-round.
      st.top_goal = static_cast<std::uint64_t>(cfg.uploads_per_round());
      fl::AggregatorRuntime::Config tc =
          planned_top_config(st, round, st.top_goal);
      if (st.faults.enabled()) {
        const std::uint32_t k = st.faults.top_crash_point(
            round, static_cast<std::uint64_t>(cfg.groups));
        if (k > 0) {
          tc.fail_after_folds = k;
          tc.on_failed = [&st, round] { recover_top(st, round); };
        }
      }
      if (st.top_rt && cfg.reuse) {
        st.top_rt->rearm(std::move(tc));
        ++reused;
      } else {
        spawn_cold(tc, cfg);
        st.top_rt = std::make_unique<fl::AggregatorRuntime>(
            *st.groups[0].plane, std::move(tc));
        st.top_rt->start();
        ++spawned;
      }
      st.top = st.top_rt.get();

      const std::vector<double> expected(
          cfg.groups, static_cast<double>(cfg.per_group_target()));
      const ctrl::CampaignPlan plan = st.planner->plan_round(expected);
      for (std::size_t gi = 0; gi < cfg.groups; ++gi) {
        st.groups[gi].hier->begin_round(round, cfg.per_group_target(),
                                        plan.groups[gi], epoch);
      }
    } else {
      spawned += arm_fixed_round(st, round);
    }

    for (std::size_t gi = 0; gi < cfg.groups; ++gi) {
      arm_arrivals(st, st.groups[gi], round, epoch, cfg.per_group_target());
    }

    // ---- run the round to completion across all shards.
    run_round(round, epoch, boundary);
    if (!st.round_done) {
      throw std::runtime_error("sharded campaign: round " +
                               std::to_string(round) + " did not complete");
    }
    result.round_started_at.push_back(epoch);
    result.round_completed_at.push_back(st.completed_at);
    result.round_samples.push_back(st.round_samples);
    result.round_weight.push_back(st.round_weight);
    // Round span + latency (coordinator thread, shards parked).
    st.coord_obs.span(epoch, st.completed_at, obs::Ev::kRound, round,
                      st.round_samples);
    st.coord_obs.observe_id(&obs::Ids::round_secs, st.completed_at - epoch);

    // Round-boundary bookkeeping (coordinator thread, sims idle).
    std::uint64_t refolded_round = 0;
    if (planned) {
      for (auto& g : st.groups) {
        const StreamingHierarchy::Stats& rs = g.hier->round_stats();
        spawned += rs.spawned;
        reused += rs.reused;
        result.replans += rs.replans;
        result.leaf_drains += rs.drains;
        result.peak_leaves = std::max(result.peak_leaves, rs.peak_leaves);
        result.leaf_crashes += rs.leaf_crashes;
        result.middle_crashes += rs.middle_crashes;
        result.refolded_updates += rs.refolded;
        result.reinjected_partials += rs.reinjected;
        result.quorum_seals += rs.quorum_seals;
        result.quorum_abandoned += rs.quorum_abandoned;
        result.recovery_secs += rs.recovery_secs;
        refolded_round += rs.refolded;
        g.hier->end_round();
      }
      st.graveyard.clear();  // crashed tops parked during this round
      if (!cfg.reuse) {
        st.top = nullptr;
        st.top_rt.reset();
      }
    } else {
      st.top = nullptr;
      for (auto& g : st.groups) g.aggs.clear();
    }
    result.round_spawned.push_back(spawned);
    result.round_reused.push_back(reused);
    result.round_refolded.push_back(refolded_round);
    result.spawned_total += spawned;
    result.reused_total += reused;
  }

  // ---- collect per-group aggregates (group-local event order only).
  result.groups.reserve(cfg.groups);
  double sim_end = 0.0;
  for (auto& g : st.groups) {
    ShardedGroupStats s;
    s.uploads = g.total_uploads;
    s.pool_pushed = g.plane->env(0).pool.total_pushed();
    s.gateway_busy_secs = g.plane->env(0).gateway.busy_time();
    s.gateway_wait_secs = g.plane->env(0).gateway.total_wait_time();
    s.cpu_cycles = g.cluster->total_cpu().total_cycles();
    result.groups.push_back(s);
    result.upload_retries += g.upload_retries;
    result.upload_drops += g.upload_drops;
    result.upload_corruptions += g.upload_corruptions;
    result.overflow_rejects += g.overflow_rejects;
    result.outage_rejects += g.outage_rejects;
    for (std::size_t t = 0; t < wl::kTierCount; ++t) {
      result.tiers[t].selected += g.tier_selected[t];
      result.tiers[t].completed += g.tier_completed[t];
      result.tiers[t].disconnects += g.tier_disconnects[t];
      result.tiers[t].stragglers += g.tier_stragglers[t];
    }
    result.disconnects += g.lifecycle.disconnects;
    result.resumed_uploads += g.lifecycle.resumes;
    result.chunks_sent += g.lifecycle.chunks_sent;
    result.chunks_resent += g.lifecycle.chunks_resent;
    result.selection_redraws += g.selection_redraws;
    result.offline_queue_peak =
        std::max<std::uint64_t>(result.offline_queue_peak, g.offline_peak);
    result.gate_wait_secs += g.gate_wait_secs;
    sim_end = std::max(sim_end, g.sim->now());
  }
  result.quota_adjustments = st.quota_adjustments;
  result.async_quota_final = st.async_quota;
  result.top_crashes = st.top_crashes;
  result.recovery_secs += st.top_recovery_secs;
  result.faults_injected = result.leaf_crashes + result.middle_crashes +
                           result.top_crashes + result.upload_drops +
                           result.upload_corruptions +
                           result.overflow_rejects + result.outage_rejects;
  result.events = sharded.dispatched();
  // Barrier totals add to the base a resumed run restored from its blob.
  result.cross_posts += sharded.cross_posts();
  result.windows += sharded.windows();
  // Per-shard barrier report (always on — the core counts windows whether
  // or not tracing is enabled; zero for the 1-shard fast path, which never
  // runs the window barrier).
  for (std::size_t s = 0; s < sharded.shard_count(); ++s) {
    const sim::ShardedSimulator::WindowStats& ws = sharded.window_stats(s);
    result.shard_windows.push_back(ws.windows);
    result.shard_empty_windows.push_back(ws.empty_windows);
    result.shard_idle_secs.push_back(ws.idle_wall_secs);
  }
  result.obs = campaign_obs;
  result.checkpoint_marks = st.ckpt_marks;
  result.windows_skipped += sharded.windows_skipped();
  result.sim_secs = sim_end;
  result.wall_secs = wall_since(wall0);
  return result;
}

}  // namespace lifl::sys
