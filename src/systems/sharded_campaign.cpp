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
#include "src/systems/campaign_config.hpp"
#include "src/systems/campaign_promises.hpp"
#include "src/systems/campaign_state.hpp"
#include "src/systems/streaming_hierarchy.hpp"
#include "src/workload/population.hpp"

namespace lifl::sys {

namespace calib = sim::calib;

using detail::CampaignState;
using detail::Group;
using detail::GroupPromise;

namespace {

/// Injects one relayed group aggregate into the top aggregator. Runs on the
/// top's shard; the update was detached from its source group (no tensor)
/// before crossing.
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
    u.tensor.reset();
    Group& g = st->groups[group];
    ++g.relays_done;  // feeds the shard's outbound promise (sync modes)
    const double t = g.sim->now() + cross_latency_secs(u.logical_bytes);
    st->sharded->post(g.shard, st->groups[0].shard,
                      static_cast<std::uint32_t>(group), t,
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
    return g->live_sessions.get(i) < cap;
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
  // Packed so every callback below stays within a Task's inline bytes.
  const auto i = static_cast<std::uint32_t>(idx);
  const auto ti = static_cast<std::uint32_t>(profile.tier);
  const double selected_at = g->sim->now();
  g->live_sessions.increment(i);

  dp::ResumableUpload::Config rc;
  rc.node = 0;
  rc.uplink_bytes_per_sec = profile.uplink_bytes_per_sec;
  rc.plan = &st->lifecycle;
  rc.group = g->id;
  rc.seq = seq;
  rc.rate_scale = wl::tier_traits(profile.tier).disconnect_scale;
  rc.counters = &g->lifecycle;
  rc.obs = g->obs;
  rc.on_complete = [g, i, ti, selected_at](double, std::uint32_t) {
    ++g->tier_completed[ti];
    if (g->strategy) {
      g->strategy->report(static_cast<wl::DeviceTier>(ti),
                          g->sim->now() - selected_at, /*success=*/true);
    }
    g->live_sessions.decrement(i);
  };
  rc.on_disconnect = [g, i, ti]() {
    ++g->tier_disconnects[ti];
    const std::uint32_t parked = g->parked.increment(i);
    g->offline_peak = std::max(g->offline_peak, parked);
  };
  rc.on_resume = [g, i]() { g->parked.decrement(i); };

  double delay = 0.0;
  if (cfg.lifecycle.session_gates) {
    delay = st->lifecycle.gate_delay(g->id, idx, profile.tier, selected_at);
    g->gate_wait_secs += delay;
  }
  if (straggler) delay += cfg.straggler_delay_secs;
  dp::ResumableUpload::launch(*g->plane, std::move(u), std::move(rc), delay);
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
  if (st.async_folded >= st.async_total) {
    st.round_done = true;  // every update of the stream has been folded
    st.completed_at = now;
    return;
  }
  ++st.async_version;
  // The final buffer is the remainder: quotas never overhang the stream,
  // so the last version lands exactly when the last update folds.
  st.top->set_goal(static_cast<std::uint32_t>(std::min<std::uint64_t>(
      st.cfg->uploads_per_round(), st.async_total - st.async_folded)));
  for (std::size_t gi = 0; gi < st.groups.size(); ++gi) {
    const double t =
        now + cross_latency_secs(st.cfg->model_bytes);
    // The top posts in its own lane, after the groups' lanes.
    st.sharded->post(st.groups[0].shard, st.groups[gi].shard,
                     static_cast<std::uint32_t>(st.groups.size()), t,
                     VersionApply{&st, gi, st.async_version});
  }
}

/// In-sim snapshot cost pulse: fires at every mark of the global
/// k·checkpoint_every_secs grid while the round is active, billing the
/// CheckpointManager cost model (marshal CPU on group 0's node, storage
/// latency off it) with the size the blob for this round will have. Riding
/// the event queue — not the coordinator's `run_to` pauses — makes the
/// billing times exact grid points, identical for every shard count and
/// identical under resume-replay. The chain ends itself once the round
/// completed (one trailing no-op fire at the next mark).
struct CkptPulse {
  CampaignState* st;
  double at;
  void operator()() const {
    if (st->round_done) return;
    st->ckpt->begin_write(st->groups[0].round, st->ckpt_blob_bytes);
    const std::uint64_t marks = ++st->out->checkpoint_marks;
    st->camp_obs.instant(at, obs::Ev::kCkptMark,
                         static_cast<std::uint32_t>(marks),
                         st->ckpt_blob_bytes);
    const double next = at + st->cfg->checkpoint_every_secs;
    st->groups[0].sim->schedule_at(next, CkptPulse{st, next});
  }
};

/// First point of the global mark grid strictly after `t`.
double first_mark_after(double t, double every) {
  return every * (std::floor(t / every) + 1.0);
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
  ++st.out->top_crashes;
  auto& pool = st.groups[0].plane->env(0).pool;
  const std::vector<fl::UpdateDesc> lost = pool.lease_abort(1);
  st.graveyard.push_back(std::move(st.top_rt));
  fl::AggregatorRuntime::Config tc =
      planned_top_config(st, round, st.top_goal);
  apply_lifl_cold_start(tc);
  st.top_rt = std::make_unique<fl::AggregatorRuntime>(*st.groups[0].plane,
                                                      std::move(tc));
  st.top_rt->start();
  st.top = st.top_rt.get();
  for (const fl::UpdateDesc& u : lost) st.top->inject(u);
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
  if (g.promise) {
    // The clone the owning shard replays into the group's arrival table.
    g.promise->clone = g.rng;
    g.promise->first_rel = g.next_rel;
    g.promise->table_ready.store(false, std::memory_order_relaxed);
    st.launches.reset();
  }
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
  apply_lifl_cold_start(tc);
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
      apply_lifl_cold_start(lc);
      g.aggs.push_back(std::make_unique<fl::AggregatorRuntime>(*g.plane, lc));
      g.aggs.back()->start();
      ++spawned;
    }
  }
  return spawned;
}

/// Fold every group's hierarchy stats for the round (async: the whole
/// stream) into the result and park the hierarchies. Adds the churn to
/// `spawned` / `reused`; returns the client updates re-folded.
std::uint64_t fold_round_stats(CampaignState& st,
                               ShardedCampaignResult& result,
                               std::uint64_t& spawned,
                               std::uint64_t& reused) {
  std::uint64_t refolded = 0;
  for (Group& g : st.groups) {
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
    refolded += rs.refolded;
    g.hier->end_round();
  }
  return refolded;
}

double wall_since(const std::chrono::steady_clock::time_point& t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Group `g`'s promise inputs, read on its own shard's thread. The first
/// call after arrivals were armed replays the arrival clone into the
/// group's table and publishes it for the top's shard.
GroupFlow group_flow(const CampaignState& st, Group& g) {
  GroupPromise& p = *g.promise;
  if (!p.table_ready.load(std::memory_order_relaxed)) {
    p.table = ArrivalTable::replay(*g.arrivals, p.clone, g.epoch,
                                   p.first_rel, g.target);
    p.table_ready.store(true, std::memory_order_release);
  }
  GroupFlow f;
  f.relays_done = g.relays_done;
  f.launched = g.launched;
  f.target = g.target;
  f.epoch = g.epoch;
  f.next_arrival = g.epoch + g.next_rel;
  f.arrivals = &p.table;
  if (st.cfg->hierarchy == HierarchyMode::kAsync) {
    f.relay_flush = g.hier->relay_flush();
    f.emit_floor = g.hier->relay_emit_floor();
  }
  return f;
}

/// The async top's promise, on the top's shard: merges the groups' arrival
/// tables once all are published, and reads every group's relay snapshot.
double top_bound(CampaignState& st, double top_step) {
  if (!st.launches) {
    std::vector<const ArrivalTable*> tables;
    for (const Group& g : st.groups) {
      if (!g.promise->table_ready.load(std::memory_order_acquire)) break;
      tables.push_back(&g.promise->table);
    }
    if (tables.size() == st.groups.size()) {
      st.launches = std::make_unique<LaunchBound>(tables);
    }
  }
  TopFlow top;
  top.done = st.round_done;
  top.folded = st.async_folded;
  top.quota = st.cfg->uploads_per_round();
  top.total = st.async_total;
  top.goal = st.top->config().goal;
  top.top_step = top_step;
  st.relay_snapshots.clear();
  for (const Group& g : st.groups) {
    st.relay_snapshots.push_back(g.promise->relay.read());
  }
  return async_top_bound(*st.cfg, top, st.launches.get(), st.relay_snapshots);
}

/// Install the per-shard outbound promises: campaign-level knowledge the
/// sharded core cannot see. Each runs on its own shard's thread at every
/// horizon refresh (see `ShardedSimulator::set_promise`); the core only
/// *verifies* (a cross post below its shard's published bound throws).
/// Relays of groups living on the top's shard never cross shards, so those
/// groups bound nothing — in async mode their shard still publishes their
/// relay snapshots and arrival tables for the top's bound.
void install_promises(CampaignState& st, sim::ShardedSimulator& sharded) {
  const std::size_t top_shard = st.groups[0].shard;
  const bool is_async = st.cfg->hierarchy == HierarchyMode::kAsync;
  for (Group& g : st.groups) g.promise = std::make_unique<GroupPromise>();
  st.relay_snapshots.reserve(st.groups.size());
  const double top_step =
      fl::AggregatorRuntime::agg_cycles(st.cfg->model_bytes) /
      st.groups[0].cluster->node(0).config().cpu_hz;
  for (std::size_t s = 0; s < sharded.shard_count(); ++s) {
    // Group shards post only into the top's shard (relays, quorum
    // shrinks); the top's shard posts only the async version broadcasts.
    std::vector<std::size_t> receivers;
    for (std::size_t r = 0; r < sharded.shard_count(); ++r) {
      if (r != s && (s == top_shard ? is_async : r == top_shard)) {
        receivers.push_back(r);
      }
    }
    sharded.set_receivers(s, receivers);
    sharded.set_promise(s, [&st, s, top_shard, is_async, top_step]() {
      double bound = std::numeric_limits<double>::infinity();
      for (Group& g : st.groups) {
        if (g.shard != s || (s == top_shard && !is_async)) continue;
        const GroupFlow f = group_flow(st, g);
        if (is_async) {
          g.promise->relay.publish({g.hier->forwarded(), f.emit_floor});
        }
        if (s != top_shard) {
          bound = std::min(bound, group_outbound_bound(*st.cfg, f));
        }
      }
      if (is_async && s == top_shard) {
        bound = std::min(bound, top_bound(st, top_step));
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
  sim::ShardedSimulator sharded(scfg);

  // Observability bundle (passive): rings + registry live in the result's
  // shared_ptr so they outlive this call; the sharded core only holds a
  // borrowed recorder pointer for the duration of the run.
  std::shared_ptr<obs::CampaignObs> campaign_obs;
  if (cfg.obs.enabled()) {
    campaign_obs =
        std::make_shared<obs::CampaignObs>(cfg.obs, cfg.shards, cfg.groups);
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
    st.planner = std::make_unique<ctrl::CampaignPlanner>(pcfg, cfg.groups);
  }

  // Each group is built on the thread that will run it, so its objects come
  // from that thread's allocator arena, off other shards' cache lines.
  const auto build_group = [&](std::size_t gi) {
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
          st.sharded->post(g.shard, st.groups[0].shard,
                           static_cast<std::uint32_t>(gi), t,
                           TopShrink{&st, abandoned});
        };
      }
      if (async) {
        hcfg.async = true;
        hcfg.seal_deadline_secs = cfg.async_deadline_secs;
        hcfg.live_version = st.planner->version_ptr(gi);
      }
      g.hier = std::make_unique<StreamingHierarchy>(*g.plane, *st.planner,
                                                    hcfg);
    }
  };
  sharded.on_each_shard([&](std::size_t s) {
    for (std::size_t gi = s; gi < cfg.groups; gi += cfg.shards) {
      build_group(gi);
    }
  });

  if (cfg.shards > 1) install_promises(st, sharded);

  ShardedCampaignResult result;
  st.out = &result;

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
  // Cross posts so far: the restored base plus this process's.
  const std::uint64_t posts_base = result.cross_posts;
  if (ck) {
    st.ckpt = std::make_unique<fl::CheckpointManager>(
        *st.groups[0].cluster, 0, fl::CheckpointManager::Config{});
  }

  // The durable part of every snapshot `round` emits. Encoding is
  // deterministic, so a resume replaying the round re-derives the
  // identical bytes (and billing size).
  const auto encode_round_boundary = [&](std::uint32_t round) {
    const auto enc0 = std::chrono::steady_clock::now();
    result.cross_posts = posts_base + sharded.cross_posts();
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
    const auto quota = static_cast<std::uint64_t>(cfg.uploads_per_round());
    st.async_total = quota * cfg.rounds;
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
        std::min<std::uint64_t>(quota, st.async_total));
    tc.goal_kind = fl::GoalKind::kFoldedUpdates;
    tc.recurring = true;
    tc.result_bytes = cfg.model_bytes;
    tc.on_result = [&st](fl::ModelUpdate u) { on_version(st, std::move(u)); };
    apply_lifl_cold_start(tc);
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
    const std::uint64_t refolded =
        fold_round_stats(st, result, spawned, reused);
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
        apply_lifl_cold_start(tc);
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
      refolded_round = fold_round_stats(st, result, spawned, reused);
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
    s.payloads_held = g.plane->env(0).store.size() +
                      g.plane->slab_payloads() +
                      g.plane->env(0).pool.leases();
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
  // Each top crash paid one cold start (recover_top), summed after the
  // rounds' own recovery time.
  double top_recovery_secs = 0.0;
  for (std::uint64_t i = 0; i < result.top_crashes; ++i) {
    top_recovery_secs += calib::kLiflColdStartSecs;
  }
  result.recovery_secs += top_recovery_secs;
  result.faults_injected = result.leaf_crashes + result.middle_crashes +
                           result.top_crashes + result.upload_drops +
                           result.upload_corruptions +
                           result.overflow_rejects + result.outage_rejects;
  result.events = sharded.dispatched();
  result.cross_posts = posts_base + sharded.cross_posts();
  // Process-local synchronization report (always on — the core counts
  // whether or not tracing is enabled; zero for the 1-shard fast path).
  result.windows = sharded.windows();
  result.windows_skipped = sharded.windows_skipped();
  for (std::size_t s = 0; s < sharded.shard_count(); ++s) {
    const sim::ShardedSimulator::WindowStats& ws = sharded.window_stats(s);
    result.shard_windows.push_back(ws.windows);
    result.shard_empty_windows.push_back(ws.empty_windows);
    result.shard_idle_secs.push_back(ws.idle_wall_secs);
    result.shard_promise_lead_secs.push_back(ws.max_promise_lead);
    result.shard_cpu_secs.push_back(ws.cpu_secs);
  }
  result.obs = campaign_obs;
  result.sim_secs = sim_end;
  result.wall_secs = wall_since(wall0);
  return result;
}

}  // namespace lifl::sys
