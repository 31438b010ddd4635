#include "src/systems/streaming_hierarchy.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>
#include <vector>

#include "src/sim/calibration.hpp"
#include "src/sim/periodic.hpp"

namespace lifl::sys {

namespace calib = sim::calib;

void apply_lifl_cold_start(fl::AggregatorRuntime::Config& cfg) {
  cfg.cold_trigger = fl::ColdStartTrigger::kOnStart;
  cfg.cold_start_secs = calib::kLiflColdStartSecs;
  cfg.cold_start_cycles = calib::kLiflColdStartCycles;
}

StreamingHierarchy::StreamingHierarchy(dp::DataPlane& plane,
                                       ctrl::CampaignPlanner& planner,
                                       Config cfg)
    : plane_(plane), planner_(planner), cfg_(std::move(cfg)) {}

StreamingHierarchy::~StreamingHierarchy() = default;

sim::Simulator& StreamingHierarchy::sim() {
  return plane_.cluster().sim();
}

std::unique_ptr<fl::AggregatorRuntime> StreamingHierarchy::acquire(
    fl::AggregatorRuntime::Config rc) {
  const std::uint32_t id = static_cast<std::uint32_t>(rc.id);
  if (!pool_.empty()) {
    // Warm reuse: re-arm in place — zero start-up cost, no registration of
    // a new sandbox. LIFO keeps the hottest instance hottest.
    auto rt = std::move(pool_.back());
    pool_.pop_back();
    rt->rearm(std::move(rc));
    ++round_.reused;
    cfg_.obs.instant(sim().now(), obs::Ev::kAggRearm, id);
    return rt;
  }
  if (cfg_.cold_start_spawns) apply_lifl_cold_start(rc);
  auto rt = std::make_unique<fl::AggregatorRuntime>(plane_, std::move(rc));
  rt->start();
  ++round_.spawned;
  cfg_.obs.instant(sim().now(), obs::Ev::kAggSpawn, id);
  return rt;
}

void StreamingHierarchy::park(std::unique_ptr<fl::AggregatorRuntime> rt) {
  // Never destroyed here: park can run inside the runtime's own on_result
  // (a leaf self-parking after its final batch), where destruction would
  // free the object mid-callback. The pool is dropped only between rounds.
  pool_.push_back(std::move(rt));
}

std::uint64_t StreamingHierarchy::claim_batch() {
  const std::uint64_t left = target_ - claimed_;
  const std::uint64_t b = std::min<std::uint64_t>(cfg_.updates_per_leaf, left);
  claimed_ += b;
  if (claimed_ >= target_ && !sealed_) {
    sealed_ = true;
    seal_middles();
  }
  return b;
}

std::size_t StreamingHierarchy::assign_parent(std::uint64_t n) {
  // Once the round's batches are fully assigned the middles are sealed, so
  // any claim resurrected by a retiring leaf's release routes straight to
  // the relay (its folded-count goal absorbs either path).
  if (middles_.empty() || sealed_) return kNoMiddle;
  const std::size_t m = rr_++ % middles_.size();
  middles_[m].assigned += n;
  return m;
}

void StreamingHierarchy::seal_middles() {
  for (auto& m : middles_) {
    // Seal at the updates actually routed through it; a middle that was
    // never assigned anything keeps goal 0 and simply never sends.
    m.rt->set_goal(static_cast<std::uint32_t>(m.assigned), /*open=*/false);
  }
  if (!middles_.empty()) {
    cfg_.obs.instant(sim().now(), obs::Ev::kAggSeal,
                     static_cast<std::uint32_t>(middles_.size()), claimed_);
  }
}

fl::AggregatorRuntime::Config StreamingHierarchy::leaf_config(
    const LeafSlot& s) {
  fl::AggregatorRuntime::Config lc;
  lc.id = leaf_id(s);
  lc.node = cfg_.node;
  lc.role = fl::AggRole::kLeaf;
  lc.timing = cfg_.leaf_timing;
  lc.goal = static_cast<std::uint32_t>(s.batch);
  lc.goal_kind = fl::GoalKind::kMessages;
  lc.result_bytes = cfg_.result_bytes;
  lc.pull_from_pool = true;
  // Sync rounds gate on the round's version; async buffers accept any
  // version and discount it by staleness against the live server version.
  lc.expected_version = round_num_;
  if (cfg_.async) lc.live_version = cfg_.live_version;
  LeafSlot* sp = const_cast<LeafSlot*>(&s);
  lc.on_result = [this, sp](fl::ModelUpdate u) {
    on_leaf_batch(sp, std::move(u));
  };
  if (cfg_.faults != nullptr && cfg_.faults->enabled()) {
    lc.leased = true;
    // One draw per arming, in group-local event order: replacements get a
    // fresh draw too (a recovered leaf can crash again).
    const std::uint32_t k = cfg_.faults->leaf_crash_point(
        cfg_.group, round_num_, fault_seq_++, s.batch);
    if (k > 0) {
      lc.fail_after_folds = k;
      lc.on_failed = [this, sp] { recover_leaf(sp); };
    }
  }
  return lc;
}

fl::AggregatorRuntime::Config StreamingHierarchy::middle_config(
    fl::ParticipantId id, std::size_t mi) {
  fl::AggregatorRuntime::Config mc;
  mc.id = id;
  mc.node = cfg_.node;
  mc.role = fl::AggRole::kMiddle;
  mc.timing = fl::AggTiming::kEager;
  mc.goal = 0;
  mc.goal_open = true;
  mc.goal_kind = fl::GoalKind::kFoldedUpdates;
  mc.consumer = cfg_.relay_id;
  mc.result_bytes = cfg_.result_bytes;
  mc.expected_version = round_num_;
  if (cfg_.faults != nullptr && cfg_.faults->enabled()) {
    mc.leased = true;
    // The crash lands after k folded leaf partials; the planner's fan-in
    // is the expected message count of the arming.
    const std::uint32_t k = cfg_.faults->middle_crash_point(
        cfg_.group, round_num_, fault_seq_++, planner_.config().middle_fanin);
    if (k > 0) {
      mc.fail_after_folds = k;
      mc.on_failed = [this, mi] { recover_middle(mi); };
    }
  }
  return mc;
}

bool StreamingHierarchy::activate_leaf() {
  const std::uint64_t b = claim_batch();
  if (b == 0) return false;
  LeafSlot* s = nullptr;
  for (auto& slot : slots_) {
    if (!slot->rt) {
      s = slot.get();
      break;
    }
  }
  if (s == nullptr) {
    slots_.push_back(std::make_unique<LeafSlot>());
    s = slots_.back().get();
    s->idx = slots_.size() - 1;
  }
  s->batch = b;
  s->middle = assign_parent(b);
  s->retiring = false;
  s->rt = acquire(leaf_config(*s));
  arm_leaf_deadline(*s);
  cfg_.obs.instant(sim().now(), obs::Ev::kAggClaim,
                   static_cast<std::uint32_t>(leaf_id(*s)), b);
  ++active_;
  round_.peak_leaves = std::max(round_.peak_leaves, active_);
  return true;
}

std::uint32_t StreamingHierarchy::relay_flush() const {
  if (cfg_.flush_updates > 0) return cfg_.flush_updates;
  return std::max<std::uint32_t>(
      1, planner_.config().middle_fanin * cfg_.updates_per_leaf);
}

double StreamingHierarchy::leaf_deadline_secs() const {
  const double cap = cfg_.seal_deadline_secs;
  if (!cfg_.adaptive_deadline || cap <= 0.0 || cfg_.replan_interval <= 0.0 ||
      !planner_.estimate_initialized(cfg_.group)) {
    return cap;  // fixed deadline until the arrival EWMA has a signal
  }
  // Per-group arrival rate from the EWMA the re-plan pulse feeds (updates
  // per sample window). The expected fill time of one leaf buffer is
  // batch / (rate / active leaves); give it 2x slack, keep the configured
  // deadline as the upper clamp (and a tenth of it as the lower), so a hot
  // stream seals laggard buffers quickly while a trickle still gets the
  // full window.
  const double rate = planner_.estimate(cfg_.group) / cfg_.replan_interval;
  if (rate <= 0.0) return cap;
  const double leaves = static_cast<double>(std::max<std::uint32_t>(
      1, active_));
  const double fill = 2.0 * static_cast<double>(cfg_.updates_per_leaf) *
                      leaves / rate;
  return std::clamp(fill, 0.1 * cap, cap);
}

void StreamingHierarchy::arm_leaf_deadline(LeafSlot& s) {
  ++s.gen;  // invalidates any timer of the previous activation
  if (!cfg_.async || cfg_.seal_deadline_secs <= 0.0) return;
  LeafSlot* sp = &s;
  const std::uint64_t gen = s.gen;
  sim().schedule_after(leaf_deadline_secs(),
                       [this, sp, gen] { flush_leaf(sp, gen); });
}

void StreamingHierarchy::flush_leaf(LeafSlot* s, std::uint64_t gen) {
  // Slot pointers are stable (slots_ holds unique_ptrs); a timer from a
  // superseded activation — the leaf completed and re-armed, retired, or
  // parked — recognizes itself by generation/state and dies, which is also
  // what lets the event chain drain once the stream is over.
  if (relay_done_ || !s->rt || s->retiring || s->gen != gen) return;
  const std::uint32_t have = s->rt->received();
  if (have == 0) {
    // Empty buffer: nothing to seal; push the deadline back.
    sim().schedule_after(leaf_deadline_secs(),
                         [this, s, gen] { flush_leaf(s, gen); });
    return;
  }
  if (have >= s->batch) return;  // full — the count seal is already firing
  // Seal on deadline: release the unfilled remainder of the claim (for
  // this or any other leaf to re-claim) and force the partial buffer out.
  // Same drain path as a shrink-retire, but the leaf stays active and
  // re-claims in on_leaf_batch.
  const std::uint64_t unfilled = s->batch - have;
  claimed_ -= unfilled;
  s->batch = have;
  ++round_.drains;
  cfg_.obs.instant(sim().now(), obs::Ev::kAggDrain,
                   static_cast<std::uint32_t>(leaf_id(*s)), have);
  s->rt->drain();
}

void StreamingHierarchy::retire_leaf(LeafSlot& s) {
  s.retiring = true;
  --active_;
  // Seal the leaf at the updates it already accepted: the partial
  // accumulator drains into its parent (on_leaf_batch forwards it when the
  // forced Send fires), and the unfilled remainder of its claim is
  // released for surviving leaves to re-claim — nothing is lost.
  const std::uint32_t have = s.rt->received();
  const std::uint64_t unfilled = s.batch - have;
  claimed_ -= unfilled;
  if (unfilled > 0 && s.middle != kNoMiddle) {
    Middle& m = middles_[s.middle];
    m.assigned -= unfilled;
    if (sealed_) {
      m.rt->set_goal(static_cast<std::uint32_t>(m.assigned), /*open=*/false);
    }
  }
  s.batch = have;
  if (have == 0) {
    park_leaf(s);
  } else if (unfilled > 0) {
    ++round_.drains;
    cfg_.obs.instant(sim().now(), obs::Ev::kAggDrain,
                     static_cast<std::uint32_t>(leaf_id(s)), have);
    s.rt->drain();  // may complete (and park via on_leaf_batch) synchronously
  }
  // else: the batch is fully received and mid-fold — it completes through
  // the normal path and parks (retiring) in on_leaf_batch; nothing drained.
  // A release with no survivor to re-claim it would stall the round: wake a
  // mop-up leaf from the pool. Suppressed during a quorum seal's mass
  // retire — the released remainder is being abandoned, not re-claimed.
  if (!quorum_sealed_ && active_ == 0 && claimed_ < target_) activate_leaf();
}

void StreamingHierarchy::park_leaf(LeafSlot& s) {
  s.rt->stop();
  park(std::move(s.rt));
}

void StreamingHierarchy::on_leaf_batch(LeafSlot* s, fl::ModelUpdate u) {
  if (cfg_.obs.tracing() || cfg_.obs.metering()) {
    // Fold span: first arrival into this batch -> the batch completing.
    const double t1 = sim().now();
    const double first = s->rt->first_arrival_at();
    const double t0 = first >= 0.0 ? first : t1;
    cfg_.obs.span(t0, t1, obs::Ev::kAggFold,
                  static_cast<std::uint32_t>(leaf_id(*s)), s->batch);
    cfg_.obs.observe_id(&obs::Ids::fold_secs, t1 - t0);
  }
  const fl::ParticipantId parent =
      s->middle == kNoMiddle ? cfg_.relay_id : middles_[s->middle].id;
  plane_.send(leaf_id(*s), cfg_.node, parent, std::move(u));
  if (s->retiring) {
    park_leaf(*s);
    return;
  }
  const std::uint64_t b = claim_batch();
  if (b == 0) {
    // The round's work is fully claimed: park into the warm pool for the
    // next round (or a mid-round grow).
    --active_;
    park_leaf(*s);
    return;
  }
  s->batch = b;
  s->middle = assign_parent(b);
  s->rt->rearm(leaf_config(*s));  // streaming self-re-arm: same warm sandbox
  arm_leaf_deadline(*s);
  cfg_.obs.instant(sim().now(), obs::Ev::kAggClaim,
                   static_cast<std::uint32_t>(leaf_id(*s)), b);
}

void StreamingHierarchy::apply_leaf_target(std::uint32_t target) {
  if (relay_done_) return;
  if (claimed_ < target_) target = std::max(target, 1u);
  if (target == active_) return;
  ++round_.replans;
  cfg_.obs.instant(sim().now(), obs::Ev::kReplan, active_, target);
  if (target > active_) {
    while (active_ < target && activate_leaf()) {
    }
  } else {
    std::uint32_t excess = active_ - target;
    // Retire from the top of the slot range so low slots stay the stable
    // long-lived leaves.
    for (std::size_t i = slots_.size(); i-- > 0 && excess > 0;) {
      LeafSlot& s = *slots_[i];
      if (s.rt && !s.retiring) {
        retire_leaf(s);
        --excess;
      }
    }
  }
  planner_.set_current(cfg_.group, active_);
}

bool StreamingHierarchy::sampler_tick() {
  if (relay_done_) return false;
  auto& pool = plane_.env(cfg_.node).pool;
  const std::uint64_t pushed = pool.total_pushed();
  const double arrivals = static_cast<double>(pushed - last_pushed_);
  last_pushed_ = pushed;
  // Pending estimate: what is queued plus what arrived over the sample
  // window (with eager pull leaves the queue itself stays near zero — the
  // arrival flux is the §5.2 "pending updates" signal here). The EWMA is
  // fed every window even after the round's batches are fully assigned:
  // the carried estimate is what sizes the *next* round's initial tree at
  // the coordinator barrier.
  const double backlog = static_cast<double>(pool.depth()) + arrivals;
  const auto t = planner_.replan(cfg_.group, backlog);
  if (t.has_value() && !sealed_) apply_leaf_target(*t);
  return !relay_done_;
}

void StreamingHierarchy::recover_leaf(LeafSlot* s) {
  ++round_.leaf_crashes;
  cfg_.obs.instant(sim().now(), obs::Ev::kAggCrash,
                   static_cast<std::uint32_t>(leaf_id(*s)));
  auto& pool = plane_.env(cfg_.node).pool;
  // Abort the dead instance's leases: every client update it accepted but
  // never emitted comes back, in acceptance order.
  std::vector<fl::ModelUpdate> lost = pool.lease_abort(leaf_id(*s));
  round_.refolded += lost.size();
  // The corpse cannot be destroyed here — we are inside its crash
  // callback — so it waits in the graveyard until the round ends.
  graveyard_.push_back(std::move(s->rt));
  // Replacement under the same id and the same (possibly sealed-down)
  // batch goal: a warm re-arm when the pool has a sandbox, else a cold
  // spawn — the recovery latency the round actually pays. In-flight sends
  // to the leaf's id resolve their route at delivery time and reach it.
  const bool cold = pool_.empty();
  s->rt = acquire(leaf_config(*s));
  if (cold && cfg_.cold_start_spawns) {
    round_.recovery_secs += calib::kLiflColdStartSecs;
  }
  arm_leaf_deadline(*s);
  cfg_.obs.instant(sim().now(), obs::Ev::kAggRecover,
                   static_cast<std::uint32_t>(leaf_id(*s)), lost.size());
  // Re-queue the recovered updates: the replacement's pool pulls (or any
  // other live leaf's) re-claim and re-fold them — zero samples lost.
  for (auto& u : lost) pool.push(std::move(u));
}

void StreamingHierarchy::recover_middle(std::size_t mi) {
  ++round_.middle_crashes;
  Middle& m = middles_[mi];
  cfg_.obs.instant(sim().now(), obs::Ev::kAggCrash,
                   static_cast<std::uint32_t>(m.id));
  auto& pool = plane_.env(cfg_.node).pool;
  std::vector<fl::ModelUpdate> lost = pool.lease_abort(m.id);
  round_.reinjected += lost.size();
  graveyard_.push_back(std::move(m.rt));
  // Rebuild with the goal state the round has reached: still open while
  // batches are being assigned, sealed at the routed count afterwards.
  fl::AggregatorRuntime::Config mc = middle_config(m.id, mi);
  if (sealed_) {
    mc.goal = static_cast<std::uint32_t>(m.assigned);
    mc.goal_open = false;
  }
  const bool cold = pool_.empty();
  m.rt = acquire(std::move(mc));
  if (cold && cfg_.cold_start_spawns) {
    round_.recovery_secs += calib::kLiflColdStartSecs;
  }
  cfg_.obs.instant(sim().now(), obs::Ev::kAggRecover,
                   static_cast<std::uint32_t>(m.id), lost.size());
  // Re-inject the retained leaf partials directly: they are folded
  // *messages* of this middle, not pool entries — routing them through the
  // group pool would hand whole partials to message-counting leaves.
  for (auto& u : lost) m.rt->inject(std::move(u));
}

void StreamingHierarchy::quorum_check(std::uint32_t round) {
  if (round != round_num_ || relay_done_ || quorum_sealed_) return;
  const auto& pool = plane_.env(cfg_.node).pool;
  // Client uploads that reached the group this round: pushes since the
  // round epoch, minus recovery re-pushes (re-folds, not fresh arrivals).
  const std::uint64_t pushed = pool.total_pushed() - round_base_pushed_;
  const std::uint64_t arrived =
      pushed > round_.refolded ? pushed - round_.refolded : 0;
  const auto quorum_target = static_cast<std::uint64_t>(
      std::ceil(cfg_.quorum * static_cast<double>(target_)));
  if (arrived >= quorum_target) {
    seal_quorum();
    return;
  }
  // Deadline passed but the quorum itself has not arrived yet: keep
  // waiting for it, probing at an eighth of the deadline.
  sim().schedule_after(cfg_.round_deadline_secs / 8.0,
                       [this, round] { quorum_check(round); });
}

void StreamingHierarchy::seal_quorum() {
  quorum_sealed_ = true;
  ++round_.quorum_seals;
  // Retire every active leaf: partial buffers drain upward, unfilled
  // claims release and stay released (the mop-up reactivation is
  // suppressed) — the round finishes with what it has.
  for (auto& s : slots_) {
    if (s->rt && !s->retiring) retire_leaf(*s);
  }
  const std::uint64_t abandoned = target_ - claimed_;
  round_.quorum_abandoned += abandoned;
  cfg_.obs.instant(sim().now(), obs::Ev::kQuorumSeal, round_num_, abandoned);
  target_ = claimed_;
  if (!sealed_) {
    sealed_ = true;
    seal_middles();
  }
  if (claimed_ == 0) {
    relay_done_ = true;  // nothing ever arrived: the group sits the round out
  } else if (relay_) {
    relay_->set_goal(static_cast<std::uint32_t>(target_), /*open=*/false);
  }
  // Abandoned stragglers that do land later sit in the pool and fall to
  // the next round's leaves, whose version gate drops them (with a
  // replacement pull), so they cannot wedge future rounds.
  if (abandoned > 0 && cfg_.on_quorum_shortfall) {
    cfg_.on_quorum_shortfall(abandoned);
  }
  planner_.set_current(cfg_.group, active_);
}

void StreamingHierarchy::begin_round(std::uint32_t round,
                                     std::uint64_t target,
                                     const ctrl::GroupPlan& plan,
                                     double epoch) {
  const double anchor = epoch >= 0.0 ? epoch : sim().now();
  round_num_ = round;
  target_ = target;
  claimed_ = 0;
  forwarded_ = 0;
  sealed_ = false;
  relay_done_ = false;
  quorum_sealed_ = false;
  rr_ = 0;
  round_ = Stats{};
  // Round-local fault draws: replaying this round from its boundary
  // re-derives the identical crash schedule.
  fault_seq_ = 0;
  graveyard_.clear();  // last round's corpses are safe to reclaim now
  if (!cfg_.reuse) pool_.clear();  // churn baseline: nothing stays warm
  auto& pool = plane_.env(cfg_.node).pool;
  // Waiters left by drained leaves of earlier rounds are dead (their ctx
  // was invalidated at park); clear them so pushes wake live leaves first.
  pool.clear_waiters();
  last_pushed_ = pool.total_pushed();
  round_base_pushed_ = pool.total_pushed();
  if (target == 0) {
    relay_done_ = true;  // nothing to aggregate: the group sits the round out
    planner_.set_current(cfg_.group, 0);
    return;
  }

  // ---- relay: one per group, folded-count goal == the round target, so it
  // completes exactly when every client update arrived through any tree.
  fl::AggregatorRuntime::Config rc;
  rc.id = cfg_.relay_id;
  rc.node = cfg_.node;
  rc.role = fl::AggRole::kMiddle;
  rc.timing = fl::AggTiming::kEager;
  rc.goal = static_cast<std::uint32_t>(target);
  rc.goal_kind = fl::GoalKind::kFoldedUpdates;
  rc.result_bytes = cfg_.result_bytes;
  rc.expected_version = round;
  rc.on_result = [this](fl::ModelUpdate u) {
    relay_done_ = true;
    if (cfg_.on_relay_result) cfg_.on_relay_result(std::move(u));
  };
  relay_ = acquire(std::move(rc));

  // ---- middles: open folded-count goals, sealed at claim exhaustion.
  middles_.clear();
  for (std::uint32_t m = 0; m < plan.middles; ++m) {
    Middle mid;
    mid.id = cfg_.middle_base + m;
    mid.rt = acquire(middle_config(mid.id, middles_.size()));
    middles_.push_back(std::move(mid));
  }

  // ---- initial leaf set per the round-boundary plan.
  const std::uint32_t initial = std::max<std::uint32_t>(1, plan.leaves);
  while (active_ < initial && activate_leaf()) {
  }
  planner_.set_current(cfg_.group, active_);

  // ---- mid-round re-planning: a deterministic group-local pulse; it ends
  // itself once the group's relay completed, so it cannot keep the
  // simulation alive past the round.
  if (cfg_.replan_interval > 0.0 && !relay_done_) {
    sim::schedule_every(sim(), anchor + cfg_.replan_interval,
                        cfg_.replan_interval,
                        [this] { return sampler_tick(); });
  }

  // ---- graceful degradation: after the round deadline, seal at quorum
  // instead of stalling on stragglers. The probe carries the round number
  // so one left over from an early-finishing round dies harmlessly.
  if (cfg_.quorum < 1.0 && cfg_.round_deadline_secs > 0.0 && !relay_done_) {
    const std::uint32_t r = round_num_;
    sim().schedule_at(anchor + cfg_.round_deadline_secs,
                      [this, r] { quorum_check(r); });
  }
}

void StreamingHierarchy::begin_stream(std::uint64_t target,
                                      const ctrl::GroupPlan& plan,
                                      double epoch) {
  const double anchor = epoch >= 0.0 ? epoch : sim().now();
  round_num_ = 0;  // async: no round — leaf configs accept any version
  target_ = target;
  claimed_ = 0;
  forwarded_ = 0;
  sealed_ = false;
  relay_done_ = false;
  quorum_sealed_ = false;
  rr_ = 0;
  round_ = Stats{};
  fault_seq_ = 0;  // stream-local: replay re-derives the crash schedule
  graveyard_.clear();
  auto& pool = plane_.env(cfg_.node).pool;
  pool.clear_waiters();
  last_pushed_ = pool.total_pushed();
  round_base_pushed_ = pool.total_pushed();
  if (target == 0) {
    relay_done_ = true;
    planner_.set_current(cfg_.group, 0);
    return;
  }

  // ---- relay: a recurring FedBuff forwarder. It folds leaf partials and
  // flushes upward every relay_flush() folded client updates, re-targeting
  // the remainder at the tail, so the top receives a continuous stream of
  // partial aggregates — the group never waits for a round barrier. The
  // folded-count goal keeps the total invariant under every tree shape
  // and deadline seal below it.
  fl::AggregatorRuntime::Config rc;
  rc.id = cfg_.relay_id;
  rc.node = cfg_.node;
  rc.role = fl::AggRole::kMiddle;
  rc.timing = fl::AggTiming::kEager;
  rc.goal = static_cast<std::uint32_t>(
      std::min<std::uint64_t>(relay_flush(), target));
  rc.goal_kind = fl::GoalKind::kFoldedUpdates;
  rc.recurring = true;
  rc.result_bytes = cfg_.result_bytes;
  rc.on_result = [this](fl::ModelUpdate u) {
    forwarded_ += u.updates_folded;
    const std::uint64_t left =
        target_ - std::min<std::uint64_t>(forwarded_, target_);
    if (cfg_.on_relay_result) cfg_.on_relay_result(std::move(u));
    if (left == 0) {
      relay_done_ = true;  // every update of the stream has been forwarded
    } else {
      relay_->set_goal(static_cast<std::uint32_t>(
          std::min<std::uint64_t>(relay_flush(), left)));
    }
  };
  relay_ = acquire(std::move(rc));

  // ---- leaves: the same claim machinery as a round (so warm parking,
  // mid-stream re-planning and drains all apply), but each activation is a
  // FedBuff buffer — count goal of one batch, deadline seal, staleness
  // weighting. No middle level: partial batches flush continuously, so a
  // middle's batch boundary would add latency for no fan-in relief.
  middles_.clear();
  const std::uint32_t initial = std::max<std::uint32_t>(1, plan.leaves);
  while (active_ < initial && activate_leaf()) {
  }
  planner_.set_current(cfg_.group, active_);

  // ---- buffer-pressure re-planning: same deterministic group-local pulse
  // as a round; the sampled signal (pool depth + arrival flux) *is* the
  // leaf-buffer pressure here.
  if (cfg_.replan_interval > 0.0 && !relay_done_) {
    sim::schedule_every(sim(), anchor + cfg_.replan_interval,
                        cfg_.replan_interval,
                        [this] { return sampler_tick(); });
  }
}

void StreamingHierarchy::restore_warm(std::size_t pool_n, std::size_t slot_n) {
  if (relay_ || !middles_.empty() || !slots_.empty() || !pool_.empty()) {
    throw std::logic_error(
        "StreamingHierarchy::restore_warm: engine is not fresh");
  }
  for (std::size_t i = 0; i < pool_n; ++i) {
    // A warm sandbox with no role: never started, so nothing registers and
    // no cold start runs — `rearm` gives it its first real config, exactly
    // like a parked instance from an earlier round.
    fl::AggregatorRuntime::Config pc;
    pc.id = cfg_.leaf_base + i;
    pc.node = cfg_.node;
    pc.goal = 1;
    pool_.push_back(
        std::make_unique<fl::AggregatorRuntime>(plane_, std::move(pc)));
  }
  for (std::size_t i = 0; i < slot_n; ++i) {
    slots_.push_back(std::make_unique<LeafSlot>());
    slots_.back()->idx = i;
  }
}

void StreamingHierarchy::end_round() {
  for (auto& m : middles_) {
    if (m.rt) {
      m.rt->stop();
      park(std::move(m.rt));
    }
  }
  middles_.clear();
  for (auto& s : slots_) {
    if (s->rt) {
      if (!s->retiring) --active_;
      park_leaf(*s);
    }
  }
  if (relay_) {
    relay_->stop();
    park(std::move(relay_));
  }
  // Crashed sandboxes: safe to reclaim now — the round is over, so no
  // event on the calendar can still hold their callbacks' context alive
  // in a way that dereferences them (ctx->rt was nulled at fail()).
  graveyard_.clear();
  if (!cfg_.reuse) pool_.clear();
}

}  // namespace lifl::sys
