#include "src/fl/aggregator_runtime.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "src/sim/calibration.hpp"

namespace lifl::fl {

namespace calib = sim::calib;
using sim::CostTag;

std::string to_string(AggRole role) {
  switch (role) {
    case AggRole::kLeaf: return "leaf";
    case AggRole::kMiddle: return "middle";
    case AggRole::kTop: return "top";
  }
  return "unknown";
}

double AggregatorRuntime::agg_cycles(std::size_t logical_bytes) noexcept {
  return calib::kAggregateCyclesPerByte * static_cast<double>(logical_bytes) +
         calib::kAggregateFixedCycles;
}

AggregatorRuntime::AggregatorRuntime(dp::DataPlane& plane, Config cfg)
    : plane_(plane),
      sim_(plane.cluster().sim()),
      cfg_(std::move(cfg)),
      rec_(plane.acquire_runtime_record()) {
  rec_->rt = this;
  validate_config();
}

void AggregatorRuntime::validate_config() const {
  if (cfg_.goal == 0 && !cfg_.goal_open) {
    throw std::invalid_argument("AggregatorRuntime: goal must be >= 1");
  }
  if (cfg_.pull_from_pool && cfg_.goal_kind != GoalKind::kMessages) {
    // Pool pulls are accounted per message; a folded-count goal cannot size
    // the number of pop_async waiters to park.
    throw std::invalid_argument(
        "AggregatorRuntime: pull_from_pool requires a message-count goal");
  }
  if (cfg_.timing == AggTiming::kLazy &&
      cfg_.goal_kind != GoalKind::kMessages) {
    // Lazy batching holds the FIFO until `goal` *messages* arrived; a
    // folded-count goal has no well-defined batch boundary.
    throw std::invalid_argument(
        "AggregatorRuntime: lazy timing requires a message-count goal");
  }
}

bool AggregatorRuntime::goal_met(std::uint32_t messages,
                                 std::uint32_t folded) const noexcept {
  if (cfg_.goal_open || cfg_.goal == 0) return false;
  return cfg_.goal_kind == GoalKind::kMessages ? messages >= cfg_.goal
                                               : folded >= cfg_.goal;
}

bool AggregatorRuntime::goal_reached() const noexcept {
  return goal_met(aggregated_, acc_.updates_folded());
}

void AggregatorRuntime::PoolWaiter::operator()(UpdateDesc u) const {
  AggregatorRuntime* rt = h.live();
  if (rt == nullptr) {
    // Instance went away; put the update back for a successor.
    h.plane().env(h.node).pool.push(u);
    return;
  }
  // Taking the update out of the queue is free under LIFL's in-place
  // queuing (§4.2) and on a serverful monolith: deliver directly.
  if (!h.plane().config().use_broker) {
    rt->deliver(u);
    return;
  }
  // On brokered planes it is a broker delivery.
  h.plane().consume(h.node, u, ConsumeReady{h});
}

void AggregatorRuntime::ConsumeReady::operator()(UpdateDesc u) const {
  AggregatorRuntime* rt = h.live();
  if (rt == nullptr) {
    h.plane().env(h.node).pool.push(u);
    return;
  }
  rt->deliver(u);
}

void AggregatorRuntime::RecvDone::operator()() const {
  if (AggregatorRuntime* rt = h.live()) rt->on_recv_done();
}

void AggregatorRuntime::AggDone::operator()() const {
  if (AggregatorRuntime* rt = h.live()) rt->on_agg_done();
}

void AggregatorRuntime::ColdStartDone::operator()() const {
  AggregatorRuntime* rt = h.live();
  if (rt == nullptr) return;
  rt->plane_.cluster().node(rt->cfg_.node).cpu().add(
      CostTag::kStartup, rt->cfg_.cold_start_cycles);
  rt->on_ready();
}

void AggregatorRuntime::DepthReached::operator()() const {
  if (AggregatorRuntime* rt = h.live()) rt->maybe_pull();
}

AggregatorRuntime::~AggregatorRuntime() {
  if (started_) stop();
  plane_.release_runtime_record(rec_);
}

void AggregatorRuntime::start() {
  if (started_) return;
  started_ = true;
  rec_->rt = this;
  // Register the socket so producers can reach us even before we're ready:
  // updates delivered during cold start buffer in the FIFO, exactly like
  // messages queueing while a function boots.
  plane_.register_consumer(cfg_.id, cfg_.node,
                           [this](UpdateDesc u) { deliver(u); });
  // Pull requests are armed even before the sandbox is ready: an arriving
  // update is what triggers reactive scale-from-zero, and deliveries during
  // cold start simply buffer (messages queue while the function boots).
  maybe_pull();
  switch (cfg_.cold_trigger) {
    case ColdStartTrigger::kNone:
      on_ready();
      break;
    case ColdStartTrigger::kOnStart:
      begin_cold_start();
      break;
    case ColdStartTrigger::kOnFirstUpdate:
      break;  // wait for the first delivery (reactive scaling)
  }
}

void AggregatorRuntime::begin_cold_start() {
  if (cold_start_begun_) return;
  cold_start_begun_ = true;
  if (cfg_.cold_start_secs <= 0.0 && cfg_.cold_start_cycles <= 0.0) {
    on_ready();
    return;
  }
  sim_.schedule_after(cfg_.cold_start_secs, ColdStartDone{handle()});
}

void AggregatorRuntime::on_ready() {
  ready_ = true;
  pump();
}

void AggregatorRuntime::stop() {
  if (!started_) return;
  started_ = false;
  ready_ = false;
  rec_->rt = nullptr;  // invalidates in-flight pool waiters and timers
  plane_.unregister_consumer(cfg_.id);
  // Return unprocessed updates to the node pool: the runtime is stateless,
  // so a replacement can pick them up with no state synchronization. An
  // update mid-Recv/Agg is included — its shm object still exists, so a
  // successor simply re-reads it. The descriptors take their payload
  // references with them.
  if (in_flight_.has_value()) {
    plane_.env(cfg_.node).pool.push(*in_flight_);
    in_flight_.reset();
    processing_ = false;
  }
  while (!fifo_.empty()) {
    plane_.env(cfg_.node).pool.push(fifo_.front());
    fifo_.pop_front();
  }
  // Everything accepted is accounted for — folded work was (or will be)
  // emitted, the rest just went back to the pool — so the lease clears in
  // full. Leaving it would double-count those updates on a later abort.
  ack_leases(0);
}

void AggregatorRuntime::fail() {
  if (!started_ || failed_) return;
  failed_ = true;
  started_ = false;
  ready_ = false;
  rec_->rt = nullptr;  // invalidates in-flight waiters, timers, step events
  plane_.unregister_consumer(cfg_.id);
  // The sandbox is gone: buffered and mid-step updates die with it — their
  // references are released, with no pool pushes and no lease acks. The
  // retained lease copies are the single source of recovery (a
  // stop()-style push-back here would duplicate them against the abort
  // path).
  while (!fifo_.empty()) {
    release(fifo_.front());
    fifo_.pop_front();
  }
  if (in_flight_.has_value()) release(*in_flight_);
  in_flight_.reset();
  processing_ = false;
  acc_.reset();
}

void AggregatorRuntime::set_goal(std::uint32_t goal, bool open) {
  cfg_.goal = goal;
  cfg_.goal_open = open;
  if (!started_ || sent_) return;
  // A grown goal may need more pool pulls (the while loop no-ops when the
  // goal shrank below what was already pulled); a shrunken goal may already
  // be met by the folded state, or be reachable from the FIFO alone.
  maybe_pull();
  pump();
  maybe_complete();
}

std::uint32_t AggregatorRuntime::drain() {
  if (!started_ || sent_) return 0;
  std::uint32_t have = 0;
  if (cfg_.goal_kind == GoalKind::kMessages) {
    have = received_;  // folded + mid-step + buffered
  } else {
    have = acc_.updates_folded();
    if (in_flight_.has_value()) have += in_flight_->updates_folded;
    for (std::size_t i = 0; i < fifo_.size(); ++i) {
      have += fifo_[i].updates_folded;
    }
  }
  if (have == 0) return 0;
  set_goal(have, /*open=*/false);
  return have;
}

void AggregatorRuntime::ack_leases(std::size_t keep_newest) {
  if (!cfg_.leased) return;
  plane_.env(cfg_.node).pool.lease_ack(
      cfg_.id, keep_newest, [this](const UpdateDesc& u) { release(u); });
}

void AggregatorRuntime::maybe_complete() {
  if (ready_ && !processing_ && !sent_ && goal_reached()) do_send();
}

void AggregatorRuntime::rearm(Config cfg) {
  if (processing_) {
    throw std::logic_error("rearm: runtime is mid-step");
  }
  if (started_) {
    plane_.unregister_consumer(cfg_.id);
  }
  // Invalidate any stale waiters/timers of the old role for good: start()
  // below revives only handles taken under the new generation.
  rec_->retire();
  // Stateless: drop all aggregation state; keep the warm sandbox. Updates
  // still buffered (none, if the caller honored idle()) go back to the pool.
  while (!fifo_.empty()) {
    plane_.env(cfg_.node).pool.push(fifo_.front());
    fifo_.pop_front();
  }
  ack_leases(0);
  acc_.reset();
  cfg_ = std::move(cfg);
  validate_config();
  // A re-armed instance is warm by definition.
  cfg_.cold_trigger = ColdStartTrigger::kNone;
  cfg_.cold_start_secs = 0.0;
  cfg_.cold_start_cycles = 0.0;
  sent_ = false;
  failed_ = false;
  received_ = 0;
  pulled_ = 0;
  aggregated_ = 0;
  emissions_ = 0;
  version_ = 0;
  first_arrival_at_ = -1.0;
  sent_at_ = -1.0;
  started_ = false;
  cold_start_begun_ = false;
  ready_ = false;
  start();
}

void AggregatorRuntime::maybe_pull() {
  if (!cfg_.pull_from_pool || !started_) return;
  auto& pool = plane_.env(cfg_.node).pool;
  if (cfg_.timing == AggTiming::kLazy && pulled_ == 0 &&
      pool.depth() < cfg_.goal) {
    // Lazy just-in-time consumption (Fig. 1): updates queue in the message
    // broker / shm pool until the aggregation task's whole batch is there,
    // then the task drains it. (Eager tasks consume per arrival instead.)
    pool.when_depth(cfg_.goal, DepthReached{handle()});
    return;
  }
  while (pulled_ < cfg_.goal) {
    ++pulled_;
    pool.pop_async(PoolWaiter{handle()});
  }
}

void AggregatorRuntime::deliver(const UpdateDesc& u) {
  if (!started_) {
    // Late delivery after stop(): recycle into the pool.
    plane_.env(cfg_.node).pool.push(u);
    return;
  }
  if (u.corrupted) {
    // Integrity check at Recv: a bit-flipped payload is discarded rather
    // than folded — the client's retry (already scheduled by the fault
    // plan) re-delivers a clean copy.
    ++corrupt_dropped_;
    if (cfg_.pull_from_pool && pulled_ > 0) {
      --pulled_;
      maybe_pull();
    }
    release(u);
    return;
  }
  const bool version_mismatch =
      cfg_.expected_version != 0 && u.model_version != cfg_.expected_version;
  const bool too_stale =
      cfg_.live_version != nullptr && *cfg_.live_version > u.model_version &&
      *cfg_.live_version - u.model_version > cfg_.max_staleness;
  if (version_mismatch || too_stale) {
    // Stale straggler: wrong round under synchronous version gating, or
    // beyond the staleness bound under asynchronous folding. Drop it
    // (releasing its payload) and keep listening.
    ++stale_dropped_;
    if (cfg_.pull_from_pool && pulled_ > 0) {
      --pulled_;
      maybe_pull();
    }
    release(u);
    return;
  }
  // Accepting under lease: the retained copy (a descriptor plus one more
  // payload reference) is what survives if this instance crashes before
  // emitting the update's contribution.
  if (cfg_.leased) {
    plane_.retain(cfg_.node, u);
    plane_.env(cfg_.node).pool.lease_retain(cfg_.id, u);
  }
  ++received_;
  if (first_arrival_at_ < 0) first_arrival_at_ = sim_.now();
  version_ = std::max(version_, u.model_version);
  fifo_.push_back(u);
  if (!ready_ && cfg_.cold_trigger == ColdStartTrigger::kOnFirstUpdate) {
    begin_cold_start();
  }
  pump();
}

void AggregatorRuntime::pump() {
  if (!ready_ || processing_ || sent_) return;
  if (fifo_.empty()) return;
  if (cfg_.timing == AggTiming::kLazy && received_ < cfg_.goal) {
    // Lazy: hold the batch until every expected update has arrived.
    return;
  }
  const UpdateDesc u = fifo_.front();
  fifo_.pop_front();
  process_one(u);
}

void AggregatorRuntime::process_one(const UpdateDesc& u) {
  processing_ = true;
  in_flight_ = u;
  sim::Node& node = plane_.cluster().node(cfg_.node);

  // ---- Recv step: take ownership of the payload (shm map / deserialize).
  // The step's cost rides in members (the pipeline has one step in flight
  // at a time), so the completion is a 16-byte functor — no allocation.
  step_cycles_ = plane_.recv_cycles(*in_flight_);
  step_secs_ = step_cycles_ / node.config().cpu_hz;
  node.cores().acquire(step_secs_, RecvDone{handle()});
}

void AggregatorRuntime::on_recv_done() {
  sim::Node& node = plane_.cluster().node(cfg_.node);
  node.cpu().add(CostTag::kSerialization, step_cycles_);
  busy_secs_ += step_secs_;

  // ---- Agg step: fold into the cumulative weighted average.
  step_cycles_ = agg_cycles(in_flight_->logical_bytes);
  step_secs_ = step_cycles_ / node.config().cpu_hz;
  node.cores().acquire(step_secs_, AggDone{handle()});
}

void AggregatorRuntime::on_agg_done() {
  sim::Node& node = plane_.cluster().node(cfg_.node);
  node.cpu().add(CostTag::kAggregator, step_cycles_);
  busy_secs_ += step_secs_;
  // FedAsync staleness weighting: discount by 1/(1+staleness) against the
  // live global version. The factor multiplies into the fold coefficient
  // of the fused axpy sweep — no extra pass over the tensor.
  double scale = 1.0;
  if (cfg_.live_version != nullptr &&
      *cfg_.live_version > in_flight_->model_version) {
    scale = 1.0 / (1.0 + static_cast<double>(*cfg_.live_version -
                                             in_flight_->model_version));
  }
  // A fold that meets the goal is followed by the Send's finalize: let it
  // leave a full ring parked, so one sweep folds it and divides.
  if (goal_met(aggregated_ + 1,
               acc_.updates_folded() + in_flight_->updates_folded)) {
    acc_.mark_closing();
  }
  acc_.add(*in_flight_, plane_.tensor(cfg_.node, *in_flight_), scale);
  ++aggregated_;
  // The eBPF sidecar observes the execution and records metrics (§4.3).
  plane_.record_agg_exec(cfg_.node, step_secs_);
  // Folded: release the payload (its shm buffer recycles; a real tensor
  // parked in the fold ring stays alive until the ring sweeps it, or until
  // the finalize of a closing fold).
  release(*in_flight_);
  in_flight_.reset();
  processing_ = false;
  if (cfg_.fail_after_folds > 0 && aggregated_ >= cfg_.fail_after_folds &&
      !sent_) {
    // Injected crash, synchronously after the k-th fold and *before* any
    // Send this fold would have triggered — when k equals the goal, the
    // crash lands exactly between the buffer sealing and its emission.
    // The handler is copied out first: fail() leaves cfg_ intact but the
    // handler may rearm this instance, which replaces cfg_ mid-call.
    auto fn = cfg_.on_failed;
    fail();
    if (fn) fn();
    return;
  }
  if (goal_reached()) {
    do_send();
  } else {
    pump();
  }
}

void AggregatorRuntime::do_send() {
  sent_at_ = sim_.now();
  ModelUpdate result = acc_.take_update(version_, cfg_.id, cfg_.result_bytes);
  ++emissions_;
  if (cfg_.recurring) {
    // FedBuff emit-and-continue: the buffer resets in place and the
    // instance keeps aggregating toward the (possibly re-set) goal.
    // Updates already queued in the FIFO stay queued and count toward the
    // next buffer.
    acc_.reset();
    aggregated_ = 0;
    received_ = static_cast<std::uint32_t>(fifo_.size());
    version_ = 0;
    for (std::size_t i = 0; i < fifo_.size(); ++i) {
      version_ = std::max(version_, fifo_[i].model_version);
    }
    if (fifo_.empty()) first_arrival_at_ = -1.0;
    // Pool waiters for consumed updates were used up; re-arm enough for
    // the next buffer (buffered deliveries count as already pulled).
    if (cfg_.pull_from_pool) pulled_ = received_;
  } else {
    sent_ = true;
  }
  // Send is the ack point of the lease protocol: everything folded into
  // this emission is now the consumer's responsibility. Updates still
  // buffered for the *next* emission (recurring) or left over past the
  // goal stay retained — they have not been emitted yet.
  ack_leases(fifo_.size());
  if (cfg_.consumer != 0) {
    plane_.send(cfg_.id, cfg_.node, cfg_.consumer, std::move(result));
  } else if (cfg_.on_result) {
    // Invoke through a copy: the callback may `rearm` this instance (the
    // streaming hierarchy's self-re-arm after a batch), which replaces
    // `cfg_` — including the std::function we would otherwise be executing
    // as it is destroyed.
    ResultFn fn = cfg_.on_result;
    fn(std::move(result));
  }
  if (cfg_.recurring && started_ && !processing_ && !sent_) {
    // The callback may have adjusted the goal for the next buffer (a
    // re-arm or stop mid-callback leaves these as no-ops). Keep pulling
    // and folding — the stream continues.
    maybe_pull();
    pump();
    maybe_complete();
  }
}

}  // namespace lifl::fl
