#include "src/dataplane/cost.hpp"

#include <utility>

namespace lifl::dp {

CostStep cpu_step(StepResource where, const sim::Node& node, double cycles,
                  sim::CostTag tag) {
  CostStep s;
  s.where = where;
  s.node = node.id();
  s.seconds = cycles / node.config().cpu_hz;
  s.tag = tag;
  s.cycles = cycles;
  return s;
}

void StepRunner::run(Flight&& f) {
  std::uint32_t slot;
  if (!free_.empty()) {
    slot = free_.back();
    free_.pop_back();
    slots_[slot].f = std::move(f);
    slots_[slot].i = 0;
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.push_back(Slot{std::move(f), 0});
  }
  ++in_flight_;
  dispatch(slot);
}

void StepRunner::advance(std::uint32_t slot) {
  Slot& s = slots_[slot];
  if (s.f.wire) {
    s.f.wire = false;  // the wire step bills no cycles
  } else {
    // The step that just finished service bills its cycles to the node it
    // ran on, then the pipeline moves to the next hop.
    const CostStep& step = s.f.route.steps[s.i++];
    if (step.cycles > 0) {
      cluster_.node(step.node).cpu().add(step.tag, step.cycles);
    }
  }
  dispatch(slot);
}

void StepRunner::dispatch(std::uint32_t slot) {
  Slot& s = slots_[slot];
  const NextFn next{this, slot};
  if (s.f.wire) {
    cluster_.sim().schedule_after(s.f.wire_secs, next);
    return;
  }
  if (s.i >= s.f.route.size) {
    finish(slot);
    return;
  }
  const CostStep& step = s.f.route.steps[s.i];
  sim::Node& node = cluster_.node(step.node);
  switch (step.where) {
    case StepResource::kCores:
      node.cores().acquire(step.seconds, next);
      break;
    case StepResource::kKernelNet:
      node.kernel_net().acquire(step.seconds, next);
      break;
    case StepResource::kNic:
      node.nic().acquire(step.seconds, next);
      break;
    case StepResource::kGateway:
      gateways_[step.node]->queue_for(s.f.flow).acquire(step.seconds, next);
      break;
    case StepResource::kBroker:
      broker_.acquire(step.seconds, next);
      break;
    case StepResource::kLatency:
      cluster_.sim().schedule_after(step.seconds, next);
      break;
  }
}

void StepRunner::finish(std::uint32_t slot) {
  // Recycle the slot before the completions run: they may start flights.
  Flight& f = slots_[slot].f;
  sim::Task done = std::move(f.done);
  free_.push_back(slot);
  --in_flight_;
  if (f.arrive) {
    Arrival arrive = std::move(f.arrive);
    arrive(f.cargo);  // copied into the call before anything reuses the slot
  }
  if (done) done();
}

}  // namespace lifl::dp
