#include "src/control/agent.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "src/dataplane/metrics_map.hpp"

namespace lifl::ctrl {

NodeAgent::NodeAgent(dp::DataPlane& plane, MetricsServer* metrics, Config cfg)
    : plane_(plane),
      metrics_(metrics),
      cfg_(cfg),
      poll_alive_(std::make_shared<bool>(false)) {}

NodeAgent::~NodeAgent() {
  stop_metrics_loop();
  terminate_all();
}

NodeAgent::Instance NodeAgent::make_instance(fl::AggregatorRuntime::Config cfg,
                                             bool warm) {
  if (warm) {
    cfg.cold_trigger = fl::ColdStartTrigger::kNone;
    cfg.cold_start_secs = 0.0;
    cfg.cold_start_cycles = 0.0;
  } else {
    cfg.cold_trigger = cfg_.cold_trigger;
    cfg.cold_start_secs = cfg_.cold_start_secs;
    cfg.cold_start_cycles = cfg_.cold_start_cycles;
  }
  Instance inst;
  inst.runtime = std::make_unique<fl::AggregatorRuntime>(plane_, cfg);
  if (cfg_.container_sidecar) {
    inst.sidecar_draw = plane_.register_idle_draw(
        cfg_.node, sim::CostTag::kSidecarContainer,
        sim::calib::kContainerSidecarIdleCores);
  }
  return inst;
}

fl::AggregatorRuntime& NodeAgent::spawn(fl::AggregatorRuntime::Config cfg,
                                        bool allow_reuse, bool warm) {
  cfg.node = cfg_.node;
  if (allow_reuse && !warm_.empty()) {
    // Opportunistic reuse (§5.3): convert an idle warm instance to the new
    // role; no startup, no state synchronization.
    Instance inst = std::move(warm_.front());
    warm_.pop_front();
    inst.runtime->convert_role(std::move(cfg));
    ++reused_;
    live_.push_back(std::move(inst));
    return *live_.back().runtime;
  }
  Instance inst = make_instance(std::move(cfg), warm);
  ++created_;
  inst.runtime->start();
  live_.push_back(std::move(inst));
  return *live_.back().runtime;
}

void NodeAgent::park(fl::AggregatorRuntime& rt) {
  auto it = std::find_if(live_.begin(), live_.end(), [&](const Instance& i) {
    return i.runtime.get() == &rt;
  });
  if (it == live_.end()) return;
  it->runtime->stop();
  warm_.push_back(std::move(*it));
  live_.erase(it);
}

void NodeAgent::terminate(fl::AggregatorRuntime& rt) {
  auto it = std::find_if(live_.begin(), live_.end(), [&](const Instance& i) {
    return i.runtime.get() == &rt;
  });
  if (it == live_.end()) return;
  destroy(*it);
  live_.erase(it);
}

void NodeAgent::destroy(Instance& inst) {
  if (inst.sidecar_draw != 0) {
    plane_.remove_idle_draw(inst.sidecar_draw);
    inst.sidecar_draw = 0;
  }
  inst.runtime.reset();
}

void NodeAgent::terminate_all() {
  for (auto& inst : live_) destroy(inst);
  live_.clear();
  terminate_warm();
}

void NodeAgent::terminate_warm() {
  for (auto& inst : warm_) destroy(inst);
  warm_.clear();
}

void NodeAgent::start_metrics_loop() {
  if (polling_ || metrics_ == nullptr) return;
  polling_ = true;
  poll_alive_ = std::make_shared<bool>(true);
  // Periodic poll-and-drain of the node's eBPF metrics map (§4.3). The
  // agent owns the rescheduling closure; the weak capture breaks the cycle.
  tick_ = std::make_shared<std::function<void()>>();
  *tick_ = [this, alive = poll_alive_,
            wtick = std::weak_ptr<std::function<void()>>(tick_)]() {
    if (!*alive) return;
    auto& m = plane_.env(cfg_.node).metrics;
    const double arrivals = m.drain(dp::MetricsMap::kArrivals);
    const double exec_sum = m.drain(dp::MetricsMap::kAggExecSum);
    const double exec_count = m.drain(dp::MetricsMap::kAggExecCount);
    metrics_->report(cfg_.node, arrivals, cfg_.metrics_poll_secs, exec_sum,
                     exec_count);
    if (auto t = wtick.lock()) {
      plane_.cluster().sim().schedule_daemon_after(cfg_.metrics_poll_secs, *t);
    }
  };
  plane_.cluster().sim().schedule_daemon_after(cfg_.metrics_poll_secs, *tick_);
}

void NodeAgent::stop_metrics_loop() {
  if (poll_alive_) *poll_alive_ = false;
  polling_ = false;
}

void NodeAgent::autoscale_gateway(double arrivals_per_sec,
                                  double secs_per_update) {
  // Cores needed so the gateway keeps up with the offered load, with one
  // spare; clamped to a sane range.
  const double demand = arrivals_per_sec * secs_per_update;
  const auto cores = static_cast<std::uint32_t>(
      std::clamp(std::ceil(demand) + 1.0, 1.0, 8.0));
  plane_.set_gateway_cores(cfg_.node, cores);
}

}  // namespace lifl::ctrl
