#pragma once

#include <cstdint>
#include <vector>

#include "src/fl/model_update.hpp"
#include "src/sim/cpu_accounting.hpp"
#include "src/sim/node.hpp"
#include "src/sim/resource.hpp"
#include "src/sim/task.hpp"

namespace lifl::dp {

/// Which contended resource a cost step executes on.
enum class StepResource : std::uint8_t {
  kCores,      ///< the node's general core pool (userspace work)
  kKernelNet,  ///< the node's kernel network-processing budget
  kNic,        ///< the node's NIC wire
  kGateway,    ///< the node's gateway cores (vertically scaled)
  kBroker,     ///< the cluster's message-broker service threads
  kLatency,    ///< pure delay, no resource (e.g. client uplink wire time)
};

/// One step of a data-plane pipeline: a service time on a resource plus the
/// CPU cycles it bills. Transfers are sequences of steps executed
/// store-and-forward, so queueing/contention at any hop shows up end to end
/// (this is what reproduces Fig. 4). A kGateway step executes on the RSS
/// queue of its flight's flow (see `StepRunner::Flight`).
struct CostStep {
  StepResource where = StepResource::kCores;
  sim::NodeId node = 0;
  double seconds = 0.0;  ///< service time on the resource
  sim::CostTag tag = sim::CostTag::kKernelNet;
  double cycles = 0.0;   ///< billed to the node's CPU ledger
};

/// Convenience: make a CPU-type step from cycles (service time = cycles/hz).
CostStep cpu_step(StepResource where, const sim::Node& node, double cycles,
                  sim::CostTag tag);

/// An immutable step list (one interned pipeline of `DataPlane`).
struct Route {
  const CostStep* steps = nullptr;
  std::uint32_t size = 0;
};

/// Runs flights — a route's steps, executed sequentially on the cluster's
/// resources — then their completions.
///
/// Flights live in a slab with a free list: the continuation each Resource
/// holds is a 16-byte {runner, index} trampoline (Task-inline), and the
/// steps are an interned `Route`, so a transfer allocates nothing once the
/// slab has grown to the in-flight high-water mark.
class StepRunner {
 public:
  /// Completion hook that takes a flight's cargo (Task-inline functors).
  using Arrival = sim::TaskFn<fl::UpdateDesc>;

  /// One transfer. The per-transfer fields — RSS flow, client wire time and
  /// the carried update's descriptor — ride on the flight; everything else
  /// is the route. A flight with no `arrive` (a resumable-upload chunk)
  /// carries no cargo.
  struct Flight {
    Route route;
    /// RSS flow key every kGateway step steers by (client / participant id).
    std::uint64_t flow = 0;
    /// Leading pure-latency step of `wire_secs` before the route: the
    /// client's uplink, which is not a cluster resource.
    bool wire = false;
    double wire_secs = 0.0;
    fl::UpdateDesc cargo;   ///< handed to `arrive` at the end
    Arrival arrive;         ///< fires first on completion (if set)
    sim::Task done;         ///< fires after `arrive` (if set)
  };

  /// `broker` serves kBroker steps; `gateways[node]` serves kGateway steps.
  StepRunner(sim::Cluster& cluster, sim::Resource& broker)
      : cluster_(cluster), broker_(broker) {}

  void set_gateways(std::vector<sim::MultiQueueResource*> gateways) {
    gateways_ = std::move(gateways);
  }

  void run(Flight&& f);

  /// Flights not yet completed.
  std::size_t in_flight() const noexcept { return in_flight_; }

 private:
  struct Slot {
    Flight f;
    std::uint32_t i = 0;  ///< next route step
  };
  struct NextFn {
    StepRunner* r;
    std::uint32_t slot;
    void operator()() const { r->advance(slot); }
  };
  static_assert(sim::is_hot_callable_v<NextFn>);

  void advance(std::uint32_t slot);
  void dispatch(std::uint32_t slot);
  void finish(std::uint32_t slot);

  sim::Cluster& cluster_;
  sim::Resource& broker_;
  std::vector<sim::MultiQueueResource*> gateways_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;
  std::size_t in_flight_ = 0;
};

}  // namespace lifl::dp
