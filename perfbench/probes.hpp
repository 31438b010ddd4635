#pragma once

// Per-layer probes for the traced runs: each times one layer's unit of work
// in isolation, on the workload's own inputs, and returns its median cost
// over a few repetitions.

#include "perfbench/workloads.hpp"

namespace perfbench::probes {

/// `Simulator::schedule_at` + dispatch, hold model (each event schedules
/// the next), in ns per event.
double sim_core_ns_per_event();

/// `CampaignPlanner::replan` on the workload's planner shape, ns per call.
double replan_ns(const ProbeInputs& in);

/// `SelectionStrategy::pick` with the workload's policy and population,
/// ns per pick.
double select_ns(const ProbeInputs& in);

/// `ClientPopulation::operator[]` + `ArrivalProcess::next_after`, ns per
/// arrival.
double arrival_ns(const ProbeInputs& in);

struct UploadCost {
  double ns = 0.0;                ///< per upload, its simulator events included
  double events_per_upload = 0.0;
};
/// `DataPlane::client_upload` + `Simulator::run` into a one-node pool with
/// no consumer, at the workload's model size and plane.
UploadCost upload(const ProbeInputs& in);

/// `ObjectStore` put + get + release of the workload's payload, ns per
/// triple.
double shm_put_get_release_ns(const ProbeInputs& in);

/// `FedAvgAccumulator::add` over the workload's tensors: input tensor bytes
/// folded per second, in GB/s. 0 for logical-payload workloads.
double fold_gbps(const ProbeInputs& in);

}  // namespace perfbench::probes
