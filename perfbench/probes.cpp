#include "perfbench/probes.hpp"

#include <vector>

#include "perfbench/common.hpp"
#include "src/control/campaign_planner.hpp"
#include "src/dataplane/dataplane.hpp"
#include "src/fl/fedavg.hpp"
#include "src/shm/object_store.hpp"
#include "src/sim/node.hpp"
#include "src/sim/random.hpp"
#include "src/sim/simulator.hpp"

namespace perfbench::probes {

using namespace lifl;

namespace {

constexpr int kReps = 3;

/// Median over kReps of `body()`'s wall time divided by `ops`, in ns.
template <typename F>
double median_ns_per_op(double ops, F&& body) {
  std::vector<double> ns;
  for (int r = 0; r < kReps; ++r) {
    const std::int64_t t0 = now_ns();
    body();
    ns.push_back(static_cast<double>(now_ns() - t0) / ops);
  }
  return median(ns);
}

/// Keeps probe results observable so the timed loops are not folded away.
volatile double g_sink = 0.0;

wl::ClientPopulation population_of(const ProbeInputs& in) {
  sim::Rng rng(in.seed);
  return in.tiers.enabled()
             ? wl::ClientPopulation::tiered(in.clients_per_group, in.tiers,
                                            rng)
             : wl::ClientPopulation::synthetic(in.clients_per_group,
                                               /*mobile=*/true, rng);
}

/// Hold-model state: every dispatched event schedules its successor.
struct Hold {
  sim::Simulator* sim;
  sim::Rng rng{7};
  std::uint64_t left = 0;
  void fire() {
    if (left == 0) return;
    --left;
    sim->schedule_at(sim->now() + rng.uniform(0.0, 1.0), [this] { fire(); });
  }
};

}  // namespace

double sim_core_ns_per_event() {
  constexpr std::uint64_t kEvents = 1'000'000;
  constexpr int kPending = 1024;
  return median_ns_per_op(kEvents, [] {
    sim::Simulator sim;
    Hold h{&sim};
    h.left = kEvents - kPending;
    for (int i = 0; i < kPending; ++i) {
      sim.schedule_at(h.rng.uniform(0.0, 1.0), [&h] { h.fire(); });
    }
    sim.run();
    g_sink = g_sink + static_cast<double>(sim.dispatched());
  });
}

double replan_ns(const ProbeInputs& in) {
  constexpr int kCalls = 1'000'000;
  ctrl::CampaignPlanner::Config pc;
  pc.updates_per_leaf = in.updates_per_leaf;
  pc.middle_fanin = in.middle_fanin;
  const double target = static_cast<double>(in.per_group_target);
  return median_ns_per_op(kCalls, [&] {
    ctrl::CampaignPlanner planner(pc, in.groups);
    planner.plan_round(std::vector<double>(in.groups, target));
    std::uint64_t changed = 0;
    for (int i = 0; i < kCalls; ++i) {
      const double backlog = target * (0.25 + (i % 97) / 64.0);
      changed += planner.replan(static_cast<std::size_t>(i) % in.groups,
                                backlog)
                     .has_value();
    }
    g_sink = g_sink + static_cast<double>(changed);
  });
}

double select_ns(const ProbeInputs& in) {
  constexpr int kPicks = 1'000'000;
  const wl::ClientPopulation pop = population_of(in);
  ctrl::SelectionStrategy::Config sc;
  sc.seed ^= in.seed;
  return median_ns_per_op(kPicks, [&] {
    auto strategy = ctrl::make_selection_strategy(in.selector, sc, 0);
    for (std::size_t t = 0; t < wl::kTierCount; ++t) {
      strategy->report(static_cast<wl::DeviceTier>(t), 10.0 * (t + 1), true);
    }
    std::size_t sum = 0;
    for (int i = 0; i < kPicks; ++i) {
      sum += strategy->pick(pop, 1, static_cast<std::uint64_t>(i), 0);
    }
    g_sink = g_sink + static_cast<double>(sum);
  });
}

double arrival_ns(const ProbeInputs& in) {
  constexpr int kArrivals = 1'000'000;
  const wl::ClientPopulation pop = population_of(in);
  const wl::ArrivalProcess process(in.arrivals);
  return median_ns_per_op(kArrivals, [&] {
    sim::Rng rng(in.seed);
    double t = 0.0;
    double samples = 0.0;
    for (int i = 0; i < kArrivals; ++i) {
      const std::size_t idx = static_cast<std::size_t>(
          (static_cast<std::uint64_t>(i) * 2654435761ull) % pop.size());
      samples += pop[idx].samples;
      t = process.next_after(t, rng);
    }
    g_sink = g_sink + t + samples;
  });
}

UploadCost upload(const ProbeInputs& in) {
  constexpr int kBatches = 50;
  constexpr int kBatch = 1000;
  constexpr double kUploads = kBatches * kBatch;
  UploadCost cost;
  cost.ns = median_ns_per_op(kUploads, [&] {
    sim::Simulator sim;
    sim::Cluster cluster(sim, 1);
    dp::DataPlane plane(cluster, in.plane, sim::Rng(in.seed));
    for (int b = 0; b < kBatches; ++b) {
      for (int i = 0; i < kBatch; ++i) {
        fl::ModelUpdate u;
        u.producer = static_cast<fl::ParticipantId>(b * kBatch + i);
        u.sample_count = 100;
        u.logical_bytes = in.model_bytes;
        if (!in.tensors.empty()) u.tensor = in.tensors[i % in.tensors.size()];
        plane.client_upload(0, std::move(u), 1e6);
      }
      sim.run();
    }
    cost.events_per_upload = static_cast<double>(sim.dispatched()) / kUploads;
  });
  return cost;
}

double shm_put_get_release_ns(const ProbeInputs& in) {
  constexpr int kOps = 1'000'000;
  return median_ns_per_op(kOps, [&] {
    shm::ObjectStore store(sim::Rng(in.seed));
    std::size_t seen = 0;
    for (int i = 0; i < kOps; ++i) {
      if (in.tensors.empty()) {
        const shm::ObjectKey key = store.put_logical(in.model_bytes);
        seen += store.get<int>(key) == nullptr;
        store.release(key);
      } else {
        const shm::ObjectKey key = store.put<ml::Tensor>(
            in.tensors[i % in.tensors.size()], in.model_bytes);
        seen += store.get<ml::Tensor>(key)->size();
        store.release(key);
      }
    }
    g_sink = g_sink + static_cast<double>(seen);
  });
}

double fold_gbps(const ProbeInputs& in) {
  if (in.tensors.empty()) return 0.0;
  constexpr int kFolds = 64;
  const double bytes = static_cast<double>(in.tensors[0]->bytes());
  const double ns_per_fold = median_ns_per_op(kFolds, [&] {
    fl::FedAvgAccumulator acc;
    for (int i = 0; i < kFolds; ++i) {
      acc.add(in.tensors[i % in.tensors.size()],
              100 + static_cast<std::uint64_t>(i));
    }
    g_sink = g_sink + (*acc.result())[0];
  });
  return bytes / ns_per_fold;  // bytes per ns == GB/s
}

}  // namespace perfbench::probes
