#include "src/systems/training_experiment.hpp"

#include <algorithm>
#include <cmath>
#include <memory>

#include "src/control/selector.hpp"

namespace lifl::sys {

namespace calib = sim::calib;

namespace {

/// Mutable state of one run, owned on the stack of run() and shared with
/// the event closures.
struct RunState {
  sim::Simulator sim;
  std::unique_ptr<sim::Cluster> cluster;
  std::unique_ptr<dp::DataPlane> plane;
  std::unique_ptr<AggregationService> service;
  std::unique_ptr<ctrl::Selector> selector;
  wl::ClientPopulation population;
  wl::ArrivalTracker arrivals{60.0};
  sim::Rng rng;
  TrainingResult result;
  double cpu_at_round_start = 0.0;
  bool done = false;
};

double total_cpu_secs(RunState& st) {
  st.plane->settle_idle_costs();
  return st.cluster->total_cpu().total_seconds(calib::kCpuHz);
}

}  // namespace

TrainingResult TrainingExperiment::run() {
  RunState st;
  st.rng = sim::Rng(cfg_.seed);
  st.cluster = std::make_unique<sim::Cluster>(st.sim, cfg_.cluster_nodes);
  st.plane = std::make_unique<dp::DataPlane>(*st.cluster, system_.plane,
                                             st.rng.split(1));
  st.service =
      std::make_unique<AggregationService>(*st.cluster, *st.plane, system_);
  ctrl::Selector::Config sel_cfg;
  sel_cfg.heartbeat_timeout_secs = cfg_.heartbeat_timeout_secs;
  st.selector = std::make_unique<ctrl::Selector>(st.sim, sel_cfg);
  sim::Rng pop_rng = st.rng.split(2);
  st.population = wl::ClientPopulation::synthetic(
      cfg_.population, cfg_.mobile_clients, pop_rng);
  st.result.system = system_.name;

  // Serverful static fleet: provisioned once for peak load and kept warm.
  if (system_.scaling == ScalingMode::kAlwaysOn) {
    const std::size_t data_nodes =
        cfg_.cluster_nodes > 1 ? cfg_.cluster_nodes - 1 : 1;
    const auto per_node_peak = static_cast<std::uint32_t>(std::ceil(
        static_cast<double>(cfg_.active_per_round) /
        static_cast<double>(data_nodes)));
    const std::uint32_t leaves = static_cast<std::uint32_t>(std::ceil(
        static_cast<double>(per_node_peak) /
        static_cast<double>(system_.updates_per_leaf)));
    std::vector<std::uint32_t> fleet(cfg_.cluster_nodes, leaves + 1);
    fleet[system_.dedicated_top_node] = 2;  // top + spare
    st.service->prewarm(fleet);
  }

  // ---- Fig. 10(b)/(e) sampler: active aggregators over time.
  auto sampler = std::make_shared<std::function<void()>>();
  *sampler = [&st, this, wsampler = std::weak_ptr<std::function<void()>>(
                             sampler)]() {
    if (st.done) return;
    // Serverful fleets count their parked (still-provisioned) instances;
    // serverless pods only count while they actually run a task.
    std::size_t active = st.service->live_instances();
    if (system_.scaling == ScalingMode::kAlwaysOn) {
      active += st.service->warm_instances();
    }
    st.result.active_aggs.emplace_back(st.sim.now(), active);
    if (auto s = wsampler.lock()) {
      st.sim.schedule_daemon_after(cfg_.sample_period_secs, *s);
    }
  };
  st.sim.schedule_daemon_after(cfg_.sample_period_secs, *sampler);

  // ---- Round driver.
  auto start_round = std::make_shared<std::function<void(std::uint32_t)>>();
  *start_round = [&st, this, start_round](std::uint32_t round) {
    const double t0 = st.sim.now();
    st.cpu_at_round_start = total_cpu_secs(st);

    // Client selection (diversity draw over the population).
    const auto selected =
        st.population.sample(cfg_.active_per_round, st.rng);

    // Placement: map each incoming update to a worker node (§5.1).
    const auto assignment = st.service->place_updates(selected.size());
    std::vector<std::uint32_t> counts(cfg_.cluster_nodes, 0);
    for (const auto node : assignment) counts[node]++;

    // Arm the aggregation hierarchy for this round (§5.2).
    st.service->arm(
        counts, round + 1, cfg_.model.bytes(),
        [&st, this, round, t0, start_round](
            const AggregationService::BatchResult& batch) {
          // Evaluation task on the completing node (Fig. 4 "Eval.").
          sim::Node& eval_node = st.cluster->node(
              batch.global_update.producer != 0
                  ? st.plane->node_of(batch.global_update.producer)
                        .value_or(system_.dedicated_top_node)
                  : system_.dedicated_top_node);
          const double eval_cycles =
              calib::kEvalSecs * eval_node.config().cpu_hz;
          eval_node.cores().acquire(calib::kEvalSecs, [&st, this, round, t0,
                                                       start_round, batch,
                                                       &eval_node,
                                                       eval_cycles]() {
            eval_node.cpu().add(sim::CostTag::kEvaluation, eval_cycles);

            RoundRecord rec;
            rec.round = round + 1;
            rec.started_at = t0;
            rec.completed_at = st.sim.now();
            rec.act = batch.act();
            rec.cpu_secs = total_cpu_secs(st) - st.cpu_at_round_start;
            rec.accuracy = cfg_.curve.sample_accuracy(round + 1, st.rng);
            rec.created = batch.created;
            rec.reused = batch.reused;
            rec.nodes_used = batch.nodes_used;
            st.result.rounds.push_back(rec);
            st.result.final_accuracy = rec.accuracy;

            st.service->finish_batch();

            const double cpu_hours = total_cpu_secs(st) / 3600.0;
            if (st.result.secs_to_target < 0 &&
                cfg_.curve.mean_accuracy(round + 1) >=
                    cfg_.target_accuracy) {
              st.result.secs_to_target = st.sim.now();
              st.result.cpu_hours_to_target = cpu_hours;
            }
            const bool out_of_budget =
                st.sim.now() > cfg_.max_hours * 3600.0;
            if (round + 1 < cfg_.max_rounds && !out_of_budget) {
              (*start_round)(round + 1);
            } else {
              st.done = true;
            }
          });
        });

    // Dispatch the selected clients: hibernation + local training, then the
    // upload lands at the assigned node's gateway.
    auto dispatch = [&st, this](const wl::ClientProfile& profile,
                                sim::NodeId dst, std::uint32_t version) {
      const double delay = wl::ClientPopulation::round_delay_secs(
          profile, cfg_.base_train_secs, st.rng);
      fl::ModelUpdate u;
      u.model_version = version;
      u.producer = profile.id;
      u.sample_count = profile.samples;
      u.logical_bytes = cfg_.model.bytes();
      const double uplink = profile.uplink_bytes_per_sec;
      st.sim.schedule_after(delay, [&st, dst, u, uplink]() mutable {
        st.selector->report_done(u.producer);
        st.plane->client_upload(dst, std::move(u), uplink,
                                [&st]() { st.arrivals.record(st.sim.now()); });
      });
    };
    for (std::size_t i = 0; i < selected.size(); ++i) {
      const auto& profile = st.population[selected[i]];
      const sim::NodeId dst = assignment[i];
      if (cfg_.dropout_rate > 0 && st.rng.uniform() < cfg_.dropout_rate) {
        // The client goes silent mid-round. Its keep-alive heartbeats lapse
        // (§3); the selector detects the failure and the coordinator
        // substitutes a spare client from the over-provisioned cohort,
        // which runs a fresh local round.
        st.selector->track(profile.id,
                           [&st, this, dst, round]() {
          const auto spare = st.population.sample(1, st.rng);
          const auto& spare_profile = st.population[spare.front()];
          const double delay = wl::ClientPopulation::round_delay_secs(
              spare_profile, cfg_.base_train_secs, st.rng);
          fl::ModelUpdate u;
          u.model_version = round + 1;
          u.producer = spare_profile.id;
          u.sample_count = spare_profile.samples;
          u.logical_bytes = cfg_.model.bytes();
          const double uplink = spare_profile.uplink_bytes_per_sec;
          st.sim.schedule_after(delay, [&st, dst, u, uplink]() mutable {
            st.plane->client_upload(dst, std::move(u), uplink, [&st]() {
              st.arrivals.record(st.sim.now());
            });
          });
        });
        continue;
      }
      // Healthy clients heartbeat throughout training and report on upload;
      // we only model the failure path explicitly to keep event counts low.
      dispatch(profile, dst, round + 1);
    }
  };

  (*start_round)(0);
  st.sim.run();

  // Break the driver's self-reference cycle now that the run is over.
  *start_round = nullptr;
  *sampler = nullptr;

  st.result.wall_secs = st.sim.now();
  st.result.cpu_hours_total = total_cpu_secs(st) / 3600.0;
  st.result.arrivals_per_min = st.arrivals.bins();
  st.result.failures_detected = st.selector->failures_detected();
  return st.result;
}

}  // namespace lifl::sys
