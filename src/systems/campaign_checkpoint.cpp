#include "src/systems/campaign_checkpoint.hpp"

#include <array>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <unistd.h>
#endif

#include "src/sim/cpu_accounting.hpp"
#include "src/sim/snapshot.hpp"
#include "src/systems/campaign_config.hpp"

namespace lifl::sys {

namespace {

constexpr std::uint32_t kSecResult = 1;
constexpr std::uint32_t kSecShards = 2;
constexpr std::uint32_t kSecGroups = 3;
constexpr std::uint32_t kSecPlanner = 4;
constexpr std::uint32_t kSecTop = 5;
constexpr std::uint32_t kSecCut = 6;

constexpr std::size_t kCpuTags =
    static_cast<std::size_t>(sim::CostTag::kCount);

/// FNV-1a accumulator over the config's simulation-shaping fields.
struct Digest {
  std::uint64_t h = 1469598103934665603ull;
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
  void mix(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    mix(bits);
  }
};

void save_resource(sim::Serializer& s, const sim::Resource& r) {
  const auto img = r.stats_image();
  s.f64(img.busy_integral);
  s.f64(img.total_wait);
  s.f64(img.last_change);
  s.f64(img.stats_epoch);
  s.u64(img.completed);
}

void load_resource(sim::Deserializer& d, sim::Resource& r) {
  sim::Resource::StatsImage img;
  img.busy_integral = d.f64();
  img.total_wait = d.f64();
  img.last_change = d.f64();
  img.stats_epoch = d.f64();
  img.completed = d.u64();
  r.restore_stats_image(img);
}

/// Every queue the campaign model owns must be quiescent at a round
/// boundary: a snapshot cannot carry in-flight work (only the cut replay
/// can re-create it), so anything non-idle here is a driver bug.
void require_quiescent(const detail::CampaignState& st) {
  if (st.sharded->pending_regular() != 0) {
    throw std::logic_error(
        "CampaignCheckpoint: shards have pending events at the boundary");
  }
  for (const detail::Group& g : st.groups) {
    dp::DataPlane::NodeEnv& env = g.plane->env(0);
    if (env.pool.depth() != 0 || env.pool.waiter_count() != 0 ||
        env.pool.depth_watcher_count() != 0 || env.pool.leases() != 0) {
      throw std::logic_error(
          "CampaignCheckpoint: update pool not quiescent at the boundary");
    }
    if (env.store.size() != 0) {
      throw std::logic_error(
          "CampaignCheckpoint: shm store holds live objects at the boundary");
    }
    if (env.gateway.busy() != 0 || env.gateway.queue_length() != 0) {
      throw std::logic_error(
          "CampaignCheckpoint: gateway busy at the boundary");
    }
    if (!g.live_sessions.empty() || !g.parked.empty()) {
      throw std::logic_error(
          "CampaignCheckpoint: live client upload sessions at the boundary");
    }
  }
}

void save_tier_counts(
    sim::Serializer& s,
    const std::array<std::uint64_t, wl::kTierCount>& counts) {
  for (std::uint64_t c : counts) s.u64(c);
}

void load_tier_counts(sim::Deserializer& d,
                      std::array<std::uint64_t, wl::kTierCount>& counts) {
  for (std::uint64_t& c : counts) c = d.u64();
}

}  // namespace

std::uint64_t CampaignCheckpoint::config_digest(
    const ShardedCampaignConfig& cfg) {
  Digest d;
  for_each_field(cfg, [&d](const Field& f, const auto& m) {
    using M = std::decay_t<decltype(m)>;
    if constexpr (std::is_floating_point_v<M>) {
      if (f.digest) d.mix(m);
    } else if constexpr (std::is_integral_v<M> || std::is_enum_v<M>) {
      if (f.digest) d.mix(static_cast<std::uint64_t>(m));
    }
  });
  return d.h;
}

std::vector<std::uint8_t> CampaignCheckpoint::encode_boundary(
    const detail::CampaignState& st, const ShardedCampaignResult& partial,
    std::uint32_t next_round) {
  require_quiescent(st);
  const ShardedCampaignConfig& cfg = *st.cfg;
  const bool orchestrated = cfg.hierarchy != HierarchyMode::kFixed;

  sim::Serializer s;
  s.u64(kMagic);
  s.u32(kVersion);
  s.u64(config_digest(cfg));
  s.u32(static_cast<std::uint32_t>(st.sharded->shard_count()));
  s.u32(static_cast<std::uint32_t>(cfg.groups));
  s.boolean(orchestrated);
  s.u32(next_round);

  s.begin_section(kSecResult);
  s.pod_vec(partial.round_started_at);
  s.pod_vec(partial.round_completed_at);
  s.pod_vec(partial.round_samples);
  s.pod_vec(partial.round_weight);
  s.pod_vec(partial.round_spawned);
  s.pod_vec(partial.round_reused);
  s.pod_vec(partial.round_refolded);
  s.u64(partial.spawned_total);
  s.u64(partial.reused_total);
  s.u64(partial.replans);
  s.u64(partial.leaf_drains);
  s.u32(partial.peak_leaves);
  s.u64(partial.leaf_crashes);
  s.u64(partial.middle_crashes);
  s.u64(partial.refolded_updates);
  s.u64(partial.reinjected_partials);
  s.u64(partial.quorum_seals);
  s.u64(partial.quorum_abandoned);
  s.f64(partial.recovery_secs);
  // v5: two reserved zero words where the window counts were (they are
  // process-local now, like the wall time), then the cross-shard posts so
  // far (this process's on top of any restored base), so a resumed run
  // reports the uninterrupted run's total.
  s.u64(0);
  s.u64(0);
  s.u64(partial.cross_posts + st.sharded->cross_posts());
  s.u64(st.top_crashes);
  s.f64(st.top_recovery_secs);
  s.u64(st.ckpt_marks);
  // v4: the auto-quota controller (async mode; inert zeros otherwise).
  s.u64(st.async_quota);
  s.f64(st.quota_ratio);
  s.boolean(st.quota_ratio_init);
  s.u64(st.quota_adjustments);
  s.end_section();

  s.begin_section(kSecShards);
  for (std::size_t i = 0; i < st.sharded->shard_count(); ++i) {
    sim::Simulator& shard = st.sharded->shard(i);
    s.f64(shard.now());
    s.u64(shard.dispatched());
  }
  s.end_section();

  s.begin_section(kSecGroups);
  for (const detail::Group& g : st.groups) {
    save(s, g.rng);
    s.u64(g.participant_counter);
    s.u64(g.total_uploads);
    s.u64(g.upload_retries);
    s.u64(g.upload_drops);
    s.u64(g.upload_corruptions);
    s.u64(g.overflow_rejects);
    s.u64(g.outage_rejects);

    // v4: edge-client lifecycle + selection telemetry.
    s.u64(g.lifecycle.sessions);
    s.u64(g.lifecycle.completed);
    s.u64(g.lifecycle.disconnects);
    s.u64(g.lifecycle.resumes);
    s.u64(g.lifecycle.chunks_sent);
    s.u64(g.lifecycle.chunks_resent);
    s.u64(g.selection_redraws);
    s.u32(g.offline_peak);
    s.f64(g.gate_wait_secs);
    save_tier_counts(s, g.tier_selected);
    save_tier_counts(s, g.tier_completed);
    save_tier_counts(s, g.tier_disconnects);
    save_tier_counts(s, g.tier_stragglers);
    // The strategy's learned per-tier scores (zeros for the legacy random
    // oracle, which carries no state).
    const ctrl::SelectionStrategy::State sel =
        g.strategy ? g.strategy->state() : ctrl::SelectionStrategy::State{};
    for (const ctrl::TierScore& ts : sel.scores) {
      s.f64(ts.dur);
      s.boolean(ts.dur_init);
      s.f64(ts.succ);
      s.boolean(ts.succ_init);
    }

    dp::DataPlane::NodeEnv& env = g.plane->env(0);
    s.u64(env.pool.max_depth());
    s.u64(env.pool.total_pushed());
    s.f64(env.pool.total_queueing_delay());

    save(s, env.store.rng_state());
    const shm::ObjectStoreStats& os = env.store.stats();
    s.u64(os.puts);
    s.u64(os.gets);
    s.u64(os.releases);
    s.u64(os.recycled_buffers);
    s.u64(os.bytes_in_use);
    s.u64(os.peak_bytes);
    s.u64(os.pool_bytes);

    s.u32(static_cast<std::uint32_t>(env.gateway.queue_count()));
    for (std::size_t q = 0; q < env.gateway.queue_count(); ++q) {
      save_resource(s, env.gateway.queue(q));
    }

    sim::Node& node = g.cluster->node(0);
    save_resource(s, node.cores());
    save_resource(s, node.kernel_net());
    save_resource(s, node.nic());
    for (std::size_t t = 0; t < kCpuTags; ++t) {
      s.f64(node.cpu().cycles(static_cast<sim::CostTag>(t)));
    }
    s.f64(node.cpu().total_cycles());

    for (const double v : env.metrics.slots()) s.f64(v);

    s.u64(env.broker.bytes_buffered());
    s.u64(env.broker.peak_bytes());
    s.u64(env.broker.total_bytes());
    s.u64(env.broker.messages());

    s.u64(g.plane->inter_node_bytes());
    s.u64(g.plane->shm_deliveries());

    if (orchestrated) {
      s.u64(g.hier->warm_pool_size());
      s.u64(g.hier->leaf_slot_count());
    }
  }
  s.end_section();

  if (orchestrated) {
    s.begin_section(kSecPlanner);
    for (std::size_t gi = 0; gi < cfg.groups; ++gi) {
      s.f64(st.planner->estimate_initialized(gi) ? st.planner->estimate(gi)
                                                 : 0.0);
      s.boolean(st.planner->estimate_initialized(gi));
      s.u32(st.planner->current(gi));
      s.u32(st.planner->version(gi));
    }
    s.end_section();
  }

  s.begin_section(kSecTop);
  s.boolean(st.top_rt != nullptr);
  s.end_section();

  return s.take();
}

std::vector<std::uint8_t> CampaignCheckpoint::with_cut(
    const std::vector<std::uint8_t>& boundary, double mark) {
  sim::Serializer s;
  s.raw(boundary.data(), boundary.size());
  s.begin_section(kSecCut);
  s.f64(mark);
  s.end_section();
  return s.take();
}

std::size_t CampaignCheckpoint::cut_trailer_bytes() {
  return sizeof(std::uint32_t) + sizeof(std::uint64_t) + sizeof(double);
}

CheckpointCut CampaignCheckpoint::restore(
    const std::vector<std::uint8_t>& blob, detail::CampaignState& st,
    ShardedCampaignResult& partial) {
  const ShardedCampaignConfig& cfg = *st.cfg;
  const bool orchestrated = cfg.hierarchy != HierarchyMode::kFixed;
  sim::Deserializer d(blob);

  if (d.u64() != kMagic) {
    throw sim::SnapshotError(
        "campaign snapshot: bad magic (not a LIFL snapshot)");
  }
  const std::uint32_t version = d.u32();
  if (version != kVersion) {
    throw sim::SnapshotError("campaign snapshot: version " +
                             std::to_string(version) +
                             " unsupported (reader is v" +
                             std::to_string(kVersion) + ")");
  }
  const std::uint64_t digest = d.u64();
  if (digest != config_digest(cfg)) {
    throw sim::SnapshotError(
        "campaign snapshot: config digest mismatch — the blob was cut from "
        "a different campaign configuration");
  }
  const std::uint32_t shards = d.u32();
  if (shards != st.sharded->shard_count()) {
    throw sim::SnapshotError(
        "campaign snapshot: shard count mismatch (blob " +
        std::to_string(shards) + ", campaign " +
        std::to_string(st.sharded->shard_count()) + ")");
  }
  const std::uint32_t groups = d.u32();
  if (groups != st.groups.size()) {
    throw sim::SnapshotError("campaign snapshot: group count mismatch");
  }
  if (d.boolean() != orchestrated) {
    throw sim::SnapshotError("campaign snapshot: hierarchy mode mismatch");
  }
  CheckpointCut cut;
  cut.round = d.u32();

  d.expect_section(kSecResult);
  partial.round_started_at = d.pod_vec<double>();
  partial.round_completed_at = d.pod_vec<double>();
  partial.round_samples = d.pod_vec<std::uint64_t>();
  partial.round_weight = d.pod_vec<double>();
  partial.round_spawned = d.pod_vec<std::uint64_t>();
  partial.round_reused = d.pod_vec<std::uint64_t>();
  partial.round_refolded = d.pod_vec<std::uint64_t>();
  partial.spawned_total = d.u64();
  partial.reused_total = d.u64();
  partial.replans = d.u64();
  partial.leaf_drains = d.u64();
  partial.peak_leaves = d.u32();
  partial.leaf_crashes = d.u64();
  partial.middle_crashes = d.u64();
  partial.refolded_updates = d.u64();
  partial.reinjected_partials = d.u64();
  partial.quorum_seals = d.u64();
  partial.quorum_abandoned = d.u64();
  partial.recovery_secs = d.f64();
  d.u64();  // reserved (window counts of older blobs; process-local)
  d.u64();
  partial.cross_posts = d.u64();
  st.top_crashes = d.u64();
  st.top_recovery_secs = d.f64();
  st.ckpt_marks = d.u64();
  st.async_quota = d.u64();
  st.quota_ratio = d.f64();
  st.quota_ratio_init = d.boolean();
  st.quota_adjustments = d.u64();
  d.end_section();

  d.expect_section(kSecShards);
  for (std::size_t i = 0; i < st.sharded->shard_count(); ++i) {
    const double now = d.f64();
    const std::uint64_t dispatched = d.u64();
    st.sharded->shard(i).restore_clock(now, dispatched);
  }
  d.end_section();

  d.expect_section(kSecGroups);
  for (detail::Group& g : st.groups) {
    load(d, g.rng);
    g.participant_counter = d.u64();
    g.total_uploads = d.u64();
    g.upload_retries = d.u64();
    g.upload_drops = d.u64();
    g.upload_corruptions = d.u64();
    g.overflow_rejects = d.u64();
    g.outage_rejects = d.u64();

    g.lifecycle.sessions = d.u64();
    g.lifecycle.completed = d.u64();
    g.lifecycle.disconnects = d.u64();
    g.lifecycle.resumes = d.u64();
    g.lifecycle.chunks_sent = d.u64();
    g.lifecycle.chunks_resent = d.u64();
    g.selection_redraws = d.u64();
    g.offline_peak = d.u32();
    g.gate_wait_secs = d.f64();
    load_tier_counts(d, g.tier_selected);
    load_tier_counts(d, g.tier_completed);
    load_tier_counts(d, g.tier_disconnects);
    load_tier_counts(d, g.tier_stragglers);
    ctrl::SelectionStrategy::State sel;
    for (ctrl::TierScore& ts : sel.scores) {
      ts.dur = d.f64();
      ts.dur_init = d.boolean();
      ts.succ = d.f64();
      ts.succ_init = d.boolean();
    }
    if (g.strategy) g.strategy->restore(sel);

    dp::DataPlane::NodeEnv& env = g.plane->env(0);
    const std::uint64_t max_depth = d.u64();
    const std::uint64_t pushed = d.u64();
    const double delay = d.f64();
    env.pool.restore_stats(static_cast<std::size_t>(max_depth), pushed,
                           delay);

    const sim::Rng::State store_rng = sim::load_rng_state(d);
    shm::ObjectStoreStats os;
    os.puts = d.u64();
    os.gets = d.u64();
    os.releases = d.u64();
    os.recycled_buffers = d.u64();
    os.bytes_in_use = static_cast<std::size_t>(d.u64());
    os.peak_bytes = static_cast<std::size_t>(d.u64());
    os.pool_bytes = static_cast<std::size_t>(d.u64());
    env.store.restore(store_rng, os);

    const std::uint32_t queues = d.u32();
    if (queues != env.gateway.queue_count()) {
      throw sim::SnapshotError(
          "campaign snapshot: gateway queue count mismatch");
    }
    for (std::size_t q = 0; q < env.gateway.queue_count(); ++q) {
      load_resource(d, env.gateway.queue(q));
    }

    sim::Node& node = g.cluster->node(0);
    load_resource(d, node.cores());
    load_resource(d, node.kernel_net());
    load_resource(d, node.nic());
    std::array<double, kCpuTags> cycles{};
    for (std::size_t t = 0; t < kCpuTags; ++t) cycles[t] = d.f64();
    const double total = d.f64();
    node.cpu().restore(cycles, total);

    dp::MetricsMap::Slots metrics{};
    for (double& v : metrics) v = d.f64();
    env.metrics.restore(metrics);

    const std::uint64_t bbuf = d.u64();
    const std::uint64_t bpeak = d.u64();
    const std::uint64_t btotal = d.u64();
    const std::uint64_t bmsgs = d.u64();
    env.broker.restore(static_cast<std::size_t>(bbuf),
                       static_cast<std::size_t>(bpeak), btotal, bmsgs);

    const std::uint64_t inter = d.u64();
    const std::uint64_t shm_d = d.u64();
    g.plane->restore_transfer_counters(inter, shm_d);

    if (orchestrated) {
      const std::uint64_t pool_n = d.u64();
      const std::uint64_t slot_n = d.u64();
      g.hier->restore_warm(static_cast<std::size_t>(pool_n),
                           static_cast<std::size_t>(slot_n));
    }
  }
  d.end_section();

  if (orchestrated) {
    d.expect_section(kSecPlanner);
    for (std::size_t gi = 0; gi < cfg.groups; ++gi) {
      const double est = d.f64();
      const bool init = d.boolean();
      const std::uint32_t leaves = d.u32();
      st.planner->restore_group(gi, est, init, leaves);
      st.planner->set_version(gi, d.u32());
    }
    d.end_section();
  }

  d.expect_section(kSecTop);
  const bool top_warm = d.boolean();
  d.end_section();
  if (top_warm) {
    // A warm top sandbox, never started: the round arm re-arms it exactly
    // as it would the instance kept warm across rounds (its spawn cost was
    // paid by the run that wrote the blob).
    fl::AggregatorRuntime::Config tc;
    tc.id = 1;
    tc.node = 0;
    tc.goal = 1;
    st.top_rt = std::make_unique<fl::AggregatorRuntime>(
        *st.groups[0].plane, std::move(tc));
  }

  d.expect_section(kSecCut);
  cut.mark = d.f64();
  d.end_section();
  if (!d.at_end()) {
    throw sim::SnapshotError("campaign snapshot: trailing bytes after cut");
  }
  return cut;
}

void CampaignCheckpoint::write_file(const std::string& path,
                                    const std::vector<std::uint8_t>& blob) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    throw std::runtime_error("CampaignCheckpoint: cannot open " + tmp);
  }
  const std::size_t n = std::fwrite(blob.data(), 1, blob.size(), f);
  bool durable = std::fflush(f) == 0;
#if defined(__unix__) || defined(__APPLE__)
  // The rename below replaces the only good blob: the new data must be on
  // stable storage *before* the swap, or an OS crash can leave the path
  // pointing at truncated bytes with the previous snapshot already gone.
  durable = durable && ::fsync(::fileno(f)) == 0;
#endif
  std::fclose(f);
  if (n != blob.size() || !durable) {
    std::remove(tmp.c_str());
    throw std::runtime_error("CampaignCheckpoint: short write to " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw std::runtime_error("CampaignCheckpoint: cannot rename " + tmp +
                             " to " + path);
  }
#if defined(__unix__) || defined(__APPLE__)
  // Persist the rename itself (directory metadata).
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, slash + 1);
  const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd >= 0) {
    (void)::fsync(dfd);
    (void)::close(dfd);
  }
#endif
}

std::vector<std::uint8_t> CampaignCheckpoint::read_file(
    const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    throw std::runtime_error("CampaignCheckpoint: cannot open " + path);
  }
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  std::vector<std::uint8_t> blob(size > 0 ? static_cast<std::size_t>(size)
                                          : 0);
  const std::size_t n = std::fread(blob.data(), 1, blob.size(), f);
  std::fclose(f);
  if (n != blob.size()) {
    throw std::runtime_error("CampaignCheckpoint: short read from " + path);
  }
  return blob;
}

}  // namespace lifl::sys
