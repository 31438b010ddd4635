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

// ---------------------------------------------------------------------------
// The blob walk. One template walks the boundary image; encode_boundary
// runs it with Io<false>, where `io(x, ...)` writes each value in order,
// and restore with Io<true>, where it reads the next values into them.
// State a component keeps behind accessors goes through
// `io.state(set, values...)`: the values are its current state, which
// restore reads over and then hands to `set`.

template <class T>
struct IsVector : std::false_type {};
template <class T>
struct IsVector<std::vector<T>> : std::true_type {};
template <class T>
struct IsArray : std::false_type {};
template <class T, std::size_t N>
struct IsArray<std::array<T, N>> : std::true_type {};

/// Values the buffers read and write whole; any other struct is an image
/// with a `fields` list below.
template <class T>
constexpr bool kLeaf = std::is_arithmetic_v<T> || IsVector<T>::value ||
                       std::is_same_v<T, sim::Rng> ||
                       std::is_same_v<T, sim::Rng::State>;

template <bool In>
class Io {
 public:
  using Buffer = std::conditional_t<In, sim::Deserializer, sim::Serializer>;

  explicit Io(Buffer& b) : b_(b) {}

  template <class... T>
  void operator()(T&... x) {
    (one(x), ...);
  }

  /// A component's state behind accessors: walk `v...`, and on restore
  /// hand what was read to `set`.
  template <class Set, class... T>
  void state(Set&& set, T... v) {
    (*this)(v...);
    if constexpr (In) set(v...);
  }

  /// A {tag, length} framed section around `body`.
  template <class F>
  void section(std::uint32_t tag, F&& body) {
    if constexpr (In) {
      b_.expect_section(tag);
    } else {
      b_.begin_section(tag);
    }
    body();
    b_.end_section();
  }

 private:
  template <class T>
  void one(T& x) {
    if constexpr (IsArray<T>::value) {
      for (auto& e : x) one(e);
    } else if constexpr (!kLeaf<T>) {
      fields(*this, x);
    } else if constexpr (In) {
      read(x);
    } else {
      write(x);
    }
  }

  void read(bool& v) { v = b_.boolean(); }
  void read(double& v) { v = b_.f64(); }
  void read(sim::Rng& r) { load(b_, r); }
  void read(sim::Rng::State& r) { r = sim::load_rng_state(b_); }
  template <class T>
  void read(std::vector<T>& v) {
    v = b_.template pod_vec<T>();
  }
  template <class T>  // the integers, by width
  void read(T& v) {
    v = static_cast<T>(sizeof(T) == 4 ? b_.u32() : b_.u64());
  }

  void write(bool v) { b_.boolean(v); }
  void write(double v) { b_.f64(v); }
  void write(const sim::Rng& r) { save(b_, r); }
  void write(const sim::Rng::State& r) { save(b_, r); }
  template <class T>
  void write(const std::vector<T>& v) {
    b_.pod_vec(v);
  }
  template <class T>
  void write(T v) {
    sizeof(T) == 4 ? b_.u32(static_cast<std::uint32_t>(v)) : b_.u64(v);
  }

  Buffer& b_;
};

// One field list per image type, in its blob byte order.
template <class IoT>
void fields(IoT& io, sim::Resource::StatsImage& i) {
  io(i.busy_integral, i.total_wait, i.last_change, i.stats_epoch,
     i.completed);
}

template <class IoT>
void fields(IoT& io, shm::ObjectStoreStats& os) {
  io(os.puts, os.gets, os.releases, os.recycled_buffers, os.bytes_in_use,
     os.peak_bytes, os.pool_bytes);
}

template <class IoT>
void fields(IoT& io, ctrl::SelectionStrategy::State& sel) {
  for (ctrl::TierScore& ts : sel.scores) {
    io(ts.dur, ts.dur_init, ts.succ, ts.succ_init);
  }
}

template <class IoT>
void fields(IoT& io, dp::ResumableUpload::Counters& c) {
  io(c.sessions, c.completed, c.disconnects, c.resumes, c.chunks_sent,
     c.chunks_resent);
}

/// A result struct: its rows that are not kLocal, in row order. Rows the
/// run harvests only at its end are zero at every boundary, and zero
/// restores exactly.
template <class IoT, class T>
std::enable_if_t<(ResultTable<T>::kRows > 0)> fields(IoT& io, T& x) {
  ResultTable<T>::visit([&](const char*, auto kind, auto m) {
    if constexpr (decltype(kind)::value != RowKind::kLocal) io(x.*m);
  });
}

/// A header word: written as `want`; on restore, read and required equal.
template <class IoT, class T>
void header(IoT& io, T want, const char* what) {
  T got = want;
  io(got);
  if (got != want) {
    throw sim::SnapshotError(std::string("campaign snapshot: ") + what +
                             " mismatch (blob " + std::to_string(got) +
                             ", reader " + std::to_string(want) + ")");
  }
}

template <class IoT>
void walk_resource(IoT& io, sim::Resource& r) {
  io.state([&r](const auto& img) { r.restore_stats_image(img); },
           r.stats_image());
}

/// One group's durable state: its plain rows, then its components'.
template <class IoT>
void walk_group(IoT& io, detail::Group& g, bool orchestrated) {
#define LIFL_IO(member) io(g.member);
  LIFL_GROUP_DURABLE_FIELDS(LIFL_IO)
#undef LIFL_IO
  // The strategy's learned per-tier scores (zeros for the legacy random
  // oracle, which carries no state).
  io.state(
      [&g](const auto& sel) {
        if (g.strategy) g.strategy->restore(sel);
      },
      g.strategy ? g.strategy->state() : ctrl::SelectionStrategy::State{});

  dp::DataPlane::NodeEnv& env = g.plane->env(0);
  io.state([&env](auto... v) { env.pool.restore_stats(v...); },
           env.pool.max_depth(), env.pool.total_pushed(),
           env.pool.total_queueing_delay());
  io.state([&env](const auto&... v) { env.store.restore(v...); },
           env.store.rng_state(), env.store.stats());

  header(io, static_cast<std::uint32_t>(env.gateway.queue_count()),
         "gateway queue count");
  for (std::size_t q = 0; q < env.gateway.queue_count(); ++q) {
    walk_resource(io, env.gateway.queue(q));
  }
  sim::Node& node = g.cluster->node(0);
  walk_resource(io, node.cores());
  walk_resource(io, node.kernel_net());
  walk_resource(io, node.nic());
  io.state([&node](const auto&... v) { node.cpu().restore(v...); },
           node.cpu().tag_cycles(), node.cpu().total_cycles());

  io.state([&env](const auto& slots) { env.metrics.restore(slots); },
           env.metrics.slots());
  io.state([&env](auto... v) { env.broker.restore(v...); },
           env.broker.bytes_buffered(), env.broker.peak_bytes(),
           env.broker.total_bytes(), env.broker.messages());
  io.state([&g](auto... v) { g.plane->restore_transfer_counters(v...); },
           g.plane->inter_node_bytes(), g.plane->shm_deliveries());
  if (orchestrated) {
    io.state([&g](auto... v) { g.hier->restore_warm(v...); },
             g.hier->warm_pool_size(), g.hier->leaf_slot_count());
  }
}

/// The whole boundary image: header, then one section per part of the
/// state. `round` is the round the blob resumes.
template <class IoT>
void walk_boundary(IoT& io, detail::CampaignState& st,
                   ShardedCampaignResult& r, std::uint32_t& round) {
  const ShardedCampaignConfig& cfg = *st.cfg;
  const bool orchestrated = cfg.hierarchy != HierarchyMode::kFixed;
  sim::ShardedSimulator& sharded = *st.sharded;

  header(io, CampaignCheckpoint::kMagic, "magic (not a LIFL snapshot)");
  header(io, CampaignCheckpoint::kVersion, "version");
  // The digest also decides the shard count, group count and hierarchy
  // mode: all three are digest rows.
  header(io, CampaignCheckpoint::config_digest(cfg),
         "config digest (the blob was cut from a different campaign "
         "configuration)");
  io(round);

  io.section(kSecResult, [&] { io(r); });

  io.section(kSecShards, [&] {
    for (std::size_t i = 0; i < sharded.shard_count(); ++i) {
      sim::Simulator& shard = sharded.shard(i);
      io.state([&shard](auto... v) { shard.restore_clock(v...); },
               shard.now(), shard.dispatched());
    }
  });

  io.section(kSecGroups, [&] {
    for (detail::Group& g : st.groups) walk_group(io, g, orchestrated);
  });

  if (orchestrated) {
    io.section(kSecPlanner, [&] {
      ctrl::CampaignPlanner& p = *st.planner;
      for (std::size_t gi = 0; gi < cfg.groups; ++gi) {
        const bool init = p.estimate_initialized(gi);
        io.state(
            [&p, gi](double est, bool est_init, std::uint32_t leaves,
                     std::uint32_t ver) {
              p.restore_group(gi, est, est_init, leaves);
              p.set_version(gi, ver);
            },
            init ? p.estimate(gi) : 0.0, init, p.current(gi), p.version(gi));
      }
    });
  }

  io.section(kSecTop, [&] {
    // A warm top sandbox, never started: the round arm re-arms it exactly
    // as it would the instance kept warm across rounds (its spawn cost was
    // paid by the run that wrote the blob).
    io.state(
        [&st](bool warm) {
          if (!warm) return;
          fl::AggregatorRuntime::Config tc;
          tc.id = 1;
          tc.node = 0;
          tc.goal = 1;
          st.top_rt = std::make_unique<fl::AggregatorRuntime>(
              *st.groups[0].plane, std::move(tc));
        },
        st.top_rt != nullptr);
  });
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
  sim::Serializer s;
  Io<false> out(s);
  // One walk serves encode and restore, so it takes mutable state; the
  // writing direction only reads it.
  walk_boundary(out, const_cast<detail::CampaignState&>(st),
                const_cast<ShardedCampaignResult&>(partial), next_round);
  return s.take();
}

std::vector<std::uint8_t> CampaignCheckpoint::with_cut(
    const std::vector<std::uint8_t>& boundary, double mark) {
  sim::Serializer s;
  s.raw(boundary.data(), boundary.size());
  Io<false> out(s);
  out.section(kSecCut, [&] { out(mark); });
  return s.take();
}

std::size_t CampaignCheckpoint::cut_trailer_bytes() {
  return sizeof(std::uint32_t) + sizeof(std::uint64_t) + sizeof(double);
}

CheckpointCut CampaignCheckpoint::restore(
    const std::vector<std::uint8_t>& blob, detail::CampaignState& st,
    ShardedCampaignResult& partial) {
  sim::Deserializer d(blob);
  Io<true> in(d);
  CheckpointCut cut;
  walk_boundary(in, st, partial, cut.round);
  in.section(kSecCut, [&] { in(cut.mark); });
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
