#pragma once

#include <cstdint>

#include "src/dataplane/dataplane.hpp"
#include "src/fl/model_update.hpp"
#include "src/obs/obs.hpp"
#include "src/workload/lifecycle.hpp"

namespace lifl::dp {

/// Chunk-wise resumable client upload driven by the firmware client state
/// machine (`wl::client_transition`). The session sends the update in
/// `chunk_bytes` chunks, stop-and-wait: each chunk is billed through
/// `DataPlane::client_upload_chunk` (client wire + gateway ingest) and the
/// next chunk starts on the previous chunk's ack. The `wl::LifecyclePlan`
/// deterministically schedules mid-upload disconnects: the dying chunk's
/// partially transmitted bytes are billed as pure wire latency and never
/// acked, the session parks offline for the plan's capped backoff, and on
/// reconnect it resumes from the last acked offset — re-sending the partial
/// chunk in full (`chunks_resent`). Only when every chunk has been acked is
/// the assembled update deposited once (`DataPlane::seed_update`), so a
/// sample is never counted twice no matter how many times the session
/// disconnected.
///
/// All randomness comes from the plan's stateless hashes of
/// (group, seq, attempt); the session itself is event-driven on the group's
/// simulator, so flaky campaigns keep bitwise 1-vs-K-shard equivalence.
///
/// Sessions live in a per-plane slab, which owns them: a session returns
/// to it when its update is deposited, and the plane destroys the ones
/// still live at teardown. Exactly one event — the start, a chunk ack, the
/// disconnect or the reconnect — is pending per session at any time, and
/// it carries a plain 8-byte session handle, so every session event is
/// trivially copyable and a session costs no allocation once the slab is
/// warm.
class ResumableUpload {
 public:
  /// Aggregated session telemetry (owned by the campaign group).
  struct Counters {
    std::uint64_t sessions = 0;       ///< sessions launched
    std::uint64_t completed = 0;      ///< updates fully delivered
    std::uint64_t disconnects = 0;    ///< mid-upload session drops
    std::uint64_t resumes = 0;        ///< successful reconnect+resume events
    std::uint64_t chunks_sent = 0;    ///< chunks acked by the gateway
    std::uint64_t chunks_resent = 0;  ///< acked chunks that were re-sends
  };

  struct Config {
    sim::NodeId node = 0;  ///< ingress node (the group's gateway)
    double uplink_bytes_per_sec = 1.0;
    const wl::LifecyclePlan* plan = nullptr;  ///< required
    std::uint64_t group = 0;
    std::uint64_t seq = 0;      ///< the upload's arrival sequence number
    double rate_scale = 1.0;    ///< tier disconnect multiplier
    Counters* counters = nullptr;
    /// Passive observability sink (tracing + typed metrics). Emitting never
    /// schedules sim events, so an attached sink leaves results bitwise
    /// identical. Default-constructed == disabled.
    obs::GroupObs obs;
    /// Fires when the update is deposited: (upload duration in sim seconds
    /// from launch, number of disconnects the session survived). 24 bytes
    /// of capture stay inline.
    sim::TaskFn<double, std::uint32_t> on_complete;
    sim::Task on_disconnect;  ///< fires at each mid-upload drop (parking)
    sim::Task on_resume;      ///< fires at each reconnect (un-parking)
  };

  /// Start a session `start_after` sim seconds from now (0 = at once); it
  /// returns to the plane's slab on completion. Throws
  /// `std::invalid_argument` if `cfg.plan` is null.
  static void launch(DataPlane& plane, fl::ModelUpdate update, Config cfg,
                     double start_after = 0.0);
};

}  // namespace lifl::dp
