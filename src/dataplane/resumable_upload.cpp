#include "src/dataplane/resumable_upload.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>

namespace lifl::dp {

namespace {

using wl::ClientEvent;
using wl::ClientState;

/// One live upload session. Heap-allocated and shared into its own event
/// callbacks; the last pending event releases it.
struct Session : std::enable_shared_from_this<Session> {
  DataPlane& plane;
  fl::ModelUpdate update;
  ResumableUpload::Config cfg;

  ClientState state = ClientState::kIdle;
  std::uint64_t total_chunks = 0;
  std::uint64_t acked = 0;       ///< chunks delivered so far
  std::uint64_t attempt = 0;     ///< session attempt (0 = first connection)
  bool resend_pending = false;   ///< next chunk re-sends a partial chunk
  std::uint32_t drops = 0;       ///< disconnects survived
  double t0 = 0.0;

  Session(DataPlane& p, fl::ModelUpdate u, ResumableUpload::Config c)
      : plane(p), update(std::move(u)), cfg(std::move(c)) {}

  sim::Simulator& sim() { return plane.cluster().sim(); }

  /// Walk the firmware transition table; an event the table forbids in the
  /// current state is a session-layer protocol bug, not a recoverable
  /// condition.
  void step(ClientEvent e) {
    const ClientState next = wl::client_transition(state, e);
    if (next == ClientState::kCount) {
      throw std::logic_error(std::string("ResumableUpload: invalid event in ") +
                             wl::client_state_name(state));
    }
    state = next;
  }

  std::uint64_t chunk_size(std::uint64_t index) const {
    const std::uint64_t cb = cfg.plan->config().chunk_bytes;
    const std::uint64_t total = update.logical_bytes;
    return std::min<std::uint64_t>(cb, total - index * cb);
  }

  /// Begin (or resume) a connected transmission attempt: draw this
  /// attempt's disconnect point over the remaining chunks, then send.
  void start_attempt() {
    const std::uint64_t left = total_chunks - acked;
    const std::uint32_t die_at = cfg.plan->disconnect_chunk(
        cfg.group, cfg.seq, attempt, left, cfg.rate_scale);
    send_chunk(/*sent_this_attempt=*/0, die_at);
  }

  /// Send the next chunk. `die_at` (1-based within this attempt) marks the
  /// chunk that disconnects mid-transmission; 0 = the attempt completes.
  void send_chunk(std::uint64_t sent_this_attempt, std::uint32_t die_at) {
    const std::uint64_t bytes = chunk_size(acked);
    auto self = shared_from_this();
    if (die_at != 0 && sent_this_attempt + 1 == die_at) {
      // This chunk dies on the wire: bill the partially transmitted bytes
      // as pure client-side latency (the gateway never sees them), then
      // park the session offline.
      const double frac =
          cfg.plan->partial_fraction(cfg.group, cfg.seq, attempt);
      const double partial_secs = frac * static_cast<double>(bytes) /
                                  cfg.uplink_bytes_per_sec;
      sim().schedule_after(partial_secs, [self]() { self->disconnect(); });
      return;
    }
    const bool resend = resend_pending;
    resend_pending = false;
    plane.client_upload_chunk(
        cfg.node, update.producer, static_cast<std::size_t>(bytes),
        cfg.uplink_bytes_per_sec,
        [self, sent_this_attempt, die_at, resend]() {
          if (self->cfg.counters != nullptr) {
            ++self->cfg.counters->chunks_sent;
            if (resend) ++self->cfg.counters->chunks_resent;
          }
          ++self->acked;
          if (self->acked == self->total_chunks) {
            self->finish();
            return;
          }
          self->step(ClientEvent::kChunkAcked);
          self->send_chunk(sent_this_attempt + 1, die_at);
        });
  }

  void disconnect() {
    step(ClientEvent::kDisconnect);
    ++drops;
    // The partial chunk must be re-sent in full after the reconnect.
    resend_pending = true;
    if (cfg.counters != nullptr) ++cfg.counters->disconnects;
    cfg.obs.instant(sim().now(), obs::Ev::kUploadDisconnect,
                    static_cast<std::uint32_t>(update.producer), drops);
    if (cfg.on_disconnect) cfg.on_disconnect();
    const double offline =
        cfg.plan->offline_secs(cfg.group, cfg.seq, attempt);
    auto self = shared_from_this();
    sim().schedule_after(offline, [self]() { self->reconnect(); });
  }

  void reconnect() {
    step(ClientEvent::kReconnect);
    ++attempt;
    if (cfg.counters != nullptr) ++cfg.counters->resumes;
    cfg.obs.instant(sim().now(), obs::Ev::kUploadResume,
                    static_cast<std::uint32_t>(update.producer), attempt);
    if (cfg.on_resume) cfg.on_resume();
    start_attempt();
  }

  void finish() {
    step(ClientEvent::kComplete);
    const double duration = sim().now() - t0;
    if (cfg.counters != nullptr) ++cfg.counters->completed;
    cfg.obs.span(t0, sim().now(), obs::Ev::kUploadSession,
                 static_cast<std::uint32_t>(update.producer), drops);
    cfg.obs.observe_id(&obs::Ids::upload_session_secs, duration);
    // Deposit the assembled update exactly once: the chunks already paid
    // wire + ingest, so the deposit itself is free (like `seed_update`'s
    // pre-ingested semantics).
    DataPlane& p = plane;
    const sim::NodeId node = cfg.node;
    auto on_complete = std::move(cfg.on_complete);
    p.seed_update(node, std::move(update));
    if (on_complete) on_complete(duration, drops);
  }
};

}  // namespace

void ResumableUpload::launch(DataPlane& plane, fl::ModelUpdate update,
                             Config cfg) {
  if (cfg.plan == nullptr) {
    throw std::invalid_argument("ResumableUpload: cfg.plan is required");
  }
  auto s = std::make_shared<Session>(plane, std::move(update), std::move(cfg));
  if (s->cfg.counters != nullptr) ++s->cfg.counters->sessions;
  const std::uint64_t cb = s->cfg.plan->config().chunk_bytes;
  s->total_chunks =
      std::max<std::uint64_t>(1, (s->update.logical_bytes + cb - 1) / cb);
  s->t0 = s->sim().now();
  // The selection and local-training legs happened upstream (the arrival
  // chain); walk the table through them so the session's lifecycle is the
  // full idle → training → uploading → ... → done trace.
  s->step(ClientEvent::kSelected);
  s->step(ClientEvent::kTrained);
  s->start_attempt();
}

}  // namespace lifl::dp
