#include "src/dataplane/resumable_upload.hpp"

#include <algorithm>
#include <new>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace lifl::dp {

namespace {
struct Session;
}  // namespace

namespace detail {

/// One plane's resumable-upload sessions. The slab owns every session:
/// a finished session returns its cell to `free`, and the sessions still
/// live when the plane dies (their events parked in the simulator, which
/// hold plain handles and never run again) are destroyed with the slab.
struct SessionSlab {
  std::vector<void*> cells;         ///< raw storage of one session each
  std::vector<std::uint32_t> free;  ///< indices of released cells
  ~SessionSlab();
};

}  // namespace detail

namespace {

using detail::SessionSlab;
using wl::ClientEvent;
using wl::ClientState;

/// A session event: runs `M` on the session. The handle is a plain pointer
/// (the slab owns the session), so the event is trivially copyable and
/// dropping it unrun at teardown costs nothing.
template <void (Session::*M)()>
struct Call {
  Session* s;
  void operator()() const { (s->*M)(); }
};

/// One live upload session. Exactly one event — the start, a chunk ack,
/// the disconnect or the reconnect — is pending for it at a time, so the
/// chunk in flight is session state, not callback capture.
struct Session {
  SessionSlab* slab;
  std::uint32_t cell;  ///< index of this session's cell in the slab
  DataPlane& plane;
  fl::UpdateDesc update;  ///< its real payload, if any, waits in the slab
  ResumableUpload::Config cfg;
  /// Ingest routes of a full chunk and of the last one (equal when the
  /// update is a whole number of chunks), resolved once at the start.
  Route chunk_route;
  Route tail_route;

  ClientState state = ClientState::kIdle;
  std::uint64_t total_chunks = 0;
  std::uint64_t acked = 0;       ///< chunks delivered so far
  std::uint64_t attempt = 0;     ///< session attempt (0 = first connection)
  bool resend_pending = false;   ///< next chunk re-sends a partial chunk
  std::uint32_t drops = 0;       ///< disconnects survived
  double t0 = 0.0;
  // The chunk in flight.
  std::uint64_t sent_this_attempt = 0;  ///< chunks acked this attempt
  std::uint32_t die_at = 0;  ///< 1-based dying chunk of the attempt; 0 = none
  bool chunk_resend = false;  ///< the chunk in flight re-sends a partial one

  Session(SessionSlab* s, std::uint32_t c, DataPlane& p,
          const fl::UpdateDesc& u, ResumableUpload::Config&& cf)
      : slab(s), cell(c), plane(p), update(u), cfg(std::move(cf)) {}

  static Session* make(SessionSlab* slab, DataPlane& plane,
                       const fl::UpdateDesc& u, ResumableUpload::Config&& c) {
    if (slab->free.empty()) {
      slab->free.push_back(static_cast<std::uint32_t>(slab->cells.size()));
      slab->cells.push_back(::operator new(sizeof(Session)));
    }
    const std::uint32_t i = slab->free.back();
    Session* s = new (slab->cells[i])
        Session(slab, i, plane, u, std::move(c));
    slab->free.pop_back();
    return s;
  }

  /// Destroy a finished session and recycle its cell.
  static void release(Session* s) noexcept {
    SessionSlab* slab = s->slab;
    const std::uint32_t i = s->cell;
    s->~Session();
    slab->free.push_back(i);
  }

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

  void begin() {
    if (cfg.counters != nullptr) ++cfg.counters->sessions;
    const std::uint64_t cb = cfg.plan->config().chunk_bytes;
    total_chunks =
        std::max<std::uint64_t>(1, (update.logical_bytes + cb - 1) / cb);
    chunk_route = plane.ingest_route(cfg.node, chunk_size(0));
    tail_route = plane.ingest_route(cfg.node, chunk_size(total_chunks - 1));
    t0 = sim().now();
    // The selection and local-training legs happened upstream (the arrival
    // chain); walk the table through them so the session's lifecycle is the
    // full idle → training → uploading → ... → done trace.
    step(ClientEvent::kSelected);
    step(ClientEvent::kTrained);
    start_attempt();
  }

  /// Begin (or resume) a connected transmission attempt: draw this
  /// attempt's disconnect point over the remaining chunks, then send.
  void start_attempt() {
    const std::uint64_t left = total_chunks - acked;
    die_at = cfg.plan->disconnect_chunk(cfg.group, cfg.seq, attempt, left,
                                        cfg.rate_scale);
    sent_this_attempt = 0;
    send_chunk();
  }

  /// Send the next chunk; the chunk numbered `die_at` within this attempt
  /// disconnects mid-transmission.
  void send_chunk() {
    const std::uint64_t bytes = chunk_size(acked);
    if (die_at != 0 && sent_this_attempt + 1 == die_at) {
      // This chunk dies on the wire: bill the partially transmitted bytes
      // as pure client-side latency (the gateway never sees them), then
      // park the session offline.
      const double frac =
          cfg.plan->partial_fraction(cfg.group, cfg.seq, attempt);
      const double partial_secs = frac * static_cast<double>(bytes) /
                                  cfg.uplink_bytes_per_sec;
      sim().schedule_after(partial_secs, Call<&Session::disconnect>{this});
      return;
    }
    chunk_resend = resend_pending;
    resend_pending = false;
    plane.client_upload_chunk(
        acked + 1 == total_chunks ? tail_route : chunk_route, update.producer,
        static_cast<std::size_t>(bytes), cfg.uplink_bytes_per_sec,
        Call<&Session::on_ack>{this});
  }

  void on_ack() {
    if (cfg.counters != nullptr) {
      ++cfg.counters->chunks_sent;
      if (chunk_resend) ++cfg.counters->chunks_resent;
    }
    ++acked;
    if (acked == total_chunks) {
      finish();
      release(this);
      return;
    }
    step(ClientEvent::kChunkAcked);
    ++sent_this_attempt;
    send_chunk();
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
    sim().schedule_after(offline, Call<&Session::reconnect>{this});
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

  /// Deposit the update. The caller releases the session after this
  /// returns.
  void finish() {
    step(ClientEvent::kComplete);
    const double duration = sim().now() - t0;
    if (cfg.counters != nullptr) ++cfg.counters->completed;
    cfg.obs.span(t0, sim().now(), obs::Ev::kUploadSession,
                 static_cast<std::uint32_t>(update.producer), drops);
    cfg.obs.observe_id(&obs::Ids::upload_session_secs, duration);
    // Deposit the assembled update exactly once: the chunks already paid
    // wire + ingest, so the deposit itself is free (like `seed_update`'s
    // pre-ingested semantics) — and it is the gateway put of the payload.
    plane.deposit(cfg.node, update);
    if (cfg.on_complete) cfg.on_complete(duration, drops);
  }
};

static_assert(sim::is_hot_callable_v<Call<&Session::begin>> &&
              sim::is_hot_callable_v<Call<&Session::on_ack>> &&
              sim::is_hot_callable_v<Call<&Session::disconnect>> &&
              sim::is_hot_callable_v<Call<&Session::reconnect>>);

}  // namespace

namespace detail {

SessionSlab::~SessionSlab() {
  // A cell not on the free list holds a live session.
  std::vector<bool> released(cells.size());
  for (std::uint32_t i : free) released[i] = true;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (!released[i]) {
      std::launder(static_cast<Session*>(cells[i]))->~Session();
    }
    ::operator delete(cells[i]);
  }
}

void SessionSlabDelete::operator()(SessionSlab* slab) const noexcept {
  delete slab;
}

}  // namespace detail

void ResumableUpload::launch(DataPlane& plane, fl::ModelUpdate update,
                             Config cfg, double start_after) {
  if (cfg.plan == nullptr) {
    throw std::invalid_argument("ResumableUpload: cfg.plan is required");
  }
  if (!plane.sessions_) plane.sessions_.reset(new SessionSlab);
  Session* s = Session::make(plane.sessions_.get(), plane,
                             plane.hold(std::move(update)), std::move(cfg));
  if (start_after > 0.0) {
    plane.cluster().sim().schedule_after(start_after,
                                         Call<&Session::begin>{s});
    return;
  }
  s->begin();
}

}  // namespace lifl::dp
