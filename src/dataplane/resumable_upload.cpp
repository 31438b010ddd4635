#include "src/dataplane/resumable_upload.hpp"

#include <algorithm>
#include <new>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace lifl::dp {

namespace detail {

/// Free list of session storage for one plane. The plane drops its hold
/// when it is destroyed; live sessions (owned by events still parked in
/// the simulator) keep the slab alive until the last one is released.
struct SessionSlab {
  std::vector<void*> free;  ///< raw storage of released sessions
  std::size_t live = 0;     ///< sessions constructed, not yet released
  bool orphaned = false;    ///< the owning plane is gone
};

void SessionSlabOrphan::operator()(SessionSlab* slab) const noexcept {
  for (void* p : slab->free) ::operator delete(p);
  slab->free.clear();
  slab->orphaned = true;
  if (slab->live == 0) delete slab;
}

}  // namespace detail

namespace {

using detail::SessionSlab;
using wl::ClientEvent;
using wl::ClientState;

struct Session;

/// Owning session handle (8 bytes). Moving it hands the session to the
/// next event; dropping it — when the last event ran, or when an event is
/// destroyed unrun at teardown — returns the session to its slab.
class Owner {
 public:
  explicit Owner(Session* s) noexcept : s_(s) {}
  Owner(Owner&& o) noexcept : s_(o.s_) { o.s_ = nullptr; }
  Owner& operator=(Owner&&) = delete;
  Owner(const Owner&) = delete;
  ~Owner();
  Session* get() const noexcept { return s_; }

 private:
  Session* s_;
};

/// A session event: runs `M` with the handle the event owned.
template <void (Session::*M)(Owner)>
struct Call {
  Owner self;
  void operator()() {
    Session* s = self.get();
    (s->*M)(std::move(self));
  }
};

/// One live upload session, owned by exactly one pending event at a time
/// (see `Owner`). Because only one event is ever pending, the chunk in
/// flight is session state, not callback capture.
struct Session {
  SessionSlab* slab;
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
  // The chunk in flight.
  std::uint64_t sent_this_attempt = 0;  ///< chunks acked this attempt
  std::uint32_t die_at = 0;  ///< 1-based dying chunk of the attempt; 0 = none
  bool chunk_resend = false;  ///< the chunk in flight re-sends a partial one

  Session(SessionSlab* s, DataPlane& p, fl::ModelUpdate&& u,
          ResumableUpload::Config&& c)
      : slab(s), plane(p), update(std::move(u)), cfg(std::move(c)) {}

  static Owner make(SessionSlab* slab, DataPlane& plane, fl::ModelUpdate&& u,
                    ResumableUpload::Config&& c) {
    void* mem;
    if (!slab->free.empty()) {
      mem = slab->free.back();
      slab->free.pop_back();
    } else {
      mem = ::operator new(sizeof(Session));
    }
    ++slab->live;
    return Owner(new (mem) Session(slab, plane, std::move(u), std::move(c)));
  }

  static void release(Session* s) noexcept {
    SessionSlab* slab = s->slab;
    s->~Session();
    --slab->live;
    if (!slab->orphaned) {
      slab->free.push_back(s);
      return;
    }
    ::operator delete(s);
    if (slab->live == 0) delete slab;
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

  void begin(Owner self) {
    if (cfg.counters != nullptr) ++cfg.counters->sessions;
    const std::uint64_t cb = cfg.plan->config().chunk_bytes;
    total_chunks =
        std::max<std::uint64_t>(1, (update.logical_bytes + cb - 1) / cb);
    t0 = sim().now();
    // The selection and local-training legs happened upstream (the arrival
    // chain); walk the table through them so the session's lifecycle is the
    // full idle → training → uploading → ... → done trace.
    step(ClientEvent::kSelected);
    step(ClientEvent::kTrained);
    start_attempt(std::move(self));
  }

  /// Begin (or resume) a connected transmission attempt: draw this
  /// attempt's disconnect point over the remaining chunks, then send.
  void start_attempt(Owner self) {
    const std::uint64_t left = total_chunks - acked;
    die_at = cfg.plan->disconnect_chunk(cfg.group, cfg.seq, attempt, left,
                                        cfg.rate_scale);
    sent_this_attempt = 0;
    send_chunk(std::move(self));
  }

  /// Send the next chunk; the chunk numbered `die_at` within this attempt
  /// disconnects mid-transmission.
  void send_chunk(Owner self) {
    const std::uint64_t bytes = chunk_size(acked);
    if (die_at != 0 && sent_this_attempt + 1 == die_at) {
      // This chunk dies on the wire: bill the partially transmitted bytes
      // as pure client-side latency (the gateway never sees them), then
      // park the session offline.
      const double frac =
          cfg.plan->partial_fraction(cfg.group, cfg.seq, attempt);
      const double partial_secs = frac * static_cast<double>(bytes) /
                                  cfg.uplink_bytes_per_sec;
      sim().schedule_after(partial_secs,
                           Call<&Session::disconnect>{std::move(self)});
      return;
    }
    chunk_resend = resend_pending;
    resend_pending = false;
    plane.client_upload_chunk(cfg.node, update.producer,
                              static_cast<std::size_t>(bytes),
                              cfg.uplink_bytes_per_sec,
                              Call<&Session::on_ack>{std::move(self)});
  }

  void on_ack(Owner self) {
    if (cfg.counters != nullptr) {
      ++cfg.counters->chunks_sent;
      if (chunk_resend) ++cfg.counters->chunks_resent;
    }
    ++acked;
    if (acked == total_chunks) {
      finish(std::move(self));
      return;
    }
    step(ClientEvent::kChunkAcked);
    ++sent_this_attempt;
    send_chunk(std::move(self));
  }

  void disconnect(Owner self) {
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
    sim().schedule_after(offline, Call<&Session::reconnect>{std::move(self)});
  }

  void reconnect(Owner self) {
    step(ClientEvent::kReconnect);
    ++attempt;
    if (cfg.counters != nullptr) ++cfg.counters->resumes;
    cfg.obs.instant(sim().now(), obs::Ev::kUploadResume,
                    static_cast<std::uint32_t>(update.producer), attempt);
    if (cfg.on_resume) cfg.on_resume();
    start_attempt(std::move(self));
  }

  /// Deposit the update. The handle drops after this returns, releasing
  /// the session.
  void finish(Owner /*self*/) {
    step(ClientEvent::kComplete);
    const double duration = sim().now() - t0;
    if (cfg.counters != nullptr) ++cfg.counters->completed;
    cfg.obs.span(t0, sim().now(), obs::Ev::kUploadSession,
                 static_cast<std::uint32_t>(update.producer), drops);
    cfg.obs.observe_id(&obs::Ids::upload_session_secs, duration);
    // Deposit the assembled update exactly once: the chunks already paid
    // wire + ingest, so the deposit itself is free (like `seed_update`'s
    // pre-ingested semantics).
    plane.seed_update(cfg.node, std::move(update));
    if (cfg.on_complete) cfg.on_complete(duration, drops);
  }
};

Owner::~Owner() {
  if (s_ != nullptr) Session::release(s_);
}

}  // namespace

void ResumableUpload::launch(DataPlane& plane, fl::ModelUpdate update,
                             Config cfg, double start_after) {
  if (cfg.plan == nullptr) {
    throw std::invalid_argument("ResumableUpload: cfg.plan is required");
  }
  if (!plane.sessions_) plane.sessions_.reset(new SessionSlab);
  Owner s = Session::make(plane.sessions_.get(), plane, std::move(update),
                          std::move(cfg));
  if (start_after > 0.0) {
    plane.cluster().sim().schedule_after(start_after,
                                         Call<&Session::begin>{std::move(s)});
    return;
  }
  Session* p = s.get();
  p->begin(std::move(s));
}

}  // namespace lifl::dp
