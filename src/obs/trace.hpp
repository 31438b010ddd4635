#pragma once

// Passive sim-time tracing: per-shard bounded ring buffers of spans and
// instant events, merged deterministically and exported as Chrome
// trace-event JSON (loadable in Perfetto / chrome://tracing).
//
// Layering: `src/obs` sits below everything (std-only) so any layer may
// emit into it. Passivity rules (docs/ARCHITECTURE.md):
//   - recording never schedules sim events or touches sim state — an
//     emit is a null-check plus a ring store;
//   - each ring has exactly one writer (the worker thread that owns the
//     shard; the coordinator ring is written only between runs), so
//     recording needs no synchronization and cannot perturb the
//     1-vs-K-shard event order;
//   - event payloads carry only sim-deterministic values (sim times,
//     counts, ids — never wall-clock readings), so the merged stream is
//     a pure function of (config, seed, shards);
//   - trace state is not checkpointed: a resumed campaign re-emits from
//     the cut it replays through.

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <vector>

namespace lifl::obs {

/// Trace event kinds. Span kinds carry a duration; instants do not.
enum class Ev : std::uint8_t {
  // Campaign track.
  kRound = 0,       ///< span: one sync round; a=round, b=samples
  kVersion,         ///< instant: async model version emitted; a=version
  kCkptMark,        ///< instant: checkpoint mark crossed; a=mark index
  kCkptEncode,      ///< instant: blob encoded at a cut; b=blob bytes
  // Group tracks (aggregator lifecycle).
  kAggSpawn,        ///< instant: cold-start construction; a=agg id
  kAggRearm,        ///< instant: warm-pool re-arm; a=agg id
  kAggClaim,        ///< instant: leaf claimed a batch; a=leaf id, b=claimed
  kAggFold,         ///< span: leaf batch fold; a=leaf id, b=updates
  kAggSeal,         ///< instant: middles sealed at target; b=claimed
  kAggDrain,        ///< instant: deadline/shrink drain; a=leaf id
  kAggCrash,        ///< instant: injected crash; a=agg id
  kAggRecover,      ///< instant: replacement armed; a=agg id, b=refolded
  kReplan,          ///< instant: group-local re-plan; b=new leaf target
  kQuorumSeal,      ///< instant: round sealed at quorum; b=abandoned
  // Group tracks (client upload lifecycle).
  kUploadSession,   ///< span: chunked upload session; a=client, b=drops
  kUploadRetry,     ///< instant: upload retry scheduled; a=client, b=attempt
  kUploadDisconnect,///< instant: mid-upload disconnect; a=client
  kUploadResume,    ///< instant: session resumed; a=client
  kCount_           ///< number of kinds (not an event)
};

/// Human-readable name of an event kind (stable across runs).
const char* ev_name(Ev kind);

/// Track ids: groups use their group id directly; shards and the
/// campaign use reserved ranges so one uint16 addresses every track.
inline constexpr std::uint16_t kShardTrackBase = 0x8000;
inline constexpr std::uint16_t kCampaignTrack = 0xFFFF;

inline std::uint16_t shard_track(std::size_t shard) {
  return static_cast<std::uint16_t>(kShardTrackBase + shard);
}

/// One recorded event. 32 bytes; a full ring is a flat array of these.
/// `dur < 0` marks an instant event.
struct TraceEvent {
  double t = 0.0;    ///< sim-time start (seconds)
  double dur = -1.0; ///< sim-time duration; < 0 => instant
  std::uint64_t b = 0;
  std::uint32_t a = 0;
  std::uint16_t track = 0;
  Ev kind = Ev::kRound;
  std::uint8_t flags = 0;
};

static_assert(sizeof(TraceEvent) == 32, "TraceEvent must stay 32 bytes");

/// Bounded single-writer ring of trace events. When full, the oldest
/// event is overwritten and `dropped_events()` counts the loss.
class ShardTrace {
 public:
  ShardTrace() = default;

  /// Size the ring (events). Capacity 0 disables the ring: emits become
  /// a branch and nothing is stored.
  void init(std::size_t capacity) {
    buf_.assign(capacity, TraceEvent{});
    head_ = size_ = 0;
    dropped_ = 0;
  }

  void emit(const TraceEvent& e) {
    if (buf_.empty()) return;
    buf_[head_] = e;
    if (++head_ == buf_.size()) head_ = 0;
    if (size_ < buf_.size()) {
      ++size_;
    } else {
      ++dropped_;  // overwrote the oldest event
    }
  }

  void instant(double t, Ev kind, std::uint16_t track, std::uint32_t a,
               std::uint64_t b = 0, std::uint8_t flags = 0) {
    TraceEvent e;
    e.t = t;
    e.dur = -1.0;
    e.b = b;
    e.a = a;
    e.track = track;
    e.kind = kind;
    e.flags = flags;
    emit(e);
  }

  void span(double t0, double t1, Ev kind, std::uint16_t track,
            std::uint32_t a, std::uint64_t b = 0, std::uint8_t flags = 0) {
    TraceEvent e;
    e.t = t0;
    e.dur = t1 >= t0 ? t1 - t0 : 0.0;
    e.b = b;
    e.a = a;
    e.track = track;
    e.kind = kind;
    e.flags = flags;
    emit(e);
  }

  std::size_t capacity() const { return buf_.size(); }
  std::size_t size() const { return size_; }
  std::uint64_t dropped_events() const { return dropped_; }

  /// Events in emission order (oldest surviving first).
  std::vector<TraceEvent> events() const {
    std::vector<TraceEvent> out;
    out.reserve(size_);
    const std::size_t start =
        size_ < buf_.size() ? 0 : head_;  // head_ is oldest when full
    for (std::size_t i = 0; i < size_; ++i) {
      out.push_back(buf_[(start + i) % buf_.size()]);
    }
    return out;
  }

 private:
  std::vector<TraceEvent> buf_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
  std::uint64_t dropped_ = 0;
};

/// Scoped span: records [construction sim-time, destruction sim-time]
/// on a ring. The clock is a raw function pointer + context so this
/// layer stays below `src/sim`; build one with `clock_of(sim)`.
struct SpanClock {
  double (*now)(const void*) = nullptr;
  const void* ctx = nullptr;
};

template <class Clock>
SpanClock clock_of(const Clock& c) {
  SpanClock k;
  k.now = [](const void* p) { return static_cast<const Clock*>(p)->now(); };
  k.ctx = &c;
  return k;
}

#if defined(LIFL_OBS_DISABLED)
class ScopedSpan {
 public:
  template <class... Args>
  explicit ScopedSpan(Args&&...) {}
};
#else
class ScopedSpan {
 public:
  ScopedSpan(ShardTrace* ring, SpanClock clock, Ev kind, std::uint16_t track,
             std::uint32_t a, std::uint64_t b = 0)
      : ring_(ring), clock_(clock), kind_(kind), track_(track), a_(a), b_(b) {
    if (ring_ != nullptr && clock_.now != nullptr) {
      t0_ = clock_.now(clock_.ctx);
    } else {
      ring_ = nullptr;
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ~ScopedSpan() {
    if (ring_ != nullptr) {
      ring_->span(t0_, clock_.now(clock_.ctx), kind_, track_, a_, b_);
    }
  }

 private:
  ShardTrace* ring_ = nullptr;
  SpanClock clock_;
  Ev kind_;
  std::uint16_t track_;
  std::uint32_t a_;
  std::uint64_t b_;
  double t0_ = 0.0;
};
#endif

/// Per-shard rings plus one coordinator ring (index = shard count),
/// written only between runs when the workers are parked.
class TraceRecorder {
 public:
  TraceRecorder() = default;

  /// `ring_kb` caps each ring's footprint; events are 32 bytes.
  void init(std::size_t shards, std::size_t ring_kb) {
    shards_ = shards;
    rings_.assign(shards + 1, ShardTrace{});
    const std::size_t cap = ring_kb * 1024 / sizeof(TraceEvent);
    for (auto& r : rings_) r.init(cap);
  }

  bool enabled() const { return !rings_.empty(); }
  std::size_t shards() const { return shards_; }

  ShardTrace* shard(std::size_t s) {
    return rings_.empty() ? nullptr : &rings_[s];
  }
  ShardTrace* coordinator() {
    return rings_.empty() ? nullptr : &rings_[shards_];
  }

  std::uint64_t dropped_events() const {
    std::uint64_t total = 0;
    for (const auto& r : rings_) total += r.dropped_events();
    return total;
  }

  std::uint64_t recorded_events() const {
    std::uint64_t total = 0;
    for (const auto& r : rings_) total += r.size();
    return total;
  }

  /// All surviving events merged into one deterministic order: sorted by
  /// (t, track, kind, a, b, dur). Same config + seed + shards => the
  /// identical sequence, run after run.
  std::vector<TraceEvent> merged() const;

  /// Chrome trace-event JSON (Perfetto-loadable): one named track per
  /// node group, per shard, and for the campaign. `groups` names the
  /// group tracks.
  void write_chrome_json(std::FILE* out, std::size_t groups) const;

 private:
  std::size_t shards_ = 0;
  std::vector<ShardTrace> rings_;
};

}  // namespace lifl::obs
