#include "src/obs/trace.hpp"

#include <algorithm>
#include <string>
#include <tuple>

namespace lifl::obs {

const char* ev_name(Ev kind) {
  switch (kind) {
    case Ev::kRound:
      return "round";
    case Ev::kVersion:
      return "version";
    case Ev::kCkptMark:
      return "ckpt_mark";
    case Ev::kCkptEncode:
      return "ckpt_encode";
    case Ev::kAggSpawn:
      return "agg_spawn";
    case Ev::kAggRearm:
      return "agg_rearm";
    case Ev::kAggClaim:
      return "agg_claim";
    case Ev::kAggFold:
      return "agg_fold";
    case Ev::kAggSeal:
      return "agg_seal";
    case Ev::kAggDrain:
      return "agg_drain";
    case Ev::kAggCrash:
      return "agg_crash";
    case Ev::kAggRecover:
      return "agg_recover";
    case Ev::kReplan:
      return "replan";
    case Ev::kQuorumSeal:
      return "quorum_seal";
    case Ev::kUploadSession:
      return "upload_session";
    case Ev::kUploadRetry:
      return "upload_retry";
    case Ev::kUploadDisconnect:
      return "upload_disconnect";
    case Ev::kUploadResume:
      return "upload_resume";
    case Ev::kCount_:
      break;
  }
  return "unknown";
}

std::vector<TraceEvent> TraceRecorder::merged() const {
  std::vector<TraceEvent> all;
  all.reserve(recorded_events());
  for (const auto& r : rings_) {
    const auto evs = r.events();
    all.insert(all.end(), evs.begin(), evs.end());
  }
  std::sort(all.begin(), all.end(),
            [](const TraceEvent& x, const TraceEvent& y) {
              return std::make_tuple(x.t, x.track, static_cast<int>(x.kind),
                                     x.a, x.b, x.dur) <
                     std::make_tuple(y.t, y.track, static_cast<int>(y.kind),
                                     y.a, y.b, y.dur);
            });
  return all;
}

namespace {

// pid groups tracks into Perfetto "processes"; tid is the track lane.
constexpr int kCampaignPid = 0;
constexpr int kGroupPid = 1;
constexpr int kShardPid = 2;

void track_ids(std::uint16_t track, int* pid, int* tid) {
  if (track == kCampaignTrack) {
    *pid = kCampaignPid;
    *tid = 0;
  } else if (track >= kShardTrackBase) {
    *pid = kShardPid;
    *tid = track - kShardTrackBase;
  } else {
    *pid = kGroupPid;
    *tid = track;
  }
}

void write_name_meta(std::FILE* out, const char* what, int pid, int tid,
                     const std::string& name) {
  std::fprintf(out,
               "    {\"name\": \"%s\", \"ph\": \"M\", \"pid\": %d, "
               "\"tid\": %d, \"args\": {\"name\": \"%s\"}},\n",
               what, pid, tid, name.c_str());
}

}  // namespace

void TraceRecorder::write_chrome_json(std::FILE* out,
                                      std::size_t groups) const {
  const auto all = merged();
  std::fprintf(out, "{\n  \"displayTimeUnit\": \"ms\",\n");
  std::fprintf(out, "  \"traceEvents\": [\n");

  // Track naming metadata: one process per category, one thread (lane)
  // per campaign / group / shard track.
  write_name_meta(out, "process_name", kCampaignPid, 0, "campaign");
  write_name_meta(out, "thread_name", kCampaignPid, 0, "rounds");
  write_name_meta(out, "process_name", kGroupPid, 0, "node groups");
  for (std::size_t g = 0; g < groups; ++g) {
    write_name_meta(out, "thread_name", kGroupPid, static_cast<int>(g),
                    "group " + std::to_string(g));
  }
  write_name_meta(out, "process_name", kShardPid, 0, "shards");
  for (std::size_t s = 0; s < shards_; ++s) {
    write_name_meta(out, "thread_name", kShardPid, static_cast<int>(s),
                    "shard " + std::to_string(s));
  }

  for (std::size_t i = 0; i < all.size(); ++i) {
    const TraceEvent& e = all[i];
    int pid = 0, tid = 0;
    track_ids(e.track, &pid, &tid);
    const double ts_us = e.t * 1e6;
    if (e.dur >= 0.0) {
      std::fprintf(out,
                   "    {\"name\": \"%s\", \"ph\": \"X\", \"ts\": %.3f, "
                   "\"dur\": %.3f, \"pid\": %d, \"tid\": %d, "
                   "\"args\": {\"a\": %lu, \"b\": %llu, \"flags\": %u}}",
                   ev_name(e.kind), ts_us, e.dur * 1e6, pid, tid,
                   static_cast<unsigned long>(e.a),
                   static_cast<unsigned long long>(e.b), e.flags);
    } else {
      std::fprintf(out,
                   "    {\"name\": \"%s\", \"ph\": \"i\", \"ts\": %.3f, "
                   "\"pid\": %d, \"tid\": %d, \"s\": \"t\", "
                   "\"args\": {\"a\": %lu, \"b\": %llu, \"flags\": %u}}",
                   ev_name(e.kind), ts_us, pid, tid,
                   static_cast<unsigned long>(e.a),
                   static_cast<unsigned long long>(e.b), e.flags);
    }
    std::fprintf(out, "%s\n", i + 1 < all.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n");
  std::fprintf(out, "  \"otherData\": {\"dropped_events\": %llu}\n}\n",
               static_cast<unsigned long long>(dropped_events()));
}

}  // namespace lifl::obs
