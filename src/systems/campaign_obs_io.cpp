#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

#include "src/obs/obs.hpp"
#include "src/systems/sharded_campaign.hpp"

namespace lifl::sys {

namespace {

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f != nullptr) std::fclose(f);
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

FilePtr open_or_throw(const std::string& path) {
  FilePtr f(std::fopen(path.c_str(), "w"));
  if (!f) {
    throw std::runtime_error("cannot open for writing: " + path);
  }
  return f;
}

}  // namespace

void write_campaign_trace(const ShardedCampaignResult& result,
                          const std::string& path) {
  if (!result.obs || !result.obs->config().trace) {
    throw std::logic_error(
        "write_campaign_trace: the run was not traced (set cfg.obs.trace)");
  }
  FilePtr f = open_or_throw(path);
  result.obs->write_trace_json(f.get());
}

void write_campaign_metrics_jsonl(const ShardedCampaignResult& result,
                                  const std::string& path) {
  FilePtr fp = open_or_throw(path);
  std::FILE* f = fp.get();

  // One row per round (sync) / emitted model version (async).
  for (std::size_t i = 0; i < result.round_started_at.size(); ++i) {
    std::fprintf(
        f,
        "{\"type\": \"round\", \"round\": %zu, \"started_at\": %.9f, "
        "\"completed_at\": %.9f, \"secs\": %.9f, \"samples\": %llu, "
        "\"weight\": %.17g, \"spawned\": %llu, \"reused\": %llu, "
        "\"refolded\": %llu}\n",
        i + 1, result.round_started_at[i], result.round_completed_at[i],
        result.round_completed_at[i] - result.round_started_at[i],
        static_cast<unsigned long long>(result.round_samples[i]),
        result.round_weight[i],
        static_cast<unsigned long long>(
            i < result.round_spawned.size() ? result.round_spawned[i] : 0),
        static_cast<unsigned long long>(
            i < result.round_reused.size() ? result.round_reused[i] : 0),
        static_cast<unsigned long long>(
            i < result.round_refolded.size() ? result.round_refolded[i] : 0));
  }

  // One row per shard: the horizon-wait report (process-local).
  for (std::size_t s = 0; s < result.shard_windows.size(); ++s) {
    std::fprintf(f,
                 "{\"type\": \"shard\", \"shard\": %zu, \"windows\": %llu, "
                 "\"empty_windows\": %llu, \"idle_wall_secs\": %.6f}\n",
                 s,
                 static_cast<unsigned long long>(result.shard_windows[s]),
                 static_cast<unsigned long long>(
                     result.shard_empty_windows[s]),
                 result.shard_idle_secs[s]);
  }

  // Summary row: every deterministic campaign count once, under its result
  // field name (the process-local checkpoints_written / checkpoint_bytes
  // stay out, like wall time), then ring accounting when the run was
  // traced and the registry's histograms when it was metered.
  const std::pair<const char*, std::uint64_t> counts[] = {
      {"rounds", result.round_started_at.size()},
      {"events", result.events},
      {"cross_posts", result.cross_posts},
      {"windows", result.windows},
      {"windows_skipped", result.windows_skipped},
      {"spawned_total", result.spawned_total},
      {"reused_total", result.reused_total},
      {"replans", result.replans},
      {"leaf_drains", result.leaf_drains},
      {"peak_leaves", result.peak_leaves},
      {"checkpoint_marks", result.checkpoint_marks},
      {"faults_injected", result.faults_injected},
      {"leaf_crashes", result.leaf_crashes},
      {"middle_crashes", result.middle_crashes},
      {"top_crashes", result.top_crashes},
      {"refolded_updates", result.refolded_updates},
      {"reinjected_partials", result.reinjected_partials},
      {"upload_retries", result.upload_retries},
      {"upload_drops", result.upload_drops},
      {"upload_corruptions", result.upload_corruptions},
      {"overflow_rejects", result.overflow_rejects},
      {"outage_rejects", result.outage_rejects},
      {"quorum_seals", result.quorum_seals},
      {"quorum_abandoned", result.quorum_abandoned},
      {"disconnects", result.disconnects},
      {"resumed_uploads", result.resumed_uploads},
      {"chunks_sent", result.chunks_sent},
      {"chunks_resent", result.chunks_resent},
      {"selection_redraws", result.selection_redraws},
      {"offline_queue_peak", result.offline_queue_peak},
      {"quota_adjustments", result.quota_adjustments},
      {"async_quota_final", result.async_quota_final},
  };
  std::fprintf(f, "{\"type\": \"summary\"");
  for (const auto& [key, value] : counts) {
    std::fprintf(f, ", \"%s\": %llu", key,
                 static_cast<unsigned long long>(value));
  }
  std::fprintf(f, ", \"sim_secs\": %.9f, \"wall_secs\": %.6f",
               result.sim_secs, result.wall_secs);
  if (result.obs) {
    const obs::CampaignObs& co = *result.obs;
    if (co.config().trace) {
      std::fprintf(
          f, ", \"trace_recorded\": %llu, \"trace_dropped\": %llu",
          static_cast<unsigned long long>(co.trace().recorded_events()),
          static_cast<unsigned long long>(co.trace().dropped_events()));
    }
    if (co.config().metrics) {
      const obs::Registry& reg = co.registry();
      std::fprintf(f, ", \"hists\": {");
      for (std::size_t i = 0; i < reg.hist_count(); ++i) {
        const obs::HistId id{static_cast<std::uint32_t>(i)};
        const obs::Hist h = reg.hist_total(id);
        std::fprintf(f,
                     "%s\"%s\": {\"count\": %llu, \"sum\": %.9f, "
                     "\"mean\": %.9f, \"min\": %.9f, \"max\": %.9f}",
                     i == 0 ? "" : ", ", reg.hist_name(id).c_str(),
                     static_cast<unsigned long long>(h.count), h.sum,
                     h.mean(), h.count == 0 ? 0.0 : h.min,
                     h.count == 0 ? 0.0 : h.max);
      }
      std::fprintf(f, "}");
    }
  }
  std::fprintf(f, "}\n");
}

}  // namespace lifl::sys
