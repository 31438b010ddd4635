#include "src/obs/obs.hpp"

namespace lifl::obs {

Ids Ids::intern(Registry& r) {
  Ids ids;
  ids.spawns = r.counter("agg_spawns");
  ids.rearms = r.counter("agg_rearms");
  ids.claims = r.counter("agg_claims");
  ids.folds = r.counter("agg_folds");
  ids.seals = r.counter("agg_seals");
  ids.drains = r.counter("agg_drains");
  ids.crashes = r.counter("agg_crashes");
  ids.recoveries = r.counter("agg_recoveries");
  ids.refolds = r.counter("lease_refolds");
  ids.replans = r.counter("replans");
  ids.quorum_seals = r.counter("quorum_seals");
  ids.upload_retries = r.counter("upload_retries");
  ids.upload_disconnects = r.counter("upload_disconnects");
  ids.upload_resumes = r.counter("upload_resumes");
  ids.ckpt_marks = r.counter("ckpt_marks");
  ids.skipped_windows = r.counter("sync_windows_skipped");
  ids.windows = r.counter("shard_windows");
  ids.empty_windows = r.counter("shard_empty_windows");
  ids.barrier_idle_secs = r.gauge("shard_barrier_idle_secs");
  ids.round_secs = r.hist("round_secs");
  ids.fold_secs = r.hist("fold_secs");
  ids.gateway_wait_secs = r.hist("gateway_wait_secs");
  ids.retry_depth = r.hist("upload_retry_depth");
  ids.upload_session_secs = r.hist("upload_session_secs");
  return ids;
}

CampaignObs::CampaignObs(const Config& cfg, std::size_t shards,
                         std::size_t groups)
    : cfg_(cfg),
      shards_(shards),
      groups_(groups),
      registry_(groups + shards + 1) {
  if (cfg_.trace) trace_.init(shards, cfg_.trace_ring_kb);
  ids_ = Ids::intern(registry_);
}

}  // namespace lifl::obs
