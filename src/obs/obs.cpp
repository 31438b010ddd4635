#include "src/obs/obs.hpp"

namespace lifl::obs {

Ids Ids::intern(Registry& r) {
  Ids ids;
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
      registry_(groups + 1) {
  if (cfg_.trace) trace_.init(shards, cfg_.trace_ring_kb);
  ids_ = Ids::intern(registry_);
}

}  // namespace lifl::obs
