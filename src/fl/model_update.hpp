#pragma once

#include <cstdint>
#include <memory>

#include "src/ml/tensor.hpp"
#include "src/shm/object_store.hpp"
#include "src/sim/time.hpp"

namespace lifl::fl {

/// Identifier of an FL participant (client or aggregator instance).
using ParticipantId = std::uint64_t;

/// A model update message — the (w_k, A_k) pair of Eq. 1.
///
/// `tensor` is optional: small-model runs carry a real parameter tensor
/// (and the platform aggregates it for real); heavyweight-model simulations
/// carry only `logical_bytes`, exercising identical data-plane code paths
/// without materializing 240 MB buffers. `sample_count` is the FedAvg
/// weight; for intermediate (partially aggregated) updates it is the total
/// sample count the aggregate represents, which is what makes hierarchical
/// aggregation equal flat aggregation.
struct ModelUpdate {
  std::uint32_t model_version = 0;   ///< global version it was trained from
  ParticipantId producer = 0;        ///< client or aggregator that sent it
  std::uint64_t sample_count = 0;    ///< FedAvg weight (c_k of Eq. 1)
  std::uint32_t updates_folded = 1;  ///< leaf updates this aggregate contains
  /// Effective FedAvg weight. 0 (the default, and what every client upload
  /// carries) means "use `sample_count`". Intermediate aggregates produced
  /// under staleness-weighted folding (FedAsync-style async mode) carry the
  /// discounted weight here — an exact double, so hierarchical aggregation
  /// still equals flat aggregation — while `sample_count` keeps the raw
  /// sample total for telemetry. In synchronous mode the two are equal and
  /// the folding math is bitwise identical to the unweighted path.
  double weight = 0.0;
  std::size_t logical_bytes = 0;     ///< wire size of the update
  std::shared_ptr<const ml::Tensor> tensor;  ///< optional real payload
  /// True while the update is still in its original client-upload encoding
  /// (stream not yet terminated by a gateway or broker): the consumer's
  /// Recv step then pays full client-stream decoding.
  bool from_client = false;
  /// Payload failed its integrity check in transit (fault injection):
  /// consumers discard it at Recv instead of folding garbage; the client
  /// retransmits with backoff.
  bool corrupted = false;

  // Provenance for latency breakdowns.
  sim::SimTime created_at = 0.0;
  std::uint32_t hops = 0;

  /// RAII lease on the shared-memory object holding this update (LIFL
  /// plane). Copies of the update share it; dropping the last copy
  /// releases the shm reference — the recycle step of the store's
  /// allocate/recycle/destroy lifecycle. Empty off the LIFL plane.
  shm::Lease lease;
};

}  // namespace lifl::fl
