#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>

#include "src/ml/tensor.hpp"

namespace lifl::fl {

/// Identifier of an FL participant (client or aggregator instance).
using ParticipantId = std::uint64_t;

/// A model update message — the (w_k, A_k) pair of Eq. 1 — as a value: what
/// clients hand the data plane (`client_upload`, `seed_update`) and what a
/// finished aggregation produces (`on_result`, `AggregatorRuntime::inject`).
/// Inside the plane an update travels as an `UpdateDesc` instead, with the
/// payload held by the plane (see there).
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
};

/// An update inside the data plane: the fields of `ModelUpdate` plus a
/// handle on the payload, which the plane holds — LIFL §4.2's object key.
/// Trivially copyable, so a hop (flight cargo, pool ring, wake, runtime
/// FIFO) copies 48 bytes and destroys nothing.
///
/// `payload` names one reference on a payload the plane keeps for this
/// update: on the LIFL plane an entry of the node's shm object store
/// (logical-only updates included, as the store accounts their bytes); on
/// the SF/SL planes, and for a real tensor still on its way to a gateway,
/// a cell of the plane's payload slab. 0 means no payload (a logical-only
/// update off the LIFL plane). Every copy the plane keeps is one retained
/// reference, dropped explicitly: `DataPlane::release` after a fold or a
/// discard.
/// The encoding (slot, home, generation) is the plane's business.
struct UpdateDesc {
  std::uint64_t sample_count = 0;    ///< as `ModelUpdate::sample_count`
  double weight = 0.0;               ///< as `ModelUpdate::weight`
  ParticipantId producer = 0;        ///< as `ModelUpdate::producer`
  std::size_t logical_bytes = 0;     ///< as `ModelUpdate::logical_bytes`
  std::uint32_t model_version = 0;   ///< as `ModelUpdate::model_version`
  std::uint32_t updates_folded = 1;  ///< as `ModelUpdate::updates_folded`
  std::uint32_t payload = 0;         ///< plane payload handle; 0 = none
  std::uint16_t payload_gen = 0;     ///< generation the handle was taken at
  bool from_client = false;          ///< as `ModelUpdate::from_client`
  bool corrupted = false;            ///< as `ModelUpdate::corrupted`
};
static_assert(std::is_trivially_copyable_v<UpdateDesc> &&
              sizeof(UpdateDesc) <= 48);

/// The descriptor fields of `u`, with no payload handle.
inline UpdateDesc describe(const ModelUpdate& u) noexcept {
  UpdateDesc d;
  d.sample_count = u.sample_count;
  d.weight = u.weight;
  d.producer = u.producer;
  d.logical_bytes = u.logical_bytes;
  d.model_version = u.model_version;
  d.updates_folded = u.updates_folded;
  d.from_client = u.from_client;
  d.corrupted = u.corrupted;
  return d;
}

}  // namespace lifl::fl
