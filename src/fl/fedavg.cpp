#include "src/fl/fedavg.hpp"

#include <algorithm>
#include <stdexcept>

#include "src/ml/kernels.hpp"

namespace lifl::fl {

namespace {

namespace k = ml::kernels;

}  // namespace

void FedAvgAccumulator::add(const ModelUpdate& update, double scale) {
  if (update.sample_count == 0) {
    throw std::invalid_argument("FedAvg: update with zero sample_count");
  }
  if (!(scale > 0.0)) {
    throw std::invalid_argument("FedAvg: fold scale must be positive");
  }
  // Effective weight: the update's carried weight (an intermediate
  // aggregate's discounted total) or its raw sample count, times the
  // caller's staleness factor. scale == 1 with no carried weight reduces
  // to exactly the historical integer coefficient.
  const double eff =
      (update.weight > 0.0 ? update.weight
                           : static_cast<double>(update.sample_count)) *
      scale;
  finalized_.reset();
  if (update.tensor) {
    add_tensor_weighted(update.tensor, static_cast<float>(eff));
  }
  // Logical-only weight: contributes to the divisor and nothing to the sum
  // (the defined zero tensor) — exact in sum form, no rescaling.
  total_samples_ += update.sample_count;
  total_weight_ += eff;
  updates_folded_ += update.updates_folded;
}

void FedAvgAccumulator::add(const std::shared_ptr<const ml::Tensor>& params,
                            std::uint64_t sample_count) {
  if (sample_count == 0) {
    throw std::invalid_argument("FedAvg: zero sample_count");
  }
  finalized_.reset();
  if (params) {
    add_tensor_weighted(params, static_cast<float>(sample_count));
  }
  total_samples_ += sample_count;
  total_weight_ += static_cast<double>(sample_count);
  ++updates_folded_;
}

void FedAvgAccumulator::add_tensor_weighted(
    const std::shared_ptr<const ml::Tensor>& params, float weight) {
  const std::size_t n = params->size();
  std::size_t have = n;
  if (parked_ > 0) {
    have = ring_[0]->size();
  } else if (sum_) {
    have = sum_->size();
  }
  if (n != have) {
    throw std::invalid_argument("FedAvg: tensor size mismatch");
  }
  // Park the update zero-copy (a shared_ptr to the shm-resident tensor);
  // a full ring folds in ONE accumulator sweep.
  ring_[parked_] = params;
  ring_weights_[parked_] = weight;
  if (++parked_ == kFoldSlots) flush_ring();
}

void FedAvgAccumulator::flush_ring() {
  if (parked_ == 0) return;
  std::array<const float*, kFoldSlots> xs;
  for (std::size_t j = 0; j < parked_; ++j) xs[j] = ring_[j]->data();
  const std::size_t n = ring_[0]->size();
  const k::Ops& ops = k::ops();
  if (!sum_) {
    sum_ = ml::TensorPool::global().acquire(n);
    ops.axpyn_into(sum_->data(), ring_weights_.data(), xs.data(), parked_, n);
  } else {
    ops.axpyn(sum_->data(), ring_weights_.data(), xs.data(), parked_, n);
  }
  for (std::size_t j = 0; j < parked_; ++j) ring_[j].reset();
  parked_ = 0;
}

void FedAvgAccumulator::finalize() const {
  if (finalized_) return;
  auto* self = const_cast<FedAvgAccumulator*>(this);
  self->flush_ring();
  if (!sum_ || total_weight_ <= 0.0) return;
  // Divide by the *effective* weight total. With unit scales this is the
  // exact integer sample total (integer sums are exact in double), so the
  // synchronous path produces bit-identical averages to the historical
  // integer-divisor code.
  const auto inv = static_cast<float>(1.0 / total_weight_);
  auto avg = ml::TensorPool::global().acquire(sum_->size());
  k::ops().scale_into(avg->data(), inv, sum_->data(), sum_->size());
  finalized_ = std::move(avg);
}

std::shared_ptr<const ml::Tensor> FedAvgAccumulator::result() const {
  finalize();
  return finalized_;
}

ModelUpdate FedAvgAccumulator::make_update(std::uint32_t model_version,
                                           ParticipantId producer,
                                           std::size_t logical_bytes) const {
  ModelUpdate u;
  u.model_version = model_version;
  u.producer = producer;
  u.sample_count = total_samples_;
  u.updates_folded = updates_folded_;
  // Carry the effective weight so a parent folds this aggregate at its
  // discounted worth (hierarchical == flat under staleness weighting). In
  // the unweighted case this equals sample_count exactly — same bits.
  u.weight = total_weight_;
  u.logical_bytes = logical_bytes;
  u.tensor = result();
  return u;
}

void FedAvgAccumulator::reset() {
  // Dropping the pooled handles recycles the buffers (unless a consumer
  // still holds the finalized average — then it recycles when they drop).
  sum_.reset();
  for (std::size_t j = 0; j < parked_; ++j) ring_[j].reset();
  parked_ = 0;
  finalized_.reset();
  total_samples_ = 0;
  total_weight_ = 0.0;
  updates_folded_ = 0;
}

ml::Tensor FedAvgAccumulator::batch_average(
    const std::vector<std::pair<const ml::Tensor*, std::uint64_t>>& updates) {
  if (updates.empty()) return {};
  const std::size_t n = updates.front().first->size();
  ml::Tensor out(n, 0.0f);
  double total = 0.0;
  for (const auto& [t, c] : updates) {
    if (t->size() != n) {
      throw std::invalid_argument("FedAvg: batch tensor size mismatch");
    }
    total += static_cast<double>(c);
  }
  const k::Ops& ops = k::ops();
  std::array<float, kFoldSlots> ws;
  std::array<const float*, kFoldSlots> xs;
  for (std::size_t i = 0; i < updates.size(); i += kFoldSlots) {
    const std::size_t fan = std::min(kFoldSlots, updates.size() - i);
    for (std::size_t j = 0; j < fan; ++j) {
      const auto& [t, c] = updates[i + j];
      ws[j] = static_cast<float>(static_cast<double>(c) / total);
      xs[j] = t->data();
    }
    ops.axpyn(out.data(), ws.data(), xs.data(), fan, n);
  }
  return out;
}

}  // namespace lifl::fl
