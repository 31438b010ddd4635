#include "src/fl/fedavg.hpp"

#include <algorithm>
#include <stdexcept>

#include "src/ml/kernels.hpp"
#include "src/ml/sweep_pool.hpp"

namespace lifl::fl {

namespace {

namespace k = ml::kernels;

}  // namespace

void FedAvgAccumulator::check_open() const {
  if (sealed_) {
    throw std::logic_error("FedAvg: add after finalize; reset() first");
  }
}

void FedAvgAccumulator::add(const ModelUpdate& update, double scale) {
  add(describe(update), update.tensor, scale);
}

void FedAvgAccumulator::add(const UpdateDesc& update,
                            const std::shared_ptr<const ml::Tensor>& tensor,
                            double scale) {
  check_open();
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
  if (tensor) add_tensor_weighted(tensor, static_cast<float>(eff));
  // Logical-only weight: contributes to the divisor and nothing to the sum
  // (the defined zero tensor) — exact in sum form, no rescaling.
  total_samples_ += update.sample_count;
  total_weight_ += eff;
  updates_folded_ += update.updates_folded;
}

void FedAvgAccumulator::add(const std::shared_ptr<const ml::Tensor>& params,
                            std::uint64_t sample_count) {
  check_open();
  if (sample_count == 0) {
    throw std::invalid_argument("FedAvg: zero sample_count");
  }
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
  // A ring left full by a closing add that was not the last one folds now.
  if (parked_ == kFoldSlots) fold_ring(/*divide=*/false);
  // Park the update zero-copy (a shared_ptr to the shm-resident tensor);
  // a full ring folds in ONE accumulator sweep, unless finalize is next.
  ring_[parked_] = params;
  ring_weights_[parked_] = weight;
  if (++parked_ == kFoldSlots && !closing_) fold_ring(/*divide=*/false);
}

void FedAvgAccumulator::fold_ring(bool divide) {
  std::array<const float*, kFoldSlots> xs;
  for (std::size_t j = 0; j < parked_; ++j) xs[j] = ring_[j]->data();
  const std::size_t n = ring_[0]->size();
  const k::Ops& ops = k::ops();
  // The first sweep writes the sum, every later one accumulates into it.
  const auto fold = sum_ ? ops.axpyn : ops.axpyn_into;
  const auto scale = ops.scale;
  if (!sum_) sum_ = ml::TensorPool::global().acquire(n);
  float* acc = sum_->data();
  const auto inv = static_cast<float>(1.0 / total_weight_);
  ml::parallel_sweep(n, [&](std::size_t lo, std::size_t hi) {
    std::array<const float*, kFoldSlots> at;
    for (std::size_t j = 0; j < parked_; ++j) at[j] = xs[j] + lo;
    fold(acc + lo, ring_weights_.data(), at.data(), parked_, hi - lo);
    // The divide of a closing fold, on the chunk just written: the same
    // two roundings per element, in the same order, as two sweeps.
    if (divide) scale(acc + lo, inv, hi - lo);
  });
  for (std::size_t j = 0; j < parked_; ++j) ring_[j].reset();
  parked_ = 0;
}

void FedAvgAccumulator::finalize() {
  if (sealed_) return;
  sealed_ = true;
  closing_ = false;
  // Divide by the *effective* weight total, in place: `scale` is the same
  // single multiply per element as dividing into a second buffer, so the
  // average is bitwise unchanged. With unit scales the divisor is the exact
  // integer sample total (integer sums are exact in double), so the
  // synchronous path produces bit-identical averages to the historical
  // integer-divisor code. A parked ring folds and divides in one sweep;
  // only a sum with nothing parked needs a divide sweep of its own.
  if (parked_ > 0) {
    fold_ring(/*divide=*/true);
    return;
  }
  if (!sum_) return;
  const auto inv = static_cast<float>(1.0 / total_weight_);
  float* avg = sum_->data();
  const auto scale = k::ops().scale;
  ml::parallel_sweep(sum_->size(), [&](std::size_t lo, std::size_t hi) {
    scale(avg + lo, inv, hi - lo);
  });
}

std::shared_ptr<const ml::Tensor> FedAvgAccumulator::result() {
  finalize();
  return sum_;
}

ModelUpdate FedAvgAccumulator::take_update(std::uint32_t model_version,
                                           ParticipantId producer,
                                           std::size_t logical_bytes) {
  finalize();
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
  // The consumer now owns the only buffer: it recycles when they drop it.
  u.tensor = std::move(sum_);
  return u;
}

void FedAvgAccumulator::reset() {
  // Dropping the pooled handles recycles the buffers (unless a caller
  // still holds what `result()` shared — then it recycles when they drop).
  sum_.reset();
  for (std::size_t j = 0; j < parked_; ++j) ring_[j].reset();
  parked_ = 0;
  sealed_ = false;
  closing_ = false;
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
