#include "src/fl/server_optimizer.hpp"

#include <cmath>
#include <stdexcept>

#include "src/ml/kernels.hpp"
#include "src/ml/tensor_pool.hpp"

namespace lifl::fl {

std::string to_string(ServerOptimizerKind kind) {
  switch (kind) {
    case ServerOptimizerKind::kFedAvg: return "FedAvg";
    case ServerOptimizerKind::kFedAvgM: return "FedAvgM";
    case ServerOptimizerKind::kFedAdagrad: return "FedAdagrad";
    case ServerOptimizerKind::kFedYogi: return "FedYogi";
    case ServerOptimizerKind::kFedAdam: return "FedAdam";
  }
  return "unknown";
}

void ServerOptimizer::step(ml::Tensor& global, const ml::Tensor& round_avg) {
  if (global.size() != round_avg.size()) {
    throw std::invalid_argument("ServerOptimizer::step: size mismatch");
  }
  const std::size_t n = global.size();
  ++rounds_;

  if (cfg_.kind == ServerOptimizerKind::kFedAvg) {
    // Plain FedAvg: the average *is* the next global model.
    global = round_avg;
    return;
  }

  const ml::kernels::Ops& ops = ml::kernels::ops();

  // Pseudo-gradient of the round, in a pooled scratch buffer (released back
  // to the pool when `delta` drops at the end of the step): avg − global
  // as a write-only 2-slot sweep.
  auto delta = ml::TensorPool::global().acquire(n);
  const float signs[2] = {1.0f, -1.0f};
  const float* terms[2] = {round_avg.data(), global.data()};
  ops.axpyn_into(delta->data(), signs, terms, 2, n);

  if (momentum_.size() != n) momentum_ = ml::Tensor(n, 0.0f);
  const auto beta1 = static_cast<float>(cfg_.beta1);
  // m = β1·m + (1-β1)·Δ — the fused scale+axpy pair in one pass.
  ops.axpby(momentum_.data(), beta1, 1.0f - beta1, delta->data(), n);
  // Adam-style bias correction: without it the momentum estimate starts at
  // (1-beta1) of the true pseudo-gradient and needs ~1/(1-beta1) rounds to
  // ramp — far too slow for FL where rounds are expensive.
  const auto bias1 = static_cast<float>(
      1.0 - std::pow(cfg_.beta1, static_cast<double>(rounds_)));

  const auto lr = static_cast<float>(cfg_.lr);
  if (cfg_.kind == ServerOptimizerKind::kFedAvgM) {
    global.axpy(lr / bias1, momentum_);
    return;
  }

  // Adaptive kinds maintain a per-parameter second moment v_t.
  if (second_moment_.size() != n) second_moment_ = ml::Tensor(n, 0.0f);
  const auto beta2 = static_cast<float>(cfg_.beta2);
  const auto tau = static_cast<float>(cfg_.tau);
  const float* __restrict d = delta->data();
  float* __restrict sm = second_moment_.data();
  float* __restrict g = global.data();
  const float* __restrict m = momentum_.data();
  for (std::size_t i = 0; i < n; ++i) {
    const float d2 = d[i] * d[i];
    float& v = sm[i];
    switch (cfg_.kind) {
      case ServerOptimizerKind::kFedAdagrad:
        v += d2;
        break;
      case ServerOptimizerKind::kFedYogi:
        v -= (1.0f - beta2) * d2 * (v - d2 > 0.0f ? 1.0f : -1.0f);
        break;
      case ServerOptimizerKind::kFedAdam:
        v = beta2 * v + (1.0f - beta2) * d2;
        break;
      case ServerOptimizerKind::kFedAvg:
      case ServerOptimizerKind::kFedAvgM:
        break;  // unreachable
    }
    g[i] += lr * (m[i] / bias1) / (std::sqrt(v) + tau);
  }
}

void ServerOptimizer::reset() {
  momentum_ = ml::Tensor{};
  second_moment_ = ml::Tensor{};
  rounds_ = 0;
}

}  // namespace lifl::fl
