#include "src/ml/mlp.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace lifl::ml {

namespace {

/// Numerically stable in-place softmax.
void softmax(std::vector<float>& v) {
  float mx = v[0];
  for (float x : v) mx = std::max(mx, x);
  float sum = 0.0f;
  for (auto& x : v) {
    x = std::exp(x - mx);
    sum += x;
  }
  for (auto& x : v) x /= sum;
}

}  // namespace

Mlp::Mlp(std::vector<std::size_t> dims) : dims_(std::move(dims)) {
  if (dims_.size() < 2) {
    throw std::invalid_argument("Mlp: need at least input and output dims");
  }
  std::size_t off = 0;
  for (std::size_t l = 0; l + 1 < dims_.size(); ++l) {
    Layer layer;
    layer.in = dims_[l];
    layer.out = dims_[l + 1];
    layer.w_off = off;
    off += layer.in * layer.out;
    layer.b_off = off;
    off += layer.out;
    layers_.push_back(layer);
  }
  param_count_ = off;
  params_ = Tensor(param_count_);
}

void Mlp::init(sim::Rng& rng) {
  for (const Layer& l : layers_) {
    const float stddev = std::sqrt(2.0f / static_cast<float>(l.in));
    fill_normal(rng, params_.data() + l.w_off, l.in * l.out, stddev);
    for (std::size_t i = 0; i < l.out; ++i) params_[l.b_off + i] = 0.0f;
  }
}

void Mlp::set_params(const Tensor& p) {
  if (p.size() != param_count_) {
    throw std::invalid_argument("Mlp::set_params: size mismatch");
  }
  params_ = p;
}

void Mlp::forward(const float* x, std::vector<std::vector<float>>& acts) const {
  acts.assign(layers_.size() + 1, {});
  acts[0].assign(x, x + dims_[0]);
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    const Layer& ly = layers_[l];
    auto& out = acts[l + 1];
    out.assign(ly.out, 0.0f);
    const float* w = params_.data() + ly.w_off;
    const float* b = params_.data() + ly.b_off;
    const auto& in = acts[l];
    for (std::size_t o = 0; o < ly.out; ++o) {
      float s = b[o];
      const float* wrow = w + o * ly.in;
      for (std::size_t i = 0; i < ly.in; ++i) s += wrow[i] * in[i];
      out[o] = s;
    }
    if (l + 1 < layers_.size()) {
      for (auto& v : out) v = std::max(v, 0.0f);  // ReLU on hidden layers
    }
  }
}

std::vector<float> Mlp::logits(const float* x) const {
  std::vector<std::vector<float>> acts;
  forward(x, acts);
  return acts.back();
}

int Mlp::predict(const float* x) const {
  const auto lg = logits(x);
  return static_cast<int>(std::max_element(lg.begin(), lg.end()) - lg.begin());
}

double Mlp::loss(const Dataset& data) const {
  double total = 0.0;
  for (std::size_t i = 0; i < data.size(); ++i) {
    auto lg = logits(data.row(i));
    softmax(lg);
    const float p =
        std::max(lg[static_cast<std::size_t>(data.labels[i])], 1e-12f);
    total += -std::log(p);
  }
  return data.size() ? total / static_cast<double>(data.size()) : 0.0;
}

double Mlp::accuracy(const Dataset& data) const {
  if (data.size() == 0) return 0.0;
  std::size_t correct = 0;
  for (std::size_t i = 0; i < data.size(); ++i) {
    if (predict(data.row(i)) == data.labels[i]) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(data.size());
}

double Mlp::gradient(const Dataset& data, const std::vector<std::size_t>& idx,
                     Tensor& grad) const {
  if (grad.size() != param_count_) grad = Tensor(param_count_);
  grad.fill(0.0f);
  if (idx.empty()) return 0.0;

  double total_loss = 0.0;
  std::vector<std::vector<float>> acts;
  std::vector<float> delta, next_delta;
  for (const std::size_t ex : idx) {
    forward(data.row(ex), acts);
    // Output delta: softmax - onehot.
    delta = acts.back();
    softmax(delta);
    const float p =
        std::max(delta[static_cast<std::size_t>(data.labels[ex])], 1e-12f);
    total_loss += -std::log(p);
    delta[static_cast<std::size_t>(data.labels[ex])] -= 1.0f;

    for (std::size_t l = layers_.size(); l-- > 0;) {
      const Layer& ly = layers_[l];
      const auto& in = acts[l];
      float* gw = grad.data() + ly.w_off;
      float* gb = grad.data() + ly.b_off;
      for (std::size_t o = 0; o < ly.out; ++o) {
        const float d = delta[o];
        gb[o] += d;
        float* gwrow = gw + o * ly.in;
        for (std::size_t i = 0; i < ly.in; ++i) gwrow[i] += d * in[i];
      }
      if (l > 0) {
        // Propagate delta through W and the ReLU derivative of acts[l].
        next_delta.assign(ly.in, 0.0f);
        const float* w = params_.data() + ly.w_off;
        for (std::size_t o = 0; o < ly.out; ++o) {
          const float d = delta[o];
          const float* wrow = w + o * ly.in;
          for (std::size_t i = 0; i < ly.in; ++i) next_delta[i] += d * wrow[i];
        }
        for (std::size_t i = 0; i < ly.in; ++i) {
          if (in[i] <= 0.0f) next_delta[i] = 0.0f;
        }
        delta.swap(next_delta);
      }
    }
  }
  grad.scale(1.0f / static_cast<float>(idx.size()));
  return total_loss / static_cast<double>(idx.size());
}

void Mlp::sgd_step(const Tensor& grad, float lr) {
  params_.axpy(-lr, grad);
}

}  // namespace lifl::ml
