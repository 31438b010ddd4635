#include "src/ml/conv.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace lifl::ml {

namespace {

constexpr std::size_t kK = 3;  ///< kernel size (3x3 everywhere)

/// Numerically stable softmax + cross-entropy; returns loss, fills probs.
double softmax_xent(const std::vector<float>& logits, int label,
                    std::vector<float>& probs) {
  probs.resize(logits.size());
  float maxv = logits[0];
  for (float v : logits) maxv = std::max(maxv, v);
  double sum = 0.0;
  for (std::size_t i = 0; i < logits.size(); ++i) {
    probs[i] = std::exp(logits[i] - maxv);
    sum += probs[i];
  }
  for (auto& p : probs) p = static_cast<float>(p / sum);
  const double p_label = std::max(1e-12, static_cast<double>(
                                             probs[static_cast<std::size_t>(
                                                 label)]));
  return -std::log(p_label);
}

}  // namespace

struct TinyResNet::Trace {
  std::vector<float> input;                     ///< C_in x H x W
  std::vector<std::vector<float>> pre;          ///< pre-activation per conv
  std::vector<std::vector<float>> post;         ///< post-ReLU per stage
  std::vector<float> pooled;                    ///< F (global average)
  std::vector<float> logits;                    ///< classes
};

TinyResNet::TinyResNet(Config cfg) : cfg_(cfg) {
  if (cfg_.filters == 0 || cfg_.num_classes == 0 || cfg_.height == 0 ||
      cfg_.width == 0 || cfg_.in_channels == 0) {
    throw std::invalid_argument("TinyResNet: zero-sized dimension");
  }
  std::size_t off = 0;
  auto add_conv = [&](std::size_t in_ch, std::size_t out_ch) {
    ConvParam p;
    p.in_ch = in_ch;
    p.out_ch = out_ch;
    p.w_off = off;
    off += out_ch * in_ch * kK * kK;
    p.b_off = off;
    off += out_ch;
    convs_.push_back(p);
  };
  add_conv(cfg_.in_channels, cfg_.filters);       // stem
  for (std::size_t b = 0; b < cfg_.blocks; ++b) { // residual units
    add_conv(cfg_.filters, cfg_.filters);
    add_conv(cfg_.filters, cfg_.filters);
  }
  dense_w_off_ = off;
  off += cfg_.num_classes * cfg_.filters;
  dense_b_off_ = off;
  off += cfg_.num_classes;
  param_count_ = off;
  params_ = Tensor(param_count_, 0.0f);
}

void TinyResNet::init(sim::Rng& rng) {
  for (const auto& c : convs_) {
    const auto fan_in = static_cast<double>(c.in_ch * kK * kK);
    const auto stddev = static_cast<float>(std::sqrt(2.0 / fan_in));
    fill_normal(rng, params_.data() + c.w_off, c.out_ch * c.in_ch * kK * kK,
                stddev);
    for (std::size_t i = 0; i < c.out_ch; ++i) params_[c.b_off + i] = 0.0f;
  }
  const auto stddev =
      static_cast<float>(std::sqrt(2.0 / static_cast<double>(cfg_.filters)));
  fill_normal(rng, params_.data() + dense_w_off_,
              cfg_.num_classes * cfg_.filters, stddev);
  for (std::size_t i = 0; i < cfg_.num_classes; ++i) {
    params_[dense_b_off_ + i] = 0.0f;
  }
}

void TinyResNet::set_params(const Tensor& p) {
  if (p.size() != param_count_) {
    throw std::invalid_argument("TinyResNet::set_params: size mismatch");
  }
  params_ = p;
}

void TinyResNet::conv3x3(const ConvParam& p, const std::vector<float>& in,
                         std::vector<float>& out) const {
  const std::size_t H = cfg_.height, W = cfg_.width;
  out.assign(p.out_ch * H * W, 0.0f);
  const float* w = params_.data() + p.w_off;
  const float* b = params_.data() + p.b_off;
  for (std::size_t oc = 0; oc < p.out_ch; ++oc) {
    for (std::size_t y = 0; y < H; ++y) {
      for (std::size_t x = 0; x < W; ++x) {
        float acc = b[oc];
        for (std::size_t ic = 0; ic < p.in_ch; ++ic) {
          for (std::size_t ky = 0; ky < kK; ++ky) {
            const auto iy = static_cast<std::ptrdiff_t>(y + ky) - 1;
            if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(H)) continue;
            for (std::size_t kx = 0; kx < kK; ++kx) {
              const auto ix = static_cast<std::ptrdiff_t>(x + kx) - 1;
              if (ix < 0 || ix >= static_cast<std::ptrdiff_t>(W)) continue;
              acc += w[((oc * p.in_ch + ic) * kK + ky) * kK + kx] *
                     in[(ic * H + static_cast<std::size_t>(iy)) * W +
                        static_cast<std::size_t>(ix)];
            }
          }
        }
        out[(oc * H + y) * W + x] = acc;
      }
    }
  }
}

void TinyResNet::conv3x3_backward(const ConvParam& p,
                                  const std::vector<float>& in,
                                  const std::vector<float>& dout,
                                  std::vector<float>& din,
                                  Tensor& grad) const {
  const std::size_t H = cfg_.height, W = cfg_.width;
  din.assign(p.in_ch * H * W, 0.0f);
  const float* w = params_.data() + p.w_off;
  float* dw = grad.data() + p.w_off;
  float* db = grad.data() + p.b_off;
  for (std::size_t oc = 0; oc < p.out_ch; ++oc) {
    for (std::size_t y = 0; y < H; ++y) {
      for (std::size_t x = 0; x < W; ++x) {
        const float g = dout[(oc * H + y) * W + x];
        if (g == 0.0f) continue;
        db[oc] += g;
        for (std::size_t ic = 0; ic < p.in_ch; ++ic) {
          for (std::size_t ky = 0; ky < kK; ++ky) {
            const auto iy = static_cast<std::ptrdiff_t>(y + ky) - 1;
            if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(H)) continue;
            for (std::size_t kx = 0; kx < kK; ++kx) {
              const auto ix = static_cast<std::ptrdiff_t>(x + kx) - 1;
              if (ix < 0 || ix >= static_cast<std::ptrdiff_t>(W)) continue;
              const std::size_t in_idx =
                  (ic * H + static_cast<std::size_t>(iy)) * W +
                  static_cast<std::size_t>(ix);
              dw[((oc * p.in_ch + ic) * kK + ky) * kK + kx] += g * in[in_idx];
              din[in_idx] += g * w[((oc * p.in_ch + ic) * kK + ky) * kK + kx];
            }
          }
        }
      }
    }
  }
}

void TinyResNet::forward(const float* x, Trace& t) const {
  const std::size_t H = cfg_.height, W = cfg_.width;
  const std::size_t map = H * W;
  t.input.assign(x, x + cfg_.in_channels * map);
  t.pre.clear();
  t.post.clear();
  // One stem stage plus two per residual unit. Reserving keeps references
  // to earlier stages (the skip connections) valid across push_backs.
  t.pre.reserve(1 + 2 * cfg_.blocks);
  t.post.reserve(1 + 2 * cfg_.blocks);

  // Stem: conv + ReLU.
  std::vector<float> cur;
  t.pre.emplace_back();
  conv3x3(convs_[0], t.input, t.pre.back());
  cur = t.pre.back();
  for (auto& v : cur) v = std::max(0.0f, v);
  t.post.push_back(cur);

  // Residual units.
  for (std::size_t b = 0; b < cfg_.blocks; ++b) {
    const std::vector<float>& skip = t.post.back();
    t.pre.emplace_back();
    conv3x3(convs_[1 + 2 * b], skip, t.pre.back());
    std::vector<float> mid = t.pre.back();
    for (auto& v : mid) v = std::max(0.0f, v);
    t.post.push_back(mid);

    t.pre.emplace_back();
    conv3x3(convs_[2 + 2 * b], mid, t.pre.back());
    std::vector<float> out = t.pre.back();
    for (std::size_t i = 0; i < out.size(); ++i) out[i] += skip[i];
    for (auto& v : out) v = std::max(0.0f, v);
    t.post.push_back(out);
  }

  // Global average pool over each of the F maps.
  const std::vector<float>& trunk = t.post.back();
  t.pooled.assign(cfg_.filters, 0.0f);
  for (std::size_t f = 0; f < cfg_.filters; ++f) {
    double sum = 0.0;
    for (std::size_t i = 0; i < map; ++i) sum += trunk[f * map + i];
    t.pooled[f] = static_cast<float>(sum / static_cast<double>(map));
  }

  // Dense head.
  t.logits.assign(cfg_.num_classes, 0.0f);
  const float* dw = params_.data() + dense_w_off_;
  const float* db = params_.data() + dense_b_off_;
  for (std::size_t c = 0; c < cfg_.num_classes; ++c) {
    float acc = db[c];
    for (std::size_t f = 0; f < cfg_.filters; ++f) {
      acc += dw[c * cfg_.filters + f] * t.pooled[f];
    }
    t.logits[c] = acc;
  }
}

void TinyResNet::backward(const Trace& t, const std::vector<float>& dlogits,
                          Tensor& grad) const {
  const std::size_t H = cfg_.height, W = cfg_.width;
  const std::size_t map = H * W;

  // Dense head.
  const float* dw_params = params_.data() + dense_w_off_;
  float* dW = grad.data() + dense_w_off_;
  float* dB = grad.data() + dense_b_off_;
  std::vector<float> dpooled(cfg_.filters, 0.0f);
  for (std::size_t c = 0; c < cfg_.num_classes; ++c) {
    dB[c] += dlogits[c];
    for (std::size_t f = 0; f < cfg_.filters; ++f) {
      dW[c * cfg_.filters + f] += dlogits[c] * t.pooled[f];
      dpooled[f] += dlogits[c] * dw_params[c * cfg_.filters + f];
    }
  }

  // Global average pool: gradient spreads uniformly over each map.
  std::vector<float> dtrunk(cfg_.filters * map, 0.0f);
  for (std::size_t f = 0; f < cfg_.filters; ++f) {
    const float g = dpooled[f] / static_cast<float>(map);
    for (std::size_t i = 0; i < map; ++i) dtrunk[f * map + i] = g;
  }

  // Residual units, last to first. Stage indices into t.pre/t.post:
  //   pre[0]            stem conv
  //   pre[1+2b], post[1+2b]   first conv of block b (post is ReLU'd mid)
  //   pre[2+2b], post[2+2b]   second conv of block b (post is out)
  std::vector<float> dout = std::move(dtrunk);
  for (std::size_t bi = cfg_.blocks; bi-- > 0;) {
    const std::vector<float>& out_pre = t.pre[2 + 2 * bi];    // conv2 + skip
    const std::vector<float>& skip = t.post[2 * bi];          // block input
    const std::vector<float>& mid = t.post[1 + 2 * bi];       // ReLU(conv1)
    const std::vector<float>& mid_pre = t.pre[1 + 2 * bi];

    // ReLU at the block output: active where conv2(mid) + skip > 0.
    std::vector<float> dsum(dout.size());
    for (std::size_t i = 0; i < dout.size(); ++i) {
      dsum[i] = (out_pre[i] + skip[i]) > 0.0f ? dout[i] : 0.0f;
    }
    // Branch 1: through conv2 and the mid ReLU into conv1.
    std::vector<float> dmid;
    conv3x3_backward(convs_[2 + 2 * bi], mid, dsum, dmid, grad);
    for (std::size_t i = 0; i < dmid.size(); ++i) {
      if (mid_pre[i] <= 0.0f) dmid[i] = 0.0f;
    }
    std::vector<float> dskip_via_conv;
    conv3x3_backward(convs_[1 + 2 * bi], skip, dmid, dskip_via_conv, grad);
    // Branch 2: the identity skip.
    for (std::size_t i = 0; i < dsum.size(); ++i) {
      dskip_via_conv[i] += dsum[i];
    }
    dout = std::move(dskip_via_conv);
  }

  // Stem ReLU + conv.
  const std::vector<float>& stem_pre = t.pre[0];
  for (std::size_t i = 0; i < dout.size(); ++i) {
    if (stem_pre[i] <= 0.0f) dout[i] = 0.0f;
  }
  std::vector<float> dinput;
  conv3x3_backward(convs_[0], t.input, dout, dinput, grad);
}

std::vector<float> TinyResNet::logits(const float* x) const {
  Trace t;
  forward(x, t);
  return t.logits;
}

int TinyResNet::predict(const float* x) const {
  const auto l = logits(x);
  return static_cast<int>(std::max_element(l.begin(), l.end()) - l.begin());
}

double TinyResNet::loss(const Dataset& data) const {
  double total = 0.0;
  std::vector<float> probs;
  for (std::size_t i = 0; i < data.labels.size(); ++i) {
    const auto l = logits(data.features.data() + i * data.feature_dim);
    total += softmax_xent(l, data.labels[i], probs);
  }
  return data.labels.empty() ? 0.0
                             : total / static_cast<double>(data.labels.size());
}

double TinyResNet::accuracy(const Dataset& data) const {
  if (data.labels.empty()) return 0.0;
  std::size_t hits = 0;
  for (std::size_t i = 0; i < data.labels.size(); ++i) {
    if (predict(data.features.data() + i * data.feature_dim) ==
        data.labels[i]) {
      ++hits;
    }
  }
  return static_cast<double>(hits) / static_cast<double>(data.labels.size());
}

double TinyResNet::gradient(const Dataset& data,
                            const std::vector<std::size_t>& idx,
                            Tensor& grad) const {
  if (grad.size() != param_count_) grad = Tensor(param_count_, 0.0f);
  grad.fill(0.0f);
  if (idx.empty()) return 0.0;
  double total_loss = 0.0;
  Trace t;
  std::vector<float> probs;
  for (const std::size_t i : idx) {
    forward(data.features.data() + i * data.feature_dim, t);
    total_loss += softmax_xent(t.logits, data.labels[i], probs);
    std::vector<float> dlogits(probs.begin(), probs.end());
    dlogits[static_cast<std::size_t>(data.labels[i])] -= 1.0f;
    const auto inv = 1.0f / static_cast<float>(idx.size());
    for (auto& v : dlogits) v *= inv;
    backward(t, dlogits, grad);
  }
  return total_loss / static_cast<double>(idx.size());
}

void TinyResNet::sgd_step(const Tensor& grad, float lr) {
  params_.axpy(-lr, grad);
}

// ------------------------------------------------------------- ImageDataGen

ImageDataGen::ImageDataGen(TinyResNet::Config cfg, sim::Rng rng)
    : cfg_(cfg), rng_(rng) {
  // Class-specific blob centers, spread over the image with margin 1.
  for (std::size_t c = 0; c < cfg_.num_classes; ++c) {
    blob_centers_.emplace_back(
        1.0 + rng_.uniform() * (static_cast<double>(cfg_.height) - 2.0),
        1.0 + rng_.uniform() * (static_cast<double>(cfg_.width) - 2.0));
  }
}

void ImageDataGen::render(int cls, sim::Rng& rng,
                          std::vector<float>& out) const {
  const std::size_t H = cfg_.height, W = cfg_.width;
  out.assign(cfg_.in_channels * H * W, 0.0f);
  const auto [cy, cx] = blob_centers_[static_cast<std::size_t>(cls)];
  constexpr double kSigma2 = 1.6;
  for (std::size_t ch = 0; ch < cfg_.in_channels; ++ch) {
    for (std::size_t y = 0; y < H; ++y) {
      for (std::size_t x = 0; x < W; ++x) {
        const double dy = static_cast<double>(y) - cy;
        const double dx = static_cast<double>(x) - cx;
        const double blob = std::exp(-(dy * dy + dx * dx) / (2.0 * kSigma2));
        out[(ch * H + y) * W + x] =
            static_cast<float>(blob + rng.normal(0.0, 0.25));
      }
    }
  }
}

Dataset ImageDataGen::make_test_set(std::size_t samples) {
  Dataset d;
  d.num_classes = cfg_.num_classes;
  d.feature_dim = cfg_.in_channels * cfg_.height * cfg_.width;
  std::vector<float> img;
  for (std::size_t i = 0; i < samples; ++i) {
    const int cls = static_cast<int>(rng_.next_u64() % cfg_.num_classes);
    render(cls, rng_, img);
    d.features.insert(d.features.end(), img.begin(), img.end());
    d.labels.push_back(cls);
  }
  return d;
}

Dataset ImageDataGen::make_client_shard(std::size_t samples, double alpha,
                                        sim::Rng& rng) {
  // Dirichlet(alpha) class mixture via normalized Gamma draws.
  std::vector<double> mix(cfg_.num_classes);
  double sum = 0.0;
  for (auto& m : mix) {
    m = rng.gamma(alpha);
    sum += m;
  }
  for (auto& m : mix) m /= sum;

  Dataset d;
  d.num_classes = cfg_.num_classes;
  d.feature_dim = cfg_.in_channels * cfg_.height * cfg_.width;
  std::vector<float> img;
  for (std::size_t i = 0; i < samples; ++i) {
    double u = rng.uniform();
    int cls = 0;
    for (std::size_t c = 0; c < mix.size(); ++c) {
      if (u < mix[c] || c + 1 == mix.size()) {
        cls = static_cast<int>(c);
        break;
      }
      u -= mix[c];
    }
    render(cls, rng, img);
    d.features.insert(d.features.end(), img.begin(), img.end());
    d.labels.push_back(cls);
  }
  return d;
}

}  // namespace lifl::ml
