#include "src/ml/dataset.hpp"

#include "src/ml/tensor.hpp"

namespace lifl::ml {

FederatedDataGen::FederatedDataGen(const SyntheticTaskConfig& cfg, sim::Rng rng)
    : cfg_(cfg), rng_(rng) {
  class_means_.resize(cfg_.num_classes * cfg_.feature_dim);
  fill_normal(rng_, class_means_.data(), class_means_.size(),
              cfg_.class_mean_stddev);
}

void FederatedDataGen::sample_from_class(int cls, sim::Rng& rng,
                                         std::vector<float>& out) {
  out.resize(cfg_.feature_dim);
  const float* mean =
      class_means_.data() + static_cast<std::size_t>(cls) * cfg_.feature_dim;
  for (std::size_t j = 0; j < cfg_.feature_dim; ++j) {
    out[j] = mean[j] + static_cast<float>(rng.normal(0.0, cfg_.sample_noise));
  }
}

Dataset FederatedDataGen::make_test_set(std::size_t samples) {
  Dataset d;
  d.feature_dim = cfg_.feature_dim;
  d.num_classes = cfg_.num_classes;
  std::vector<float> x;
  for (std::size_t i = 0; i < samples; ++i) {
    const int cls = static_cast<int>(rng_.uniform_index(cfg_.num_classes));
    sample_from_class(cls, rng_, x);
    d.push(x.data(), cls);
  }
  return d;
}

Dataset FederatedDataGen::make_client_shard(std::size_t samples, double alpha,
                                            sim::Rng& rng) {
  Dataset d;
  d.feature_dim = cfg_.feature_dim;
  d.num_classes = cfg_.num_classes;
  const std::vector<double> mixture = rng.dirichlet(alpha, cfg_.num_classes);
  // Cumulative distribution for class sampling.
  std::vector<double> cdf(mixture.size());
  double acc = 0.0;
  for (std::size_t c = 0; c < mixture.size(); ++c) {
    acc += mixture[c];
    cdf[c] = acc;
  }
  std::vector<float> x;
  for (std::size_t i = 0; i < samples; ++i) {
    const double u = rng.uniform() * acc;
    int cls = 0;
    while (cls + 1 < static_cast<int>(cdf.size()) && cdf[cls] < u) ++cls;
    sample_from_class(cls, rng, x);
    d.push(x.data(), cls);
  }
  return d;
}

std::vector<std::size_t> FederatedDataGen::class_histogram(const Dataset& d) {
  std::vector<std::size_t> h(d.num_classes, 0);
  for (int y : d.labels) h[static_cast<std::size_t>(y)]++;
  return h;
}

}  // namespace lifl::ml
