#include "src/ml/tensor_pool.hpp"

#include <algorithm>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/ml/kernels.hpp"

namespace lifl::ml {

/// Free lists + stats behind a mutex. The lock is uncontended on the
/// single-threaded fold path and pennies next to a multi-megabyte sweep.
struct TensorPool::Core {
  explicit Core(std::size_t cap) : capacity_bytes(cap) {}

  std::size_t capacity_bytes;
  mutable std::mutex mu;
  /// Exact-size buckets: aggregation traffic is a few distinct model sizes,
  /// so exact matching recycles everything without fragmentation games.
  std::unordered_map<std::size_t, std::vector<std::unique_ptr<Tensor>>> free;
  TensorPoolStats stats;

  /// Count `bytes` handed out to a client. Caller holds `mu`.
  void add_live(std::size_t bytes) {
    stats.live_bytes += bytes;
    stats.peak_live_bytes = std::max(stats.peak_live_bytes, stats.live_bytes);
  }

  /// Count an n-element acquire and pop a parked buffer for it, if any.
  std::unique_ptr<Tensor> take(std::size_t n) {
    std::lock_guard<std::mutex> lock(mu);
    ++stats.acquires;
    add_live(n * sizeof(float));
    auto it = free.find(n);
    if (it == free.end() || it->second.empty()) {
      ++stats.misses;
      return nullptr;
    }
    std::unique_ptr<Tensor> t = std::move(it->second.back());
    it->second.pop_back();
    ++stats.pool_hits;
    stats.bytes_pooled -= t->bytes();
    --stats.buffers_pooled;
    return t;
  }

  /// Take back a handle's tensor; `live` is what it counted at hand-out.
  void park(std::unique_ptr<Tensor> t, std::size_t live) {
    std::lock_guard<std::mutex> lock(mu);
    stats.live_bytes -= live;
    if (t == nullptr || t->empty()) return;
    if (stats.bytes_pooled + t->bytes() > capacity_bytes) {
      ++stats.dropped;
      return;  // unique_ptr frees it
    }
    ++stats.recycles;
    stats.bytes_pooled += t->bytes();
    stats.buffers_pooled++;
    if (stats.bytes_pooled > stats.peak_bytes_pooled) {
      stats.peak_bytes_pooled = stats.bytes_pooled;
    }
    free[t->size()].push_back(std::move(t));
  }
};

/// shared_ptr deleter: park the whole tensor back into the pool.
struct TensorPool::Recycler {
  std::shared_ptr<Core> core;
  std::size_t live;  ///< the tensor's bytes when handed out
  void operator()(Tensor* t) const {
    core->park(std::unique_ptr<Tensor>(t), live);
  }
};

TensorPool::TensorPool(std::size_t capacity_bytes)
    : core_(std::make_shared<Core>(capacity_bytes)) {}

std::shared_ptr<Tensor> TensorPool::wrap(std::unique_ptr<Tensor> t) {
  const std::size_t bytes = t->bytes();
  return std::shared_ptr<Tensor>(t.release(), Recycler{core_, bytes});
}

std::shared_ptr<Tensor> TensorPool::acquire(std::size_t n) {
  std::unique_ptr<Tensor> t = core_->take(n);
  if (t == nullptr) t = std::make_unique<Tensor>(n);
  return wrap(std::move(t));
}

std::shared_ptr<Tensor> TensorPool::acquire_zeroed(std::size_t n) {
  auto t = acquire(n);
  kernels::ops().fill(t->data(), 0.0f, n);
  return t;
}

std::shared_ptr<Tensor> TensorPool::adopt(Tensor&& t) {
  {
    std::lock_guard<std::mutex> lock(core_->mu);
    ++core_->stats.adopted;
    core_->add_live(t.bytes());
  }
  return wrap(std::make_unique<Tensor>(std::move(t)));
}

TensorPoolStats TensorPool::stats() const {
  std::lock_guard<std::mutex> lock(core_->mu);
  return core_->stats;
}

void TensorPool::reset_stats() {
  std::lock_guard<std::mutex> lock(core_->mu);
  const TensorPoolStats was = core_->stats;
  core_->stats = TensorPoolStats{};
  core_->stats.bytes_pooled = was.bytes_pooled;
  core_->stats.peak_bytes_pooled = was.bytes_pooled;
  core_->stats.buffers_pooled = was.buffers_pooled;
  core_->stats.live_bytes = was.live_bytes;
  core_->stats.peak_live_bytes = was.live_bytes;
}

void TensorPool::trim() {
  std::lock_guard<std::mutex> lock(core_->mu);
  core_->free.clear();
  core_->stats.bytes_pooled = 0;
  core_->stats.buffers_pooled = 0;
}

std::size_t TensorPool::capacity_bytes() const noexcept {
  return core_->capacity_bytes;
}

TensorPool& TensorPool::global() {
  static TensorPool pool;
  return pool;
}

}  // namespace lifl::ml
