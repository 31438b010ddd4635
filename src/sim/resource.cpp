#include "src/sim/resource.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace lifl::sim {

Resource::Resource(Simulator& sim, std::string name, std::uint32_t capacity)
    : sim_(sim), name_(std::move(name)), capacity_(capacity) {
  last_change_ = sim_.now();
  stats_epoch_ = sim_.now();
}

void Resource::account() noexcept {
  const SimTime now = sim_.now();
  busy_integral_ += static_cast<double>(busy_) * (now - last_change_);
  last_change_ = now;
}

void Resource::begin(SimTime enqueued_at) {
  account();
  ++busy_;
  total_wait_ += sim_.now() - enqueued_at;
}

void Resource::start(SimTime service, SimTime enqueued_at,
                     std::uint32_t slot) {
  begin(enqueued_at);
  // The completion is parked in the slab; the scheduled event is a 12-byte
  // trampoline (always Task-inline), so the hot path never heap-allocates.
  // `this` outlives the simulation by construction (resources are owned by
  // nodes/the cluster).
  sim_.schedule_after(service, FinishFn{this, slot});
}

void Resource::start_queued() {
  while (busy_ < capacity_ && !queue_.empty()) {
    Job& next = queue_.front();
    start(next.service, next.enqueued_at, park(std::move(next.done)));
    queue_.pop_front();
  }
}

void Resource::release() {
  account();
  --busy_;
  ++completed_;
  start_queued();
}

void Resource::on_finish(std::uint32_t slot) {
  Callback done = std::move(in_service_[slot]);
  free_slots_.push_back(slot);
  release();
  if (done) done();
}

void Resource::set_capacity(std::uint32_t capacity) {
  account();
  capacity_ = capacity;
  start_queued();
}

SimTime Resource::busy_time() const noexcept {
  const SimTime now = sim_.now();
  return busy_integral_ + static_cast<double>(busy_) * (now - last_change_);
}

double Resource::utilization() const noexcept {
  const SimTime window = sim_.now() - stats_epoch_;
  if (window <= 0 || capacity_ == 0) return 0.0;
  return busy_time() / (window * static_cast<double>(capacity_));
}

void Resource::reset_stats() noexcept {
  account();
  busy_integral_ = 0.0;
  total_wait_ = 0.0;
  completed_ = 0;
  stats_epoch_ = sim_.now();
}

void Resource::restore_stats_image(const StatsImage& img) {
  if (busy_ != 0 || !queue_.empty()) {
    throw std::logic_error("Resource::restore_stats_image(" + name_ +
                           "): resource is not idle");
  }
  busy_integral_ = img.busy_integral;
  total_wait_ = img.total_wait;
  last_change_ = img.last_change;
  stats_epoch_ = img.stats_epoch;
  completed_ = img.completed;
}

// ---------------------------------------------------------------------------

MultiQueueResource::MultiQueueResource(Simulator& sim, std::string name,
                                       std::uint32_t cores,
                                       std::uint32_t queues)
    : sim_(sim), name_(std::move(name)), cores_(std::max(cores, 1u)) {
  std::uint32_t n = queues == 0 ? cores_ : queues;
  n = std::max(1u, std::min(n, cores_));
  queues_.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    queues_.push_back(std::make_unique<Resource>(
        sim_, n == 1 ? name_ : name_ + ".q" + std::to_string(i), 0));
  }
  distribute();
  stats_epoch_ = sim_.now();
}

void MultiQueueResource::distribute() {
  const std::size_t n = queues_.size();
  live_ = std::min<std::size_t>(n, std::max(cores_, 1u));
  const auto base = cores_ / static_cast<std::uint32_t>(live_);
  const auto extra = cores_ % static_cast<std::uint32_t>(live_);
  for (std::size_t i = 0; i < n; ++i) {
    if (i < live_) {
      queues_[i]->set_capacity(base + (i < extra ? 1 : 0));
    } else {
      // Dropped from the steering domain: no new flows arrive, but jobs
      // already steered here must not stall — keep one server until the
      // queue drains (the surplus is reclaimed on a later set_capacity).
      const bool empty =
          queues_[i]->busy() == 0 && queues_[i]->queue_length() == 0;
      queues_[i]->set_capacity(empty ? 0 : 1);
    }
  }
}

void MultiQueueResource::set_capacity(std::uint32_t cores) {
  cores_ = std::max(cores, 1u);
  distribute();
}

std::uint32_t MultiQueueResource::busy() const noexcept {
  std::uint32_t n = 0;
  for (const auto& q : queues_) n += q->busy();
  return n;
}

std::size_t MultiQueueResource::queue_length() const noexcept {
  std::size_t n = 0;
  for (const auto& q : queues_) n += q->queue_length();
  return n;
}

std::uint64_t MultiQueueResource::completed() const noexcept {
  std::uint64_t n = 0;
  for (const auto& q : queues_) n += q->completed();
  return n;
}

SimTime MultiQueueResource::busy_time() const noexcept {
  SimTime t = 0.0;
  for (const auto& q : queues_) t += q->busy_time();
  return t;
}

SimTime MultiQueueResource::total_wait_time() const noexcept {
  SimTime t = 0.0;
  for (const auto& q : queues_) t += q->total_wait_time();
  return t;
}

double MultiQueueResource::utilization() const noexcept {
  const SimTime window = sim_.now() - stats_epoch_;
  // Denominator counts the servers actually provisioned, including the
  // transient drain servers a scale-down leaves behind — otherwise a
  // utilization read mid-drain could exceed 1.
  std::uint32_t servers = 0;
  for (const auto& q : queues_) servers += q->capacity();
  if (window <= 0 || servers == 0) return 0.0;
  return busy_time() / (window * static_cast<double>(servers));
}

void MultiQueueResource::reset_stats() noexcept {
  for (auto& q : queues_) q->reset_stats();
  stats_epoch_ = sim_.now();
}

}  // namespace lifl::sim
