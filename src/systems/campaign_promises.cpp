#include "src/systems/campaign_promises.hpp"

#include <algorithm>
#include <limits>

#include "src/sim/calibration.hpp"

namespace lifl::sys {

namespace calib = sim::calib;

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}  // namespace

double cross_latency_secs(std::size_t bytes) {
  return calib::kCrossShardLatencySecs +
         static_cast<double>(bytes) / calib::kNicBytesPerSec +
         calib::kKernelFixedCycles / calib::kCpuHz;
}

ArrivalTable ArrivalTable::replay(const wl::ArrivalProcess& process,
                                  sim::Rng rng, double epoch,
                                  double first_rel, std::uint64_t total) {
  std::vector<double> at;
  at.reserve((total + kStride - 1) / kStride);
  // The arrival chain launches arrival n at `epoch + rel_n` and draws
  // rel_{n+1} only while n < total; this loop draws the same values.
  double rel = first_rel;
  for (std::uint64_t n = 1; n <= total; ++n) {
    if (n % kStride == 0 || n == total) at.push_back(epoch + rel);
    if (n < total) rel = process.next_after(rel, rng);
  }
  return ArrivalTable(std::move(at), total);
}

double ArrivalTable::nth_floor(std::uint64_t n) const {
  if (at_.empty()) return -kInf;
  if (n >= total_) return at_.back();
  if (n < kStride) return -kInf;
  // The entry covering arrival (n / kStride) * kStride.
  return at_[n / kStride - 1];
}

LaunchBound::LaunchBound(const std::vector<const ArrivalTable*>& tables) {
  for (const ArrivalTable* t : tables) {
    const std::size_t m = t->at().size();
    if (m == 0) continue;
    base_ += t->count_at(0) - 1;
    for (std::size_t i = 0; i < m; ++i) {
      // Passing entry i lifts the group's bound from c_i - 1 to
      // c_{i+1} - 1, or to its whole share after the last entry.
      const std::uint64_t lift =
          i + 1 < m ? t->count_at(i + 1) - t->count_at(i) : 1;
      steps_.emplace_back(t->at()[i], lift);
    }
  }
  std::sort(steps_.begin(), steps_.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::uint64_t bound = base_;
  for (auto& [t, v] : steps_) {
    bound += v;
    v = bound;
  }
}

double LaunchBound::earliest(std::uint64_t need) const {
  if (base_ >= need) return -kInf;
  const auto below = [](const auto& step, std::uint64_t n) {
    return step.second < n;
  };
  const auto it = std::lower_bound(steps_.begin(), steps_.end(), need, below);
  return it == steps_.end() ? kInf : it->first;
}

double group_outbound_bound(const ShardedCampaignConfig& cfg,
                            const GroupFlow& g) {
  std::uint64_t needed = 0;
  double deadline = kInf;  // quorum-shrink probe bound (planned only)
  switch (cfg.hierarchy) {
    case HierarchyMode::kFixed:
      // One-shot leaves relay at updates_per_leaf folds each; the k-th
      // relay needs at least k * updates_per_leaf folds in the group.
      if (g.relays_done >= cfg.leaves_per_group) return kInf;
      needed = (g.relays_done + 1) *
               static_cast<std::uint64_t>(cfg.updates_per_leaf);
      break;
    case HierarchyMode::kPlanned:
      // The group relay fires once, at the full per-group target — or
      // early at a quorum seal, which cannot land (nor can the shortfall
      // shrink it posts) before the round-deadline probe.
      if (cfg.quorum < 1.0) {
        deadline = g.epoch + cfg.round_deadline_secs + cross_latency_secs(0);
      }
      if (g.relays_done >= 1) return deadline;
      needed = g.target;
      break;
    case HierarchyMode::kAsync: {
      // Recurring relay: flushes every `flush` folded updates, remainder
      // last; `g.target` is the group's whole-stream upload share.
      const std::uint64_t done = g.relays_done * g.relay_flush;
      if (done >= g.target) return kInf;
      needed = std::min(done + g.relay_flush, g.target);
      break;
    }
  }
  const double latency = cross_latency_secs(cfg.model_bytes);
  double bound = 0.0;
  if (g.launched < needed) {
    double arrival = g.next_arrival;
    if (g.arrivals != nullptr) {
      arrival = std::max(arrival, g.arrivals->nth_floor(needed));
    }
    bound = std::min(arrival + latency, deadline);
  }
  if (cfg.hierarchy == HierarchyMode::kAsync) {
    bound = std::max(bound, g.emit_floor + latency);
  }
  return bound;
}

double async_top_bound(const ShardedCampaignConfig& cfg, const TopFlow& top,
                       const LaunchBound* launches,
                       const std::vector<RelaySnapshot>& relays) {
  if (top.done) return kInf;  // stream over: no more broadcasts
  const double latency = cross_latency_secs(cfg.model_bytes);
  const std::uint64_t need =
      top.folded + std::min(top.quota, top.total - top.folded);
  double bound = 0.0;
  if (launches != nullptr) {
    const double at = launches->earliest(need);
    if (at > -kInf) bound = at + latency;
  }
  std::uint64_t forwarded = 0;
  double relay = kInf;
  for (const RelaySnapshot& r : relays) {
    forwarded += r.forwarded;
    relay = std::min(relay, r.emit_floor);
  }
  if (forwarded >= top.folded + top.goal) return bound;
  return std::max(bound, relay + latency + top.top_step + latency);
}

void RelayBoard::publish(const RelaySnapshot& s) noexcept {
  const std::uint32_t seq = seq_.load(std::memory_order_relaxed);
  seq_.store(seq + 1, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_release);
  forwarded_.store(s.forwarded, std::memory_order_relaxed);
  emit_floor_.store(s.emit_floor, std::memory_order_relaxed);
  seq_.store(seq + 2, std::memory_order_release);
}

RelaySnapshot RelayBoard::read() const noexcept {
  for (;;) {
    const std::uint32_t before = seq_.load(std::memory_order_acquire);
    RelaySnapshot s;
    s.forwarded = forwarded_.load(std::memory_order_relaxed);
    s.emit_floor = emit_floor_.load(std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_acquire);
    if ((before & 1u) == 0 && seq_.load(std::memory_order_relaxed) == before) {
      return s;
    }
  }
}

}  // namespace lifl::sys
