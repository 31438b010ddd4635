#pragma once

// Log2-bucketed histograms behind interned integer IDs, each with one
// slot per emitting entity (node group, shard, campaign). Interning
// allocates and happens once at campaign setup; hot-path writes are two
// array indexes — no string hashing, no locks (each slot has a single
// writer, mirroring the per-shard trace rings).
//
// Counts do not live here: every count a campaign keeps has one home on
// `sys::ShardedCampaignResult` (and the group/hierarchy state it is
// harvested from), which is what the checkpoint restores. The registry
// holds only the distributions nothing else records. The paper-facing
// `dp::MetricsMap` (§4.3 eBPF mirror) is separate: five fixed sidecar
// slots the node agent drains.

#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace lifl::obs {

inline constexpr std::uint32_t kInvalidId = 0xFFFFFFFFu;

struct HistId {
  std::uint32_t v = kInvalidId;
  bool valid() const { return v != kInvalidId; }
};

/// Log2-bucketed histogram: bucket i covers values with binary exponent
/// i - kExpOffset, i.e. ~2^-32 .. 2^31 (seconds, bytes, depths — any
/// positive double). Non-positive values land in bucket 0.
struct Hist {
  static constexpr int kBuckets = 64;
  static constexpr int kExpOffset = 32;

  std::array<std::uint64_t, kBuckets> buckets{};
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();

  static int bucket_of(double v) {
    if (!(v > 0.0)) return 0;
    int e = 0;
    std::frexp(v, &e);
    e += kExpOffset;
    if (e < 0) e = 0;
    if (e >= kBuckets) e = kBuckets - 1;
    return e;
  }

  void observe(double v) {
    ++buckets[static_cast<std::size_t>(bucket_of(v))];
    ++count;
    sum += v;
    if (v < min) min = v;
    if (v > max) max = v;
  }

  void merge(const Hist& o) {
    for (int i = 0; i < kBuckets; ++i) buckets[i] += o.buckets[i];
    count += o.count;
    sum += o.sum;
    if (o.min < min) min = o.min;
    if (o.max > max) max = o.max;
  }

  double mean() const { return count == 0 ? 0.0 : sum / count; }
};

/// The histogram registry. Intern every histogram before the hot phase;
/// the write side then never allocates.
class Registry {
 public:
  explicit Registry(std::size_t slots = 0) : slots_(slots) {}

  std::size_t slots() const { return slots_; }

  HistId hist(std::string name) {
    hist_names_.push_back(std::move(name));
    hists_.emplace_back(slots_);
    return HistId{static_cast<std::uint32_t>(hists_.size() - 1)};
  }

  // ---- hot path (array indexing only) ----
  void observe(std::size_t slot, HistId id, double v) {
    hists_[id.v][slot].observe(v);
  }

  // ---- read side ----
  const Hist& hist_value(std::size_t slot, HistId id) const {
    return hists_[id.v][slot];
  }

  Hist hist_total(HistId id) const {
    Hist t;
    for (const auto& h : hists_[id.v]) t.merge(h);
    return t;
  }

  const std::string& hist_name(HistId id) const { return hist_names_[id.v]; }

  std::size_t hist_count() const { return hists_.size(); }

 private:
  std::size_t slots_;
  std::vector<std::string> hist_names_;
  std::vector<std::vector<Hist>> hists_;  // [id][slot]
};

/// POD observer handle: a (registry, slot, histogram) triple that lower
/// layers (update pool, data plane) can hold without knowing what a
/// campaign is. Null registry => the observe is a single branch.
struct HistSlot {
  Registry* reg = nullptr;
  std::uint32_t slot = 0;
  HistId id{};

  explicit operator bool() const { return reg != nullptr; }
  void observe(double v) const {
    if (reg != nullptr) reg->observe(slot, id, v);
  }
};

}  // namespace lifl::obs
