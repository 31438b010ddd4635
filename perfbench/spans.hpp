#pragma once

// Wall-clock spans recorded by the benchmark around its own calls into the
// simulator's layers and around the callbacks the layers make back into the
// benchmark. Kept in memory, written once at exit. Spans from one traced
// repetition share a run id. Main-thread only: every span boundary the
// benchmark owns runs on the thread that calls into the layers.

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  ///< index of the enclosing span, -1 = root
  std::uint32_t run = 0;
};

/// Per-name totals: `self_s` is each span's duration minus the part of it
/// its direct children cover, summed over the spans of that name.
struct SpanTotals {
  std::string name;
  std::uint64_t count = 0;
  double total_s = 0.0;
  double self_s = 0.0;
};

class Spans {
 public:
  /// Spans opened from now on carry this run id.
  void set_run(std::uint32_t run) { run_ = run; }

  /// Make room for `more` spans, so recording them does not allocate
  /// (the traced run counts heap allocations while spans are recorded).
  void reserve(std::size_t more) {
    spans_.reserve(spans_.size() + more);
    open_.reserve(64);
  }

  std::int32_t open(const char* name);
  void close(std::int32_t id);

  std::size_t size() const { return spans_.size(); }
  std::vector<SpanTotals> totals() const;

  /// One JSON line per span, then one per name with its totals.
  bool write_jsonl(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;  ///< stack of open span indices
  std::uint32_t run_ = 0;
};

/// RAII span; does nothing when `spans` is null (the timed runs).
class SpanScope {
 public:
  SpanScope(Spans* spans, const char* name)
      : spans_(spans), id_(spans != nullptr ? spans->open(name) : -1) {}
  ~SpanScope() {
    if (spans_ != nullptr) spans_->close(id_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Spans* spans_;
  std::int32_t id_;
};

}  // namespace perfbench
