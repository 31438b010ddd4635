#include "perfbench/spans.hpp"

#include <cstdio>
#include <map>

#include "perfbench/common.hpp"

namespace perfbench {

std::int32_t Spans::open(const char* name) {
  Span s;
  s.name = name;
  s.parent = open_.empty() ? -1 : open_.back();
  s.run = run_;
  const auto id = static_cast<std::int32_t>(spans_.size());
  open_.push_back(id);
  s.start_ns = now_ns();
  spans_.push_back(s);
  return id;
}

void Spans::close(std::int32_t id) {
  spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
  open_.pop_back();
}

std::vector<SpanTotals> Spans::totals() const {
  std::vector<double> child_s(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_s[static_cast<std::size_t>(s.parent)] +=
          secs_between(s.start_ns, s.end_ns);
    }
  }
  std::map<std::string, SpanTotals> by_name;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    SpanTotals& t = by_name[s.name];
    t.name = s.name;
    ++t.count;
    const double d = secs_between(s.start_ns, s.end_ns);
    t.total_s += d;
    t.self_s += d - child_s[i];
  }
  std::vector<SpanTotals> out;
  for (auto& [name, t] : by_name) out.push_back(t);
  return out;
}

bool Spans::write_jsonl(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\": %zu, \"parent\": %d, \"run\": %u, \"name\": "
                 "\"%s\", \"start_ns\": %lld, \"end_ns\": %lld}\n",
                 i, s.parent, s.run, s.name,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  for (const SpanTotals& t : totals()) {
    std::fprintf(f,
                 "{\"name\": \"%s\", \"count\": %llu, \"total_s\": %.9f, "
                 "\"self_s\": %.9f}\n",
                 t.name.c_str(), static_cast<unsigned long long>(t.count),
                 t.total_s, t.self_s);
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
