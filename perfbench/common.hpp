#pragma once

// Host-side measurement helpers shared by the timed and the traced binary:
// clocks, rusage, peak RSS, medians, a bit-exact digest and a tiny JSON
// object writer for the one result line each binary prints.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

namespace perfbench {

/// CLOCK_MONOTONIC in nanoseconds; the same clock as Python's
/// `time.monotonic_ns()`, so a parent can hand its spawn time to a child.
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double secs_between(std::int64_t t0, std::int64_t t1) {
  return static_cast<double>(t1 - t0) * 1e-9;
}

/// Process CPU seconds (all threads), split into user and system time.
struct CpuTimes {
  double user = 0.0;
  double sys = 0.0;
  double total() const { return user + sys; }
};

inline CpuTimes cpu_times() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return {secs(ru.ru_utime), secs(ru.ru_stime)};
}

/// Peak resident set size of this process in MB (VmHWM), -1 if unknown.
inline double peak_rss_mb() {
  FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return -1.0;
  char line[256];
  double mb = -1.0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      mb = static_cast<double>(std::strtol(line + 6, nullptr, 10)) / 1024.0;
      break;
    }
  }
  std::fclose(f);
  return mb;
}

inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// FNV-1a over raw bytes: equal digests mean bit-identical inputs.
class Digest {
 public:
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h_ = (h_ ^ b[i]) * 0x100000001b3ull;
    }
  }
  template <typename T>
  void values(const std::vector<T>& v) {
    bytes(v.data(), v.size() * sizeof(T));
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/// Builds one flat JSON object, keys in insertion order.
class JsonObject {
 public:
  /// Non-finite values (a failed run's empty ratios) are written as null.
  JsonObject& num(const std::string& key, double v) {
    if (!std::isfinite(v)) return raw(key, "null");
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return raw(key, buf);
  }
  JsonObject& integer(const std::string& key, std::uint64_t v) {
    return raw(key, std::to_string(v));
  }
  JsonObject& boolean(const std::string& key, bool v) {
    return raw(key, v ? "true" : "false");
  }
  JsonObject& str(const std::string& key, const std::string& v) {
    std::string q = "\"";
    for (char c : v) {
      if (c == '"' || c == '\\') q += '\\';
      q += (c == '\n') ? ' ' : c;
    }
    return raw(key, q + "\"");
  }
  /// Insert already-serialized JSON (a nested object, say).
  JsonObject& raw(const std::string& key, const std::string& json) {
    body_ += body_.empty() ? "{" : ", ";
    body_ += "\"" + key + "\": " + json;
    return *this;
  }
  std::string dump() const { return body_.empty() ? "{}" : body_ + "}"; }

 private:
  std::string body_;
};

}  // namespace perfbench
