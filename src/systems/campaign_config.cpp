#include "src/systems/campaign_config.hpp"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <stdexcept>

namespace lifl::sys {

namespace {

/// Each Range's bounds (open or closed) and text, in enum order.
struct Bounds {
  double lo, hi;
  bool lo_open, hi_open;
  const char* text;
};
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr Bounds kBounds[] = {
    {-kInf, kInf, true, true, "any value"},
    {0, kInf, false, true, ">= 0"},
    {0, kInf, true, true, "> 0"},
    {1, kInf, true, true, "> 1"},
    {0, 1, false, false, "in [0, 1]"},
    {0, 1, false, true, "in [0, 1)"},
    {0, 1, true, false, "in (0, 1]"},
};

template <class T>
bool in_range(Range r, const T& v) {
  if (r == Range::kAny) return true;
  if constexpr (std::is_arithmetic_v<T>) {
    const Bounds& b = kBounds[static_cast<int>(r)];
    const double x = static_cast<double>(v);
    return std::isfinite(x) && (b.lo_open ? x > b.lo : x >= b.lo) &&
           (b.hi_open ? x < b.hi : x <= b.hi);
  }
  return false;
}

/// Parse a row flag's value (`s`) into `out`; `n` is the flag name's
/// length. Bool and enum rows take the index of the value among the
/// metavar's `a|b|c` choices (the selector also takes its long names).
template <class T>
bool parse_value(const Field& f, std::size_t n, const char* s, T& out) {
  if constexpr (std::is_same_v<T, ctrl::SelectorPolicy>) {
    return ctrl::parse_selector_policy(s, out);
  } else if constexpr (std::is_same_v<T, bool> || std::is_enum_v<T>) {
    const std::string choices = std::string("|") + (f.flag + n + 1) + "|";
    const std::size_t at = choices.find("|" + std::string(s) + "|");
    if (at == std::string::npos) return false;
    const auto index = std::count(choices.begin(), choices.begin() + at, '|');
    out = static_cast<T>(index);
    return true;
  } else if constexpr (std::is_unsigned_v<T>) {
    std::uint64_t u = 0;
    const bool ok = parse_unsigned(s, u) && u <= std::numeric_limits<T>::max();
    out = static_cast<T>(u);
    return ok;
  } else if constexpr (std::is_floating_point_v<T>) {
    return parse_finite(s, out);
  } else if constexpr (std::is_same_v<T, std::string>) {
    out = s;
    return !out.empty();
  } else {
    return false;
  }
}

}  // namespace

bool parse_unsigned(const char* s, std::uint64_t& out) {
  if (*s < '0' || *s > '9') return false;
  char* end = nullptr;
  errno = 0;
  out = std::strtoull(s, &end, 10);
  return *end == '\0' && errno == 0;
}

bool parse_finite(const char* s, double& out) {
  char* end = nullptr;
  out = std::strtod(s, &end);
  return end != s && *end == '\0' && std::isfinite(out);
}

bool parse_campaign_flag(const char* arg, ShardedCampaignConfig& cfg) {
  if (std::strncmp(arg, "--", 2) != 0) return false;
  const char* name = arg + 2;
  bool ok = false;
  for_each_field(cfg, [&](const Field& f, auto& m) {
    if (f.flag == nullptr) return;
    const std::size_t n = std::strcspn(f.flag, "=");
    if (std::strncmp(name, f.flag, n) != 0 || name[n] != '=') return;
    auto value = m;
    if (parse_value(f, n, name + n + 1, value) && in_range(f.range, value)) {
      m = std::move(value);
      ok = true;
    }
  });
  return ok;
}

std::string campaign_flag_usage() {
  std::string usage;
  const ShardedCampaignConfig defaults;
  for_each_field(defaults, [&](const Field& f, const auto&) {
    if (f.flag == nullptr) return;
    if (!usage.empty()) usage += ' ';
    usage += "[--";
    usage += f.flag;
    usage += ']';
  });
  return usage;
}

void validate_config(const ShardedCampaignConfig& cfg) {
  for_each_field(cfg, [](const Field& f, const auto& m) {
    if (in_range(f.range, m)) return;
    const std::string where = f.parent ? std::string(f.parent) + "." : "";
    throw std::invalid_argument("sharded campaign: " + where + f.name +
                                " must be " +
                                kBounds[static_cast<int>(f.range)].text);
  });
  const auto require = [](bool ok, const char* what) {
    if (!ok) {
      throw std::invalid_argument(std::string("sharded campaign: ") + what);
    }
  };

  // Pairwise rules.
  const bool planned = cfg.hierarchy == HierarchyMode::kPlanned;
  const bool async = cfg.hierarchy == HierarchyMode::kAsync;
  const bool ck = cfg.checkpoint_every_secs > 0.0;
  const sim::FaultPlan::Config& fault = cfg.fault;
  const wl::TierMix& tiers = cfg.device_tiers;
  require(ck || (cfg.resume_blob == nullptr && cfg.resume_path.empty()),
          "resume requires the checkpoint_every_secs the blob was cut under "
          "(the config digest enforces equality)");
  require(ck || (cfg.checkpoint_path.empty() && !cfg.on_checkpoint),
          "checkpoint_path/on_checkpoint need checkpoint_every_secs > 0 — "
          "no blobs would ever be emitted");
  require(!fault.enabled() || planned || async,
          "fault injection requires the streaming hierarchy (planned or "
          "async mode) — recovery runs through its warm pools");
  require(cfg.quorum == 1.0 || planned,
          "quorum sealing is a synchronous-round mechanism — it requires "
          "planned mode");
  require(cfg.quorum == 1.0 || (cfg.round_deadline_secs > 0.0 &&
                                std::isfinite(cfg.round_deadline_secs)),
          "quorum < 1 needs a finite positive round_deadline_secs to probe "
          "at");
  require(cfg.quorum == 1.0 || !ck,
          "quorum sealing abandons in-flight uploads, which violates the "
          "checkpoint quiescence invariant — disable checkpoint_every_secs");
  require(!tiers.enabled() ||
              std::abs(tiers.flagship + tiers.mid + tiers.iot - 1.0) <= 1e-6,
          "device tier shares must sum to 1 (or all be 0 for the untiered "
          "legacy population)");
  require(!cfg.lifecycle.enabled() ||
              (fault.upload_drop_rate == 0.0 &&
               fault.upload_corrupt_rate == 0.0 && fault.outage_rate == 0.0 &&
               fault.gateway_overflow_depth == 0),
          "the client lifecycle supersedes wire-level upload faults "
          "(drop/corruption/outage/overflow) — the chunked session layer "
          "owns the client connection; crash faults compose");
  require(cfg.selector == ctrl::SelectorPolicy::kRandom || tiers.enabled(),
          "scored/cluster-scan selection learns per-tier telemetry — it "
          "requires a tiered device population");
}

}  // namespace lifl::sys
