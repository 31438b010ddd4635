// The campaign config field tables (src/systems/campaign_config.hpp).
//
// - The checkpoint config digest is pinned: golden values for the default
//   config, every shard-equivalence matrix config and one config with every
//   digest field off its default, so existing v6 blobs keep resuming.
// - Walking the rows: perturbing any digest row changes the digest;
//   perturbing any other row leaves it unchanged.
// - Every flag row parses and is in the usage string; a malformed or
//   out-of-range value (a sign on an unsigned row included) is rejected
//   with the config unchanged, and validate_config rejects every row's
//   out-of-range value.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "src/control/selection.hpp"
#include "src/systems/campaign_checkpoint.hpp"
#include "src/systems/campaign_config.hpp"
#include "src/systems/sharded_campaign.hpp"
#include "src/workload/device_tier.hpp"
#include "tests/campaign_matrix.hpp"

namespace {

namespace sys = lifl::sys;
namespace wl = lifl::wl;
using sys::Field;
using sys::Range;
using Config = sys::ShardedCampaignConfig;

std::uint64_t digest(const Config& cfg) {
  return sys::CampaignCheckpoint::config_digest(cfg);
}

/// Every digest row set off its default.
Config off_default_config() {
  Config c;
  c.shards = 3;
  c.groups = 5;
  c.rounds = 3;
  c.updates_per_leaf = 7;
  c.leaves_per_group = 9;
  c.model_bytes = 12'345;
  c.population = 54'321;
  c.peak_per_sec = 123.5;
  c.ramp_secs = 7.25;
  c.diurnal_amplitude = 0.15;
  c.diurnal_period_secs = 321.0;
  c.seed = 99;
  c.timing = lifl::fl::AggTiming::kLazy;
  c.gateway_cores = 3;
  c.gateway_queues = 5;
  c.hierarchy = sys::HierarchyMode::kAsync;
  c.reuse = false;
  c.replan_interval_secs = 1.5;
  c.middle_fanin = 6;
  c.async_deadline_secs = 0.75;
  c.straggler_fraction = 0.2;
  c.straggler_delay_secs = 4.5;
  c.fault.seed = 42;
  c.fault.leaf_crash_rate = 0.11;
  c.fault.middle_crash_rate = 0.12;
  c.fault.top_crash_rate = 0.13;
  c.fault.upload_drop_rate = 0.14;
  c.fault.upload_corrupt_rate = 0.15;
  c.fault.outage_rate = 0.16;
  c.fault.outage_secs = 6.5;
  c.fault.outage_start_max_secs = 31.5;
  c.fault.gateway_overflow_depth = 17;
  c.fault.retry_base_secs = 0.55;
  c.fault.retry_cap_secs = 15.5;
  c.fault.retry_jitter = 0.3;
  c.quorum = 0.9;
  c.round_deadline_secs = 61.0;
  c.checkpoint_every_secs = 2.5;
  c.device_tiers = wl::TierMix{0.5, 0.25, 0.25};
  c.lifecycle.seed = 43;
  c.lifecycle.disconnect_rate = 0.21;
  c.lifecycle.chunk_bytes = 20'000;
  c.lifecycle.offline_queue_cap = 5;
  c.lifecycle.offline_base_secs = 0.45;
  c.lifecycle.offline_cap_secs = 29.0;
  c.lifecycle.offline_jitter = 0.2;
  c.lifecycle.session_gates = true;
  c.lifecycle.connect_period_secs = 59.0;
  c.lifecycle.charge_period_secs = 239.0;
  c.selector = lifl::ctrl::SelectorPolicy::kClusterScan;
  c.selection.seed = 44;
  c.selection.alpha = 0.35;
  c.selection.score_gamma = 2.5;
  c.selection.exclude_below = 0.06;
  c.selection.scan_weight = 0.03;
  c.selection.straggler_factor = 2.6;
  return c;
}

/// All rows, nested ones expanded, in row order.
std::vector<Field> rows() {
  std::vector<Field> out;
  const Config cfg;
  sys::for_each_field(cfg, [&](const Field& f, const auto&) {
    out.push_back(f);
  });
  return out;
}

std::string path(const Field& f) {
  return f.parent == nullptr ? f.name
                             : std::string(f.parent) + "." + f.name;
}

/// Call `fn(member)` on row `index` of `cfg` only.
template <class Fn>
void at_row(Config& cfg, std::size_t index, Fn&& fn) {
  std::size_t i = 0;
  sys::for_each_field(cfg, [&](const Field&, auto& m) {
    if (i++ == index) fn(m);
  });
}

/// Every row rendered as text, to compare whole configs.
std::vector<std::string> dump(const Config& cfg) {
  std::vector<std::string> out;
  sys::for_each_field(cfg, [&](const Field&, const auto& m) {
    using M = std::decay_t<decltype(m)>;
    std::ostringstream os;
    os.precision(17);
    if constexpr (std::is_enum_v<M>) {
      os << static_cast<std::uint64_t>(m);
    } else if constexpr (std::is_arithmetic_v<M>) {
      os << +m;
    } else if constexpr (std::is_same_v<M, std::string>) {
      os << '"' << m << '"';
    } else {
      os << (m ? "set" : "null");  // pointer or std::function
    }
    out.push_back(os.str());
  });
  return out;
}

/// What kind of value a row holds.
enum class Kind { kChoice, kDouble, kUnsigned, kString, kOther };

template <class M>
constexpr Kind kind_of() {
  if constexpr (std::is_same_v<M, bool> || std::is_enum_v<M>) {
    return Kind::kChoice;
  } else if constexpr (std::is_floating_point_v<M>) {
    return Kind::kDouble;
  } else if constexpr (std::is_unsigned_v<M>) {
    return Kind::kUnsigned;
  } else if constexpr (std::is_same_v<M, std::string>) {
    return Kind::kString;
  } else {
    return Kind::kOther;
  }
}

Kind row_kind(std::size_t index) {
  Kind k = Kind::kOther;
  Config cfg;
  at_row(cfg, index,
         [&](auto& m) { k = kind_of<std::decay_t<decltype(m)>>(); });
  return k;
}

/// Set a numeric row to `v` (other rows have no range to leave).
void set_number(Config& cfg, std::size_t index, double v) {
  at_row(cfg, index, [&](auto& m) {
    using M = std::decay_t<decltype(m)>;
    if constexpr (std::is_arithmetic_v<M> && !std::is_same_v<M, bool>) {
      m = static_cast<M>(v);
    }
  });
}

const std::vector<std::uint8_t> kBlob{1, 2, 3};

/// Move a member off its current value.
template <class M>
void perturb(M& m) {
  if constexpr (std::is_same_v<M, bool>) {
    m = !m;
  } else if constexpr (std::is_enum_v<M>) {
    m = static_cast<M>(static_cast<std::underlying_type_t<M>>(m) + 1);
  } else if constexpr (std::is_arithmetic_v<M>) {
    m = static_cast<M>(m + 1);
  } else if constexpr (std::is_same_v<M, std::string>) {
    m += "x";
  } else if constexpr (std::is_pointer_v<M>) {
    m = &kBlob;
  } else {
    m = [](const auto&, auto, auto) {};  // the on_checkpoint sink
  }
}

/// A value outside `r` (kAny has none).
double out_of_range(Range r) {
  switch (r) {
    case Range::kNonNeg:
      return -1.0;
    case Range::kPos:
    case Range::kUnitPos:
      return 0.0;
    case Range::kAbove1:
    case Range::kUnitOpen:
      return 1.0;
    case Range::kUnit:
      return 1.5;
    case Range::kAny:
      break;
  }
  return 0.0;
}

std::string text(double v) {
  std::ostringstream os;
  os << v;
  return os.str();
}

// ---------------------------------------------------------------------------
// Pinned digests: recorded before the digest was generated from the rows.

TEST(CampaignConfig, DigestIsPinnedForDefaultAndOffDefaultConfigs) {
  EXPECT_EQ(sys::CampaignCheckpoint::kVersion, 6u);
  EXPECT_EQ(digest(Config{}), 0x2692780c856ded9dull);
  EXPECT_EQ(digest(off_default_config()), 0x58e799ed3aca01bbull);
}

TEST(CampaignConfig, DigestIsPinnedForEveryMatrixConfig) {
  using lifl::matrix::kScenarios;
  using lifl::matrix::matrix_campaign;
  const std::uint64_t golden[][2] = {
      {0xde3fd242dce29e78ull, 0x2e8c961d4abfc6a7ull},  // fixed
      {0x27210d56b86cc965ull, 0x9775768fc3431d42ull},  // fixed+flaky
      {0xbab911d7d0405a80ull, 0xb719c6de7759886bull},  // planned
      {0x2a475700edf7b4d1ull, 0xd0c6faca93fabb0eull},  // planned+faults
      {0x9e480a889fca0aedull, 0xf82c822ca25f9d1eull},  // planned+flaky
      {0x2faff3afa15f7ebdull, 0xeb8daaeb3d381516ull},  // planned+faults+flaky
      {0x5acb97b349f052f3ull, 0xf6684df1ae2e3ff8ull},  // async
      {0x8ebfdc4edee33d6full, 0x77b0308b4e3a5504ull},  // async+faults
      {0xa6631d824ff30ae6ull, 0xf32239d6074a96e5ull},  // async+flaky
      {0xbafa710fc5cba46bull, 0xb3aca3eeb232202cull},  // async+faults+flaky
      {0xe872da783d49d4e4ull, 0x193130055abd4f4bull},  // async+edge
  };
  ASSERT_EQ(std::size(kScenarios), std::size(golden));
  for (std::size_t i = 0; i < std::size(kScenarios); ++i) {
    for (std::size_t shards : {1, 2}) {
      EXPECT_EQ(digest(matrix_campaign(kScenarios[i], shards)),
                golden[i][shards - 1])
          << kScenarios[i].name << " shards=" << shards;
    }
  }
}

// ---------------------------------------------------------------------------
// Row walk.

TEST(CampaignConfig, EveryDigestRowAndOnlyThoseMoveTheDigest) {
  const std::vector<Field> all = rows();
  std::size_t digest_rows = 0;
  for (std::size_t i = 0; i < all.size(); ++i) {
    Config cfg;
    at_row(cfg, i, [](auto& m) { perturb(m); });
    ASSERT_NE(dump(cfg), dump(Config{})) << path(all[i]);
    if (all[i].digest) {
      ++digest_rows;
      EXPECT_NE(digest(cfg), digest(Config{})) << path(all[i]);
    } else {
      EXPECT_EQ(digest(cfg), digest(Config{})) << path(all[i]);
    }
  }
  EXPECT_EQ(digest_rows, 58u);  // the v6 digest's 58 mixed values
}

TEST(CampaignConfig, DefaultConfigIsInRange) {
  EXPECT_NO_THROW(sys::validate_config(Config{}));
}

TEST(CampaignConfig, ValidateRejectsEveryOutOfRangeRow) {
  const std::vector<Field> all = rows();
  std::size_t checked = 0;
  for (std::size_t i = 0; i < all.size(); ++i) {
    if (all[i].range == Range::kAny) continue;
    ++checked;
    const double bad = out_of_range(all[i].range);
    Config cfg;
    set_number(cfg, i, bad);
    try {
      sys::validate_config(cfg);
      ADD_FAILURE() << path(all[i]) << " = " << bad << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::strstr(e.what(), all[i].name), nullptr) << e.what();
    }
    // Doubles outside kAny must also be finite.
    if (row_kind(i) != Kind::kDouble) continue;
    for (double v : {std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity()}) {
      Config nf;
      set_number(nf, i, v);
      EXPECT_THROW(sys::validate_config(nf), std::invalid_argument)
          << path(all[i]) << " = " << v;
    }
  }
  EXPECT_GT(checked, 20u);
}

// ---------------------------------------------------------------------------
// mega_campaign's flags.

TEST(CampaignConfig, EveryFlagRowParsesAndIsInTheUsage) {
  const std::vector<Field> all = rows();
  const std::string usage = sys::campaign_flag_usage();
  std::size_t flags = 0;
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Field& f = all[i];
    if (f.flag == nullptr) continue;
    ++flags;
    EXPECT_NE(usage.find(std::string("[--") + f.flag + "]"),
              std::string::npos)
        << f.flag << " missing from: " << usage;
    // A valid value of the row's type; choice rows take their second
    // choice (index 1).
    const std::string name(f.flag, std::strcspn(f.flag, "="));
    const char* choices = f.flag + name.size() + 1;
    std::string value;
    std::string want;
    switch (row_kind(i)) {
      case Kind::kChoice: {
        const char* second = std::strchr(choices, '|') + 1;
        value.assign(second, std::strcspn(second, "|"));
        want = "1";
        break;
      }
      case Kind::kDouble:
        value = want = f.range == Range::kAbove1 ? "2" : "0.5";
        break;
      case Kind::kUnsigned:
        value = want = "3";
        break;
      case Kind::kString:
        value = "run.bin";
        want = "\"run.bin\"";
        break;
      case Kind::kOther:
        ADD_FAILURE() << f.flag << ": no flag parser for this row's type";
        continue;
    }
    Config cfg;
    ASSERT_TRUE(sys::parse_campaign_flag(("--" + name + "=" + value).c_str(),
                                         cfg))
        << f.flag << " <- " << value;
    std::vector<std::string> expect = dump(Config{});
    expect[i] = want;
    EXPECT_EQ(dump(cfg), expect) << f.flag << " <- " << value;
  }
  EXPECT_EQ(flags, 15u);
}

TEST(CampaignConfig, BadFlagValuesLeaveTheConfigUnchanged) {
  const std::vector<Field> all = rows();
  const Config base = off_default_config();
  const auto rejects = [&](const std::string& arg) {
    Config cfg = base;
    EXPECT_FALSE(sys::parse_campaign_flag(arg.c_str(), cfg)) << arg;
    EXPECT_EQ(dump(cfg), dump(base)) << arg;
  };
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Field& f = all[i];
    if (f.flag == nullptr) continue;
    const std::string name(f.flag, std::strcspn(f.flag, "="));
    const Kind kind = row_kind(i);
    rejects("--" + name + "=");
    if (kind != Kind::kString) rejects("--" + name + "=bogus");
    if (f.range != Range::kAny) {
      rejects("--" + name + "=" + text(out_of_range(f.range)));
      rejects("--" + name + "=nan");
      rejects("--" + name + "=inf");
    }
    if (kind == Kind::kUnsigned) {
      // strtoull alone would wrap "-1" to 2^64-1.
      for (const char* v : {"-1", "+1", " 1", "1x", "0x10",
                            "18446744073709551616"}) {
        rejects("--" + name + "=" + v);
      }
    }
  }
  rejects("--no-such-flag=1");
  rejects("shards=2");
  rejects("--shards");
}

TEST(CampaignConfig, ParseUnsignedTakesDigitsOnly) {
  std::uint64_t v = 0;
  EXPECT_TRUE(sys::parse_unsigned("100000", v));
  EXPECT_EQ(v, 100'000u);
  EXPECT_TRUE(sys::parse_unsigned("18446744073709551615", v));
  EXPECT_EQ(v, std::numeric_limits<std::uint64_t>::max());
  for (const char* s : {"", "-5", "+5", " 5", "5 ", "5.0", "1e3",
                        "18446744073709551616"}) {
    EXPECT_FALSE(sys::parse_unsigned(s, v)) << '"' << s << '"';
  }
  double d = 0.0;
  EXPECT_TRUE(sys::parse_finite("0.25", d));
  EXPECT_EQ(d, 0.25);
  for (const char* s : {"", "nan", "inf", "1e999", "0.5x"}) {
    EXPECT_FALSE(sys::parse_finite(s, d)) << '"' << s << '"';
  }
}

}  // namespace
