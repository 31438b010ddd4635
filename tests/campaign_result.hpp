#pragma once

// The whole-result comparison every campaign test makes: walk the result
// table (src/systems/campaign_config.hpp) and demand each deterministic row
// bitwise equal. A row added to ShardedCampaignResult is compared here
// without a line of test code.

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

#include "src/systems/campaign_config.hpp"
#include "src/systems/sharded_campaign.hpp"

namespace lifl::test {

namespace detail {

template <class T>
struct IsSeq : std::false_type {};
template <class T>
struct IsSeq<std::vector<T>> : std::true_type {};
template <class T, std::size_t N>
struct IsSeq<std::array<T, N>> : std::true_type {};

template <class T>
void expect_same(const T& a, const T& b, bool same_shards,
                 const std::string& what) {
  using sys::RowKind;
  if constexpr (sys::ResultTable<T>::kRows > 0) {
    sys::ResultTable<T>::visit([&](const char* name, RowKind kind, auto m) {
      if (kind == RowKind::kSame ||
          (kind == RowKind::kPerShardCount && same_shards)) {
        expect_same(a.*m, b.*m, same_shards, what + " " + name);
      }
    });
  } else if constexpr (IsSeq<T>::value) {
    ASSERT_EQ(a.size(), b.size()) << what;
    for (std::size_t i = 0; i < a.size(); ++i) {
      expect_same(a[i], b[i], same_shards,
                  what + "[" + std::to_string(i) + "]");
    }
  } else if constexpr (std::is_floating_point_v<T>) {
    // Bits, not ==: the claim is bitwise.
    std::uint64_t x;
    std::uint64_t y;
    std::memcpy(&x, &a, sizeof x);
    std::memcpy(&y, &b, sizeof y);
    EXPECT_EQ(x, y) << what << ": " << a << " vs " << b;
  } else {
    EXPECT_EQ(a, b) << what;
  }
}

}  // namespace detail

/// Every kSame row of `a` and `b` bitwise equal, and the kPerShardCount
/// rows too when both ran on the same number of shards. kLocal rows
/// (wall time, horizon refreshes, blobs this process wrote) are skipped.
inline void expect_same_result(const sys::ShardedCampaignResult& a,
                               const sys::ShardedCampaignResult& b,
                               const std::string& what) {
  detail::expect_same(a, b, a.shard_windows.size() == b.shard_windows.size(),
                      what);
}

}  // namespace lifl::test
