#pragma once

// One field table per campaign config struct: each struct's header keeps
// an X-macro row list, X(member, mega_campaign flag or nullptr, range, in
// the digest), expanded here and checked against the struct's member count.
// The checkpoint digest, validate_config's range checks and mega_campaign's
// field flags all walk these rows. The campaign result's structs keep the
// same kind of list, X(member, kind), for the JSONL summary row and the
// tests' whole-result comparison.

#include <cstddef>
#include <cstdint>
#include <string>
#include <type_traits>
#include <utility>

#include "src/systems/sharded_campaign.hpp"

namespace lifl::sys {

/// A row's accepted values. A double outside `kAny` must also be finite.
enum class Range : std::uint8_t {
  kAny,       ///< unchecked
  kNonNeg,    ///< >= 0
  kPos,       ///< > 0 (>= 1 for integers)
  kAbove1,    ///< > 1
  kUnit,      ///< [0, 1]
  kUnitOpen,  ///< [0, 1)
  kUnitPos,   ///< (0, 1]
};

/// One row of a field table.
struct Field {
  const char* name;    ///< member name
  const char* flag;    ///< mega_campaign `flag=METAVAR`, or nullptr
  Range range;
  bool digest;         ///< mixed into the checkpoint config digest
  const char* parent;  ///< enclosing member of a nested row, or nullptr
};

/// Specialized (by LIFL_TABLE below) for every config struct with rows.
template <class T>
struct FieldTable {
  static constexpr std::size_t kRows = 0;
};

namespace detail {

/// `T{AnyField{}, ...}` with N of them compiles iff T has >= N members.
struct AnyField {
  template <class T>
  operator T() const;
};

template <class T, class Seq, class = void>
struct BraceInit : std::false_type {};
template <class T, std::size_t... I>
struct BraceInit<T, std::index_sequence<I...>,
                 std::void_t<decltype(T{(void(I), AnyField{})...})>>
    : std::true_type {};

/// True iff aggregate T has exactly N members.
template <class T, std::size_t N>
inline constexpr bool kArity =
    BraceInit<T, std::make_index_sequence<N>>::value &&
    !BraceInit<T, std::make_index_sequence<N + 1>>::value;

}  // namespace detail

/// Specialized (by LIFL_TABLE below) for every result struct: `visit(v)`
/// calls `v(name, kind, &T::member)` for each row in order. `kind` is a
/// `std::integral_constant<RowKind, ...>`, so a walk can branch on it at
/// compile time; it converts to a plain RowKind.
template <class T>
struct ResultTable {
  static constexpr std::size_t kRows = 0;
};

// One expansion for both kinds of table: `visit(v)` calls ROW's `v(...)`
// once per row, and the arity check ties the rows to the members.
#define LIFL_ROW_COUNT(...) +1
#define LIFL_FIELD_ROW(member, flag, range, digest)                      \
  v(::lifl::sys::Field{#member, flag, ::lifl::sys::Range::range, digest, \
                       nullptr},                                         \
    &Self::member);
#define LIFL_RESULT_ROW(member, kind)                                      \
  v(#member,                                                               \
    std::integral_constant<::lifl::sys::RowKind,                           \
                           ::lifl::sys::RowKind::kind>{},                  \
    &Self::member);
#define LIFL_TABLE(Table, Type, ROWS, ROW)                         \
  template <>                                                      \
  struct Table<Type> {                                             \
    using Self = Type;                                             \
    static constexpr std::size_t kRows = 0 ROWS(LIFL_ROW_COUNT);   \
    template <class V>                                             \
    static void visit(V&& v) { ROWS(ROW) }                         \
  };                                                               \
  static_assert(detail::kArity<Type, Table<Type>::kRows>,          \
                #ROWS " needs exactly one row per member of " #Type)

LIFL_TABLE(FieldTable, wl::TierMix, LIFL_TIER_MIX_FIELDS, LIFL_FIELD_ROW);
LIFL_TABLE(FieldTable, sim::FaultPlan::Config, LIFL_FAULT_PLAN_FIELDS,
           LIFL_FIELD_ROW);
LIFL_TABLE(FieldTable, wl::LifecyclePlan::Config, LIFL_LIFECYCLE_FIELDS,
           LIFL_FIELD_ROW);
LIFL_TABLE(FieldTable, ctrl::SelectionStrategy::Config, LIFL_SELECTION_FIELDS,
           LIFL_FIELD_ROW);
LIFL_TABLE(FieldTable, obs::Config, LIFL_OBS_FIELDS, LIFL_FIELD_ROW);
LIFL_TABLE(FieldTable, ShardedCampaignConfig, LIFL_CAMPAIGN_FIELDS,
           LIFL_FIELD_ROW);
LIFL_TABLE(ResultTable, ShardedGroupStats, LIFL_GROUP_STATS_FIELDS,
           LIFL_RESULT_ROW);
LIFL_TABLE(ResultTable, ShardedCampaignResult::TierStats,
           LIFL_TIER_STATS_FIELDS, LIFL_RESULT_ROW);
LIFL_TABLE(ResultTable, ShardedCampaignResult, LIFL_RESULT_FIELDS,
           LIFL_RESULT_ROW);

#undef LIFL_TABLE
#undef LIFL_RESULT_ROW
#undef LIFL_FIELD_ROW
#undef LIFL_ROW_COUNT

/// Call `v(field, member)` for every row of `cfg` (const or not), in row
/// order. A nested config's row expands its table in place: its rows carry
/// the enclosing member as `parent` and enter the digest only if it does.
template <class C, class V>
void for_each_field(C& cfg, V&& v) {
  FieldTable<std::remove_const_t<C>>::visit([&](const Field& f, auto p) {
    auto& m = cfg.*p;
    using M = std::remove_const_t<std::remove_reference_t<decltype(m)>>;
    if constexpr (FieldTable<M>::kRows > 0) {
      FieldTable<M>::visit([&](Field inner, auto q) {
        inner.parent = f.name;
        inner.digest = inner.digest && f.digest;
        v(inner, m.*q);
      });
    } else {
      v(f, m);
    }
  });
}

/// Throw std::invalid_argument unless every row is in range and the
/// pairwise rules hold.
void validate_config(const ShardedCampaignConfig& cfg);

/// Set the field whose row flag `arg` (`--flag=value`) names. False, with
/// `cfg` unchanged, when no row has that flag or the value does not parse
/// or is out of the row's range.
bool parse_campaign_flag(const char* arg, ShardedCampaignConfig& cfg);

/// The row flags as usage text: `[--shards=K] [--hierarchy=...] ...`.
std::string campaign_flag_usage();

/// Parse all of `s` as base-10 digits: no sign, no space.
bool parse_unsigned(const char* s, std::uint64_t& out);

/// Parse all of `s` as a finite double.
bool parse_finite(const char* s, double& out);

}  // namespace lifl::sys
