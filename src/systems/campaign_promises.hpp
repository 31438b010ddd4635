#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/sim/random.hpp"
#include "src/systems/sharded_campaign.hpp"
#include "src/workload/population.hpp"

/// The outbound promises of the sharded campaign (see
/// `sim::ShardedSimulator::set_promise`): lower bounds on the delivery time
/// of the next cross-shard post of a group (its relay into the top) and of
/// the async top (its next `VersionApply` broadcast). Each is evaluated on
/// its own shard's thread and reads only that shard's state, immutable
/// setup data (the arrival tables) and the relay snapshots other shards
/// publish. docs/ARCHITECTURE.md, "Shard synchronization", gives the
/// arguments.
namespace lifl::sys {

/// Latency of a relay/leaf-aggregate transfer between node groups: minimum
/// cross-group latency (propagation + switch + kernel wake-up) plus wire
/// time plus the fixed kernel receive cost. Always >= the sharded
/// simulator's lookahead.
double cross_latency_secs(std::size_t bytes);

/// Sparse table of one group's cumulative arrival times. After the
/// population is built, a group's RNG feeds only its arrival chain, so the
/// chain's times are a pure function of the RNG state when arrivals are
/// armed: replaying a *clone* of that state reproduces them bit for bit
/// without touching the real draws. The table keeps every `kStride`-th
/// arrival and the last one.
class ArrivalTable {
 public:
  static constexpr std::uint64_t kStride = 1024;

  ArrivalTable() = default;
  /// Hand-built table: `at[i]` is the absolute time of arrival number
  /// min((i + 1) * kStride, total) (1-based).
  ArrivalTable(std::vector<double> at, std::uint64_t total)
      : at_(std::move(at)), total_(total) {}

  /// Replay `total` arrivals of `process` from the armed state: the first
  /// arrival at `epoch + first_rel`, every later one drawn from `rng` (the
  /// clone) exactly as the campaign's arrival chain draws it.
  static ArrivalTable replay(const wl::ArrivalProcess& process, sim::Rng rng,
                             double epoch, double first_rel,
                             std::uint64_t total);

  /// Arrival number covered by entry `i` (1-based).
  std::uint64_t count_at(std::size_t i) const {
    return std::min<std::uint64_t>((i + 1) * kStride, total_);
  }
  /// Lower bound on the time of arrival number `n` (1-based): the latest
  /// entry at or below `n`; -inf when no entry is.
  double nth_floor(std::uint64_t n) const;

  const std::vector<double>& at() const noexcept { return at_; }
  std::uint64_t total() const noexcept { return total_; }

 private:
  std::vector<double> at_;
  std::uint64_t total_ = 0;
};

/// Upper bound on the campaign's cumulative launches by time T, merged from
/// every group's table: before group g's entry i (covering arrival c_i) it
/// has launched at most c_i - 1, and all of its share once its last entry
/// passed. `earliest(need)` is the first T at which the merged bound
/// reaches `need` — no `need`-th launch can happen earlier.
class LaunchBound {
 public:
  LaunchBound() = default;
  explicit LaunchBound(const std::vector<const ArrivalTable*>& tables);

  /// First T at which the merged bound reaches `need`; -inf when it does
  /// before any entry.
  double earliest(std::uint64_t need) const;

 private:
  std::uint64_t base_ = 0;  ///< the bound before every entry
  /// (entry time, bound from that time on), by time.
  std::vector<std::pair<double, std::uint64_t>> steps_;
};

/// What a group shard reads of one group to bound its next relay post.
struct GroupFlow {
  std::uint64_t relays_done = 0;  ///< relay posts this round / stream
  std::uint64_t launched = 0;     ///< arrivals launched since arming
  std::uint64_t target = 0;       ///< arrivals armed
  double epoch = 0.0;             ///< arrival epoch
  double next_arrival = 0.0;      ///< absolute time of the next arrival
  std::uint64_t relay_flush = 0;  ///< async: folded updates per relay flush
  double emit_floor = 0.0;        ///< async: relay emission floor
  const ArrivalTable* arrivals = nullptr;  ///< null until built
};

/// Lower bound on the delivery time of the group's next cross-shard post —
/// its relay aggregate into the top's shard, plus (under quorum) a possible
/// deadline-shortfall shrink — or +inf when the group provably posts no
/// more this round. 0 = no useful bound.
///
/// A relay output needs `needed` folded client updates, and folds never
/// exceed launched uploads (leases make refolds exactly-once), so while
/// `launched < needed` the relay cannot fire before the `needed`-th
/// arrival: no earlier than the next one, nor than the table's floor for
/// that arrival number. Its post delivers a cross-group latency later. An
/// async relay additionally waits on leaf seals: its emission floor plus
/// the same latency also bounds the post, and the later bound holds.
double group_outbound_bound(const ShardedCampaignConfig& cfg,
                            const GroupFlow& g);

/// A group's relay state as its shard last published it: what the relay
/// had forwarded upward, and its emission floor at that moment.
struct RelaySnapshot {
  std::uint64_t forwarded = 0;
  double emit_floor = 0.0;
};

/// What the top's shard reads to bound its next `VersionApply` broadcast.
struct TopFlow {
  bool done = false;          ///< the stream is over
  std::uint64_t folded = 0;   ///< cumulative folded updates
  std::uint64_t quota = 0;    ///< folded updates per version
  std::uint64_t total = 0;    ///< updates in the whole stream
  std::uint64_t goal = 0;     ///< the top's current goal
  double top_step = 0.0;      ///< one top Agg step (s)
};

/// Lower bound on the next VersionApply broadcast out of the top's shard
/// (async mode), the later of two bounds:
///  - arrivals: the next version needs `need = folded + min(quota, total -
///    folded)` cumulative folds, folds never exceed launches, so the
///    version lands no earlier than `launches->earliest(need)` plus one hop
///    (no bound while `launches` is null);
///  - the relay chain: units the relays forwarded by their snapshots. While
///    they cannot meet `folded + goal`, the next version needs a relay
///    emission after some snapshot — no earlier than the least snapshot
///    floor — one hop and one top Agg step later, and its broadcast lands
///    one more hop after that. A snapshot stays sound however stale it is:
///    it counts what was forwarded up to it and floors what comes after.
double async_top_bound(const ShardedCampaignConfig& cfg, const TopFlow& top,
                       const LaunchBound* launches,
                       const std::vector<RelaySnapshot>& relays);

/// Seqlock-published `RelaySnapshot`: written by the group's own shard at
/// each of its horizon refreshes, read by the top's shard.
class RelayBoard {
 public:
  void publish(const RelaySnapshot& s) noexcept;
  RelaySnapshot read() const noexcept;

 private:
  std::atomic<std::uint32_t> seq_{0};
  std::atomic<std::uint64_t> forwarded_{0};
  std::atomic<double> emit_floor_{0.0};
};

}  // namespace lifl::sys
