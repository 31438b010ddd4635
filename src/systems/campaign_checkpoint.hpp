#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/systems/campaign_state.hpp"
#include "src/systems/sharded_campaign.hpp"

namespace lifl::sys {

/// Where a snapshot cuts the campaign: the in-progress round and the mark
/// (a point on the global k·checkpoint_every_secs simulated-time grid) the
/// blob resumes from. `mark < 0` means a round boundary (nothing of the
/// round had run yet).
/// In async mode (HierarchyMode::kAsync) the campaign is one continuous
/// stream whose boundary is the stream start, so `round` is always 1 and
/// the whole replay window is bounded by the stream prefix up to the mark.
struct CheckpointCut {
  std::uint32_t round = 1;
  double mark = -1.0;
};

/// Versioned, length-prefixed binary snapshot of a sharded mega-campaign.
///
/// **What is serialized.** The campaign's durable cross-round state at the
/// boundary of the in-progress round: per-group RNG streams and arrival
/// counters, data-plane statistics (update pool, RSS gateway queues, node
/// resources, CPU ledgers, eBPF metrics map, broker and transfer counters
/// — every accumulator restored bit-exactly, because floating-point
/// running sums are order-sensitive), shm object-store generator + stats,
/// the campaign planner's EWMA/hysteresis and server-version slots, the
/// streaming hierarchy's
/// warm pools and leaf-slot tables, the warm top runtime, per-shard clocks
/// and the partial campaign telemetry.
///
/// **What is re-materialized.** In-flight simulator events (closures in
/// the calendar queues, parked resource completions, pool waiters) are not
/// serialized — closures do not survive a process boundary. Instead the
/// snapshot records the *cut*: restore rebuilds the campaign at the round
/// boundary and deterministically re-executes the round's prefix up to the
/// cut mark, which regenerates the exact in-flight event set (the sharded
/// core's pausing is bit-transparent — see ShardedSimulator::run_to). The
/// cost is bounded by one round of compute; the result is bitwise
/// identical to never having stopped, from *any* cut point — mid-round,
/// mid-re-plan, or during a leaf drain (tests/campaign_checkpoint_test).
///
/// Blobs are rejected (sim::SnapshotError) on magic/version mismatch,
/// truncation, section drift, or a config/shard-count digest mismatch —
/// never undefined behavior.
class CampaignCheckpoint {
 public:
  static constexpr std::uint64_t kMagic = 0x50414e534c46494cull;  // LIFLSNAP
  /// v2: per-round effective FedAvg weights in the telemetry section and
  /// per-group server-version slots in the planner section (async mode).
  /// v3: fault/recovery telemetry — per-round refold counts and cumulative
  /// crash/retry/quorum counters in the result section, per-group client
  /// upload fault counters in the group section, and the fault-plan +
  /// quorum config fields folded into the digest.
  /// v4: edge-client lifecycle — per-group resumable-upload counters,
  /// per-tier participation arrays and selection-strategy score state in
  /// the group section; the auto-quota EWMA in the result section; and the
  /// tier-mix, lifecycle, selector and auto-quota config fields folded
  /// into the digest.
  /// v5: the group section drops the streaming hierarchy's cumulative
  /// stats and the planner section its per-group re-plan counters (the
  /// result section is the counts' one home); the eBPF metrics map is its
  /// five fixed slots as raw f64s instead of (name, value) pairs; and the
  /// result section carries the barrier window / skipped-window /
  /// cross-shard-post totals.
  static constexpr std::uint32_t kVersion = 5;

  /// Digest of every config field that shapes the simulation (not the
  /// paths/sinks). A blob only restores under the digest it was cut from.
  static std::uint64_t config_digest(const ShardedCampaignConfig& cfg);

  /// Encode the durable round-boundary image of `st` (call at the top of a
  /// round, before arming — shards idle, every queue quiescent; throws
  /// std::logic_error otherwise). `partial` is the telemetry of the
  /// completed rounds; `next_round` the round about to be armed.
  static std::vector<std::uint8_t> encode_boundary(
      const detail::CampaignState& st, const ShardedCampaignResult& partial,
      std::uint32_t next_round);

  /// A full snapshot blob: the boundary image plus the cut trailer.
  static std::vector<std::uint8_t> with_cut(
      const std::vector<std::uint8_t>& boundary, double mark);

  /// Byte overhead `with_cut` adds — so the in-sim cost pulse can bill the
  /// final blob size before the blob exists.
  static std::size_t cut_trailer_bytes();

  /// Decode `blob` and apply it onto a freshly constructed campaign
  /// (groups/planner built, nothing armed, clocks at zero). Returns the
  /// cut to resume from. Throws sim::SnapshotError on any malformed or
  /// mismatched blob.
  static CheckpointCut restore(const std::vector<std::uint8_t>& blob,
                               detail::CampaignState& st,
                               ShardedCampaignResult& partial);

  /// Atomic (write-temp-then-rename) blob persistence, and its inverse.
  static void write_file(const std::string& path,
                         const std::vector<std::uint8_t>& blob);
  static std::vector<std::uint8_t> read_file(const std::string& path);
};

}  // namespace lifl::sys
