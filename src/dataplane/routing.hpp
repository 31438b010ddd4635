#pragma once

#include <cstddef>
#include <optional>
#include <unordered_map>

#include "src/fl/model_update.hpp"
#include "src/sim/task.hpp"
#include "src/sim/time.hpp"

namespace lifl::dp {

/// Per-node sockmap (Appendix A): maps a participant id to the local socket
/// — here, a delivery callback into the destination runtime's Recv step.
///
/// Mirrors BPF_MAP_TYPE_SOCKMAP usage in LIFL: the SKMSG program looks up
/// the destination aggregator's socket by id and delivers the object key
/// without leaving the kernel. The `update_elem` / `delete_elem` names
/// follow the eBPF helper API the routing manager uses.
class Sockmap {
 public:
  /// Delivery callback — a move-only `sim::TaskFn` taking the delivered
  /// update's descriptor (and its payload reference): registering a
  /// consumer (`{runtime}` captures, 8-16 bytes) stays inline, so churning
  /// millions of short-lived leaf aggregators costs no allocator traffic
  /// here.
  using DeliverFn = sim::TaskFn<fl::UpdateDesc>;

  void update_elem(fl::ParticipantId id, DeliverFn sock) {
    map_[id] = std::move(sock);
  }

  bool delete_elem(fl::ParticipantId id) { return map_.erase(id) > 0; }

  /// Null if the id has no local socket.
  DeliverFn* lookup(fl::ParticipantId id) {
    auto it = map_.find(id);
    return it == map_.end() ? nullptr : &it->second;
  }

  std::size_t size() const noexcept { return map_.size(); }

 private:
  std::unordered_map<fl::ParticipantId, DeliverFn> map_;
};

/// Per-node inter-node routing table held by the gateway (Appendix A): maps
/// a destination participant to the node hosting it.
class InterNodeRoutes {
 public:
  void update_elem(fl::ParticipantId id, sim::NodeId node) { map_[id] = node; }

  bool delete_elem(fl::ParticipantId id) { return map_.erase(id) > 0; }

  std::optional<sim::NodeId> lookup(fl::ParticipantId id) const {
    auto it = map_.find(id);
    if (it == map_.end()) return std::nullopt;
    return it->second;
  }

  std::size_t size() const noexcept { return map_.size(); }

 private:
  std::unordered_map<fl::ParticipantId, sim::NodeId> map_;
};

}  // namespace lifl::dp
