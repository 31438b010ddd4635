#pragma once

#include <memory>
#include <string>
#include <vector>

#include "src/sim/calibration.hpp"
#include "src/sim/cpu_accounting.hpp"
#include "src/sim/resource.hpp"
#include "src/sim/simulator.hpp"

namespace lifl::sim {

/// Static description of a worker node's hardware.
struct NodeConfig {
  std::uint32_t cores = calib::kCoresPerNode;
  double cpu_hz = calib::kCpuHz;
  double nic_bytes_per_sec = calib::kNicBytesPerSec;
  std::uint32_t kernel_net_cores = calib::kKernelNetCores;
};

/// A simulated worker node: a pool of cores, a kernel network-processing
/// budget, a NIC, and a CPU ledger.
///
/// Higher layers (object store, gateway, aggregators) attach to a node but
/// are owned elsewhere, keeping the hardware model free of platform policy.
class Node {
 public:
  Node(Simulator& sim, NodeId id, const NodeConfig& cfg)
      : id_(id),
        cfg_(cfg),
        cores_(sim, "node" + std::to_string(id) + ".cores", cfg.cores),
        kernel_net_(sim, "node" + std::to_string(id) + ".knet",
                    cfg.kernel_net_cores),
        nic_tx_(sim, "node" + std::to_string(id) + ".nic", 1) {}

  NodeId id() const noexcept { return id_; }
  const NodeConfig& config() const noexcept { return cfg_; }

  /// General-purpose core pool (aggregation, gateway userspace work, ...).
  Resource& cores() noexcept { return cores_; }
  /// Kernel network-processing budget — the contended resource behind Fig. 4.
  Resource& kernel_net() noexcept { return kernel_net_; }
  /// NIC wire (serializes inter-node byte transmission).
  Resource& nic() noexcept { return nic_tx_; }

  CpuAccountant& cpu() noexcept { return cpu_; }
  const CpuAccountant& cpu() const noexcept { return cpu_; }

  /// Seconds of one core needed for `cycles` of work.
  double cycles_to_secs(double cycles) const noexcept {
    return cycles / cfg_.cpu_hz;
  }

 private:
  NodeId id_;
  NodeConfig cfg_;
  Resource cores_;
  Resource kernel_net_;
  Resource nic_tx_;
  CpuAccountant cpu_;
};

/// The simulated cluster: the simulator plus a fixed set of nodes.
///
/// A sharded campaign builds one cluster per node group, group after group
/// on one thread, and the cluster is each group's first allocation. It
/// starts on a cache line of its own, so a group's objects never share a
/// line with the previous group's (which may run on another shard): a
/// layout dump of the 4-shard async campaign found group g's
/// `StreamingHierarchy` on the line of group g+1's cluster.
class alignas(64) Cluster {
 public:
  Cluster(Simulator& sim, std::size_t node_count,
          const NodeConfig& cfg = NodeConfig{})
      : sim_(sim) {
    nodes_.reserve(node_count);
    for (std::size_t i = 0; i < node_count; ++i) {
      nodes_.push_back(
          std::make_unique<Node>(sim, static_cast<NodeId>(i), cfg));
    }
  }

  Simulator& sim() noexcept { return sim_; }
  std::size_t size() const noexcept { return nodes_.size(); }
  Node& node(NodeId id) { return *nodes_.at(id); }
  const Node& node(NodeId id) const { return *nodes_.at(id); }

  /// Sum of all per-node CPU ledgers.
  CpuAccountant total_cpu() const {
    CpuAccountant total;
    for (const auto& n : nodes_) total.merge(n->cpu());
    return total;
  }

 private:
  Simulator& sim_;
  std::vector<std::unique_ptr<Node>> nodes_;
};

}  // namespace lifl::sim
