#include "src/control/campaign_planner.hpp"

#include <algorithm>
#include <stdexcept>

namespace lifl::ctrl {

CampaignPlanner::CampaignPlanner(Config cfg, std::size_t groups)
    : cfg_(cfg), leaf_planner_(cfg.updates_per_leaf) {
  if (groups == 0) {
    throw std::invalid_argument("CampaignPlanner: groups must be >= 1");
  }
  if (cfg_.middle_fanin == 0) {
    throw std::invalid_argument("CampaignPlanner: middle_fanin must be >= 1");
  }
  if (cfg_.min_leaves == 0 || cfg_.min_leaves > cfg_.max_leaves) {
    throw std::invalid_argument(
        "CampaignPlanner: need 1 <= min_leaves <= max_leaves");
  }
  groups_.reserve(groups);
  for (std::size_t g = 0; g < groups; ++g) {
    groups_.emplace_back(cfg_.ewma_alpha);
  }
}

std::uint32_t CampaignPlanner::leaves_for(double pending) const {
  if (pending <= 0.0) return 0;
  // The §5.2 rule, reused verbatim: ceil(Q / I) leaves for Q pending.
  const HierarchyPlan p = leaf_planner_.plan({pending}, 0);
  const std::uint32_t raw = p.per_node.empty() ? 0 : p.per_node.front().leaves;
  return std::clamp(raw, cfg_.min_leaves, cfg_.max_leaves);
}

std::uint32_t CampaignPlanner::middles_for(
    std::uint32_t leaves) const noexcept {
  if (leaves <= cfg_.middle_fanin) return 0;
  return (leaves + cfg_.middle_fanin - 1) / cfg_.middle_fanin;
}

CampaignPlan CampaignPlanner::plan_round(
    const std::vector<double>& expected_per_group) {
  if (expected_per_group.size() != groups_.size()) {
    throw std::invalid_argument("plan_round: group count mismatch");
  }
  CampaignPlan plan;
  plan.groups.resize(groups_.size());
  for (std::size_t g = 0; g < groups_.size(); ++g) {
    GroupState& st = groups_[g];
    // Carried estimate when the group was ever observed; the raw round
    // target otherwise (a first round plans for maximal parallelism).
    const double q =
        st.est.initialized()
            ? std::min(st.est.value(), expected_per_group[g])
            : expected_per_group[g];
    GroupPlan& gp = plan.groups[g];
    gp.expected_updates = q;
    // A group with a round target always gets at least min_leaves (a zero
    // smoothed estimate after an idle tail must not stall the next round).
    gp.leaves = expected_per_group[g] > 0.0
                    ? std::max(cfg_.min_leaves, leaves_for(q))
                    : 0;
    gp.middles = middles_for(gp.leaves);
    st.leaves = gp.leaves;
  }
  return plan;
}

std::optional<std::uint32_t> CampaignPlanner::replan(std::size_t g,
                                                     double backlog) {
  GroupState& st = groups_.at(g);
  const double smoothed = st.est.observe(backlog);
  const std::uint32_t desired = leaves_for(smoothed);
  const double cur = static_cast<double>(st.leaves);
  // Hysteresis band: ignore drift that stays within +-h of the current
  // size, so arrival noise does not churn the tree (Fig. 8 stability).
  const double lo = cur * (1.0 - cfg_.hysteresis);
  const double hi = cur * (1.0 + cfg_.hysteresis);
  const double d = static_cast<double>(desired);
  if (st.leaves > 0 && d >= lo && d <= hi) return std::nullopt;
  if (desired == st.leaves) return std::nullopt;
  st.leaves = desired;
  return desired;
}

void CampaignPlanner::set_current(std::size_t g, std::uint32_t leaves) {
  groups_.at(g).leaves = leaves;
}

}  // namespace lifl::ctrl
