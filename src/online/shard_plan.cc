#include "online/shard_plan.h"

#include <algorithm>

namespace dcn {

ShardPlan ShardPlan::by_source_group(const Topology& topo,
                                     std::int32_t num_shards) {
  const Graph& g = topo.graph();
  ShardPlan plan;
  plan.host_group_.assign(static_cast<std::size_t>(g.num_nodes()), -1);

  // A host's attachment switch is the destination of its first (and in
  // every supported fabric, only) uplink. A host with no uplink at all
  // can never source a routable flow; it gets a synthetic key disjoint
  // from the switch ids so its flows still land in a well-defined group
  // (where the reachability screen rejects them).
  std::vector<std::pair<NodeId, NodeId>> keyed;  // (attachment key, host)
  keyed.reserve(topo.hosts().size());
  for (const NodeId h : topo.hosts()) {
    const auto& up = g.out_edges(h);
    const NodeId key = up.empty() ? g.num_nodes() + h : g.edge(up.front()).dst;
    keyed.emplace_back(key, h);
  }
  // Distinct attachment keys in ascending order define the group ids —
  // a pure function of the topology, independent of shard/worker count.
  std::vector<NodeId> keys;
  keys.reserve(keyed.size());
  for (const auto& [key, h] : keyed) keys.push_back(key);
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  for (const auto& [key, h] : keyed) {
    const auto it = std::lower_bound(keys.begin(), keys.end(), key);
    plan.host_group_[static_cast<std::size_t>(h)] =
        static_cast<std::int32_t>(it - keys.begin());
  }
  plan.num_groups_ = static_cast<std::int32_t>(keys.size());

  plan.num_lanes_ = num_shards <= 0
                        ? std::max(plan.num_groups_, 1)
                        : std::min(num_shards, std::max(plan.num_groups_, 1));
  return plan;
}

ShardPlan ShardPlan::single_group(const Graph& g) {
  ShardPlan plan;
  plan.host_group_.assign(static_cast<std::size_t>(g.num_nodes()), 0);
  plan.num_groups_ = 1;
  plan.num_lanes_ = 1;
  return plan;
}

}  // namespace dcn
