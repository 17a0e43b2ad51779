// The shard layer of the online scheduling service: a topology-fixed
// partition of flows by source edge-group.
//
// ShardPlan groups hosts by their attachment (edge) switch — the
// pod-local unit RCD's near-deadline locality argument justifies — and
// caps how many groups run concurrently (the lane count).
// Crucially the *decomposition* is a function of the topology alone:
// shard and worker counts only choose how many groups run concurrently,
// never which flows share a relaxation, so the sharded scheduler's
// output is byte-identical for any shard count >= 2 and any worker
// count (the BatchRunner house rule). The plan partitions solve work
// only: committed load lives in the scheduler's one EdgeLoadIndex,
// which only the serial coordinator reads or writes.
//
// single_group is the degenerate plan — every node in group 0, one
// lane — on which the scheduler is the plain event loop (online_dcfsr).
#pragma once

#include <cstdint>
#include <vector>

#include "flow/flow.h"
#include "graph/graph.h"
#include "topology/topology.h"

namespace dcn {

class ShardPlan {
 public:
  /// Partition by source edge-group (attachment switch). `num_shards`
  /// is the requested lane count: 0 means one lane per group, values
  /// above the group count are clamped, and 1 yields a single-lane plan
  /// (online_dcfsr_sharded runs that case on single_group, so "1 shard"
  /// matches online_dcfsr_flat byte for byte).
  [[nodiscard]] static ShardPlan by_source_group(const Topology& topo,
                                                 std::int32_t num_shards);

  /// One group holding every node of `g`, one lane.
  [[nodiscard]] static ShardPlan single_group(const Graph& g);

  /// Distinct source groups (edge switches with attached hosts).
  [[nodiscard]] std::int32_t num_groups() const { return num_groups_; }
  /// Execution lanes — the effective shard count (concurrency cap).
  [[nodiscard]] std::int32_t num_lanes() const { return num_lanes_; }

  /// Group of a node; -1 for non-hosts (single_group maps every node
  /// to 0).
  [[nodiscard]] std::int32_t group_of_host(NodeId host) const {
    return host_group_[static_cast<std::size_t>(host)];
  }
  [[nodiscard]] std::int32_t group_of(const Flow& fl) const {
    return group_of_host(fl.src);
  }

 private:
  std::vector<std::int32_t> host_group_;  // by NodeId
  std::int32_t num_groups_ = 0;
  std::int32_t num_lanes_ = 0;
};

}  // namespace dcn
