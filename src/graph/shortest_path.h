// Shortest-path searches: BFS (hop count) and Dijkstra (weighted).
//
// Dijkstra with per-edge weights is both the SP baseline router and the
// linearization oracle inside the Frank-Wolfe solver for the fractional
// multi-commodity flow relaxation (the per-iteration "cheapest path
// under marginal cost" step).
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "graph/path.h"

namespace dcn {

inline constexpr double kInfiniteDistance = std::numeric_limits<double>::infinity();

/// Fewest-hop path from src to dst (ties broken deterministically by
/// visiting out-edges in insertion order). nullopt when unreachable.
[[nodiscard]] std::optional<Path> bfs_shortest_path(const Graph& g, NodeId src,
                                                    NodeId dst);

/// Minimum-weight path under non-negative `edge_weights` (size
/// g.num_edges()). nullopt when unreachable.
[[nodiscard]] std::optional<Path> dijkstra_shortest_path(
    const Graph& g, NodeId src, NodeId dst, const std::vector<double>& edge_weights);

/// Result of a single-source Dijkstra sweep.
struct ShortestPathTree {
  std::vector<double> distance;      // per node; kInfiniteDistance if unreachable
  std::vector<EdgeId> parent_edge;   // per node; kInvalidEdge at src/unreachable
};

/// Single-source Dijkstra over all nodes.
[[nodiscard]] ShortestPathTree dijkstra_tree(const Graph& g, NodeId src,
                                             const std::vector<double>& edge_weights);

/// Reconstructs the path src -> dst from a ShortestPathTree rooted at src.
/// nullopt when dst is unreachable.
[[nodiscard]] std::optional<Path> tree_path(const Graph& g,
                                            const ShortestPathTree& tree,
                                            NodeId src, NodeId dst);

/// Flattened out-adjacency snapshot of a graph: per node, contiguous
/// (edge, destination) pairs in out_edges() order, plus a "transit"
/// view with every edge into a leaf filtered out and, for each leaf,
/// its in-edges. Repeated sweeps walk this instead of the
/// pointer-chasing vector-of-vectors adjacency; targeted sweeps walk
/// the leaf-free transit view and resolve leaf targets from their
/// single neighbor afterwards. A snapshot remembers the
/// Graph::revision it was built from, so sync() rebuilds only after
/// the graph changed.
class CsrAdjacency {
 public:
  struct Neighbor {
    EdgeId edge;
    NodeId dst;
  };
  struct InEdge {
    EdgeId edge;
    NodeId src;
  };

  void build(const Graph& g);

  /// build(g) unless this snapshot already holds g's current revision:
  /// a workspace reused across solves on one graph builds it once, while
  /// a different graph, or the same one grown by add_edge, rebuilds.
  void sync(const Graph& g) {
    if (revision_ != g.revision()) build(g);
  }

  [[nodiscard]] std::int32_t num_nodes() const {
    return static_cast<std::int32_t>(offsets_.size()) - 1;
  }
  [[nodiscard]] std::span<const Neighbor> out(NodeId u) const {
    const auto i = static_cast<std::size_t>(u);
    return {neighbors_.data() + offsets_[i],
            static_cast<std::size_t>(offsets_[i + 1] - offsets_[i])};
  }
  /// out(u) restricted to non-leaf destinations.
  [[nodiscard]] std::span<const Neighbor> transit_out(NodeId u) const {
    const auto i = static_cast<std::size_t>(u);
    return {transit_neighbors_.data() + transit_offsets_[i],
            static_cast<std::size_t>(transit_offsets_[i + 1] -
                                     transit_offsets_[i])};
  }
  /// In-edges of a leaf node, in insertion order (empty for non-leaves).
  [[nodiscard]] std::span<const InEdge> leaf_in(NodeId u) const {
    const auto i = static_cast<std::size_t>(u);
    return {leaf_in_edges_.data() + leaf_in_offsets_[i],
            static_cast<std::size_t>(leaf_in_offsets_[i + 1] -
                                     leaf_in_offsets_[i])};
  }
  [[nodiscard]] bool is_leaf(NodeId u) const {
    return leaf_[static_cast<std::size_t>(u)] != 0;
  }

 private:
  std::vector<Neighbor> neighbors_;
  std::vector<std::int32_t> offsets_;  // size num_nodes + 1
  std::vector<Neighbor> transit_neighbors_;
  std::vector<std::int32_t> transit_offsets_;
  std::vector<InEdge> leaf_in_edges_;
  std::vector<std::int32_t> leaf_in_offsets_;
  std::vector<std::uint8_t> leaf_;
  // Graph::revision of the last build; no graph ever carries the
  // initial value.
  std::uint64_t revision_ = std::numeric_limits<std::uint64_t>::max();
};

/// Reusable scratch state for repeated Dijkstra sweeps over the same
/// (or same-sized) graph. Distance/parent arrays are invalidated by
/// bumping a generation counter instead of refilling them, so a sweep
/// touches only the nodes it actually settles — the key to making the
/// Frank-Wolfe linearization oracle (thousands of sweeps per solve)
/// allocation-free. A workspace holds the *last* sweep's results;
/// query them via distance()/parent_edge() or workspace_path().
class DijkstraWorkspace {
 public:
  /// Distance of `v` in the last sweep; kInfiniteDistance when `v` was
  /// not reached (or not settled before an early exit).
  [[nodiscard]] double distance(NodeId v) const {
    const auto i = static_cast<std::size_t>(v);
    return mark_[i] == generation_ ? distance_[i] : kInfiniteDistance;
  }

  /// Parent edge of `v` in the last sweep's shortest-path tree;
  /// kInvalidEdge at the source or when unreached.
  [[nodiscard]] EdgeId parent_edge(NodeId v) const {
    const auto i = static_cast<std::size_t>(v);
    return mark_[i] == generation_ ? parent_edge_[i] : kInvalidEdge;
  }

 private:
  friend void dijkstra_sweep(const CsrAdjacency& adj, NodeId src,
                             const std::vector<double>& edge_weights,
                             std::span<const NodeId> targets,
                             DijkstraWorkspace& ws);

  void begin_sweep(std::size_t num_nodes);

  std::vector<double> distance_;
  std::vector<EdgeId> parent_edge_;
  std::vector<std::uint64_t> mark_;          // node state valid iff == generation_
  std::vector<std::uint64_t> target_mark_;   // node is a target this sweep
  std::vector<std::int32_t> heap_pos_;       // position in heap_; valid iff marked
  std::uint64_t generation_ = 0;
  std::vector<NodeId> heap_;  // indexed binary heap keyed by (distance, node)
};

/// Single-source Dijkstra into a reusable workspace, walking a
/// CsrAdjacency snapshot of the graph. When `targets` is non-empty the
/// sweep stops as soon as every (distinct) target is settled, and
/// non-target leaf nodes are skipped outright (a leaf's only exit
/// returns to its sole neighbor, so it can never be a transit hop);
/// settled nodes carry exactly the distances/parents a full sweep would
/// produce. An empty `targets` settles the whole graph, leaves
/// included. Precondition (unchecked in this hot path): edge weights
/// are non-negative.
void dijkstra_sweep(const CsrAdjacency& adj, NodeId src,
                    const std::vector<double>& edge_weights,
                    std::span<const NodeId> targets, DijkstraWorkspace& ws);

/// Reconstructs the path src -> dst from the workspace's last sweep
/// (which must have been rooted at src and have settled dst).
/// nullopt when dst was not reached.
[[nodiscard]] std::optional<Path> workspace_path(const Graph& g,
                                                 const DijkstraWorkspace& ws,
                                                 NodeId src, NodeId dst);

/// Allocation-reusing variant: refills `out` (keeping its edge-vector
/// capacity) instead of constructing a fresh Path. Returns false when
/// dst was not reached, leaving `out` unspecified.
bool workspace_path_into(const Graph& g, const DijkstraWorkspace& ws, NodeId src,
                         NodeId dst, Path& out);

/// Per-node hop distance from src (BFS); -1 when unreachable.
[[nodiscard]] std::vector<std::int32_t> bfs_distances(const Graph& g, NodeId src);

/// True when every node is reachable from every other node.
[[nodiscard]] bool is_strongly_connected(const Graph& g);

}  // namespace dcn
