// Directed graph with stable integer node / edge ids.
//
// The network G = (V, E) of the paper. Physical full-duplex links are
// modeled as a pair of directed edges (one per direction); the power
// model (idle power sigma, dynamic power mu*x^a) is charged per directed
// edge, consistent with the paper's abstraction of port+link power into
// "the link" and with the speed-scaling literature it builds on
// (Andrews et al. [16]).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/contracts.h"

namespace dcn {

using NodeId = std::int32_t;
using EdgeId = std::int32_t;

inline constexpr NodeId kInvalidNode = -1;
inline constexpr EdgeId kInvalidEdge = -1;

/// A directed edge from `src` to `dst`.
struct Edge {
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;

  friend bool operator==(const Edge&, const Edge&) = default;
};

/// Growable directed multigraph. Nodes and edges are identified by dense
/// ids assigned in insertion order; neither can be removed (network
/// topologies are static for the scheduling horizon).
class Graph {
 public:
  Graph() = default;

  /// Creates `n` isolated nodes up front.
  explicit Graph(std::int32_t n) { add_nodes(n); }

  /// Adds one node; returns its id.
  NodeId add_node();

  /// Adds `n` nodes; returns the id of the first.
  NodeId add_nodes(std::int32_t n);

  /// Adds a directed edge; both endpoints must exist. Returns its id.
  EdgeId add_edge(NodeId src, NodeId dst);

  /// Adds the directed pair (u,v) and (v,u); returns {forward, backward}.
  std::pair<EdgeId, EdgeId> add_bidirectional_edge(NodeId u, NodeId v);

  [[nodiscard]] std::int32_t num_nodes() const {
    return static_cast<std::int32_t>(out_edges_.size());
  }
  [[nodiscard]] std::int32_t num_edges() const {
    return static_cast<std::int32_t>(edges_.size());
  }

  [[nodiscard]] const Edge& edge(EdgeId e) const {
    DCN_EXPECTS(valid_edge(e));
    return edges_[static_cast<std::size_t>(e)];
  }

  /// All edges, indexed by EdgeId — lets hot loops hoist one bounds
  /// check instead of paying edge()'s per-call contract check.
  [[nodiscard]] std::span<const Edge> edges() const { return edges_; }

  /// Ids of edges leaving `u`, in insertion order (deterministic
  /// tie-breaking in the search algorithms relies on this).
  [[nodiscard]] std::span<const EdgeId> out_edges(NodeId u) const {
    DCN_EXPECTS(valid_node(u));
    return out_edges_[static_cast<std::size_t>(u)];
  }

  /// Ids of edges entering `u`, in insertion order.
  [[nodiscard]] std::span<const EdgeId> in_edges(NodeId u) const {
    DCN_EXPECTS(valid_node(u));
    return in_edges_[static_cast<std::size_t>(u)];
  }

  [[nodiscard]] bool valid_node(NodeId u) const {
    return u >= 0 && u < num_nodes();
  }
  [[nodiscard]] bool valid_edge(EdgeId e) const {
    return e >= 0 && e < num_edges();
  }

  /// The reverse edge id for edges created with add_bidirectional_edge;
  /// kInvalidEdge when the edge has no registered reverse.
  [[nodiscard]] EdgeId reverse_edge(EdgeId e) const {
    DCN_EXPECTS(valid_edge(e));
    return reverse_[static_cast<std::size_t>(e)];
  }

  /// True when every edge at `u` (either direction) joins the same
  /// single neighbor, or `u` has no edges at all. A leaf's only way out
  /// leads straight back to its sole neighbor, so a leaf can never be an
  /// intermediate hop of a shortest path — targeted searches skip
  /// non-target leaves entirely. Hosts in fat-tree and leaf-spine
  /// fabrics are leaves; the flag is maintained incrementally by
  /// add_edge.
  [[nodiscard]] bool is_leaf(NodeId u) const {
    DCN_EXPECTS(valid_node(u));
    return !multi_neighbor_[static_cast<std::size_t>(u)];
  }

  /// Structure stamp: every add_node/add_nodes/add_edge draws a fresh
  /// value from one process-wide counter, so two graphs share a stamp
  /// only when one is an unmodified copy of the other (or both are
  /// default-constructed and empty). Caches of derived structure (the
  /// solvers' CSR snapshots) key on it — never on the graph's address,
  /// which a different graph may reuse.
  [[nodiscard]] std::uint64_t revision() const { return revision_; }

 private:
  void note_neighbor(NodeId u, NodeId neighbor);
  void bump_revision();

  std::vector<Edge> edges_;
  std::vector<EdgeId> reverse_;
  std::vector<std::vector<EdgeId>> out_edges_;
  std::vector<std::vector<EdgeId>> in_edges_;
  std::vector<NodeId> solo_neighbor_;  // the one neighbor seen so far
  std::vector<bool> multi_neighbor_;   // node has >= 2 distinct neighbors
  std::uint64_t revision_ = 0;
};

}  // namespace dcn
