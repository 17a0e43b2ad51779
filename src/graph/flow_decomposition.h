// Decomposition of a single-commodity edge flow into weighted paths.
//
// This is the Raghavan-Tompson extraction step of Algorithm 2
// (Random-Schedule): given the fractional solution y*_{i,e} for one flow
// in one interval, repeatedly peel off a source->destination path through
// the positive-flow subgraph, assign it the bottleneck value, and reduce.
// Flow conservation guarantees termination; each extraction zeroes at
// least one edge, so the support size bounds the number of paths.
//
// The sparse entry point works entirely over the support subgraph
// (nodes and edges that actually carry flow), so extraction cost scales
// with the solution's support instead of |V| + |E| — on a fat-tree a
// commodity touches a dozen edges out of hundreds.
#pragma once

#include <vector>

#include "graph/graph.h"
#include "graph/path.h"
#include "graph/sparse_flow.h"

namespace dcn {

/// A candidate path with its extracted weight (fraction of the demand).
struct WeightedPath {
  Path path;
  double weight = 0.0;  // in (0, 1], fractions sum to ~1 after normalization
};

class FlowDecompositionWorkspace;

/// Fraction of the demand below which the decomposition treats residual
/// flow as float slop or a tiny circulation.
inline constexpr double kDecompositionTolerance = 1e-9;

/// Decomposes a sparse per-edge flow of one commodity into simple paths
/// from src to dst, walking only the support subgraph.
///
/// `demand` is the commodity total; returned weights are normalized to
/// sum to exactly 1 (they are used as a probability distribution by the
/// randomized rounding). Residual flow below kDecompositionTolerance *
/// demand is discarded proportionally. `workspace`, when non-null, is
/// reused across calls and removes all per-call scratch allocation (the
/// relaxation decomposes every flow in every interval).
///
/// Requires demand > 0 and at least one extractable path.
[[nodiscard]] std::vector<WeightedPath> decompose_flow_sparse(
    const Graph& g, NodeId src, NodeId dst, const SparseEdgeFlow& edge_flow,
    double demand, FlowDecompositionWorkspace* workspace = nullptr);

/// Reusable scratch for decompose_flow_sparse: the node-id compaction
/// map (generation-stamped, graph-sized) and all support-sized arrays.
/// Treat as opaque.
class FlowDecompositionWorkspace {
 public:
  FlowDecompositionWorkspace() = default;

 private:
  friend std::vector<WeightedPath> decompose_flow_sparse(
      const Graph&, NodeId, NodeId, const SparseEdgeFlow&, double,
      FlowDecompositionWorkspace*);

  std::vector<std::int32_t> local_id_;     // per graph node; valid iff marked
  std::vector<std::uint64_t> node_mark_;
  std::uint64_t generation_ = 0;

  // Support-sized scratch.
  std::vector<std::pair<EdgeId, double>> sorted_;
  std::vector<EdgeId> arc_edge_;
  std::vector<std::int32_t> arc_from_;
  std::vector<std::int32_t> arc_to_;
  std::vector<double> value_;
  std::vector<std::int32_t> out_offset_;  // CSR over local nodes
  std::vector<std::int32_t> out_arcs_;
  std::vector<std::int32_t> parent_arc_;
  std::vector<std::uint8_t> seen_;
  std::vector<std::int32_t> frontier_;
  std::vector<std::int32_t> chain_;
};

/// Dense convenience wrapper: `edge_flow` has size g.num_edges().
[[nodiscard]] std::vector<WeightedPath> decompose_flow(
    const Graph& g, NodeId src, NodeId dst, std::vector<double> edge_flow,
    double demand);

}  // namespace dcn
