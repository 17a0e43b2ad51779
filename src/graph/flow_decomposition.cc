#include "graph/flow_decomposition.h"

#include <algorithm>
#include <cstdint>
#include <limits>

namespace dcn {

std::vector<WeightedPath> decompose_flow_sparse(const Graph& g, NodeId src,
                                                NodeId dst,
                                                const SparseEdgeFlow& edge_flow,
                                                double demand,
                                                FlowDecompositionWorkspace* workspace) {
  DCN_EXPECTS(g.valid_node(src));
  DCN_EXPECTS(g.valid_node(dst));
  DCN_EXPECTS(src != dst);
  DCN_EXPECTS(demand > 0.0);
  for (const auto& [e, v] : edge_flow) DCN_EXPECTS(g.valid_edge(e));

  FlowDecompositionWorkspace local_ws;
  FlowDecompositionWorkspace& ws = workspace != nullptr ? *workspace : local_ws;

  // Sorting by edge id makes each node's support adjacency follow the
  // graph's out-edge insertion order, so extraction visits candidates in
  // exactly the order a dense BFS over g would.
  ws.sorted_.assign(edge_flow.begin(), edge_flow.end());
  std::sort(ws.sorted_.begin(), ws.sorted_.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });

  // Compact node ids over the support subgraph (+ src and dst), via a
  // generation-stamped graph-sized map.
  const auto num_nodes = static_cast<std::size_t>(g.num_nodes());
  if (ws.node_mark_.size() != num_nodes) {
    ws.node_mark_.assign(num_nodes, 0);
    ws.local_id_.assign(num_nodes, 0);
    ws.generation_ = 0;
  }
  ++ws.generation_;
  std::int32_t num_local = 0;
  auto local_id = [&ws, &num_local](NodeId v) {
    const auto i = static_cast<std::size_t>(v);
    if (ws.node_mark_[i] != ws.generation_) {
      ws.node_mark_[i] = ws.generation_;
      ws.local_id_[i] = num_local++;
    }
    return ws.local_id_[i];
  };
  const std::int32_t src_local = local_id(src);
  const std::int32_t dst_local = local_id(dst);

  const std::size_t num_arcs = ws.sorted_.size();
  ws.arc_edge_.resize(num_arcs);
  ws.arc_from_.resize(num_arcs);
  ws.arc_to_.resize(num_arcs);
  ws.value_.resize(num_arcs);
  const std::span<const Edge> edges = g.edges();
  for (std::size_t i = 0; i < num_arcs; ++i) {
    const auto [e, v] = ws.sorted_[i];
    const Edge& ed = edges[static_cast<std::size_t>(e)];
    ws.arc_edge_[i] = e;
    ws.arc_from_[i] = local_id(ed.src);
    ws.arc_to_[i] = local_id(ed.dst);
    ws.value_[i] = v;
  }

  // CSR out-adjacency over local nodes (counting sort preserves the
  // sorted arc order within each node).
  const auto n_local = static_cast<std::size_t>(num_local);
  ws.out_offset_.assign(n_local + 1, 0);
  for (std::size_t i = 0; i < num_arcs; ++i) {
    ++ws.out_offset_[static_cast<std::size_t>(ws.arc_from_[i]) + 1];
  }
  for (std::size_t u = 0; u < n_local; ++u) {
    ws.out_offset_[u + 1] += ws.out_offset_[u];
  }
  ws.out_arcs_.resize(num_arcs);
  {
    std::vector<std::int32_t>& cursor = ws.parent_arc_;  // borrow as scratch
    cursor.assign(n_local, 0);
    for (std::size_t i = 0; i < num_arcs; ++i) {
      const auto u = static_cast<std::size_t>(ws.arc_from_[i]);
      ws.out_arcs_[static_cast<std::size_t>(ws.out_offset_[u]) +
                   static_cast<std::size_t>(cursor[u]++)] =
          static_cast<std::int32_t>(i);
    }
  }

  const double threshold = kDecompositionTolerance * demand;
  ws.parent_arc_.assign(n_local, -1);
  ws.seen_.assign(n_local, 0);
  std::vector<WeightedPath> result;

  // Each extraction zeroes its bottleneck entry, so the support size
  // bounds the loop.
  for (std::size_t iter = 0; iter < num_arcs; ++iter) {
    // BFS src -> dst through arcs with value > threshold.
    std::fill(ws.seen_.begin(), ws.seen_.end(), std::uint8_t{0});
    ws.frontier_.clear();
    ws.frontier_.push_back(src_local);
    ws.seen_[static_cast<std::size_t>(src_local)] = 1;
    bool found = false;
    for (std::size_t head = 0; head < ws.frontier_.size() && !found; ++head) {
      const std::int32_t u = ws.frontier_[head];
      const auto lo = static_cast<std::size_t>(ws.out_offset_[static_cast<std::size_t>(u)]);
      const auto hi =
          static_cast<std::size_t>(ws.out_offset_[static_cast<std::size_t>(u) + 1]);
      for (std::size_t k = lo; k < hi; ++k) {
        const std::int32_t a = ws.out_arcs_[k];
        if (ws.value_[static_cast<std::size_t>(a)] <= threshold) continue;
        const std::int32_t v = ws.arc_to_[static_cast<std::size_t>(a)];
        if (ws.seen_[static_cast<std::size_t>(v)]) continue;
        ws.seen_[static_cast<std::size_t>(v)] = 1;
        ws.parent_arc_[static_cast<std::size_t>(v)] = a;
        if (v == dst_local) {
          found = true;
          break;
        }
        ws.frontier_.push_back(v);
      }
    }
    if (!found) break;

    ws.chain_.clear();
    for (std::int32_t at = dst_local; at != src_local;) {
      const std::int32_t a = ws.parent_arc_[static_cast<std::size_t>(at)];
      ws.chain_.push_back(a);
      at = ws.arc_from_[static_cast<std::size_t>(a)];
    }
    std::reverse(ws.chain_.begin(), ws.chain_.end());

    double bottleneck = std::numeric_limits<double>::infinity();
    for (const std::int32_t a : ws.chain_) {
      bottleneck = std::min(bottleneck, ws.value_[static_cast<std::size_t>(a)]);
    }
    std::vector<EdgeId> path_edges;
    path_edges.reserve(ws.chain_.size());
    for (const std::int32_t a : ws.chain_) {
      ws.value_[static_cast<std::size_t>(a)] -= bottleneck;
      path_edges.push_back(ws.arc_edge_[static_cast<std::size_t>(a)]);
    }
    result.push_back({Path{src, dst, std::move(path_edges)}, bottleneck / demand});
  }
  DCN_ENSURES(!result.empty());

  // Normalize: float slop and dropped residuals mean raw fractions sum
  // to slightly less than one.
  double total = 0.0;
  for (const WeightedPath& wp : result) total += wp.weight;
  DCN_ENSURES(total > 0.0);
  for (WeightedPath& wp : result) wp.weight /= total;
  return result;
}

std::vector<WeightedPath> decompose_flow(const Graph& g, NodeId src, NodeId dst,
                                         std::vector<double> edge_flow,
                                         double demand) {
  DCN_EXPECTS(edge_flow.size() == static_cast<std::size_t>(g.num_edges()));
  SparseEdgeFlow sparse;
  for (std::size_t e = 0; e < edge_flow.size(); ++e) {
    if (edge_flow[e] > 0.0) sparse.emplace_back(static_cast<EdgeId>(e), edge_flow[e]);
  }
  return decompose_flow_sparse(g, src, dst, sparse, demand);
}

}  // namespace dcn
