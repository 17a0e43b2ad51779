#include "graph/shortest_path.h"

#include <algorithm>
#include <queue>

namespace dcn {

namespace {

std::optional<Path> reconstruct(const Graph& g,
                                const std::vector<EdgeId>& parent_edge,
                                NodeId src, NodeId dst) {
  if (src == dst) return Path{src, dst, {}};
  if (parent_edge[static_cast<std::size_t>(dst)] == kInvalidEdge) return std::nullopt;
  std::vector<EdgeId> edges;
  NodeId at = dst;
  while (at != src) {
    const EdgeId e = parent_edge[static_cast<std::size_t>(at)];
    if (e == kInvalidEdge) return std::nullopt;
    edges.push_back(e);
    at = g.edge(e).src;
  }
  std::reverse(edges.begin(), edges.end());
  return Path{src, dst, std::move(edges)};
}

}  // namespace

std::optional<Path> bfs_shortest_path(const Graph& g, NodeId src, NodeId dst) {
  DCN_EXPECTS(g.valid_node(src));
  DCN_EXPECTS(g.valid_node(dst));
  std::vector<EdgeId> parent(static_cast<std::size_t>(g.num_nodes()), kInvalidEdge);
  std::vector<bool> seen(static_cast<std::size_t>(g.num_nodes()), false);
  std::queue<NodeId> frontier;
  frontier.push(src);
  seen[static_cast<std::size_t>(src)] = true;
  while (!frontier.empty()) {
    const NodeId u = frontier.front();
    frontier.pop();
    if (u == dst) break;
    for (EdgeId e : g.out_edges(u)) {
      const NodeId v = g.edge(e).dst;
      if (seen[static_cast<std::size_t>(v)]) continue;
      seen[static_cast<std::size_t>(v)] = true;
      parent[static_cast<std::size_t>(v)] = e;
      frontier.push(v);
    }
  }
  return reconstruct(g, parent, src, dst);
}

ShortestPathTree dijkstra_tree(const Graph& g, NodeId src,
                               const std::vector<double>& edge_weights) {
  DCN_EXPECTS(g.valid_node(src));
  DCN_EXPECTS(edge_weights.size() == static_cast<std::size_t>(g.num_edges()));
  ShortestPathTree tree;
  tree.distance.assign(static_cast<std::size_t>(g.num_nodes()), kInfiniteDistance);
  tree.parent_edge.assign(static_cast<std::size_t>(g.num_nodes()), kInvalidEdge);
  tree.distance[static_cast<std::size_t>(src)] = 0.0;

  using Entry = std::pair<double, NodeId>;  // (distance, node)
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
  heap.emplace(0.0, src);
  while (!heap.empty()) {
    const auto [dist, u] = heap.top();
    heap.pop();
    if (dist > tree.distance[static_cast<std::size_t>(u)]) continue;  // stale
    for (EdgeId e : g.out_edges(u)) {
      const double w = edge_weights[static_cast<std::size_t>(e)];
      DCN_EXPECTS(w >= 0.0);
      const NodeId v = g.edge(e).dst;
      const double cand = dist + w;
      if (cand < tree.distance[static_cast<std::size_t>(v)]) {
        tree.distance[static_cast<std::size_t>(v)] = cand;
        tree.parent_edge[static_cast<std::size_t>(v)] = e;
        heap.emplace(cand, v);
      }
    }
  }
  return tree;
}

void CsrAdjacency::build(const Graph& g) {
  const auto n = static_cast<std::size_t>(g.num_nodes());
  offsets_.assign(n + 1, 0);
  transit_offsets_.assign(n + 1, 0);
  leaf_in_offsets_.assign(n + 1, 0);
  neighbors_.clear();
  neighbors_.reserve(static_cast<std::size_t>(g.num_edges()));
  transit_neighbors_.clear();
  leaf_in_edges_.clear();
  leaf_.assign(n, 0);
  const std::span<const Edge> edges = g.edges();
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    leaf_[static_cast<std::size_t>(u)] = g.is_leaf(u) ? 1 : 0;
  }
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    const auto i = static_cast<std::size_t>(u);
    offsets_[i] = static_cast<std::int32_t>(neighbors_.size());
    transit_offsets_[i] = static_cast<std::int32_t>(transit_neighbors_.size());
    leaf_in_offsets_[i] = static_cast<std::int32_t>(leaf_in_edges_.size());
    for (EdgeId e : g.out_edges(u)) {
      const NodeId dst = edges[static_cast<std::size_t>(e)].dst;
      neighbors_.push_back({e, dst});
      if (leaf_[static_cast<std::size_t>(dst)] == 0) {
        transit_neighbors_.push_back({e, dst});
      }
    }
    if (leaf_[i] != 0) {
      for (EdgeId e : g.in_edges(u)) {
        leaf_in_edges_.push_back({e, edges[static_cast<std::size_t>(e)].src});
      }
    }
  }
  offsets_[n] = static_cast<std::int32_t>(neighbors_.size());
  transit_offsets_[n] = static_cast<std::int32_t>(transit_neighbors_.size());
  leaf_in_offsets_[n] = static_cast<std::int32_t>(leaf_in_edges_.size());
  revision_ = g.revision();
}

void DijkstraWorkspace::begin_sweep(std::size_t num_nodes) {
  if (distance_.size() != num_nodes) {
    distance_.assign(num_nodes, kInfiniteDistance);
    parent_edge_.assign(num_nodes, kInvalidEdge);
    mark_.assign(num_nodes, 0);
    target_mark_.assign(num_nodes, 0);
    heap_pos_.assign(num_nodes, -1);
    generation_ = 0;
  }
  ++generation_;  // invalidates every per-node slot in O(1)
}

void dijkstra_sweep(const CsrAdjacency& adj, NodeId src,
                    const std::vector<double>& edge_weights,
                    std::span<const NodeId> targets, DijkstraWorkspace& ws) {
  DCN_EXPECTS(src >= 0 && src < adj.num_nodes());
  const auto num_nodes = static_cast<std::size_t>(adj.num_nodes());
  ws.begin_sweep(num_nodes);
  if (ws.heap_.size() < num_nodes) ws.heap_.resize(num_nodes);
  const std::uint64_t gen = ws.generation_;

  // Raw pointers: every array is pre-sized (the heap holds each node at
  // most once, so num_nodes bounds it), which keeps the hot loop free of
  // vector-aliasing reloads and reallocation hazards.
  double* const dist = ws.distance_.data();
  EdgeId* const parent = ws.parent_edge_.data();
  std::uint64_t* const mark = ws.mark_.data();
  std::uint64_t* const target_mark = ws.target_mark_.data();
  std::int32_t* const pos = ws.heap_pos_.data();
  NodeId* const heap = ws.heap_.data();
  std::int32_t heap_size = 0;
  const double* const weight = edge_weights.data();

  auto touch = [&](NodeId v) -> std::size_t {
    const auto i = static_cast<std::size_t>(v);
    if (mark[i] != gen) {
      mark[i] = gen;
      dist[i] = kInfiniteDistance;
      parent[i] = kInvalidEdge;
      pos[i] = -1;
    }
    return i;
  };

  // Indexed 4-ary heap keyed by (distance, node): every node appears at
  // most once, so there are no stale entries to pop and skip, and the
  // key reproduces the classic lazy-deletion pop order exactly — ties
  // on distance settle in node-id order.
  auto heap_less = [&](NodeId a, NodeId b) {
    const double da = dist[static_cast<std::size_t>(a)];
    const double db = dist[static_cast<std::size_t>(b)];
    if (da != db) return da < db;
    return a < b;
  };
  auto sift_up = [&](std::int32_t i) {
    const NodeId v = heap[i];
    while (i > 0) {
      const std::int32_t up = (i - 1) / 4;
      const NodeId p = heap[up];
      if (!heap_less(v, p)) break;
      heap[i] = p;
      pos[static_cast<std::size_t>(p)] = i;
      i = up;
    }
    heap[i] = v;
    pos[static_cast<std::size_t>(v)] = i;
  };
  auto sift_down = [&](std::int32_t i) {
    const NodeId v = heap[i];
    while (true) {
      const std::int32_t first = 4 * i + 1;
      if (first >= heap_size) break;
      const std::int32_t last = std::min(first + 4, heap_size);
      std::int32_t best = first;
      for (std::int32_t c = first + 1; c < last; ++c) {
        if (heap_less(heap[c], heap[best])) best = c;
      }
      const NodeId b = heap[best];
      if (!heap_less(b, v)) break;
      heap[i] = b;
      pos[static_cast<std::size_t>(b)] = i;
      i = best;
    }
    heap[i] = v;
    pos[static_cast<std::size_t>(v)] = i;
  };

  // Targeted sweeps never settle leaves: the transit adjacency drops
  // every edge into a leaf (a leaf's only exit returns to its sole
  // neighbor, so it can never be a transit hop), and each leaf target
  // is stood in for by its neighbor — once that neighbor settles, the
  // leaf's label is one relaxation away and is resolved in a post-step.
  // Count distinct effective targets via the stamped target marks
  // (duplicates in `targets` are fine and counted once).
  std::size_t remaining = 0;
  for (NodeId t : targets) {
    DCN_EXPECTS(t >= 0 && t < adj.num_nodes());
    NodeId effective = t;
    if (adj.is_leaf(t) && t != src) {
      const std::span<const CsrAdjacency::InEdge> in = adj.leaf_in(t);
      if (in.empty()) continue;  // no way in: stays unreached
      effective = in.front().src;
    }
    const auto i = static_cast<std::size_t>(effective);
    if (target_mark[i] != gen) {
      target_mark[i] = gen;
      ++remaining;
    }
  }
  const bool early_exit = remaining > 0;

  dist[touch(src)] = 0.0;
  heap[0] = src;
  pos[static_cast<std::size_t>(src)] = 0;
  heap_size = 1;

  while (heap_size > 0) {
    const NodeId u = heap[0];
    const auto ui = static_cast<std::size_t>(u);
    pos[ui] = -1;
    --heap_size;
    if (heap_size > 0) {
      const NodeId last = heap[heap_size];
      heap[0] = last;
      pos[static_cast<std::size_t>(last)] = 0;
      sift_down(0);
    }
    // u is settled now: its distance/parent chain is final under
    // non-negative weights.
    if (early_exit && target_mark[ui] == gen && --remaining == 0) break;
    const double du = dist[ui];
    const std::span<const CsrAdjacency::Neighbor> row =
        early_exit ? adj.transit_out(u) : adj.out(u);
    for (const auto& [e, v] : row) {
      const auto vi = touch(v);
      const double cand = du + weight[static_cast<std::size_t>(e)];
      if (cand < dist[vi]) {
        dist[vi] = cand;
        parent[vi] = e;
        if (pos[vi] >= 0) {
          sift_up(pos[vi]);
        } else {
          heap[heap_size] = v;
          sift_up(heap_size);
          ++heap_size;
        }
      }
    }
  }

  if (!early_exit) return;
  // Resolve leaf targets from their settled neighbor: the label a full
  // sweep would assign the moment that neighbor settled, with the same
  // first-strict-improvement tie-break over parallel edges.
  for (NodeId t : targets) {
    if (!adj.is_leaf(t) || t == src) continue;
    const auto ti = touch(t);
    double best = kInfiniteDistance;
    EdgeId best_edge = kInvalidEdge;
    for (const auto& [e, u] : adj.leaf_in(t)) {
      const auto uidx = static_cast<std::size_t>(u);
      if (mark[uidx] != gen || pos[uidx] != -1) continue;  // not settled
      const double cand = dist[uidx] + weight[static_cast<std::size_t>(e)];
      if (cand < best) {
        best = cand;
        best_edge = e;
      }
    }
    dist[ti] = best;
    parent[ti] = best_edge;
  }
}

bool workspace_path_into(const Graph& g, const DijkstraWorkspace& ws, NodeId src,
                         NodeId dst, Path& out) {
  DCN_EXPECTS(g.valid_node(src));
  DCN_EXPECTS(g.valid_node(dst));
  out.src = src;
  out.dst = dst;
  out.edges.clear();
  if (src == dst) return true;
  if (ws.parent_edge(dst) == kInvalidEdge) return false;
  NodeId at = dst;
  while (at != src) {
    const EdgeId e = ws.parent_edge(at);
    if (e == kInvalidEdge) return false;
    out.edges.push_back(e);
    at = g.edge(e).src;
  }
  std::reverse(out.edges.begin(), out.edges.end());
  return true;
}

std::optional<Path> workspace_path(const Graph& g, const DijkstraWorkspace& ws,
                                   NodeId src, NodeId dst) {
  Path path;
  if (!workspace_path_into(g, ws, src, dst, path)) return std::nullopt;
  return path;
}

std::optional<Path> tree_path(const Graph& g, const ShortestPathTree& tree,
                              NodeId src, NodeId dst) {
  DCN_EXPECTS(g.valid_node(src));
  DCN_EXPECTS(g.valid_node(dst));
  if (tree.distance[static_cast<std::size_t>(dst)] == kInfiniteDistance) {
    return std::nullopt;
  }
  return reconstruct(g, tree.parent_edge, src, dst);
}

std::optional<Path> dijkstra_shortest_path(const Graph& g, NodeId src, NodeId dst,
                                           const std::vector<double>& edge_weights) {
  const ShortestPathTree tree = dijkstra_tree(g, src, edge_weights);
  return tree_path(g, tree, src, dst);
}

std::vector<std::int32_t> bfs_distances(const Graph& g, NodeId src) {
  DCN_EXPECTS(g.valid_node(src));
  std::vector<std::int32_t> dist(static_cast<std::size_t>(g.num_nodes()), -1);
  std::queue<NodeId> frontier;
  dist[static_cast<std::size_t>(src)] = 0;
  frontier.push(src);
  while (!frontier.empty()) {
    const NodeId u = frontier.front();
    frontier.pop();
    for (EdgeId e : g.out_edges(u)) {
      const NodeId v = g.edge(e).dst;
      if (dist[static_cast<std::size_t>(v)] != -1) continue;
      dist[static_cast<std::size_t>(v)] = dist[static_cast<std::size_t>(u)] + 1;
      frontier.push(v);
    }
  }
  return dist;
}

bool is_strongly_connected(const Graph& g) {
  if (g.num_nodes() == 0) return true;
  // Forward reachability from node 0 plus backward reachability (via
  // in-edges) suffices for strong connectivity.
  const std::vector<std::int32_t> fwd = bfs_distances(g, 0);
  if (std::any_of(fwd.begin(), fwd.end(), [](std::int32_t d) { return d == -1; })) {
    return false;
  }
  std::vector<bool> seen(static_cast<std::size_t>(g.num_nodes()), false);
  std::queue<NodeId> frontier;
  seen[0] = true;
  frontier.push(0);
  while (!frontier.empty()) {
    const NodeId u = frontier.front();
    frontier.pop();
    for (EdgeId e : g.in_edges(u)) {
      const NodeId v = g.edge(e).src;
      if (seen[static_cast<std::size_t>(v)]) continue;
      seen[static_cast<std::size_t>(v)] = true;
      frontier.push(v);
    }
  }
  return std::all_of(seen.begin(), seen.end(), [](bool b) { return b; });
}

}  // namespace dcn
