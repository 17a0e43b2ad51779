#include "graph/graph.h"

#include <atomic>

namespace dcn {

namespace {
// The source of Graph::revision stamps; 0 is the empty default graph's.
std::atomic<std::uint64_t> next_revision{1};
}  // namespace

void Graph::bump_revision() {
  revision_ = next_revision.fetch_add(1, std::memory_order_relaxed);
}

NodeId Graph::add_node() {
  out_edges_.emplace_back();
  in_edges_.emplace_back();
  solo_neighbor_.push_back(kInvalidNode);
  multi_neighbor_.push_back(false);
  bump_revision();
  return num_nodes() - 1;
}

NodeId Graph::add_nodes(std::int32_t n) {
  DCN_EXPECTS(n >= 0);
  const NodeId first = num_nodes();
  out_edges_.resize(out_edges_.size() + static_cast<std::size_t>(n));
  in_edges_.resize(in_edges_.size() + static_cast<std::size_t>(n));
  solo_neighbor_.resize(solo_neighbor_.size() + static_cast<std::size_t>(n),
                        kInvalidNode);
  multi_neighbor_.resize(multi_neighbor_.size() + static_cast<std::size_t>(n),
                         false);
  bump_revision();
  return first;
}

void Graph::note_neighbor(NodeId u, NodeId neighbor) {
  NodeId& solo = solo_neighbor_[static_cast<std::size_t>(u)];
  if (solo == kInvalidNode) {
    solo = neighbor;
  } else if (solo != neighbor) {
    multi_neighbor_[static_cast<std::size_t>(u)] = true;
  }
}

EdgeId Graph::add_edge(NodeId src, NodeId dst) {
  DCN_EXPECTS(valid_node(src));
  DCN_EXPECTS(valid_node(dst));
  DCN_EXPECTS(src != dst);
  const EdgeId id = num_edges();
  edges_.push_back({src, dst});
  reverse_.push_back(kInvalidEdge);
  out_edges_[static_cast<std::size_t>(src)].push_back(id);
  in_edges_[static_cast<std::size_t>(dst)].push_back(id);
  note_neighbor(src, dst);
  note_neighbor(dst, src);
  bump_revision();
  return id;
}

std::pair<EdgeId, EdgeId> Graph::add_bidirectional_edge(NodeId u, NodeId v) {
  const EdgeId fwd = add_edge(u, v);
  const EdgeId bwd = add_edge(v, u);
  reverse_[static_cast<std::size_t>(fwd)] = bwd;
  reverse_[static_cast<std::size_t>(bwd)] = fwd;
  return {fwd, bwd};
}

}  // namespace dcn
