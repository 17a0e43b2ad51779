// Sparse per-commodity edge flows.
//
// A commodity's flow in the Frank-Wolfe F-MCF solver is a convex
// combination of one shortest path per iteration, so its support is a
// handful of edges out of thousands — storing it as (edge, value) pairs
// keeps per-solve commodity state O(support) instead of the dense
// O(commodities x edges) matrix the seed implementation materialized,
// and it is the interchange format between the solver
// (opt/convex_mcf), the relaxation warm starts (mcf/relaxation), and
// the Raghavan-Tompson path extraction (graph/flow_decomposition).
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "graph/graph.h"

namespace dcn {

/// Sparse edge flow: (edge, value) pairs. Producers sort rows by edge
/// id before handing them across module boundaries (deterministic
/// iteration order); scratch rows inside a solver may be unsorted.
using SparseEdgeFlow = std::vector<std::pair<EdgeId, double>>;

/// Index-addressed updates of one (unsorted) row at a time. bind()
/// records the row's edge -> position map in a dense, graph-sized array
/// stamped with a generation, so rebinding costs O(row) and never
/// O(edges); add() then finds an entry in O(1). It adds to an edge's
/// first entry, or appends (e, delta) when the edge is absent — exactly
/// what a linear scan for the edge would do, so each entry receives the
/// same additions in the same order. Anything that reorders or erases
/// the row's entries (compaction, sorting) invalidates the binding:
/// bind again before the next add().
class SparseRowIndex {
 public:
  void bind(SparseEdgeFlow& row, std::size_t num_edges) {
    if (mark_.size() != num_edges) {
      mark_.assign(num_edges, 0);
      pos_.assign(num_edges, 0);
      generation_ = 0;
    }
    ++generation_;
    row_ = &row;
    for (std::size_t i = 0; i < row.size(); ++i) {
      const auto e = static_cast<std::size_t>(row[i].first);
      if (mark_[e] == generation_) continue;  // a scan stops at the first
      mark_[e] = generation_;
      pos_[e] = i;
    }
  }

  void add(EdgeId e, double delta) {
    const auto i = static_cast<std::size_t>(e);
    if (mark_[i] == generation_) {
      (*row_)[pos_[i]].second += delta;
      return;
    }
    mark_[i] = generation_;
    pos_[i] = row_->size();
    row_->emplace_back(e, delta);
  }

 private:
  SparseEdgeFlow* row_ = nullptr;
  std::vector<std::size_t> pos_;            // valid iff mark_ == generation_
  std::vector<std::uint64_t> mark_;
  std::uint64_t generation_ = 0;
};

/// Canonicalizes a row: drops entries at or below `threshold` and sorts
/// by edge id.
inline void sparse_flow_canonicalize(SparseEdgeFlow& row, double threshold) {
  std::erase_if(row, [threshold](const auto& kv) { return kv.second <= threshold; });
  std::sort(row.begin(), row.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
}

/// Densifies a row into `out` (sized num_edges), accumulating values.
inline void sparse_flow_accumulate(const SparseEdgeFlow& row,
                                   std::vector<double>& out) {
  for (const auto& [e, v] : row) out[static_cast<std::size_t>(e)] += v;
}

}  // namespace dcn
