#include "mcf/relaxation.h"

#include <algorithm>
#include <cstddef>
#include <unordered_map>
#include <utility>

#include "common/contracts.h"
#include "graph/shortest_path.h"

namespace dcn {

namespace {

/// FNV-1a over the edge ids of a candidate path (the accumulator key).
struct EdgeSeqHash {
  std::size_t operator()(const std::vector<EdgeId>& edges) const noexcept {
    std::size_t h = 14695981039346656037ull;
    for (const EdgeId e : edges) {
      h ^= static_cast<std::size_t>(static_cast<std::uint32_t>(e));
      h *= 1099511628211ull;
    }
    return h;
  }
};

/// wbar accumulator of one flow: hashed path -> aggregated weight
/// (replaces the seed's std::map keyed by the edge vector — hashed
/// lookups avoid the O(path length) lexicographic compares per probe).
using PathAccumulator =
    std::unordered_map<std::vector<EdgeId>, double, EdgeSeqHash>;

}  // namespace

FractionalRelaxation solve_relaxation(const Graph& g, const std::vector<Flow>& flows,
                                      const PowerModel& model,
                                      const RelaxationOptions& options,
                                      RelaxationWorkspace* workspace,
                                      std::vector<SparseEdgeFlow> warm_by_flow,
                                      std::vector<AtomSet> warm_atoms_by_flow,
                                      std::size_t first_candidate_row) {
  validate_flows(g, flows);
  DCN_EXPECTS(first_candidate_row <= flows.size());
  FractionalRelaxation out;
  out.decomposition = decompose_intervals(flows);
  const IntervalDecomposition& dec = out.decomposition;

  // Per flow from first_candidate_row on: candidate paths keyed by edge
  // sequence, accumulating wbar.
  std::vector<PathAccumulator> accum(flows.size() - first_candidate_row);

  // Warm-start bookkeeping: per flow, its sparse fractional edge flow
  // from the previous interval it was active in; seeded from the caller
  // when it carries rows from a previous related solve. Rows move from
  // the caller through here into each interval's solve and back out.
  const bool caller_warm = !warm_by_flow.empty();
  std::vector<SparseEdgeFlow> prev_flow_by_flow;
  if (caller_warm) {
    DCN_EXPECTS(warm_by_flow.size() == flows.size());
    prev_flow_by_flow = std::move(warm_by_flow);
  } else {
    prev_flow_by_flow.resize(flows.size());
  }
  // Atom carry-over (pairwise rule): per flow, the path-atom
  // decomposition matching prev_flow_by_flow, threaded across intervals
  // (and, via the caller, across whole re-solves) so each interval
  // solve seeds its active sets without re-decomposing the warm rows.
  const bool atomic =
      options.frank_wolfe.step_rule == FrankWolfeStepRule::kPairwise;
  std::vector<AtomSet> prev_atoms_by_flow;
  if (atomic && !warm_atoms_by_flow.empty()) {
    DCN_EXPECTS(warm_atoms_by_flow.size() == flows.size());
    prev_atoms_by_flow = std::move(warm_atoms_by_flow);
  } else {
    prev_atoms_by_flow.resize(flows.size());
  }

  // All O(V)/O(E) scratch lives in workspaces reused across intervals —
  // and, when the caller passes one, across whole solves.
  RelaxationWorkspace local_workspace;
  RelaxationWorkspace& ws = workspace != nullptr ? *workspace : local_workspace;
  ConvexMcfWorkspace& mcf_workspace = ws.mcf;
  DijkstraWorkspace& sp_workspace = ws.shortest_path;
  FlowDecompositionWorkspace& decomposition_workspace = ws.decomposition;
  const CsrAdjacency& adjacency = mcf_workspace.adjacency(g);

  // The empty-network marginal weights are identical for every interval
  // and every new flow, and across solves under one cost model.
  const auto num_edges = static_cast<std::size_t>(g.num_edges());
  const EnvelopeCostSpec& envelope = model.envelope_cost();
  const double w_zero = std::max(envelope.derivative(0.0), kMinEdgeWeight);
  std::vector<double>& w0 = ws.empty_weights;
  if (w0.size() != num_edges || (num_edges > 0 && w0.front() != w_zero)) {
    w0.assign(num_edges, w_zero);
  }

  // Scratch for grouping an interval's new flows by source.
  std::vector<std::pair<NodeId, std::size_t>> new_by_source;
  std::vector<NodeId> group_targets;
  Path path_scratch;
  std::vector<double>& loaded_weights = ws.loaded_weights;

  double gap_sum = 0.0;
  std::size_t solved_intervals = 0;

  for (std::size_t k = 0; k < dec.num_intervals(); ++k) {
    const std::vector<FlowId>& active = dec.active[k];
    if (active.empty()) continue;

    ConvexMcfProblem problem;
    problem.graph = &g;
    problem.cost = envelope;
    problem.commodities.reserve(active.size());
    for (FlowId fid : active) {
      const Flow& fl = flows[static_cast<std::size_t>(fid)];
      problem.commodities.push_back({fl.src, fl.dst, fl.density()});
    }

    // Warm start: reuse each flow's previous sparse flow (under the
    // pairwise step rule the solver decomposes these rows into the
    // path atoms that seed its active sets); new flows start on the
    // cheapest path under the empty-network marginal cost,
    // batched so new flows sharing a source share one Dijkstra sweep.
    // The rows are always passed to the solver — for an all-new
    // interval they equal the solver's own cold-start point, so handing
    // them over (instead of letting it recompute) skips a full round of
    // oracle sweeps with value-identical results.
    std::vector<SparseEdgeFlow> warm(active.size());
    new_by_source.clear();
    for (std::size_t c = 0; c < active.size(); ++c) {
      const auto fid = static_cast<std::size_t>(active[c]);
      if (!prev_flow_by_flow[fid].empty()) {
        // Every active flow's entry is reassigned after the solve.
        warm[c] = std::move(prev_flow_by_flow[fid]);
      } else {
        new_by_source.emplace_back(problem.commodities[c].src, c);
      }
    }
    std::sort(new_by_source.begin(), new_by_source.end());

    // Initialization weights for the new flows. In a caller-warm-started
    // re-solve (the online scheduler's per-arrival path), route arrivals
    // against the *carried load's* marginal costs rather than the empty
    // network: a Frank-Wolfe step is a joint convex combination across
    // all commodities, so it is very slow at re-routing one badly
    // initialized arrival away from links the warm flows already
    // occupy — better to never put it there. With no carried rows the
    // sum below is zero and these weights degenerate to w0 exactly, so
    // cold behavior (and the offline algorithm) is bit-identical.
    const std::vector<double>* init_weights = &w0;
    if (caller_warm && !new_by_source.empty()) {
      loaded_weights.assign(num_edges, 0.0);
      for (const SparseEdgeFlow& row : warm) {
        for (const auto& [e, v] : row) {
          loaded_weights[static_cast<std::size_t>(e)] += v;
        }
      }
      for (double& w : loaded_weights) {
        w = std::max(envelope.derivative(w), kMinEdgeWeight);
      }
      init_weights = &loaded_weights;
    }

    for (std::size_t lo = 0; lo < new_by_source.size();) {
      ++out.fw_stats.oracle_sweeps;
      std::size_t hi = lo;
      const NodeId src = new_by_source[lo].first;
      group_targets.clear();
      while (hi < new_by_source.size() && new_by_source[hi].first == src) {
        group_targets.push_back(
            problem.commodities[new_by_source[hi].second].dst);
        ++hi;
      }
      dijkstra_sweep(adjacency, src, *init_weights, group_targets, sp_workspace);
      for (std::size_t i = lo; i < hi; ++i) {
        const std::size_t c = new_by_source[i].second;
        const bool reached = workspace_path_into(
            g, sp_workspace, src, problem.commodities[c].dst, path_scratch);
        DCN_ENSURES(reached);
        for (const EdgeId e : path_scratch.edges) {
          warm[c].emplace_back(e, problem.commodities[c].demand);
        }
        // Canonical (edge-ascending) order keeps the solver's float
        // accumulation order independent of how the row was produced.
        std::sort(warm[c].begin(), warm[c].end());
      }
      lo = hi;
    }

    // Carried atoms for this interval's commodities (pairwise only):
    // flows active in the previous interval hand their active sets
    // straight to the solver.
    std::vector<AtomSet> interval_atoms;
    if (atomic) {
      interval_atoms.resize(active.size());
      for (std::size_t c = 0; c < active.size(); ++c) {
        const auto fid = static_cast<std::size_t>(active[c]);
        interval_atoms[c] = std::move(prev_atoms_by_flow[fid]);
      }
    }

    ConvexMcfSolution sol =
        solve_convex_mcf(problem, options.frank_wolfe, std::move(warm),
                         &mcf_workspace, std::move(interval_atoms));

    out.lower_bound_energy += sol.cost * dec.intervals[k].measure();
    gap_sum += sol.relative_gap;
    out.total_fw_iterations += sol.iterations;
    out.fw_stats += sol.stats;
    ++solved_intervals;

    // Aggregate wbar per active flow that needs candidates. An
    // atom-rule solve already carries the path decomposition — its final
    // active sets — so the atoms are read off directly (normalized over
    // the set, matching the decomposition's sum-to-1 contract); a
    // classic solve runs the Raghavan-Tompson extraction as before,
    // keeping the offline trajectory byte-identical. Rows before
    // first_candidate_row only carry their rows and atoms forward.
    for (std::size_t c = 0; c < active.size(); ++c) {
      const auto fid = static_cast<std::size_t>(active[c]);
      if (fid >= first_candidate_row) {
        const Flow& fl = flows[fid];
        const double interval_share =
            dec.intervals[k].measure() / (fl.deadline - fl.release);
        PathAccumulator& acc = accum[fid - first_candidate_row];
        if (atomic && !sol.commodity_atoms[c].empty()) {
          double total_weight = 0.0;
          for (const PathAtom& atom : sol.commodity_atoms[c]) {
            total_weight += atom.weight;
          }
          DCN_ENSURES(total_weight > 0.0);
          for (const PathAtom& atom : sol.commodity_atoms[c]) {
            acc[atom.edges] += atom.weight / total_weight * interval_share;
          }
        } else {
          const std::vector<WeightedPath> paths = decompose_flow_sparse(
              g, fl.src, fl.dst, sol.commodity_flow[c], fl.density(),
              &decomposition_workspace);
          for (const WeightedPath& wp : paths) {
            acc[wp.path.edges] += wp.weight * interval_share;
          }
        }
      }
      if (atomic && !sol.commodity_atoms[c].empty()) {
        prev_atoms_by_flow[fid] = std::move(sol.commodity_atoms[c]);
      }
      prev_flow_by_flow[fid] = std::move(sol.commodity_flow[c]);
    }
  }

  out.mean_relative_gap =
      solved_intervals > 0 ? gap_sum / static_cast<double>(solved_intervals) : 0.0;
  out.final_flow = std::move(prev_flow_by_flow);
  out.final_atoms = std::move(prev_atoms_by_flow);

  // Materialize candidates with normalized wbar. The hashed accumulator
  // is unordered, so sort candidates lexicographically by edge sequence
  // — the exact order the seed's std::map iteration produced.
  out.candidates.resize(flows.size());
  std::vector<std::pair<std::vector<EdgeId>, double>> sorted;
  for (std::size_t i = first_candidate_row; i < flows.size(); ++i) {
    PathAccumulator& acc = accum[i - first_candidate_row];
    DCN_ENSURES(!acc.empty());
    sorted.clear();
    sorted.reserve(acc.size());
    // dcn-lint: allow(unordered-iter) drain-then-sort: every entry lands in `sorted` and is lexicographically ordered below before any float is accumulated, so hash order cannot reach the candidates
    for (auto& entry : acc) sorted.push_back(std::move(entry));
    std::sort(sorted.begin(), sorted.end());
    double total = 0.0;
    for (const auto& [edges, w] : sorted) total += w;
    DCN_ENSURES(total > 0.0);
    out.candidates[i].paths.reserve(sorted.size());
    for (auto& [edges, w] : sorted) {
      out.candidates[i].paths.push_back(
          {Path{flows[i].src, flows[i].dst, std::move(edges)}, w / total});
    }
  }
  return out;
}

}  // namespace dcn
