// The multi-interval fractional relaxation of DCFSR (Algorithm 2,
// steps 1-7) and the lower bound LB used throughout the paper's
// evaluation.
//
// Relaxations applied (Sec. V-A): each active flow is routed as a fluid
// of rate D_i (its density), may split over multiple paths, and links
// may switch on and off freely. The resulting problem decomposes into
// one convex-cost F-MCF per interval, solved by Frank-Wolfe against the
// convex envelope of the power function f (PowerModel::envelope_cost is
// the problem's cost). Per interval, the fractional per-commodity
// solution y*_{i,e}(k) is decomposed into weighted paths
// (Raghavan-Tompson); the per-interval weights are then aggregated into
//
//     wbar_P = sum_k w_P(k) * |I_k| / (d_i - r_i),
//
// a probability distribution over each flow's candidate paths — the
// input to the randomized rounding of Algorithm 2.
//
// The summed interval optima give the LB curve of Fig. 2:
//     LB = sum_k |I_k| * sum_e env(x*_e(k))   <=   Phi_f(OPT),
// since env(x) <= sigma * 1[x>0] + mu x^alpha pointwise and the
// relaxation only removes constraints.
#pragma once

#include <cstdint>
#include <vector>

#include "flow/flow.h"
#include "graph/flow_decomposition.h"
#include "graph/graph.h"
#include "graph/shortest_path.h"
#include "graph/sparse_flow.h"
#include "mcf/interval_decomposition.h"
#include "opt/convex_mcf.h"
#include "power/power_model.h"

namespace dcn {

/// Candidate routing paths of one flow with aggregated weights wbar
/// (normalized to sum to 1).
struct FlowCandidates {
  std::vector<WeightedPath> paths;
};

struct RelaxationOptions {
  /// Frank-Wolfe knobs, including the step rule. The default kPairwise
  /// repairs warm re-solves (each interval's warm rows — the previous
  /// interval's solution, or the caller's carried rows — seed the
  /// per-commodity active sets the sweeps move mass between) *and*
  /// certifies cold solves past the classic rule's last-mile stall.
  /// kClassic remains selectable as the plain joint step. See
  /// FrankWolfeStepRule.
  FrankWolfeOptions frank_wolfe;
};

struct FractionalRelaxation {
  IntervalDecomposition decomposition;
  /// LB: the fractional optimum's energy over the whole horizon.
  double lower_bound_energy = 0.0;
  /// Per flow: candidate paths and rounding probabilities wbar (empty
  /// for the rows before the solve's `first_candidate_row`).
  std::vector<FlowCandidates> candidates;
  /// Mean final Frank-Wolfe relative gap across intervals (diagnostic).
  double mean_relative_gap = 0.0;
  /// Sum of Frank-Wolfe iterations over all interval solves (the cost
  /// driver; warm starts show up here).
  std::int64_t total_fw_iterations = 0;
  /// Per-phase Frank-Wolfe work summed over all interval solves, plus
  /// the relaxation's own warm-start routing sweeps. The counters are
  /// deterministic (safe to byte-compare across thread counts); the
  /// seconds are wall time and must stay out of canonical output.
  FrankWolfeStats fw_stats;
  /// Per flow: its sparse commodity flow from the last interval it was
  /// active in — the warm-start seed for a subsequent related solve
  /// (the online scheduler threads these across re-solves).
  std::vector<SparseEdgeFlow> final_flow;
  /// Per flow: the path-atom decomposition of final_flow from the same
  /// last interval — populated only when the solve stepped with the
  /// pairwise rule (empty sets under kClassic). Feeding these back via
  /// `warm_atoms_by_flow` lets the next re-solve seed its active sets
  /// directly instead of re-running Raghavan-Tompson on the warm rows,
  /// and preserves atom identity across the online scheduler's events.
  std::vector<AtomSet> final_atoms;
};

/// Reusable scratch for solve_relaxation: the Frank-Wolfe workspace
/// (which also holds the one adjacency snapshot, rebuilt only when the
/// graph changes), Dijkstra/decomposition state, and the cold-routing
/// weights. One workspace held across a sequence of related solves (the
/// online scheduler's per-arrival re-solves) eliminates all O(V)/O(E)
/// allocation after the first call. Treat as opaque.
struct RelaxationWorkspace {
  ConvexMcfWorkspace mcf;
  DijkstraWorkspace shortest_path;
  FlowDecompositionWorkspace decomposition;
  std::vector<double> empty_weights;   // every edge at the marginal cost of 0
  std::vector<double> loaded_weights;  // marginal costs of the carried rows
};

/// Solves the relaxation interval by interval (streaming; consecutive
/// intervals warm-start from each other).
///
/// `workspace`, when non-null, is reused across calls. `warm_by_flow`,
/// when non-empty, must have one sparse row per flow; a non-empty row
/// seeds that flow's *first* interval solve instead of the cheapest-path
/// cold start, and must route exactly the flow's density from src to dst
/// (rows from a previous solve_relaxation's `final_flow` qualify as long
/// as the flow's density is unchanged — densities are invariant under
/// residual re-solves, see src/online). Empty rows fall back to the
/// cold start.
///
/// `warm_atoms_by_flow`, when non-empty (one atom set per flow; atom
/// step rules only), carries each flow's active-set decomposition from a
/// previous related solve (`final_atoms`): a non-empty set seeds the
/// flow's first interval solve directly — no Raghavan-Tompson pass over
/// its warm row — and must decompose exactly the flow's density. Empty
/// sets fall back to decomposing the warm row.
///
/// Both are taken by value and moved through the interval solves into
/// final_flow / final_atoms, so a caller that hands over state it is
/// about to replace (std::move) copies no row.
///
/// `first_candidate_row`: only flows from this index on get candidate
/// paths; the rows before it (flows whose paths the caller pins, such
/// as the online scheduler's admitted flows) skip the path
/// decomposition and wbar aggregation and get empty candidates. Every
/// other output — the bound, final_flow, final_atoms — is unaffected.
[[nodiscard]] FractionalRelaxation solve_relaxation(
    const Graph& g, const std::vector<Flow>& flows, const PowerModel& model,
    const RelaxationOptions& options = {}, RelaxationWorkspace* workspace = nullptr,
    std::vector<SparseEdgeFlow> warm_by_flow = {},
    std::vector<AtomSet> warm_atoms_by_flow = {},
    std::size_t first_candidate_row = 0);

}  // namespace dcn
