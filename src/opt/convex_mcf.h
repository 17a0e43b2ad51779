// Convex-cost fractional multi-commodity flow via Frank-Wolfe
// (the classical "flow deviation" method).
//
// minimize   sum_e env(x_e)          x_e = sum_c y_{c,e}
// subject to y_c routes demand_c from src_c to dst_c (fractionally)
//
// where env is the convex envelope of the link power function f
// (EnvelopeCostSpec, built once by PowerModel) — the only cost the
// relaxation ever minimizes, so the solver evaluates it as direct
// arithmetic in every hot loop.
//
// This is the per-interval F-MCF problem of Definition 4 that
// Random-Schedule solves "by convex programming". Frank-Wolfe fits the
// structure perfectly: the linearized subproblem decomposes into one
// shortest-path computation per commodity under marginal-cost edge
// weights, the step size comes from a golden-section search on the
// (convex) restricted objective, and — crucially for the
// Raghavan-Tompson extraction — the per-commodity edge flows y_{c,e}
// are maintained explicitly, so the fractional solution y*_{i,e}(k) of
// Algorithm 2 comes out directly.
//
// The solver is sparse end-to-end: per-commodity flows are (edge,
// value) rows whose support is a convex combination of shortest paths,
// the linearization oracle batches commodities by source and stops each
// Dijkstra as soon as the group's destinations are settled, and the
// golden-section step evaluates the restricted objective only on edges
// where the current point and the target differ. A ConvexMcfWorkspace
// carries all O(V)/O(E) scratch between solves, so a sequence of
// related instances (consecutive intervals of Algorithm 2) allocates
// per-solve memory proportional to the solution support only.
//
// Two step rules (FrankWolfeOptions::step_rule): the classic joint
// convex-combination step, and the default pairwise rule over the
// per-commodity path polytopes, which maintains explicit active sets of
// path atoms and moves mass from the worst active atom onto the
// cheapest path — the repair for the warm-start last-mile stall, where
// the classic step can only shed warm mass geometrically.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "common/parallel.h"
#include "graph/flow_decomposition.h"
#include "graph/graph.h"
#include "graph/shortest_path.h"
#include "graph/sparse_flow.h"
#include "power/power_model.h"

namespace dcn {

/// One commodity: route `demand` (a rate) from src to dst.
struct Commodity {
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
  double demand = 0.0;
};

/// Shortest-path weights are floored here, so that a zero marginal
/// cost at x = 0 (pure speed scaling, sigma = 0) still yields
/// shortest-hop-like, well-posed subproblems.
inline constexpr double kMinEdgeWeight = 1e-9;

/// Problem definition: route every commodity at least cost under the
/// convex, non-decreasing `cost` — the power model's convex envelope
/// (PowerModel::envelope_cost); the default spec is the pure quadratic
/// x^2.
struct ConvexMcfProblem {
  const Graph* graph = nullptr;
  std::vector<Commodity> commodities;
  EnvelopeCostSpec cost;
};

/// One path atom of the pairwise step rule's active sets: a candidate
/// s-t path and the mass it carries. A commodity's atoms sum to its
/// demand and their edge-sum reproduces its sparse flow row — the
/// decomposed representation the pairwise rule moves mass between, and
/// a first-class solver output: callers thread a solve's final atoms
/// into the next related solve (`warm_atoms`), which skips the
/// Raghavan-Tompson re-decomposition of the warm rows and preserves
/// atom identity across re-solves.
struct PathAtom {
  std::vector<EdgeId> edges;
  double weight = 0.0;
};

/// A commodity's active set of path atoms.
using AtomSet = std::vector<PathAtom>;

/// Which Frank-Wolfe step the solver takes each iteration.
enum class FrankWolfeStepRule : std::int32_t {
  /// Classic flow deviation: every step is one joint convex
  /// combination of the current point with the all-cheapest-paths
  /// corner. Cheap per iteration and the right default for cold
  /// solves, but pathologically slow at *shedding* mass from paths a
  /// warm start carried in that the new instance made suboptimal —
  /// every step also shrinks the mass of perfectly placed commodities,
  /// so the bad mass decays only geometrically (the warm-start
  /// last-mile stall documented by tests/online_warm_start_test.cc).
  kClassic = 0,
  /// Pairwise Frank-Wolfe on the per-commodity path
  /// polytopes: the solver maintains each commodity's active set of
  /// path atoms, picks the worst active atom against the current
  /// marginal costs as the away vertex, and shifts mass from it
  /// directly onto the cheapest path, draining it entirely on a drop
  /// step. Mass a warm start misplaced is shed in a handful of steps
  /// while well-placed commodities stay untouched. Falls back to a
  /// classic step for commodities with no active set (cold rows) or
  /// when the pairwise direction stalls. The default since v2: cold
  /// solves certify tight gaps on the multipath instances where the
  /// classic rule stalls ~1e-4 from the optimum (bcube incast), and
  /// warm re-solves shed displaced mass in a handful of steps.
  kPairwise = 1,
};

/// Deterministic per-phase counters plus a wall-time split of one solve
/// (accumulated across solves by the relaxation/online layers). The
/// counters are invariant under --jobs and any oracle thread count —
/// safe to byte-compare and to surface as engine stats — while the
/// *_seconds fields are wall-clock and must never enter canonical
/// output.
struct FrankWolfeStats {
  /// Dijkstra sweeps the linearization oracle ran (one per source
  /// group and pass; the relaxation layer also counts its cold-routing
  /// sweeps here).
  std::int64_t oracle_sweeps = 0;
  /// Marginal-cost writes: dense repricing passes count every edge,
  /// sparse passes the support, pairwise sub-steps their touched
  /// edges.
  std::int64_t edges_repriced = 0;
  /// Cost-function evaluations inside the golden-section line searches.
  std::int64_t line_search_evals = 0;
  double oracle_seconds = 0.0;
  double reprice_seconds = 0.0;
  double line_search_seconds = 0.0;

  FrankWolfeStats& operator+=(const FrankWolfeStats& o) {
    oracle_sweeps += o.oracle_sweeps;
    edges_repriced += o.edges_repriced;
    line_search_evals += o.line_search_evals;
    oracle_seconds += o.oracle_seconds;
    reprice_seconds += o.reprice_seconds;
    line_search_seconds += o.line_search_seconds;
    return *this;
  }
};

struct FrankWolfeOptions {
  std::int32_t max_iterations = 120;
  double gap_tolerance = 1e-4;  // stop when gap / cost falls below this
  /// Worker threads for the shortest-path linearization oracle (the
  /// per-source Dijkstra sweeps are independent, so results are
  /// byte-identical for any thread count). 0 (default) is adaptive:
  /// min(hardware concurrency, #distinct sources) — a single-core host
  /// or a single-source problem resolves to 1 and skips the pool (and
  /// its dispatch overhead) entirely. > 0 pins the width; < 0 forces
  /// sequential.
  std::int32_t oracle_threads = 0;
  /// Step rule. kPairwise (the default) converges linearly on the
  /// per-commodity path polytopes; kClassic is the joint step the
  /// pairwise rule falls back to (see the enum for the trade-offs).
  FrankWolfeStepRule step_rule = FrankWolfeStepRule::kPairwise;
  /// When true (default), the oracle groups commodities by source so
  /// one multi-target Dijkstra sweep serves every same-source
  /// commodity. False runs one single-target sweep per commodity —
  /// byte-identical results (early exit never disturbs the parents of
  /// settled nodes), kept selectable as the A/B and test hook for the
  /// batching.
  bool batch_oracle = true;
};

/// Fractional solution.
struct ConvexMcfSolution {
  /// y[c]: sparse flow of commodity c, sorted by edge id, entries
  /// > 1e-15 only.
  std::vector<SparseEdgeFlow> commodity_flow;
  /// x[e] = sum_c y[c][e].
  std::vector<double> total_flow;
  /// sum_e cost(x_e).
  double cost = 0.0;
  /// Final relative Frank-Wolfe duality gap (upper bound on relative
  /// distance from the optimum); clamped to [0, inf) — float noise can
  /// drive the raw gap slightly negative at convergence.
  double relative_gap = 0.0;
  std::int32_t iterations = 0;
  /// Per-commodity active sets at termination — populated under the
  /// pairwise rule (empty vector under kClassic). atoms[c] is a path
  /// decomposition of commodity_flow[c]; feed it back through
  /// `warm_atoms` to seed a later related solve without re-decomposing.
  std::vector<AtomSet> commodity_atoms;
  /// Per-phase counters and wall-time split of this solve.
  FrankWolfeStats stats;
};

class ConvexMcfWorkspace;

/// Solves the problem. `warm_start`, when it holds one sparse row per
/// commodity, provides the initial point (consecutive intervals in
/// Algorithm 2 share most active flows, so warm starts cut iteration
/// counts substantially); any other length means a cold start. The rows
/// are taken by value and moved into the solution, so a caller handing
/// over rows it no longer needs (std::move) copies nothing.
/// `workspace`, when non-null, is reused across calls and eliminates all
/// O(V)/O(E) scratch allocation after the first solve on a given graph.
///
/// `warm_atoms`, when it holds one set per commodity (pairwise rule),
/// carries each commodity's active set from a previous related solve: a
/// non-empty set seeds the commodity's atoms directly — its initial
/// point is rebuilt from the atoms, the matching `warm_start` row is
/// ignored, and the per-solve Raghavan-Tompson decomposition of that
/// row is skipped. Atom weights must sum to the commodity's demand (a
/// previous solve's commodity_atoms qualify as long as the demand is
/// unchanged). Empty sets fall back to decomposing the warm row (or the
/// cold start).
[[nodiscard]] ConvexMcfSolution solve_convex_mcf(
    const ConvexMcfProblem& problem, const FrankWolfeOptions& options = {},
    std::vector<SparseEdgeFlow> warm_start = {},
    ConvexMcfWorkspace* workspace = nullptr,
    std::vector<AtomSet> warm_atoms = {});

/// Reusable scratch for solve_convex_mcf: Dijkstra state, the dense
/// marginal-weight and target vectors (kept in a canonical "clean"
/// state between solves so only touched entries are ever rewritten),
/// and the per-iteration support bookkeeping. Treat as opaque; a
/// default-constructed workspace fits any problem and adapts to graph
/// size changes automatically.
class ConvexMcfWorkspace {
 public:
  ConvexMcfWorkspace() = default;

  /// The workspace's flat adjacency snapshot of `g`, shared by every
  /// user of the workspace (the relaxation's cold routing too). Built on
  /// first use and again only when `g`'s Graph::revision differs from
  /// the snapshot's, so the solves of one run on one graph build it once.
  [[nodiscard]] const CsrAdjacency& adjacency(const Graph& g) {
    csr_.sync(g);
    return csr_;
  }

 private:
  friend ConvexMcfSolution solve_convex_mcf(const ConvexMcfProblem&,
                                            const FrankWolfeOptions&,
                                            std::vector<SparseEdgeFlow>,
                                            ConvexMcfWorkspace*,
                                            std::vector<AtomSet>);

  DijkstraWorkspace dijkstra_;
  CsrAdjacency csr_;  // see adjacency()
  /// Oracle worker pool + per-worker Dijkstra scratch; created lazily
  /// when oracle_threads requests parallelism.
  std::unique_ptr<WorkerPool> pool_;
  std::vector<DijkstraWorkspace> worker_dijkstra_;
  std::vector<std::vector<NodeId>> worker_targets_;
  /// Dense marginal weights; invariant between solves: every entry
  /// equals `w_zero_` (the marginal cost of an empty edge).
  std::vector<double> weights_;
  double w_zero_ = std::numeric_limits<double>::quiet_NaN();
  /// Dense linearization-target flow; all-zero between solves.
  std::vector<double> target_total_;
  bool clean_ = false;

  // Per-solve scratch (contents regenerated; capacity reused).
  std::vector<std::pair<NodeId, std::size_t>> by_source_;  // (sweep root, commodity)
  std::vector<std::pair<std::size_t, std::size_t>> group_bounds_;
  std::vector<NodeId> group_targets_;
  std::vector<Path> target_paths_;
  std::vector<EdgeId> x_support_;
  std::vector<EdgeId> y_support_;
  std::vector<std::uint64_t> x_mark_;
  std::vector<std::uint64_t> y_mark_;
  std::uint64_t x_generation_ = 0;
  std::uint64_t y_generation_ = 0;
  std::vector<std::pair<double, double>> line_search_diff_;  // (x_e, y_e)
  /// Edge -> entry position of the commodity row being updated.
  SparseRowIndex row_index_;

  // Pairwise-mode state (untouched under the classic rule).
  /// Per-commodity active sets, rebuilt each solve — seeded from
  /// caller-carried atoms, by decomposing the warm rows into paths, or
  /// from the cold-start cheapest paths; moved into the solution's
  /// commodity_atoms at termination.
  std::vector<AtomSet> atoms_;
  /// Decomposition scratch for the warm-row seeding.
  FlowDecompositionWorkspace atom_seed_;
  /// Dense pairwise direction, generation-stamped like the targets.
  std::vector<double> direction_;
  std::vector<std::uint64_t> dir_mark_;
  std::uint64_t dir_generation_ = 0;
  std::vector<EdgeId> dir_support_;
  std::vector<std::pair<double, double>> dir_diff_;  // (x_e, d_e)
};

}  // namespace dcn
