// Equivalence of the sparse Frank-Wolfe core against a faithful port of
// the seed's dense implementation: same total flows, same cost, same
// per-commodity flows (within float-noise tolerance) on fixed small
// instances. This is the guard rail for the sparse-core refactor — the
// sparse solver must be an optimization, not a behavioral change.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <optional>
#include <vector>

#include "common/random.h"
#include "mcf/relaxation.h"
#include "opt/convex_mcf.h"
#include "opt/line_search.h"
#include "power/power_model.h"
#include "topology/builders.h"

namespace dcn {
namespace {

// ---------------------------------------------------------------------------
// Dense reference solver: a line-for-line port of the seed
// solve_convex_mcf (dense commodity_flow matrix, full-graph Dijkstras,
// std::map source grouping, dense golden-section objective).

struct DenseSolution {
  std::vector<std::vector<double>> commodity_flow;
  std::vector<double> total_flow;
  double cost = 0.0;
  double relative_gap = 0.0;
  std::int32_t iterations = 0;
};

using DenseRow = std::vector<std::pair<EdgeId, double>>;

void dense_sparse_add(DenseRow& row, EdgeId e, double delta) {
  for (auto& [edge, value] : row) {
    if (edge == e) {
      value += delta;
      return;
    }
  }
  row.emplace_back(e, delta);
}

std::vector<Path> reference_cheapest_paths(const Graph& g,
                                           const std::vector<Commodity>& commodities,
                                           const std::vector<double>& weights) {
  std::vector<Path> out(commodities.size());
  std::map<NodeId, std::vector<std::size_t>> by_source;
  for (std::size_t c = 0; c < commodities.size(); ++c) {
    by_source[commodities[c].src].push_back(c);
  }
  for (const auto& [src, indices] : by_source) {
    const ShortestPathTree tree = dijkstra_tree(g, src, weights);
    for (std::size_t c : indices) {
      auto path = tree_path(g, tree, src, commodities[c].dst);
      EXPECT_TRUE(path.has_value());
      out[c] = std::move(*path);
    }
  }
  return out;
}

double reference_total_cost(const ConvexMcfProblem& problem,
                            const std::vector<double>& x) {
  double cost = 0.0;
  for (double xe : x) {
    if (xe > 1e-15) cost += problem.cost.value(xe);
  }
  return cost;
}

DenseSolution reference_solve(const ConvexMcfProblem& problem,
                              const FrankWolfeOptions& options,
                              const std::vector<std::vector<double>>* warm_start =
                                  nullptr) {
  const Graph& g = *problem.graph;
  const auto num_edges = static_cast<std::size_t>(g.num_edges());
  const std::size_t num_commodities = problem.commodities.size();

  DenseSolution sol;
  sol.total_flow.assign(num_edges, 0.0);
  if (num_commodities == 0) return sol;

  std::vector<DenseRow> rows(num_commodities);
  if (warm_start != nullptr && warm_start->size() == num_commodities) {
    for (std::size_t c = 0; c < num_commodities; ++c) {
      const auto& dense = (*warm_start)[c];
      for (std::size_t e = 0; e < num_edges; ++e) {
        if (dense[e] > 1e-15) rows[c].emplace_back(static_cast<EdgeId>(e), dense[e]);
      }
    }
  } else {
    std::vector<double> w0(num_edges,
                           std::max(problem.cost.derivative(0.0), kMinEdgeWeight));
    const std::vector<Path> paths =
        reference_cheapest_paths(g, problem.commodities, w0);
    for (std::size_t c = 0; c < num_commodities; ++c) {
      for (EdgeId e : paths[c].edges) {
        dense_sparse_add(rows[c], e, problem.commodities[c].demand);
      }
    }
  }
  for (std::size_t c = 0; c < num_commodities; ++c) {
    for (const auto& [e, v] : rows[c]) {
      sol.total_flow[static_cast<std::size_t>(e)] += v;
    }
  }

  std::vector<double> weights(num_edges, 0.0);
  std::vector<double> target_total(num_edges, 0.0);
  for (std::int32_t iter = 0; iter < options.max_iterations; ++iter) {
    sol.iterations = iter + 1;
    for (std::size_t e = 0; e < num_edges; ++e) {
      weights[e] = std::max(problem.cost.derivative(sol.total_flow[e]),
                            kMinEdgeWeight);
    }
    const std::vector<Path> target =
        reference_cheapest_paths(g, problem.commodities, weights);
    std::fill(target_total.begin(), target_total.end(), 0.0);
    for (std::size_t c = 0; c < num_commodities; ++c) {
      for (EdgeId e : target[c].edges) {
        target_total[static_cast<std::size_t>(e)] += problem.commodities[c].demand;
      }
    }
    double gap = 0.0;
    for (std::size_t e = 0; e < num_edges; ++e) {
      gap += weights[e] * (sol.total_flow[e] - target_total[e]);
    }
    const double current_cost = reference_total_cost(problem, sol.total_flow);
    sol.cost = current_cost;
    sol.relative_gap = current_cost > 0.0 ? gap / current_cost : 0.0;
    if (sol.relative_gap <= options.gap_tolerance) break;

    const auto& x = sol.total_flow;
    const auto& y = target_total;
    const double gamma = golden_section_minimize(
        [&](double t) {
          double c = 0.0;
          for (std::size_t e = 0; e < num_edges; ++e) {
            const double v = (1.0 - t) * x[e] + t * y[e];
            if (v > 1e-15) c += problem.cost.value(v);
          }
          return c;
        },
        0.0, 1.0, 1e-6);
    if (gamma <= 1e-12) break;

    for (std::size_t c = 0; c < num_commodities; ++c) {
      for (auto& [e, v] : rows[c]) v *= (1.0 - gamma);
      for (EdgeId e : target[c].edges) {
        dense_sparse_add(rows[c], e, gamma * problem.commodities[c].demand);
      }
      if (rows[c].size() > 256) {
        std::erase_if(rows[c], [](const auto& kv) { return kv.second < 1e-12; });
      }
    }
    for (std::size_t e = 0; e < num_edges; ++e) {
      sol.total_flow[e] = (1.0 - gamma) * sol.total_flow[e] + gamma * target_total[e];
    }
  }

  sol.cost = reference_total_cost(problem, sol.total_flow);
  sol.commodity_flow.assign(num_commodities, std::vector<double>(num_edges, 0.0));
  for (std::size_t c = 0; c < num_commodities; ++c) {
    for (const auto& [e, v] : rows[c]) {
      if (v > 1e-15) sol.commodity_flow[c][static_cast<std::size_t>(e)] = v;
    }
  }
  return sol;
}

// ---------------------------------------------------------------------------

void expect_equivalent(const ConvexMcfSolution& sparse, const DenseSolution& dense,
                       const Graph& g, double tol = 1e-9) {
  ASSERT_EQ(sparse.total_flow.size(), dense.total_flow.size());
  EXPECT_NEAR(sparse.cost, dense.cost, tol * (1.0 + std::abs(dense.cost)));
  EXPECT_EQ(sparse.iterations, dense.iterations);
  for (std::size_t e = 0; e < dense.total_flow.size(); ++e) {
    EXPECT_NEAR(sparse.total_flow[e], dense.total_flow[e], tol) << "edge " << e;
  }
  ASSERT_EQ(sparse.commodity_flow.size(), dense.commodity_flow.size());
  for (std::size_t c = 0; c < dense.commodity_flow.size(); ++c) {
    std::vector<double> row(static_cast<std::size_t>(g.num_edges()), 0.0);
    sparse_flow_accumulate(sparse.commodity_flow[c], row);
    for (std::size_t e = 0; e < row.size(); ++e) {
      EXPECT_NEAR(row[e], dense.commodity_flow[c][e], tol)
          << "commodity " << c << " edge " << e;
    }
  }
}

ConvexMcfProblem power_problem(const Graph& g, const PowerModel& model) {
  ConvexMcfProblem p;
  p.graph = &g;
  p.cost = model.envelope_cost();
  return p;
}

TEST(SparseEquivalence, LineNetworkQuadratic) {
  const Topology topo = line_network(5);
  ConvexMcfProblem p;
  p.graph = &topo.graph();  // default cost: x^2
  p.commodities = {{0, 4, 3.0}, {1, 3, 1.5}, {0, 2, 0.25}, {2, 4, 2.0}};
  FrankWolfeOptions opts;
  opts.step_rule = FrankWolfeStepRule::kClassic;  // the dense reference's rule
  opts.max_iterations = 200;
  opts.gap_tolerance = 1e-7;
  const auto sparse = solve_convex_mcf(p, opts);
  const auto dense = reference_solve(p, opts);
  expect_equivalent(sparse, dense, topo.graph());
}

TEST(SparseEquivalence, FatTreeSpeedScaling) {
  const Topology topo = fat_tree(4);
  const PowerModel model = PowerModel::pure_speed_scaling(2.0);
  ConvexMcfProblem p = power_problem(topo.graph(), model);
  for (int i = 0; i < 8; ++i) {
    p.commodities.push_back({topo.hosts()[static_cast<std::size_t>(i)],
                             topo.hosts()[static_cast<std::size_t>(15 - i)],
                             0.5 + 0.35 * i});
  }
  // Shared sources exercise the batched multi-target Dijkstra path.
  p.commodities.push_back({topo.hosts()[0], topo.hosts()[5], 1.25});
  p.commodities.push_back({topo.hosts()[0], topo.hosts()[11], 0.75});
  FrankWolfeOptions opts;
  opts.step_rule = FrankWolfeStepRule::kClassic;  // the dense reference's rule
  opts.max_iterations = 150;
  opts.gap_tolerance = 1e-6;
  const auto sparse = solve_convex_mcf(p, opts);
  const auto dense = reference_solve(p, opts);
  expect_equivalent(sparse, dense, topo.graph());
}

TEST(SparseEquivalence, FatTreeQuartic) {
  const Topology topo = fat_tree(4);
  const PowerModel model = PowerModel::pure_speed_scaling(4.0);
  ConvexMcfProblem p = power_problem(topo.graph(), model);
  for (int i = 0; i < 6; ++i) {
    p.commodities.push_back({topo.hosts()[static_cast<std::size_t>(2 * i)],
                             topo.hosts()[static_cast<std::size_t>(15 - 2 * i)],
                             1.0 + 0.5 * i});
  }
  FrankWolfeOptions opts;
  opts.step_rule = FrankWolfeStepRule::kClassic;  // the dense reference's rule
  opts.max_iterations = 100;
  opts.gap_tolerance = 1e-5;
  const auto sparse = solve_convex_mcf(p, opts);
  const auto dense = reference_solve(p, opts);
  expect_equivalent(sparse, dense, topo.graph());
}

TEST(SparseEquivalence, WarmStartMatchesDenseWarmStart) {
  const Topology topo = fat_tree(4);
  ConvexMcfProblem p;
  p.graph = &topo.graph();  // default cost: x^2
  for (int i = 0; i < 5; ++i) {
    p.commodities.push_back({topo.hosts()[static_cast<std::size_t>(i)],
                             topo.hosts()[static_cast<std::size_t>(10 + i)], 2.0});
  }
  FrankWolfeOptions opts;
  opts.step_rule = FrankWolfeStepRule::kClassic;  // the dense reference's rule
  opts.max_iterations = 120;
  opts.gap_tolerance = 1e-6;
  const auto cold_sparse = solve_convex_mcf(p, opts);
  const auto cold_dense = reference_solve(p, opts);
  expect_equivalent(cold_sparse, cold_dense, topo.graph());

  // Perturb the problem (one more commodity) and warm-start both solvers
  // from their cold solutions — the consecutive-interval pattern of
  // Algorithm 2.
  p.commodities.push_back({topo.hosts()[7], topo.hosts()[2], 1.0});
  std::vector<SparseEdgeFlow> sparse_warm = cold_sparse.commodity_flow;
  sparse_warm.push_back({});  // new commodity: no previous flow
  std::vector<std::vector<double>> dense_warm = cold_dense.commodity_flow;
  dense_warm.emplace_back(static_cast<std::size_t>(topo.graph().num_edges()), 0.0);
  // Seed semantics: a new commodity's warm row is its cheapest path
  // under empty-network weights.
  const std::vector<double> w0(static_cast<std::size_t>(topo.graph().num_edges()),
                               std::max(p.cost.derivative(0.0), kMinEdgeWeight));
  const auto sp = dijkstra_shortest_path(topo.graph(), topo.hosts()[7],
                                         topo.hosts()[2], w0);
  ASSERT_TRUE(sp.has_value());
  for (EdgeId e : sp->edges) {
    sparse_warm.back().emplace_back(e, 1.0);
    dense_warm.back()[static_cast<std::size_t>(e)] = 1.0;
  }
  std::sort(sparse_warm.back().begin(), sparse_warm.back().end());

  const auto warm_sparse = solve_convex_mcf(p, opts, sparse_warm);
  const auto warm_dense = reference_solve(p, opts, &dense_warm);
  expect_equivalent(warm_sparse, warm_dense, topo.graph());
}

void expect_identical(const ConvexMcfSolution& a, const ConvexMcfSolution& b) {
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.cost, b.cost);
  EXPECT_EQ(a.relative_gap, b.relative_gap);
  EXPECT_EQ(a.total_flow, b.total_flow);
  EXPECT_EQ(a.commodity_flow, b.commodity_flow);
  ASSERT_EQ(a.commodity_atoms.size(), b.commodity_atoms.size());
  for (std::size_t c = 0; c < a.commodity_atoms.size(); ++c) {
    ASSERT_EQ(a.commodity_atoms[c].size(), b.commodity_atoms[c].size());
    for (std::size_t k = 0; k < a.commodity_atoms[c].size(); ++k) {
      EXPECT_EQ(a.commodity_atoms[c][k].edges, b.commodity_atoms[c][k].edges);
      EXPECT_EQ(a.commodity_atoms[c][k].weight, b.commodity_atoms[c][k].weight);
    }
  }
}

/// One workspace, one graph address, three graphs: fat_tree(4) (A); B,
/// with A's node and edge counts but every node relabeled (different
/// wiring); and A again, then grown by two add_edge shortcuts. A
/// snapshot keyed by address, or by address and size, would route B
/// over A's wiring and the grown graph without its shortcuts; keyed by
/// Graph::revision, every solve equals a fresh-workspace solve byte for
/// byte. The relaxation, whose cold routing reads the same snapshot, is
/// checked the same way.
void adjacency_follows_the_graph_not_its_address() {
  const Topology topo = fat_tree(4);
  const Graph& a = topo.graph();
  const auto n = a.num_nodes();
  auto relabel = [n](NodeId u) { return (u + 7) % n; };
  Graph b(n);
  for (const Edge& e : a.edges()) b.add_edge(relabel(e.src), relabel(e.dst));
  ASSERT_EQ(b.num_nodes(), a.num_nodes());
  ASSERT_EQ(b.num_edges(), a.num_edges());

  const NodeId h0 = topo.hosts()[0];
  const NodeId h15 = topo.hosts()[15];
  const NodeId h4 = topo.hosts()[4];
  auto edge_switch = [&a](NodeId host) { return a.edge(a.out_edges(host)[0]).dst; };
  const std::vector<Commodity> on_a = {{h0, h15, 2.0}, {h4, h15, 1.5}, {h0, h4, 1.0}};
  const std::vector<Commodity> on_b = {{relabel(h0), relabel(h15), 2.0},
                                       {relabel(h4), relabel(h15), 1.5},
                                       {relabel(h0), relabel(h4), 1.0}};
  const std::vector<Flow> flows_a = {{0, h0, h15, 6.0, 0.0, 3.0},
                                     {1, h4, h15, 4.0, 1.0, 4.0},
                                     {2, h0, h4, 2.0, 2.0, 5.0}};
  std::vector<Flow> flows_b = flows_a;
  for (Flow& fl : flows_b) {
    fl.src = relabel(fl.src);
    fl.dst = relabel(fl.dst);
  }
  const PowerModel model(0.5, 1.0, 2.0);
  FrankWolfeOptions opts;
  opts.max_iterations = 60;
  opts.gap_tolerance = 1e-6;
  RelaxationOptions relax_opts;
  relax_opts.frank_wolfe = opts;

  std::optional<Graph> slot;
  ConvexMcfWorkspace ws;
  RelaxationWorkspace relax_ws;
  auto solve_both = [&](const std::vector<Commodity>& commodities,
                        const std::vector<Flow>& flows) {
    ConvexMcfProblem p = power_problem(*slot, model);
    p.commodities = commodities;
    expect_identical(solve_convex_mcf(p, opts, {}, &ws), solve_convex_mcf(p, opts));
    const FractionalRelaxation reused =
        solve_relaxation(*slot, flows, model, relax_opts, &relax_ws);
    const FractionalRelaxation fresh = solve_relaxation(*slot, flows, model, relax_opts);
    EXPECT_EQ(reused.lower_bound_energy, fresh.lower_bound_energy);
    EXPECT_EQ(reused.final_flow, fresh.final_flow);
    ASSERT_EQ(reused.candidates.size(), fresh.candidates.size());
    for (std::size_t i = 0; i < fresh.candidates.size(); ++i) {
      ASSERT_EQ(reused.candidates[i].paths.size(), fresh.candidates[i].paths.size());
      for (std::size_t k = 0; k < fresh.candidates[i].paths.size(); ++k) {
        EXPECT_EQ(reused.candidates[i].paths[k].path.edges,
                  fresh.candidates[i].paths[k].path.edges);
        EXPECT_EQ(reused.candidates[i].paths[k].weight,
                  fresh.candidates[i].paths[k].weight);
      }
    }
  };

  slot.emplace(a);
  const Graph* address = &*slot;
  solve_both(on_a, flows_a);
  slot.emplace(b);
  ASSERT_EQ(&*slot, address);
  solve_both(on_b, flows_b);
  slot.emplace(a);
  solve_both(on_a, flows_a);
  // Grown in place: direct edge-switch shortcuts for h0 -> h15.
  slot->add_edge(edge_switch(h0), edge_switch(h15));
  slot->add_edge(edge_switch(h15), edge_switch(h0));
  ASSERT_EQ(&*slot, address);
  solve_both(on_a, flows_a);
  // The shortcut carries flow, so a stale snapshot could not have matched.
  ConvexMcfProblem p = power_problem(*slot, model);
  p.commodities = on_a;
  const auto shortcut = static_cast<std::size_t>(slot->num_edges() - 2);
  EXPECT_GT(solve_convex_mcf(p, opts, {}, &ws).total_flow[shortcut], 0.0);
}

TEST(SparseEquivalence, WorkspaceReuseAcrossSolvesIsTransparent) {
  // Solving a sequence of different instances through one workspace must
  // give the same answers as fresh solves, byte for byte.
  const Topology topo = fat_tree(4);
  ConvexMcfProblem p;
  p.graph = &topo.graph();  // default cost: x^2
  FrankWolfeOptions opts;
  opts.max_iterations = 80;
  opts.gap_tolerance = 1e-6;

  ConvexMcfWorkspace ws;
  for (int round = 0; round < 4; ++round) {
    p.commodities.clear();
    for (int i = 0; i <= round + 1; ++i) {
      p.commodities.push_back(
          {topo.hosts()[static_cast<std::size_t>(i + round)],
           topo.hosts()[static_cast<std::size_t>(15 - i)], 1.0 + i + round});
    }
    const auto with_ws = solve_convex_mcf(p, opts, {}, &ws);
    const auto fresh = solve_convex_mcf(p, opts);
    expect_identical(with_ws, fresh);
  }
  adjacency_follows_the_graph_not_its_address();
}
TEST(SparseEquivalence, RowIndexMatchesLinearScanAcrossCompaction) {
  // SparseRowIndex against the linear-scan add it replaces: random adds
  // over a 1000-edge space (rows grow well past the solver's
  // 256-entry compaction), exact cancellations that compaction then
  // erases, and a rebind after every batch — the solver's pattern.
  // The rows must agree entry for entry, in order, bit for bit.
  constexpr std::size_t kEdges = 1000;
  SparseEdgeFlow scanned, indexed;
  SparseRowIndex index;
  Rng rng(77);
  int compactions = 0;
  for (int batch = 0; batch < 400; ++batch) {
    index.bind(indexed, kEdges);
    const auto adds = rng.uniform_int(1, 30);
    for (std::int64_t k = 0; k < adds; ++k) {
      EdgeId e;
      double delta;
      if (!scanned.empty() && rng.uniform() < 0.3) {
        // Cancel an existing entry exactly.
        const auto& [edge, value] = scanned[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(scanned.size()) - 1))];
        e = edge;
        delta = -value;
      } else {
        e = static_cast<EdgeId>(rng.uniform_int(0, kEdges - 1));
        delta = rng.uniform(-0.5, 1.0);
      }
      dense_sparse_add(scanned, e, delta);
      index.add(e, delta);
    }
    if (scanned.size() > 256) {
      ++compactions;
      std::erase_if(scanned, [](const auto& kv) { return kv.second < 1e-12; });
      std::erase_if(indexed, [](const auto& kv) { return kv.second < 1e-12; });
    }
    ASSERT_EQ(scanned, indexed) << "batch " << batch;
  }
  EXPECT_GT(compactions, 10);
}

TEST(SparseEquivalence, ParallelOracleIsByteIdenticalToSequential) {
  const Topology topo = fat_tree(4);
  const PowerModel model = PowerModel::pure_speed_scaling(2.0);
  ConvexMcfProblem p = power_problem(topo.graph(), model);
  for (int i = 0; i < 10; ++i) {
    p.commodities.push_back({topo.hosts()[static_cast<std::size_t>(i % 6)],
                             topo.hosts()[static_cast<std::size_t>(15 - i)],
                             0.5 + 0.3 * i});
  }
  FrankWolfeOptions sequential;
  sequential.max_iterations = 120;
  sequential.gap_tolerance = 1e-6;
  FrankWolfeOptions parallel = sequential;
  parallel.oracle_threads = 4;
  const auto seq = solve_convex_mcf(p, sequential);
  ConvexMcfWorkspace ws;  // also exercises pool reuse across solves
  for (int round = 0; round < 3; ++round) {
    const auto par = solve_convex_mcf(p, parallel, {}, &ws);
    EXPECT_EQ(par.iterations, seq.iterations);
    EXPECT_EQ(par.cost, seq.cost);  // bitwise, not just near
    ASSERT_EQ(par.total_flow.size(), seq.total_flow.size());
    for (std::size_t e = 0; e < seq.total_flow.size(); ++e) {
      EXPECT_EQ(par.total_flow[e], seq.total_flow[e]) << "edge " << e;
    }
    ASSERT_EQ(par.commodity_flow.size(), seq.commodity_flow.size());
    for (std::size_t c = 0; c < seq.commodity_flow.size(); ++c) {
      EXPECT_EQ(par.commodity_flow[c], seq.commodity_flow[c]) << "commodity " << c;
    }
  }
}

TEST(SparseEquivalence, CommodityRowsAreCanonical) {
  const Topology topo = fat_tree(4);
  ConvexMcfProblem p;
  p.graph = &topo.graph();  // default cost: x^2
  p.commodities = {{topo.hosts()[0], topo.hosts()[9], 3.0},
                   {topo.hosts()[2], topo.hosts()[12], 1.5}};
  const auto sol = solve_convex_mcf(p);
  for (const SparseEdgeFlow& row : sol.commodity_flow) {
    EXPECT_FALSE(row.empty());
    for (std::size_t i = 0; i + 1 < row.size(); ++i) {
      EXPECT_LT(row[i].first, row[i + 1].first);  // sorted, no duplicates
    }
    for (const auto& [e, v] : row) {
      EXPECT_TRUE(topo.graph().valid_edge(e));
      EXPECT_GT(v, 1e-15);
    }
  }
}

}  // namespace
}  // namespace dcn
