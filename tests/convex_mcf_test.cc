// Tests for the Frank-Wolfe convex multi-commodity flow solver.
#include <gtest/gtest.h>

#include <cmath>

#include "opt/convex_mcf.h"
#include "power/power_model.h"
#include "topology/builders.h"

namespace dcn {
namespace {

/// Cost x^2: the default EnvelopeCostSpec.
ConvexMcfProblem quadratic_problem(const Graph& g) {
  ConvexMcfProblem p;
  p.graph = &g;
  return p;
}

TEST(ConvexMcf, EmptyProblemIsTrivial) {
  const Topology topo = line_network(3);
  ConvexMcfProblem p = quadratic_problem(topo.graph());
  const auto sol = solve_convex_mcf(p);
  EXPECT_DOUBLE_EQ(sol.cost, 0.0);
  for (double x : sol.total_flow) EXPECT_DOUBLE_EQ(x, 0.0);
}

TEST(ConvexMcf, SingleCommodityOnLineUsesTheOnlyRoute) {
  const Topology topo = line_network(3);
  ConvexMcfProblem p = quadratic_problem(topo.graph());
  p.commodities = {{0, 2, 4.0}};
  const auto sol = solve_convex_mcf(p);
  // Both rightward edges carry the full demand: cost = 2 * 16.
  EXPECT_NEAR(sol.cost, 32.0, 1e-6);
}

TEST(ConvexMcf, QuadraticSplitsEvenlyAcrossParallelLinks) {
  // With cost x^2 and k parallel links, the optimum splits demand
  // equally: cost = k * (d/k)^2 = d^2 / k.
  for (int k : {2, 3, 4}) {
    const Topology topo = parallel_links(k);
    ConvexMcfProblem p = quadratic_problem(topo.graph());
    const double demand = 6.0;
    p.commodities = {{0, 1, demand}};
    FrankWolfeOptions opts;
    opts.max_iterations = 400;
    opts.gap_tolerance = 1e-7;
    const auto sol = solve_convex_mcf(p, opts);
    EXPECT_NEAR(sol.cost, demand * demand / k, 1e-2) << "k=" << k;
    // Per-edge flows near demand/k on forward edges.
    for (EdgeId e = 0; e < topo.graph().num_edges(); ++e) {
      const double x = sol.total_flow[static_cast<std::size_t>(e)];
      if (x > 1e-6) {
        EXPECT_NEAR(x, demand / k, 0.15);
      }
    }
  }
}

TEST(ConvexMcf, TwoCommoditiesShareTheLoad) {
  // Two commodities src->dst on 2 parallel links, demands 2 and 4:
  // optimal total per link = 3 each, cost = 18.
  const Topology topo = parallel_links(2);
  ConvexMcfProblem p = quadratic_problem(topo.graph());
  p.commodities = {{0, 1, 2.0}, {0, 1, 4.0}};
  FrankWolfeOptions opts;
  opts.max_iterations = 400;
  opts.gap_tolerance = 1e-7;
  const auto sol = solve_convex_mcf(p, opts);
  EXPECT_NEAR(sol.cost, 18.0, 1e-2);
}

TEST(ConvexMcf, CommodityFlowsSumToTotal) {
  const Topology topo = fat_tree(4);
  ConvexMcfProblem p = quadratic_problem(topo.graph());
  p.commodities = {{topo.hosts()[0], topo.hosts()[9], 3.0},
                   {topo.hosts()[2], topo.hosts()[12], 1.5}};
  const auto sol = solve_convex_mcf(p);
  std::vector<double> sum(sol.total_flow.size(), 0.0);
  for (const auto& yc : sol.commodity_flow) sparse_flow_accumulate(yc, sum);
  for (std::size_t e = 0; e < sol.total_flow.size(); ++e) {
    EXPECT_NEAR(sum[e], sol.total_flow[e], 1e-9);
  }
}

TEST(ConvexMcf, FlowConservationHoldsPerCommodity) {
  const Topology topo = fat_tree(4);
  const Graph& g = topo.graph();
  ConvexMcfProblem p = quadratic_problem(g);
  const NodeId src = topo.hosts()[0], dst = topo.hosts()[15];
  p.commodities = {{src, dst, 2.0}};
  const auto sol = solve_convex_mcf(p);
  std::vector<double> y0(static_cast<std::size_t>(g.num_edges()), 0.0);
  sparse_flow_accumulate(sol.commodity_flow[0], y0);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    double net = 0.0;
    for (EdgeId e : g.out_edges(u)) net += y0[static_cast<std::size_t>(e)];
    for (EdgeId e : g.in_edges(u)) net -= y0[static_cast<std::size_t>(e)];
    if (u == src) {
      EXPECT_NEAR(net, 2.0, 1e-6);
    } else if (u == dst) {
      EXPECT_NEAR(net, -2.0, 1e-6);
    } else {
      EXPECT_NEAR(net, 0.0, 1e-6);
    }
  }
}

TEST(ConvexMcf, EnvelopeCostConsolidatesWhenIdlePowerDominates) {
  // With a large sigma, the envelope's linear part dominates and the
  // optimum concentrates both commodities on one link instead of
  // splitting (opposite of the pure-quadratic case).
  const Topology topo = parallel_links(2);
  const PowerModel model(/*sigma=*/100.0, /*mu=*/1.0, /*alpha=*/2.0);
  ConvexMcfProblem p;
  p.graph = &topo.graph();
  p.cost = model.envelope_cost();
  p.commodities = {{0, 1, 0.5}, {0, 1, 0.5}};
  FrankWolfeOptions opts;
  opts.max_iterations = 300;
  opts.gap_tolerance = 1e-7;
  const auto sol = solve_convex_mcf(p, opts);
  // Total demand 1.0 is far below R_opt = 10: cost = envelope(1) on one
  // link (the linear envelope makes any split equally cheap at best, so
  // just check the optimal value).
  EXPECT_NEAR(sol.cost, model.envelope(1.0), 1e-4 * model.envelope(1.0));
}

TEST(ConvexMcf, GapDecreasesAndIsReported) {
  const Topology topo = fat_tree(4);
  ConvexMcfProblem p = quadratic_problem(topo.graph());
  for (int i = 0; i < 6; ++i) {
    p.commodities.push_back(
        {topo.hosts()[static_cast<std::size_t>(i)],
         topo.hosts()[static_cast<std::size_t>(15 - i)], 1.0 + i});
  }
  FrankWolfeOptions loose;
  loose.max_iterations = 3;
  FrankWolfeOptions tight;
  tight.max_iterations = 200;
  tight.gap_tolerance = 1e-6;
  const auto rough = solve_convex_mcf(p, loose);
  const auto fine = solve_convex_mcf(p, tight);
  EXPECT_LE(fine.cost, rough.cost + 1e-9);
  EXPECT_LE(fine.relative_gap, 1e-6 + 1e-12);
}

TEST(ConvexMcf, WarmStartConvergesFasterOrEqual) {
  const Topology topo = fat_tree(4);
  ConvexMcfProblem p = quadratic_problem(topo.graph());
  for (int i = 0; i < 5; ++i) {
    p.commodities.push_back(
        {topo.hosts()[static_cast<std::size_t>(i)],
         topo.hosts()[static_cast<std::size_t>(10 + i)], 2.0});
  }
  FrankWolfeOptions opts;
  opts.max_iterations = 300;
  opts.gap_tolerance = 1e-6;
  const auto cold = solve_convex_mcf(p, opts);
  const auto warm = solve_convex_mcf(p, opts, cold.commodity_flow);
  EXPECT_LE(warm.iterations, cold.iterations);
  EXPECT_NEAR(warm.cost, cold.cost, 1e-3 * cold.cost);
}

TEST(ConvexMcf, ContractsOnBadProblem) {
  const Topology topo = line_network(2);
  ConvexMcfProblem p = quadratic_problem(topo.graph());
  p.commodities = {{0, 0, 1.0}};  // src == dst
  EXPECT_THROW((void)solve_convex_mcf(p), ContractViolation);
  p.commodities = {{0, 1, -1.0}};  // negative demand
  EXPECT_THROW((void)solve_convex_mcf(p), ContractViolation);
}

}  // namespace
}  // namespace dcn
