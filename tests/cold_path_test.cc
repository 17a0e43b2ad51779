// The v2 cold-solve hot path: oracle batching, the adaptive parallel
// oracle, and the cold-stall fix.
//
// Three claims are pinned here (classic-vs-pairwise objective
// equivalence on the scenario grid lives in tests/pairwise_fw_test.cc):
//
//   1. Batching: grouping same-source commodities into one multi-target
//      Dijkstra sweep is bitwise equal to one sweep per commodity (the
//      early exit never disturbs the parents of settled nodes), at
//      strictly fewer sweeps.
//   2. Adaptive parallel oracle: oracle_threads = 0 (the default),
//      any pinned width, and forced-sequential all produce
//      byte-identical solutions *and* identical deterministic phase
//      counters — the counters are safe to byte-compare in canonical
//      engine output.
//   3. The cold-stall fix the v2 default flip ships: on the bcube
//      incast instance pairwise certifies gap <= 1e-6 within a pinned
//      iteration budget where the classic rule, at the same budget,
//      stalls orders of magnitude short.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "engine/instance.h"
#include "engine/scenario.h"
#include "graph/graph.h"
#include "mcf/relaxation.h"
#include "opt/convex_mcf.h"
#include "power/power_model.h"
#include "topology/builders.h"

namespace dcn {
namespace {

using engine::Instance;
using engine::ScenarioOptions;
using engine::ScenarioSuite;

/// A problem on `g` costed by `model`'s convex envelope.
ConvexMcfProblem power_problem(const Graph& g, const PowerModel& model) {
  ConvexMcfProblem p;
  p.graph = &g;
  p.cost = model.envelope_cost();
  return p;
}

void add_fat_tree_commodities(ConvexMcfProblem& p, const Topology& topo) {
  for (int i = 0; i < 10; ++i) {
    p.commodities.push_back({topo.hosts()[static_cast<std::size_t>(i % 4)],
                             topo.hosts()[static_cast<std::size_t>(15 - i)],
                             0.5 + 0.3 * i});
  }
}

void expect_bitwise_equal(const ConvexMcfSolution& a, const ConvexMcfSolution& b,
                          const std::string& tag) {
  EXPECT_EQ(a.iterations, b.iterations) << tag;
  EXPECT_EQ(a.cost, b.cost) << tag;  // bitwise, not just near
  ASSERT_EQ(a.total_flow.size(), b.total_flow.size()) << tag;
  for (std::size_t e = 0; e < a.total_flow.size(); ++e) {
    EXPECT_EQ(a.total_flow[e], b.total_flow[e]) << tag << " edge " << e;
  }
  ASSERT_EQ(a.commodity_flow.size(), b.commodity_flow.size()) << tag;
  for (std::size_t c = 0; c < a.commodity_flow.size(); ++c) {
    EXPECT_EQ(a.commodity_flow[c], b.commodity_flow[c]) << tag << " row " << c;
  }
}

TEST(ColdPath, BatchedOracleIsBitwiseEqualToPerCommoditySweeps) {
  const Topology topo = fat_tree(4);
  const PowerModel model = PowerModel::pure_speed_scaling(2.0);
  for (const FrankWolfeStepRule rule :
       {FrankWolfeStepRule::kClassic, FrankWolfeStepRule::kPairwise}) {
    ConvexMcfProblem p = power_problem(topo.graph(), model);
    add_fat_tree_commodities(p, topo);
    FrankWolfeOptions batched;
    batched.step_rule = rule;
    batched.max_iterations = 120;
    batched.gap_tolerance = 1e-6;
    FrankWolfeOptions per_commodity = batched;
    per_commodity.batch_oracle = false;

    const auto a = solve_convex_mcf(p, batched);
    const auto b = solve_convex_mcf(p, per_commodity);
    const std::string tag =
        "rule " + std::to_string(static_cast<int>(rule));
    expect_bitwise_equal(a, b, tag);
    // 10 commodities share 4 sources: batching must sweep strictly
    // less, everything else (including repricing work) is identical.
    EXPECT_LT(a.stats.oracle_sweeps, b.stats.oracle_sweeps) << tag;
    EXPECT_EQ(a.stats.edges_repriced, b.stats.edges_repriced) << tag;
    EXPECT_EQ(a.stats.line_search_evals, b.stats.line_search_evals) << tag;
  }
}

TEST(ColdPath, AdaptiveOracleIsByteDeterministicAcrossThreadCounts) {
  const Topology topo = fat_tree(4);
  const PowerModel model = PowerModel::pure_speed_scaling(2.0);
  ConvexMcfProblem p = power_problem(topo.graph(), model);
  add_fat_tree_commodities(p, topo);
  FrankWolfeOptions reference_options;  // oracle_threads = 0: adaptive
  reference_options.max_iterations = 120;
  reference_options.gap_tolerance = 1e-6;
  const auto reference = solve_convex_mcf(p, reference_options);

  for (const std::int32_t threads : {-1, 1, 2, 8}) {
    FrankWolfeOptions opts = reference_options;
    opts.oracle_threads = threads;
    ConvexMcfWorkspace ws;  // also exercises pool (re)build per width
    for (int round = 0; round < 2; ++round) {
      const auto sol = solve_convex_mcf(p, opts, {}, &ws);
      const std::string tag =
          "threads " + std::to_string(threads) + " round " +
          std::to_string(round);
      expect_bitwise_equal(sol, reference, tag);
      // The deterministic phase counters may enter canonical engine
      // output, so they must not depend on the oracle width either.
      EXPECT_EQ(sol.stats.oracle_sweeps, reference.stats.oracle_sweeps) << tag;
      EXPECT_EQ(sol.stats.edges_repriced, reference.stats.edges_repriced)
          << tag;
      EXPECT_EQ(sol.stats.line_search_evals,
                reference.stats.line_search_evals)
          << tag;
    }
  }
}

TEST(ColdPath, PairwiseCertifiesTightGapWhereClassicStalls) {
  // The hard multipath instance of the v2 flip: bcube incast. At the
  // same pinned iteration budget the classic rule's joint steps zigzag
  // and stall orders of magnitude short of the 1e-6 gap the pairwise
  // sweeps certify — the last-mile pathology that kept the v1 offline
  // default at a loose 2e-3 tolerance.
  ScenarioOptions sopt;
  sopt.num_flows = 10;
  const Instance inst =
      ScenarioSuite::default_suite().build("bcube/incast", 5, sopt);

  RelaxationOptions pairwise;
  pairwise.frank_wolfe.step_rule = FrankWolfeStepRule::kPairwise;
  pairwise.frank_wolfe.max_iterations = 120;
  pairwise.frank_wolfe.gap_tolerance = 1e-6;
  RelaxationOptions classic = pairwise;
  classic.frank_wolfe.step_rule = FrankWolfeStepRule::kClassic;

  const FractionalRelaxation certified =
      solve_relaxation(inst.graph(), inst.flows(), inst.model(), pairwise);
  const FractionalRelaxation stalled =
      solve_relaxation(inst.graph(), inst.flows(), inst.model(), classic);

  EXPECT_LE(certified.mean_relative_gap, 1e-6);
  EXPECT_LE(certified.total_fw_iterations, 120);
  // Classic burns the whole budget and still certifies nothing close.
  EXPECT_GT(stalled.mean_relative_gap, 1e-5);
}

}  // namespace
}  // namespace dcn
