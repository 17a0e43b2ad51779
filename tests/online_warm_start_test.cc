// Warm-start reuse across relaxation re-solves — the mechanism that
// makes the online scheduler's per-arrival re-solves cheap.
//
// Frank-Wolfe solutions agree with the true optimum only to the duality
// -gap tolerance, so "warm equals cold to 1e-9" cannot hold between two
// *different* trajectories. The exactness claim is therefore pinned
// where it is exact: re-solving from a solve's own final rows must
// terminate on the very first gap check with the flow unchanged to
// 1e-9 (in fact bitwise, for a single-interval instance). The economy
// claim — strictly fewer iterations than a cold solve — is asserted on
// the incremental case: solve N flows, let one more arrive, re-solve
// N + 1 warm-started.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <vector>

#include "engine/instance.h"
#include "engine/scenario.h"
#include "mcf/relaxation.h"

namespace dcn {
namespace {

RelaxationOptions tight_options() {
  RelaxationOptions options;
  options.frank_wolfe.max_iterations = 200;
  options.frank_wolfe.gap_tolerance = 1e-4;
  return options;
}

/// Multipath single-interval base instance: 6-sender incast on the k=4
/// fat-tree (every flow shares the window, so there is one interval and
/// final_flow rows are exactly the interval optimum).
engine::Instance incast_instance() {
  engine::ScenarioOptions options;
  options.senders = 6;
  return engine::ScenarioSuite::default_suite().build("fat_tree/incast", 5,
                                                      options);
}

TEST(RelaxationWarmStart, ResolveFromOwnSolutionStopsAtFirstGapCheck) {
  const engine::Instance instance = incast_instance();
  // Rows-only bit-exactness is a classic-rule contract: the atom rules
  // re-decompose warm rows (discarding sub-tolerance dust), so their
  // exact counterpart is the carried-atoms test below.
  RelaxationOptions options = tight_options();
  options.frank_wolfe.step_rule = FrankWolfeStepRule::kClassic;

  RelaxationWorkspace workspace;
  const FractionalRelaxation cold = solve_relaxation(
      instance.graph(), instance.flows(), instance.model(), options, &workspace);
  ASSERT_EQ(cold.decomposition.num_intervals(), 1u);
  ASSERT_GT(cold.total_fw_iterations, 1);  // the cold solve did real work

  const FractionalRelaxation warm =
      solve_relaxation(instance.graph(), instance.flows(), instance.model(),
                       options, &workspace, cold.final_flow);
  // One iteration: the oracle runs once, sees the warm point already
  // within tolerance, and returns it untouched.
  EXPECT_EQ(warm.total_fw_iterations, 1);
  EXPECT_NEAR(warm.lower_bound_energy, cold.lower_bound_energy,
              1e-9 * cold.lower_bound_energy);

  // The per-flow fractional flows are the warm rows, unchanged to 1e-9.
  ASSERT_EQ(warm.final_flow.size(), cold.final_flow.size());
  for (std::size_t i = 0; i < warm.final_flow.size(); ++i) {
    ASSERT_EQ(warm.final_flow[i].size(), cold.final_flow[i].size()) << i;
    for (std::size_t k = 0; k < warm.final_flow[i].size(); ++k) {
      EXPECT_EQ(warm.final_flow[i][k].first, cold.final_flow[i][k].first);
      EXPECT_NEAR(warm.final_flow[i][k].second, cold.final_flow[i][k].second,
                  1e-9);
    }
  }
}

TEST(RelaxationWarmStart, IncrementalResolveAfterOneArrivalIsStrictlyCheaper) {
  const engine::Instance instance = incast_instance();
  // The production budget (registry dcfsr/online_dcfsr): plain
  // Frank-Wolfe is slow at *shedding* mass from paths an arrival makes
  // suboptimal, so at much tighter tolerances a warm start can lose to
  // a cold one; at the calibrated gap it converges in a fraction of the
  // cold iterations. (The pairwise step rule removes the shedding
  // stall altogether — tests/pairwise_fw_test.cc pins warm pairwise
  // strictly below warm classic on this same regime; this test keeps
  // the classic rule's economy honest.)
  RelaxationOptions options;
  options.frank_wolfe.max_iterations = 120;
  options.frank_wolfe.gap_tolerance = 2e-3;
  const std::vector<Flow>& base = instance.flows();

  // The arrival: a mouse flow on an existing hot pair — the typical
  // online event, perturbing the optimum only slightly. (An elephant
  // that reshapes the whole optimum is plain Frank-Wolfe's worst case:
  // a step is one joint convex combination across all commodities, so
  // shedding the warm mass that the arrival made suboptimal needs tiny
  // steps, and warm can lose to cold. online_dcfsr's capped per-event
  // budget bounds that case; this test asserts the common one.)
  std::vector<Flow> grown = base;
  Flow arrival = base.back();
  arrival.id = static_cast<FlowId>(grown.size());
  arrival.volume *= 0.05;
  grown.push_back(arrival);

  RelaxationWorkspace workspace;
  // The prior solve runs tighter than the re-solve budget, so the warm
  // rows carry a point whose quality beats the re-solve tolerance —
  // the regime warm starts are for. (Seeding from a point stopped
  // exactly *at* the re-solve tolerance would strand the warm solve
  // just above it, in Frank-Wolfe's slow last-mile regime.)
  const FractionalRelaxation prior = solve_relaxation(
      instance.graph(), base, instance.model(), tight_options(), &workspace);

  std::vector<SparseEdgeFlow> warm_rows = prior.final_flow;
  warm_rows.emplace_back();  // the arrival starts cold
  const FractionalRelaxation warm = solve_relaxation(
      instance.graph(), grown, instance.model(), options, &workspace, warm_rows);

  const FractionalRelaxation cold = solve_relaxation(instance.graph(), grown,
                                                     instance.model(), options);

  // Strictly fewer Frank-Wolfe iterations than the cold solve of the
  // identical instance...
  EXPECT_LT(warm.total_fw_iterations, cold.total_fw_iterations);
  // ...for the same optimum, up to the shared gap tolerance (the gap
  // bounds each solve's relative distance from the common optimum).
  EXPECT_NEAR(warm.lower_bound_energy, cold.lower_bound_energy,
              2.0 * options.frank_wolfe.gap_tolerance * cold.lower_bound_energy);
  EXPECT_LE(warm.mean_relative_gap, options.frank_wolfe.gap_tolerance);
  EXPECT_LE(cold.mean_relative_gap, options.frank_wolfe.gap_tolerance);
}

TEST(RelaxationWarmStart, CarriedAtomsResolveFromOwnSolutionInOneIteration) {
  // The atom carry-over analog of the exactness claim above: a pairwise
  // solve hands out final_atoms alongside final_flow; re-solving with
  // both carried must terminate on the first gap check with the atom
  // sets intact — no Raghavan-Tompson pass, no drift.
  const engine::Instance instance = incast_instance();
  RelaxationOptions options = tight_options();
  options.frank_wolfe.step_rule = FrankWolfeStepRule::kPairwise;

  RelaxationWorkspace workspace;
  const FractionalRelaxation first = solve_relaxation(
      instance.graph(), instance.flows(), instance.model(), options, &workspace);
  ASSERT_EQ(first.final_atoms.size(), instance.flows().size());

  // The atoms are a consistent decomposition: weights sum to the flow's
  // density and edge-sums reproduce the final rows.
  for (std::size_t i = 0; i < first.final_atoms.size(); ++i) {
    ASSERT_FALSE(first.final_atoms[i].empty()) << i;
    double total = 0.0;
    std::map<EdgeId, double> by_edge;
    for (const PathAtom& atom : first.final_atoms[i]) {
      total += atom.weight;
      for (const EdgeId e : atom.edges) by_edge[e] += atom.weight;
    }
    EXPECT_NEAR(total, instance.flows()[i].density(), 1e-9) << i;
    for (const auto& [e, v] : first.final_flow[i]) {
      EXPECT_NEAR(by_edge[e], v, 1e-9) << "flow " << i << " edge " << e;
    }
  }

  const FractionalRelaxation warm = solve_relaxation(
      instance.graph(), instance.flows(), instance.model(), options, &workspace,
      first.final_flow, first.final_atoms);
  EXPECT_EQ(warm.total_fw_iterations, 1);
  EXPECT_NEAR(warm.lower_bound_energy, first.lower_bound_energy,
              1e-9 * first.lower_bound_energy);

  // Atom identity survives the carried re-solve.
  ASSERT_EQ(warm.final_atoms.size(), first.final_atoms.size());
  for (std::size_t i = 0; i < warm.final_atoms.size(); ++i) {
    ASSERT_EQ(warm.final_atoms[i].size(), first.final_atoms[i].size()) << i;
    for (std::size_t a = 0; a < warm.final_atoms[i].size(); ++a) {
      EXPECT_EQ(warm.final_atoms[i][a].edges, first.final_atoms[i][a].edges);
      EXPECT_NEAR(warm.final_atoms[i][a].weight,
                  first.final_atoms[i][a].weight, 1e-12);
    }
  }
}

TEST(RelaxationWarmStart, SharedWorkspaceLeaksNoStateBetweenInstances) {
  // A workspace threaded across unrelated solves (exactly what the
  // online scheduler does per run) must not change any result: solve
  // A, then B, with one workspace, and compare against fresh solves.
  const engine::ScenarioSuite& suite = engine::ScenarioSuite::default_suite();
  engine::ScenarioOptions options;
  options.num_flows = 8;
  const engine::Instance a = suite.build("fat_tree/paper", 3, options);
  const engine::Instance b = suite.build("leaf_spine/shuffle", 4, options);

  RelaxationWorkspace shared;
  const FractionalRelaxation a_shared = solve_relaxation(
      a.graph(), a.flows(), a.model(), {}, &shared);
  const FractionalRelaxation b_shared = solve_relaxation(
      b.graph(), b.flows(), b.model(), {}, &shared);

  const FractionalRelaxation a_fresh =
      solve_relaxation(a.graph(), a.flows(), a.model());
  const FractionalRelaxation b_fresh =
      solve_relaxation(b.graph(), b.flows(), b.model());

  EXPECT_EQ(a_shared.lower_bound_energy, a_fresh.lower_bound_energy);
  EXPECT_EQ(b_shared.lower_bound_energy, b_fresh.lower_bound_energy);
  EXPECT_EQ(a_shared.total_fw_iterations, a_fresh.total_fw_iterations);
  EXPECT_EQ(b_shared.total_fw_iterations, b_fresh.total_fw_iterations);
}

}  // namespace
}  // namespace dcn
