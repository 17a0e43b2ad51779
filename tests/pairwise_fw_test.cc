// Pairwise Frank-Wolfe — the repair for the warm-start
// last-mile stall.
//
// Three claims are pinned here:
//
//   1. Equivalence: at a tight gap tolerance the pairwise rule solves
//      the same convex programs to the same objective as the classic
//      rule (to 1e-7 relative — both gaps bound the distance from the
//      shared optimum) across a scenario grid.
//   2. The stall regression itself: on the documented warm-start
//      regime (tests/online_warm_start_test.cc — solve N flows, one
//      mouse arrives, re-solve N + 1 warm), pairwise needs strictly
//      fewer Frank-Wolfe iterations than classic, at every tolerance
//      the production paths use. Classic's step is one joint convex
//      combination across all commodities, so shedding the warm mass
//      the arrival made suboptimal decays only geometrically; the
//      pairwise step moves exactly that mass and nothing else.
//   3. Determinism: the pairwise trajectory is byte-identical under
//      the parallel linearization oracle (any thread count), and an
//      online BatchRunner grid over the pairwise-stepping online
//      solvers stays byte-identical for any --jobs (dcfsr's
//      parallel-oracle solves are covered by the
//      sparse_equivalence/batch_runner tests).
//
// The departures-only fast path of the online scheduler rides along:
// completions between arrivals must be handled by a single gap check,
// not a full relaxation, and must not disturb admission invariants.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "engine/batch_runner.h"
#include "engine/instance.h"
#include "engine/registry.h"
#include "engine/scenario.h"
#include "mcf/relaxation.h"
#include "online/online_scheduler.h"
#include "power/power_model.h"
#include "topology/builders.h"

namespace dcn {
namespace {

using engine::Instance;
using engine::ScenarioOptions;
using engine::ScenarioSuite;

TEST(PairwiseFrankWolfe, MatchesClassicObjectiveAcrossScenarioGrid) {
  // At gap 1e-7 each solve is within 1e-7 of the common optimum, so
  // the objectives must agree to ~2e-7; the observed agreement is
  // ~1e-13 (classic's objective converges long before its zigzagging
  // gap estimate does — the generous classic iteration budget absorbs
  // that). The grid is restricted to instances where classic does
  // converge within the budget: on harder multipath instances (bcube
  // incast) classic stalls ~1e-4 from the optimum that pairwise
  // certifies, which is the stall this PR fixes, not an equivalence
  // failure.
  const ScenarioSuite& suite = ScenarioSuite::default_suite();
  for (const char* spec :
       {"fat_tree/incast", "fat_tree/shuffle", "leaf_spine/shuffle",
        "line/incast"}) {
    for (const std::uint64_t seed : {3ull, 5ull}) {
      ScenarioOptions sopt;
      sopt.num_flows = 10;
      const Instance inst = suite.build(spec, seed, sopt);

      RelaxationOptions classic;
      classic.frank_wolfe.step_rule = FrankWolfeStepRule::kClassic;
      classic.frank_wolfe.max_iterations = 2000;
      classic.frank_wolfe.gap_tolerance = 1e-7;
      RelaxationOptions pairwise = classic;
      pairwise.frank_wolfe.step_rule = FrankWolfeStepRule::kPairwise;

      const FractionalRelaxation a =
          solve_relaxation(inst.graph(), inst.flows(), inst.model(), classic);
      const FractionalRelaxation b =
          solve_relaxation(inst.graph(), inst.flows(), inst.model(), pairwise);
      const std::string tag = std::string(spec) + "#" + std::to_string(seed);
      EXPECT_NEAR(b.lower_bound_energy, a.lower_bound_energy,
                  1e-7 * a.lower_bound_energy)
          << tag;
      // Pairwise converges linearly where classic zigzags: it must
      // actually reach the tight tolerance.
      EXPECT_LE(b.mean_relative_gap, 1e-7) << tag;
    }
  }
}

/// The warm-start regime of online_warm_start_test: a tight prior
/// solve of the base instance, one mouse arrival on an existing hot
/// pair, warm re-solve of the grown instance.
struct WarmRegime {
  Instance instance;
  std::vector<Flow> grown;
  std::vector<SparseEdgeFlow> warm_rows;
  RelaxationWorkspace workspace;
};

WarmRegime make_warm_regime() {
  ScenarioOptions options;
  options.senders = 6;
  WarmRegime r{ScenarioSuite::default_suite().build("fat_tree/incast", 5,
                                                    options),
               {},
               {},
               {}};
  r.grown = r.instance.flows();
  Flow arrival = r.grown.back();
  arrival.id = static_cast<FlowId>(r.grown.size());
  arrival.volume *= 0.05;
  r.grown.push_back(arrival);

  RelaxationOptions tight;
  tight.frank_wolfe.max_iterations = 200;
  tight.frank_wolfe.gap_tolerance = 1e-4;
  const FractionalRelaxation prior =
      solve_relaxation(r.instance.graph(), r.instance.flows(),
                       r.instance.model(), tight, &r.workspace);
  r.warm_rows = prior.final_flow;
  r.warm_rows.emplace_back();  // the arrival starts cold
  return r;
}

TEST(PairwiseFrankWolfe, ShedsWarmMassInStrictlyFewerIterationsThanClassic) {
  WarmRegime r = make_warm_regime();
  // The production budget (2e-3: registry online_dcfsr) and tighter
  // tolerances where the classic stall grows without bound while
  // pairwise stays flat.
  for (const double tol : {2e-3, 1e-3, 3e-4, 1e-4}) {
    RelaxationOptions classic;
    classic.frank_wolfe.step_rule = FrankWolfeStepRule::kClassic;
    classic.frank_wolfe.max_iterations = 2000;
    classic.frank_wolfe.gap_tolerance = tol;
    RelaxationOptions pairwise = classic;
    pairwise.frank_wolfe.step_rule = FrankWolfeStepRule::kPairwise;

    const FractionalRelaxation warm_classic =
        solve_relaxation(r.instance.graph(), r.grown, r.instance.model(),
                         classic, &r.workspace, r.warm_rows);
    const FractionalRelaxation warm_pairwise =
        solve_relaxation(r.instance.graph(), r.grown, r.instance.model(),
                         pairwise, &r.workspace, r.warm_rows);

    EXPECT_LT(warm_pairwise.total_fw_iterations,
              warm_classic.total_fw_iterations)
        << "tolerance " << tol;
    // Same optimum, up to the shared gap tolerance.
    EXPECT_NEAR(warm_pairwise.lower_bound_energy,
                warm_classic.lower_bound_energy,
                2.0 * tol * warm_classic.lower_bound_energy)
        << "tolerance " << tol;
    EXPECT_LE(warm_pairwise.mean_relative_gap, tol) << "tolerance " << tol;
  }
}

TEST(PairwiseFrankWolfe, ParallelOracleIsByteIdentical) {
  WarmRegime r = make_warm_regime();
  RelaxationOptions pairwise;
  pairwise.frank_wolfe.max_iterations = 120;
  pairwise.frank_wolfe.gap_tolerance = 2e-3;
  pairwise.frank_wolfe.step_rule = FrankWolfeStepRule::kPairwise;
  const FractionalRelaxation serial =
      solve_relaxation(r.instance.graph(), r.grown, r.instance.model(),
                       pairwise, nullptr, r.warm_rows);
  RelaxationOptions threaded = pairwise;
  threaded.frank_wolfe.oracle_threads = 4;
  const FractionalRelaxation parallel =
      solve_relaxation(r.instance.graph(), r.grown, r.instance.model(),
                       threaded, nullptr, r.warm_rows);

  EXPECT_EQ(serial.lower_bound_energy, parallel.lower_bound_energy);
  EXPECT_EQ(serial.total_fw_iterations, parallel.total_fw_iterations);
  ASSERT_EQ(serial.final_flow.size(), parallel.final_flow.size());
  for (std::size_t i = 0; i < serial.final_flow.size(); ++i) {
    EXPECT_EQ(serial.final_flow[i], parallel.final_flow[i]) << i;
  }
}

TEST(PairwiseFrankWolfe, OnlineBatchGridIsJobsInvariant) {
  engine::BatchSpec spec;
  spec.solvers = {"online_dcfsr", "online_dcfsr_flat", "oracle_dcfsr"};
  spec.scenarios = {"fat_tree/poisson", "leaf_spine/hadoop"};
  spec.seeds = {1, 2};
  spec.options.num_flows = 10;
  spec.options.capacity = 3.0;
  spec.options.arrival_rate = 3.0;

  spec.jobs = 1;
  const engine::BatchResult serial = engine::run_batch(
      engine::default_registry(), ScenarioSuite::default_suite(), spec);
  spec.jobs = 4;
  const engine::BatchResult parallel = engine::run_batch(
      engine::default_registry(), ScenarioSuite::default_suite(), spec);

  ASSERT_EQ(serial.cells.size(), parallel.cells.size());
  for (std::size_t i = 0; i < serial.cells.size(); ++i) {
    EXPECT_EQ(serial.cells[i].outcome.energy, parallel.cells[i].outcome.energy)
        << i;
    EXPECT_EQ(serial.cells[i].outcome.stats, parallel.cells[i].outcome.stats)
        << i;
  }
}

TEST(OnlineActiveFlowIndex, PeakInFlightTracksWavesNotTotals) {
  // Three disjoint waves of two flows each, every wave completing
  // before the next arrives: the deadline-ordered active index must
  // never hold more than one wave, so the warm state the run keeps is
  // proportional to the flows in flight, not the offered total.
  const Topology topo = fat_tree(4);
  const std::vector<NodeId>& hosts = topo.hosts();
  std::vector<Flow> flows;
  for (int wave = 0; wave < 3; ++wave) {
    const double t = 100.0 * wave;
    flows.push_back(
        {static_cast<FlowId>(flows.size()), hosts[0], hosts[5], 20.0, t,
         t + 10.0});
    flows.push_back(
        {static_cast<FlowId>(flows.size()), hosts[1], hosts[6], 20.0, t,
         t + 10.0});
  }
  const PowerModel model(1.0, 1.0, 2.0, 8.0);
  OnlineOptions options;
  options.rounding.relaxation.frank_wolfe.max_iterations = 15;
  options.rounding.relaxation.frank_wolfe.gap_tolerance = 2e-3;
  Rng rng(17);
  const OnlineResult r = online_dcfsr(topo.graph(), flows, model, rng, options);
  EXPECT_EQ(r.num_admitted, 6);
  EXPECT_EQ(r.num_events, 3);
  EXPECT_EQ(r.peak_in_flight, 2);

  // Degenerate all-at-t=0 check of the same counter: everything is in
  // flight at once.
  std::vector<Flow> together;
  for (std::size_t i = 0; i < flows.size(); ++i) {
    Flow fl = flows[i];
    fl.release = 0.0;
    fl.deadline = 10.0;
    together.push_back(fl);
  }
  Rng rng2(17);
  const OnlineResult all =
      online_dcfsr(topo.graph(), together, model, rng2, options);
  EXPECT_EQ(all.peak_in_flight, all.num_admitted);
}

TEST(OnlineDeparturesFastPath, CompletionWindowGetsGapCheckNotFullResolve) {
  // Two events: {A, B} arrive at t = 0, C arrives at t = 50. A
  // completes at t = 10 < 50 while B is still in flight, so the
  // completion window must be handled by exactly one single-iteration
  // gap check.
  const Topology topo = fat_tree(4);
  const std::vector<NodeId>& hosts = topo.hosts();
  std::vector<Flow> flows;
  flows.push_back({0, hosts[0], hosts[5], 20.0, 0.0, 10.0});
  flows.push_back({1, hosts[1], hosts[6], 50.0, 0.0, 100.0});
  flows.push_back({2, hosts[2], hosts[7], 20.0, 50.0, 100.0});
  const PowerModel model(1.0, 1.0, 2.0, 8.0);

  OnlineOptions options;
  options.rounding.relaxation.frank_wolfe.max_iterations = 15;
  options.rounding.relaxation.frank_wolfe.gap_tolerance = 2e-3;
  Rng rng(17);
  const OnlineResult r = online_dcfsr(topo.graph(), flows, model, rng, options);

  EXPECT_EQ(r.num_events, 2);
  EXPECT_EQ(r.resolves, 2);  // full relaxations: one per arrival event
  EXPECT_EQ(r.num_admitted, 3);
  EXPECT_EQ(r.departure_gap_checks, 1);
  // One interval (B alone over [10, 100]) checked with a budget of one
  // iteration.
  EXPECT_EQ(r.gap_check_iterations, 1);
}

}  // namespace
}  // namespace dcn
