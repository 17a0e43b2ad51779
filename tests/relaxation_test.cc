// Tests for the multi-interval fractional relaxation (LB + candidates).
#include <gtest/gtest.h>

#include <cmath>

#include "baselines/baselines.h"
#include "common/random.h"
#include "flow/workload.h"
#include "mcf/relaxation.h"
#include "schedule/schedule.h"
#include "topology/builders.h"

namespace dcn {
namespace {

TEST(Relaxation, SingleFlowLowerBoundIsExact) {
  // One flow alone: LB = |span| * env(density) * hops. With sigma = 0
  // the relaxation routes on a shortest path at the density rate.
  const Topology topo = line_network(3);
  const std::vector<Flow> flows{{0, 0, 2, 6.0, 1.0, 4.0}};  // density 2
  const PowerModel model = PowerModel::pure_speed_scaling(2.0);
  const auto relax = solve_relaxation(topo.graph(), flows, model);
  EXPECT_NEAR(relax.lower_bound_energy, 3.0 * 4.0 * 2.0, 1e-3);
  ASSERT_EQ(relax.candidates.size(), 1u);
  ASSERT_EQ(relax.candidates[0].paths.size(), 1u);
  EXPECT_NEAR(relax.candidates[0].paths[0].weight, 1.0, 1e-12);
  EXPECT_EQ(relax.candidates[0].paths[0].path.length(), 2u);
}

TEST(Relaxation, CandidateWeightsFormDistributions) {
  const Topology topo = fat_tree(4);
  Rng rng(5);
  PaperWorkloadParams params;
  params.num_flows = 20;
  params.horizon_hi = 30.0;
  const auto flows = paper_workload(topo, params, rng);
  const PowerModel model = PowerModel::pure_speed_scaling(2.0);
  const auto relax = solve_relaxation(topo.graph(), flows, model);
  ASSERT_EQ(relax.candidates.size(), flows.size());
  for (std::size_t i = 0; i < flows.size(); ++i) {
    double total = 0.0;
    for (const WeightedPath& wp : relax.candidates[i].paths) {
      EXPECT_GT(wp.weight, 0.0);
      EXPECT_TRUE(is_valid_path(topo.graph(), wp.path));
      EXPECT_EQ(wp.path.src, flows[i].src);
      EXPECT_EQ(wp.path.dst, flows[i].dst);
      total += wp.weight;
    }
    EXPECT_NEAR(total, 1.0, 1e-9);
  }
}

TEST(Relaxation, LowerBoundsAnyFeasibleScheduleWeCanConstruct) {
  // LB <= Phi_f(SP+MCF) on random instances (the defining property of
  // the Fig. 2 normalizer).
  const Topology topo = fat_tree(4);
  const PowerModel model = PowerModel::pure_speed_scaling(2.0);
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    Rng rng(seed);
    PaperWorkloadParams params;
    params.num_flows = 15;
    params.horizon_hi = 30.0;
    const auto flows = paper_workload(topo, params, rng);
    const auto relax = solve_relaxation(topo.graph(), flows, model);
    const auto sp = sp_mcf(topo.graph(), flows, model);
    const double sp_energy =
        energy_phi_f(topo.graph(), sp.schedule, model, flow_horizon(flows));
    EXPECT_LE(relax.lower_bound_energy, sp_energy * (1.0 + 1e-6))
        << "seed " << seed;
  }
}

TEST(Relaxation, LowerBoundScalesWithMu) {
  const Topology topo = line_network(3);
  const std::vector<Flow> flows{{0, 0, 2, 6.0, 1.0, 4.0}};
  const auto lb1 =
      solve_relaxation(topo.graph(), flows, PowerModel(0.0, 1.0, 2.0)).lower_bound_energy;
  const auto lb3 =
      solve_relaxation(topo.graph(), flows, PowerModel(0.0, 3.0, 2.0)).lower_bound_energy;
  EXPECT_NEAR(lb3, 3.0 * lb1, 1e-6);
}

TEST(Relaxation, SigmaRaisesTheLowerBound) {
  const Topology topo = line_network(3);
  const std::vector<Flow> flows{{0, 0, 2, 6.0, 1.0, 4.0}};
  const double lb_no_idle =
      solve_relaxation(topo.graph(), flows, PowerModel(0.0, 1.0, 2.0)).lower_bound_energy;
  const double lb_idle =
      solve_relaxation(topo.graph(), flows, PowerModel(2.0, 1.0, 2.0)).lower_bound_energy;
  EXPECT_GT(lb_idle, lb_no_idle);
}

TEST(Relaxation, MeanGapIsSmall) {
  const Topology topo = fat_tree(4);
  Rng rng(7);
  PaperWorkloadParams params;
  params.num_flows = 10;
  params.horizon_hi = 20.0;
  const auto flows = paper_workload(topo, params, rng);
  const PowerModel model = PowerModel::pure_speed_scaling(2.0);
  RelaxationOptions options;
  options.frank_wolfe.gap_tolerance = 1e-4;
  options.frank_wolfe.max_iterations = 300;
  const auto relax = solve_relaxation(topo.graph(), flows, model, options);
  // Frank-Wolfe converges at O(1/k); a 300-iteration budget lands the
  // mean gap within a small multiple of the 1e-4 target.
  EXPECT_LE(relax.mean_relative_gap, 5e-3);
}

TEST(Relaxation, PinnedRowsGetNoCandidatesAndChangeNothingElse) {
  // first_candidate_row = k: rows before k (the online scheduler's
  // pinned in-flight flows) skip decomposition and wbar aggregation.
  // Everything else — the bound, the carried rows and atoms, the later
  // rows' candidates — must equal the solve that gives every row
  // candidates, for both step rules, cold and warm-started.
  const Topology topo = fat_tree(4);
  Rng rng(17);
  PaperWorkloadParams params;
  params.num_flows = 16;
  params.horizon_hi = 20.0;
  const auto flows = paper_workload(topo, params, rng);
  const PowerModel model(0.5, 1.0, 2.0);
  const std::size_t pinned = 6;
  for (const FrankWolfeStepRule rule :
       {FrankWolfeStepRule::kPairwise, FrankWolfeStepRule::kClassic}) {
    RelaxationOptions options;
    options.frank_wolfe.step_rule = rule;
    options.frank_wolfe.max_iterations = 40;
    const FractionalRelaxation prior =
        solve_relaxation(topo.graph(), flows, model, options);
    for (const bool warm : {false, true}) {
      auto solve = [&](std::size_t first_candidate_row) {
        RelaxationWorkspace ws;
        return warm ? solve_relaxation(topo.graph(), flows, model, options, &ws,
                                       prior.final_flow, prior.final_atoms,
                                       first_candidate_row)
                    : solve_relaxation(topo.graph(), flows, model, options, &ws,
                                       {}, {}, first_candidate_row);
      };
      const FractionalRelaxation all = solve(0);
      const FractionalRelaxation some = solve(pinned);
      EXPECT_EQ(some.lower_bound_energy, all.lower_bound_energy);
      EXPECT_EQ(some.total_fw_iterations, all.total_fw_iterations);
      EXPECT_EQ(some.final_flow, all.final_flow);
      ASSERT_EQ(some.final_atoms.size(), all.final_atoms.size());
      for (std::size_t i = 0; i < all.final_atoms.size(); ++i) {
        ASSERT_EQ(some.final_atoms[i].size(), all.final_atoms[i].size()) << i;
        for (std::size_t k = 0; k < all.final_atoms[i].size(); ++k) {
          EXPECT_EQ(some.final_atoms[i][k].edges, all.final_atoms[i][k].edges);
          EXPECT_EQ(some.final_atoms[i][k].weight, all.final_atoms[i][k].weight);
        }
      }
      ASSERT_EQ(some.candidates.size(), flows.size());
      for (std::size_t i = 0; i < flows.size(); ++i) {
        if (i < pinned) {
          EXPECT_TRUE(some.candidates[i].paths.empty()) << i;
          continue;
        }
        ASSERT_FALSE(some.candidates[i].paths.empty()) << i;
        ASSERT_EQ(some.candidates[i].paths.size(), all.candidates[i].paths.size());
        for (std::size_t k = 0; k < all.candidates[i].paths.size(); ++k) {
          EXPECT_EQ(some.candidates[i].paths[k].path.edges,
                    all.candidates[i].paths[k].path.edges);
          EXPECT_EQ(some.candidates[i].paths[k].weight,
                    all.candidates[i].paths[k].weight);
        }
      }
    }
    // Atoms exist only under the pairwise rule: the warm case above must
    // have carried real atoms there.
    if (rule == FrankWolfeStepRule::kPairwise) {
      EXPECT_FALSE(prior.final_atoms[0].empty());
    }
  }
}

}  // namespace
}  // namespace dcn
