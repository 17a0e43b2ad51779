// Differential tests for randomized rounding's drawn-edge check.
//
// TouchedEdgeLoad folds the link timelines of only the edges a draw
// touches; round_relaxation accepts or rejects each draw with it and
// materializes only the kept draw, and energy_phi_f / energy_phi_g fold
// a schedule's energy with it. All are pinned bitwise (==, not NEAR)
// against the full-fabric references below, which build one
// StepFunction per edge with link_timelines — the computation they
// ran before, kept here only.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/contracts.h"
#include "common/random.h"
#include "dcfsr/random_schedule.h"
#include "flow/workload.h"
#include "graph/k_shortest.h"
#include "graph/shortest_path.h"
#include "schedule/schedule.h"
#include "topology/builders.h"

namespace dcn {
namespace {

double reference_peak(const Graph& g, const Schedule& schedule) {
  double peak = 0.0;
  for (const StepFunction& tl : link_timelines(g, schedule)) {
    peak = std::max(peak, tl.max_value());
  }
  return peak;
}

double reference_dynamic(const Graph& g, const Schedule& schedule,
                         const PowerModel& model, Interval horizon) {
  double dynamic = 0.0;
  for (const StepFunction& tl : link_timelines(g, schedule)) {
    dynamic += tl.integrate_transformed(
        horizon, [&model](double x) { return model.g(x); });
  }
  return dynamic;
}

double reference_energy(const Graph& g, const Schedule& schedule,
                        const PowerModel& model, Interval horizon) {
  std::int64_t active = 0;
  for (const StepFunction& tl : link_timelines(g, schedule)) {
    if (!tl.is_zero()) ++active;
  }
  return model.sigma() * horizon.measure() * static_cast<double>(active) +
         reference_dynamic(g, schedule, model, horizon);
}

/// The rounding loop as it ran on full-fabric timelines: draw every
/// unpinned row, build the density schedule, reject on the timelines'
/// peak, keep the lowest-energy feasible draw.
RandomScheduleResult reference_rounding(
    const Graph& g, const std::vector<Flow>& flows, const PowerModel& model,
    const FractionalRelaxation& relaxation, Rng& rng,
    const RandomScheduleOptions& options,
    const std::vector<const Path*>* forced_paths) {
  RandomScheduleResult result;
  const Interval horizon = flow_horizon(flows);
  double best_energy = std::numeric_limits<double>::infinity();
  std::int32_t feasible_found = 0;
  Schedule last_draw;
  std::vector<double> weights;
  for (std::int32_t attempt = 1; attempt <= options.max_rounding_attempts;
       ++attempt) {
    result.rounding_attempts = attempt;
    std::vector<Path> paths;
    for (std::size_t i = 0; i < flows.size(); ++i) {
      if (forced_paths != nullptr && (*forced_paths)[i] != nullptr) {
        paths.push_back(*(*forced_paths)[i]);
      } else {
        paths.push_back(draw_path(relaxation.candidates[i], rng, weights));
      }
    }
    last_draw = density_schedule(flows, paths);
    if (reference_peak(g, last_draw) > model.capacity() * (1.0 + 1e-9)) {
      continue;
    }
    ++feasible_found;
    const double energy = reference_energy(g, last_draw, model, horizon);
    if (energy < best_energy) {
      best_energy = energy;
      result.schedule = std::move(last_draw);
      last_draw = {};
    }
    if (feasible_found >= options.best_of) break;
  }
  if (feasible_found == 0) {
    result.capacity_feasible = false;
    result.schedule = std::move(last_draw);
    result.energy = reference_energy(g, result.schedule, model, horizon);
    return result;
  }
  result.energy = best_energy;
  return result;
}

void expect_same_schedule(const Schedule& a, const Schedule& b) {
  ASSERT_EQ(a.flows.size(), b.flows.size());
  for (std::size_t i = 0; i < a.flows.size(); ++i) {
    EXPECT_EQ(a.flows[i].path.edges, b.flows[i].path.edges) << "row " << i;
    EXPECT_EQ(a.flows[i].segments, b.flows[i].segments) << "row " << i;
  }
}

void load_of(TouchedEdgeLoad& load, const Schedule& schedule) {
  load.clear();
  for (const FlowSchedule& fs : schedule.flows) {
    load.add_row(fs.path.edges, fs.segments);
  }
}

/// A random routed schedule on fat_tree(4). Times come from a coarse
/// grid so breakpoints coincide across rows and edges; rates mix exact
/// binary fractions with 1/3-style values whose sums depend on the
/// order they are added in; rows have 1-3 segments (a re-rated
/// profile), some of zero rate or zero length; paths are drawn from
/// each pair's 4 shortest, so rows share edges.
Schedule random_schedule_rows(const Topology& topo, Rng& rng) {
  static const double kRates[] = {0.5, 1.0, 0.25, 1.0 / 3.0, 2.0 / 3.0,
                                  0.1, 0.7, 0.0};
  const std::vector<double> unit(
      static_cast<std::size_t>(topo.graph().num_edges()), 1.0);
  Schedule schedule;
  const auto rows = rng.uniform_int(1, 24);
  for (std::int64_t r = 0; r < rows; ++r) {
    const NodeId src = topo.hosts()[static_cast<std::size_t>(
        rng.uniform_int(0, topo.num_hosts() - 1))];
    NodeId dst = src;
    while (dst == src) {
      dst = topo.hosts()[static_cast<std::size_t>(
          rng.uniform_int(0, topo.num_hosts() - 1))];
    }
    const std::vector<Path> paths =
        yen_k_shortest_paths(topo.graph(), src, dst, unit, 4);
    FlowSchedule fs;
    fs.path = paths[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(paths.size()) - 1))];
    double t = 0.5 * static_cast<double>(rng.uniform_int(0, 8));
    const auto segments = rng.uniform_int(1, 3);
    for (std::int64_t k = 0; k < segments; ++k) {
      const double hi = t + 0.5 * static_cast<double>(rng.uniform_int(0, 4));
      fs.segments.push_back(
          {{t, hi}, kRates[static_cast<std::size_t>(rng.uniform_int(0, 7))]});
      t = hi;
    }
    schedule.flows.push_back(std::move(fs));
  }
  return schedule;
}

TEST(RoundingCheck, TouchedEdgeLoadMatchesLinkTimelinesBitwise) {
  const Topology topo = fat_tree(4);
  const Graph& g = topo.graph();
  const PowerModel models[] = {PowerModel::pure_speed_scaling(2.0),
                               PowerModel(1.0, 1.0, 3.0),
                               PowerModel(0.5, 0.7, 2.0)};
  // The whole timeline, and a window that clips segments on both sides.
  const Interval horizons[] = {{0.0, 12.0}, {1.25, 3.75}};
  TouchedEdgeLoad load;  // scratch reused across every schedule
  Rng rng(2024);
  for (int round = 0; round < 400; ++round) {
    const Schedule schedule = random_schedule_rows(topo, rng);
    load_of(load, schedule);
    EXPECT_EQ(load.peak(), reference_peak(g, schedule)) << "round " << round;
    for (const PowerModel& model : models) {
      for (const Interval& horizon : horizons) {
        const double energy = reference_energy(g, schedule, model, horizon);
        EXPECT_EQ(load.energy_phi_f(model, horizon), energy) << "round " << round;
        EXPECT_EQ(energy_phi_f(g, schedule, model, horizon), energy)
            << "round " << round;
        EXPECT_EQ(energy_phi_g(g, schedule, model, horizon),
                  reference_dynamic(g, schedule, model, horizon))
            << "round " << round;
      }
    }
  }
}

TEST(RoundingCheck, CoincidentAndCancellingStepsFoldInRowOrder) {
  // One path, four rows. At t = 2 the steps -1/3 (row 0 ends), +0.1
  // and +0.7 (rows 1, 2 start) sum in row order; at t = 4 row 1's end
  // and row 3's start cancel exactly, leaving a zero-delta breakpoint;
  // row 3's second segment is empty and must be skipped.
  const Topology topo = line_network(4);
  const Graph& g = topo.graph();
  const Path path = *bfs_shortest_path(g, 0, 3);
  Schedule schedule;
  schedule.flows.push_back({path, {{{0.0, 2.0}, 1.0 / 3.0}}});
  schedule.flows.push_back({path, {{{2.0, 4.0}, 0.1}}});
  schedule.flows.push_back({path, {{{2.0, 6.0}, 0.7}, {{6.0, 7.0}, 0.2}}});
  schedule.flows.push_back({path, {{{4.0, 5.0}, 0.1}, {{5.0, 5.0}, 9.0}}});
  TouchedEdgeLoad load;
  load_of(load, schedule);
  EXPECT_EQ(load.peak(), reference_peak(g, schedule));
  const PowerModel model(0.5, 1.0, 3.0);
  for (const Interval& horizon :
       {Interval{0.0, 7.0}, Interval{1.0, 4.5}, Interval{4.0, 9.0}}) {
    EXPECT_EQ(load.energy_phi_f(model, horizon),
              reference_energy(g, schedule, model, horizon));
  }
  // Only the path's edges count as active: sigma = 1 over a unit
  // horizon adds one per touched edge.
  EXPECT_NEAR(load.energy_phi_f(PowerModel(1.0, 1.0, 2.0), {0.0, 1.0}) -
                  load.energy_phi_f(PowerModel::pure_speed_scaling(2.0),
                                    {0.0, 1.0}),
              static_cast<double>(path.edges.size()), 1e-12);
}

/// Rounds `relax` with round_relaxation and with the reference from
/// the same rng seed and expects the same outcome, bit for bit.
/// Returns the result for the caller's coverage counts.
RandomScheduleResult expect_matches_reference(
    const Graph& g, const std::vector<Flow>& flows, const PowerModel& model,
    const FractionalRelaxation& relax, const RandomScheduleOptions& options,
    std::uint64_t seed, const std::vector<const Path*>* forced = nullptr) {
  Rng a(seed), b(seed);
  RandomScheduleResult got =
      round_relaxation(g, flows, model, relax, a, options, forced);
  const RandomScheduleResult want =
      reference_rounding(g, flows, model, relax, b, options, forced);
  EXPECT_EQ(got.capacity_feasible, want.capacity_feasible);
  EXPECT_EQ(got.rounding_attempts, want.rounding_attempts);
  EXPECT_EQ(got.energy, want.energy);
  expect_same_schedule(got.schedule, want.schedule);
  EXPECT_EQ(a(), b()) << "rng streams diverged";
  return got;
}

TEST(RoundingCheck, RoundRelaxationMatchesFullFabricReference) {
  // Fat-tree instances at a capacity every draw violates (the last draw
  // and its energy come back) and at one none does (many flows share
  // edges, so the energy folds many rows per edge).
  const Topology tree = fat_tree(4);
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    Rng workload_rng(seed);
    PaperWorkloadParams params;
    params.num_flows = 14;
    params.horizon_hi = 20.0;
    const std::vector<Flow> flows = paper_workload(tree, params, workload_rng);
    double max_density = 0.0;
    for (const Flow& fl : flows) max_density = std::max(max_density, fl.density());
    const FractionalRelaxation relax =
        solve_relaxation(tree.graph(), flows, PowerModel::pure_speed_scaling(2.0));
    for (const double cap_factor : {0.5, 100.0}) {
      const PowerModel model(0.5, 1.0, 2.0, cap_factor * max_density);
      for (const std::int32_t best_of : {1, 3}) {
        RandomScheduleOptions options;
        options.best_of = best_of;
        options.max_rounding_attempts = 6;
        const RandomScheduleResult got = expect_matches_reference(
            tree.graph(), flows, model, relax, options, seed * 7 + 1);
        EXPECT_EQ(got.capacity_feasible, cap_factor > 1.0);
      }
    }
  }

  // Three parallel links, where the draw decides feasibility: rows 0-2
  // overlap on [2, 4) and row 3 starts as row 0 ends, so a capacity of
  // 1.5 needs three distinct links and 2.5 rejects only a triple
  // collision. Across rng seeds some draws are kept at once, some after
  // redraws, and some budgets run out.
  const Topology links = parallel_links(3);
  const std::vector<Flow> flows{{0, 0, 1, 4.0, 0.0, 4.0},
                                {1, 0, 1, 4.0, 1.0, 5.0},
                                {2, 0, 1, 4.0, 2.0, 6.0},
                                {3, 0, 1, 4.0, 4.0, 8.0}};
  const FractionalRelaxation relax =
      solve_relaxation(links.graph(), flows, PowerModel::pure_speed_scaling(2.0));
  int redrawn = 0, infeasible = 0;
  for (const double capacity : {1.5, 2.5}) {
    const PowerModel model(0.5, 1.0, 2.0, capacity);
    for (const std::int32_t best_of : {1, 3}) {
      RandomScheduleOptions options;
      options.best_of = best_of;
      options.max_rounding_attempts = 12;
      for (std::uint64_t seed = 1; seed <= 12; ++seed) {
        const RandomScheduleResult got = expect_matches_reference(
            links.graph(), flows, model, relax, options, seed);
        // More attempts than kept draws: some draw was rejected.
        if (got.capacity_feasible && got.rounding_attempts > best_of) ++redrawn;
        if (!got.capacity_feasible) ++infeasible;
      }
    }
  }
  EXPECT_GT(redrawn, 0);
  EXPECT_GT(infeasible, 0);
}

TEST(RoundingCheck, PinnedRowsNeedNoCandidatesAndMatchReference) {
  // The online shape: the first rows are pinned to committed paths and
  // come out of the relaxation without candidates (first_candidate_row).
  auto check = [](const Topology& topo, const std::vector<Flow>& flows,
                  std::size_t pinned, const std::vector<double>& capacities,
                  std::uint64_t seeds) {
    const Graph& g = topo.graph();
    std::vector<Path> committed;
    for (std::size_t i = 0; i < pinned; ++i) {
      committed.push_back(*bfs_shortest_path(g, flows[i].src, flows[i].dst));
    }
    std::vector<const Path*> forced(flows.size(), nullptr);
    for (std::size_t i = 0; i < pinned; ++i) forced[i] = &committed[i];
    const FractionalRelaxation relax =
        solve_relaxation(g, flows, PowerModel::pure_speed_scaling(2.0), {},
                         nullptr, {}, {}, /*first_candidate_row=*/pinned);
    for (const double capacity : capacities) {
      const PowerModel model(0.0, 1.0, 2.0, capacity);
      for (const std::int32_t best_of : {1, 3}) {
        RandomScheduleOptions options;
        options.best_of = best_of;
        options.max_rounding_attempts = 8;
        for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
          const RandomScheduleResult got = expect_matches_reference(
              g, flows, model, relax, options, seed, &forced);
          for (std::size_t i = 0; i < pinned; ++i) {
            EXPECT_EQ(got.schedule.flows[i].path.edges, committed[i].edges);
          }
        }
      }
    }
    // An unpinned row without candidates is a caller error.
    Rng rng(1);
    EXPECT_THROW((void)round_relaxation(g, flows, PowerModel::pure_speed_scaling(2.0),
                                        relax, rng),
                 ContractViolation);
  };

  const Topology tree = fat_tree(4);
  Rng workload_rng(11);
  PaperWorkloadParams params;
  params.num_flows = 12;
  params.horizon_hi = 20.0;
  const std::vector<Flow> flows = paper_workload(tree, params, workload_rng);
  double max_density = 0.0;
  for (const Flow& fl : flows) max_density = std::max(max_density, fl.density());
  check(tree, flows, 5, {0.6 * max_density, 100.0 * max_density}, 2);

  check(parallel_links(3),
        {{0, 0, 1, 4.0, 0.0, 4.0},
         {1, 0, 1, 4.0, 1.0, 5.0},
         {2, 0, 1, 4.0, 2.0, 6.0},
         {3, 0, 1, 4.0, 4.0, 8.0}},
        1, {1.5, 2.5}, 8);
}

}  // namespace
}  // namespace dcn
