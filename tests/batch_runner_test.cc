// Tests for the parallel BatchRunner: grid expansion, failed-cell
// handling, aggregation, and — the engine's core guarantee — byte-
// identical results for any thread count at a fixed seed.
#include <gtest/gtest.h>

#include <memory>

#include "common/contracts.h"
#include "engine/batch_runner.h"
#include "engine/solvers.h"

namespace dcn::engine {
namespace {

BatchSpec small_spec() {
  BatchSpec spec;
  spec.solvers = {"mcf", "edf", "greedy", "dcfsr"};
  spec.scenarios = {"fat_tree/paper", "leaf_spine/incast"};
  spec.seeds = {1, 2};
  spec.options.num_flows = 8;
  spec.discard_schedules = true;
  return spec;
}

TEST(BatchRunner, RunsTheFullGridInOrder) {
  BatchSpec spec = small_spec();
  const BatchResult result =
      run_batch(default_registry(), ScenarioSuite::default_suite(), spec);

  ASSERT_EQ(result.cells.size(), 4u * 2u * 2u);
  // Grid order: scenario-major, then solver, then seed.
  EXPECT_EQ(result.cells[0].scenario, "fat_tree/paper");
  EXPECT_EQ(result.cells[0].solver, "mcf");
  EXPECT_EQ(result.cells[0].seed, 1u);
  EXPECT_EQ(result.cells[1].seed, 2u);
  EXPECT_EQ(result.cells[2].solver, "edf");
  EXPECT_EQ(result.cells[8].scenario, "leaf_spine/incast");

  for (const CellResult& cell : result.cells) {
    EXPECT_TRUE(cell.ran) << cell.solver << ": " << cell.error;
    EXPECT_TRUE(cell.outcome.feasible)
        << cell.solver << ": " << cell.outcome.first_issue;
    // discard_schedules keeps memory bounded.
    EXPECT_TRUE(cell.outcome.schedule.flows.empty());
  }
  EXPECT_TRUE(result.all_feasible());

  ASSERT_EQ(result.solvers.size(), 4u);
  for (const SolverAggregate& agg : result.solvers) {
    EXPECT_EQ(agg.cells, 4);
    EXPECT_EQ(agg.ran, 4);
    EXPECT_EQ(agg.feasible, 4);
    EXPECT_GT(agg.total_energy, 0.0);
    EXPECT_DOUBLE_EQ(agg.mean_energy, agg.total_energy / 4.0);
  }
  // Only dcfsr computes a relaxation lower bound.
  EXPECT_EQ(result.solvers[3].solver, "dcfsr");
  EXPECT_EQ(result.solvers[3].lb_cells, 4);
  EXPECT_GE(result.solvers[3].mean_lb_ratio, 1.0 - 1e-9);
  EXPECT_EQ(result.solvers[0].lb_cells, 0);
}

TEST(BatchRunner, ResultsAreByteIdenticalForJobs1VsJobs8) {
  BatchSpec spec = small_spec();
  spec.jobs = 1;
  const BatchResult serial =
      run_batch(default_registry(), ScenarioSuite::default_suite(), spec);
  spec.jobs = 8;
  const BatchResult parallel =
      run_batch(default_registry(), ScenarioSuite::default_suite(), spec);

  // The headline engine guarantee: canonical dumps (per-cell energies,
  // stats, aggregates — everything but wall-clock) are byte-identical.
  EXPECT_EQ(serial.canonical(), parallel.canonical());

  // And the aggregates agree exactly, not just to tolerance.
  ASSERT_EQ(serial.solvers.size(), parallel.solvers.size());
  for (std::size_t i = 0; i < serial.solvers.size(); ++i) {
    EXPECT_EQ(serial.solvers[i].total_energy, parallel.solvers[i].total_energy);
    EXPECT_EQ(serial.solvers[i].mean_lb_ratio, parallel.solvers[i].mean_lb_ratio);
  }
}

TEST(BatchRunner, SparseRelaxationGridIsByteIdenticalAcrossJobs) {
  // Determinism re-check focused on the sparse Frank-Wolfe pipeline:
  // dcfsr (relaxation + rounding) and mcf over a larger flow count than
  // the smoke grid, so warm starts, sparse decomposition, and the
  // hashed wbar accumulator all see real work.
  BatchSpec spec;
  spec.solvers = {"dcfsr", "mcf"};
  spec.scenarios = {"fat_tree/paper"};
  spec.seeds = {1, 2, 3};
  spec.options.num_flows = 24;
  spec.discard_schedules = true;
  spec.jobs = 1;
  const BatchResult serial =
      run_batch(default_registry(), ScenarioSuite::default_suite(), spec);
  spec.jobs = 8;
  const BatchResult parallel =
      run_batch(default_registry(), ScenarioSuite::default_suite(), spec);
  EXPECT_EQ(serial.canonical(), parallel.canonical());
  EXPECT_TRUE(serial.all_feasible());
}

TEST(BatchRunner, OnlineScenariosAreByteIdenticalAcrossJobs) {
  // Determinism re-check for the online subsystem: arrival-driven
  // scenarios (Poisson releases, heavy-tailed sizes) x online solvers
  // (per-arrival warm-started re-solves, admission control at finite
  // capacity) must stay a pure function of (scenario, seed, options) —
  // no state may leak between cells or depend on worker interleaving.
  BatchSpec spec;
  spec.solvers = {"online_greedy", "online_dcfsr", "online_dcfsr_flat",
                  "online_dcfsr_preempt"};
  spec.scenarios = {"fat_tree/poisson", "line/websearch", "leaf_spine/hadoop"};
  spec.seeds = {1, 2};
  spec.options.num_flows = 14;
  spec.options.capacity = 3.0;  // finite: admission/fallback paths execute
  spec.options.arrival_rate = 4.0;
  spec.discard_schedules = true;
  spec.jobs = 1;
  const BatchResult serial =
      run_batch(default_registry(), ScenarioSuite::default_suite(), spec);
  spec.jobs = 8;
  const BatchResult parallel =
      run_batch(default_registry(), ScenarioSuite::default_suite(), spec);
  EXPECT_EQ(serial.canonical(), parallel.canonical());
  // Online outcomes are feasible-by-admission: every cell must replay
  // its admitted subset cleanly even when it rejects flows.
  EXPECT_TRUE(serial.all_feasible());
}

TEST(BatchRunner, ParallelOracleVariantIsByteIdenticalToDcfsr) {
  // dcfsr with the Frank-Wolfe oracle on a worker pool vs sequential:
  // the outcome must be byte-identical — same rng stream, same
  // relaxation, same rounding.
  ScenarioOptions options;
  options.num_flows = 12;
  const Instance instance =
      ScenarioSuite::default_suite().build("fat_tree/paper", 3, options);
  auto dcfsr_with_oracle_threads = [&](std::int32_t threads) {
    RandomScheduleOptions dcfsr;
    dcfsr.relaxation.frank_wolfe.max_iterations = 12;
    dcfsr.relaxation.frank_wolfe.gap_tolerance = 1e-3;
    dcfsr.relaxation.frank_wolfe.oracle_threads = threads;
    return RandomScheduleSolver(dcfsr).solve(instance);
  };
  const SolverOutcome a = dcfsr_with_oracle_threads(1);
  const SolverOutcome b = dcfsr_with_oracle_threads(4);
  EXPECT_EQ(a.energy, b.energy);
  EXPECT_EQ(a.lower_bound, b.lower_bound);
  EXPECT_EQ(a.feasible, b.feasible);
  EXPECT_EQ(a.stats, b.stats);
  // The registered dcfsr is this configuration (adaptive oracle width).
  const SolverOutcome registered =
      default_registry().create("dcfsr")->solve(instance);
  EXPECT_EQ(canonical_summary(a), canonical_summary(registered));
}

TEST(BatchRunner, OversubscribedThreadsStillDeterministic) {
  BatchSpec spec = small_spec();
  spec.solvers = {"edf", "greedy"};
  spec.jobs = 1;
  const BatchResult serial =
      run_batch(default_registry(), ScenarioSuite::default_suite(), spec);
  spec.jobs = 32;  // more workers than cells
  const BatchResult parallel =
      run_batch(default_registry(), ScenarioSuite::default_suite(), spec);
  EXPECT_EQ(serial.canonical(), parallel.canonical());
}

TEST(BatchRunner, ThrowingSolverBecomesAFailedCellNotACrash) {
  // An exact solver with a tiny assignment cap refuses the fat-tree
  // instance (many candidate paths per flow) but handles the line
  // topology (a single simple path per flow); the grid must carry both.
  SolverRegistry registry;
  registry.add("exact_tiny", [] {
    ExactDcfsrOptions tight;
    tight.max_assignments = 4;
    return std::make_unique<ExactSolver>(tight);
  });
  registry.add("mcf", [] { return std::make_unique<McfSolver>("mcf"); });

  BatchSpec spec;
  spec.solvers = {"exact_tiny", "mcf"};
  spec.scenarios = {"fat_tree/paper", "line/paper"};
  spec.seeds = {1};
  spec.options.num_flows = 4;
  spec.discard_schedules = true;
  const BatchResult result =
      run_batch(registry, ScenarioSuite::default_suite(), spec);

  ASSERT_EQ(result.cells.size(), 4u);
  const CellResult& failed = result.cells[0];  // fat_tree/paper, exact_tiny
  EXPECT_FALSE(failed.ran);
  EXPECT_FALSE(failed.error.empty());
  const CellResult& ok = result.cells[2];  // line/paper, exact_tiny
  EXPECT_TRUE(ok.ran) << ok.error;
  EXPECT_TRUE(ok.outcome.feasible);
  EXPECT_FALSE(result.all_feasible());

  ASSERT_EQ(result.solvers[0].solver, "exact_tiny");
  EXPECT_EQ(result.solvers[0].cells, 2);
  EXPECT_EQ(result.solvers[0].ran, 1);
  // The failure is visible in the canonical dump.
  EXPECT_NE(result.canonical().find("error="), std::string::npos);
  EXPECT_FALSE(result.table().empty());
}

TEST(BatchRunner, UnknownNamesFailFastBeforeAnyWork) {
  BatchSpec spec = small_spec();
  spec.solvers = {"mcf", "no_such_solver"};
  EXPECT_THROW((void)run_batch(default_registry(),
                               ScenarioSuite::default_suite(), spec),
               UnknownSolverError);

  spec = small_spec();
  spec.scenarios = {"no_such/scenario"};
  EXPECT_THROW((void)run_batch(default_registry(),
                               ScenarioSuite::default_suite(), spec),
               UnknownScenarioError);

  spec = small_spec();
  spec.solvers.clear();
  EXPECT_THROW((void)run_batch(default_registry(),
                               ScenarioSuite::default_suite(), spec),
               ContractViolation);
}

TEST(BatchRunner, EmptyGridIsNeverFeasible) {
  BatchResult result;
  EXPECT_FALSE(result.all_feasible());
}

}  // namespace
}  // namespace dcn::engine
