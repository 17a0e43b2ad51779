// Tests for the engine layer: Instance, SolverRegistry, ScenarioSuite,
// and the solver adapters' replay-validated outcomes.
#include <gtest/gtest.h>

#include <memory>

#include "common/contracts.h"
#include "engine/instance.h"
#include "engine/registry.h"
#include "engine/scenario.h"
#include "engine/solver.h"
#include "engine/solvers.h"

namespace dcn::engine {
namespace {

TEST(SolverRegistry, DefaultRegistryCarriesEveryAlgorithm) {
  const SolverRegistry& registry = default_registry();
  for (const char* name :
       {"mcf", "mcf_paper", "mcf_plain", "sp_mcf", "dcfsr", "ecmp_mcf",
        "greedy", "edf", "exact", "online_dcfsr", "online_dcfsr_flat",
        "online_dcfsr_preempt", "online_dcfsr_sharded", "online_greedy",
        "oracle_dcfsr"}) {
    EXPECT_TRUE(registry.contains(name)) << name;
    const std::unique_ptr<Solver> solver = registry.create(name);
    EXPECT_EQ(solver->name(), name);
    EXPECT_FALSE(solver->description().empty());
  }
  EXPECT_EQ(registry.size(), 15u);
}

TEST(SolverRegistry, UnknownSolverThrowsWithCatalogue) {
  const SolverRegistry& registry = default_registry();
  EXPECT_FALSE(registry.contains("no_such_solver"));
  try {
    (void)registry.create("no_such_solver");
    FAIL() << "expected UnknownSolverError";
  } catch (const UnknownSolverError& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("no_such_solver"), std::string::npos);
    // The message must help the caller: it lists what *is* registered.
    EXPECT_NE(message.find("dcfsr"), std::string::npos);
    EXPECT_NE(message.find("mcf"), std::string::npos);
  }
}

TEST(SolverRegistry, RejectsDuplicateAndEmptyNames) {
  SolverRegistry registry;
  registry.add("edf", [] { return std::make_unique<EdfSolver>(); });
  EXPECT_THROW(
      registry.add("edf", [] { return std::make_unique<EdfSolver>(); }),
      ContractViolation);
  EXPECT_THROW(
      registry.add("", [] { return std::make_unique<EdfSolver>(); }),
      ContractViolation);
  EXPECT_THROW(registry.add("x", nullptr), ContractViolation);
}

TEST(ScenarioSuite, NamesAreTheFullCross) {
  const ScenarioSuite& suite = ScenarioSuite::default_suite();
  const auto topos = suite.topology_names();
  const auto works = suite.workload_names();
  const auto names = suite.names();
  EXPECT_EQ(names.size(), topos.size() * works.size());
  EXPECT_TRUE(suite.contains("fat_tree/paper"));
  EXPECT_TRUE(suite.contains("leaf_spine/incast"));
  EXPECT_FALSE(suite.contains("fat_tree"));          // no workload part
  EXPECT_FALSE(suite.contains("fat_tree/unknown"));  // unknown workload
}

TEST(ScenarioSuite, UnknownSpecThrowsWithCatalogue) {
  const ScenarioSuite& suite = ScenarioSuite::default_suite();
  try {
    (void)suite.build("not_a_topo/paper", 1);
    FAIL() << "expected UnknownScenarioError";
  } catch (const UnknownScenarioError& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("not_a_topo"), std::string::npos);
    EXPECT_NE(message.find("fat_tree"), std::string::npos);
    EXPECT_NE(message.find("incast"), std::string::npos);
  }
  EXPECT_THROW((void)suite.build("no_slash", 1), UnknownScenarioError);
}

TEST(ScenarioSuite, BuildIsAPureFunctionOfSpecSeedOptions) {
  const ScenarioSuite& suite = ScenarioSuite::default_suite();
  const Instance a = suite.build("fat_tree/paper", 7);
  const Instance b = suite.build("fat_tree/paper", 7);
  ASSERT_EQ(a.flows().size(), b.flows().size());
  EXPECT_EQ(a.flows(), b.flows());
  EXPECT_EQ(a.name(), "fat_tree/paper#7");
  EXPECT_EQ(a.seed(), 7u);

  // Different seed, different workload.
  const Instance c = suite.build("fat_tree/paper", 8);
  EXPECT_NE(a.flows(), c.flows());
}

TEST(ScenarioSuite, EveryScenarioBuildsAValidInstance) {
  const ScenarioSuite& suite = ScenarioSuite::default_suite();
  ScenarioOptions options;
  options.num_flows = 6;  // keep the sweep fast
  for (const std::string& spec : suite.names()) {
    // Skip the two 128-host fabrics here; covered by benches.
    if (spec.find("fat_tree8") == 0 || spec.find("leaf_spine_wide") == 0) {
      continue;
    }
    const Instance instance = suite.build(spec, 11, options);
    EXPECT_FALSE(instance.flows().empty()) << spec;
    EXPECT_GT(instance.horizon().measure(), 0.0) << spec;
    EXPECT_FALSE(instance.summary().empty()) << spec;
  }
}

TEST(ScenarioSuite, OptionsShapeThePowerModel) {
  const ScenarioSuite& suite = ScenarioSuite::default_suite();
  ScenarioOptions options;
  options.alpha = 4.0;
  options.sigma = 0.5;
  const Instance instance = suite.build("line/paper", 1, options);
  EXPECT_DOUBLE_EQ(instance.model().alpha(), 4.0);
  EXPECT_DOUBLE_EQ(instance.model().sigma(), 0.5);
}

TEST(SolverRng, DependsOnInstanceAndSolverOnly) {
  const ScenarioSuite& suite = ScenarioSuite::default_suite();
  const Instance a = suite.build("fat_tree/paper", 1);
  Rng r1 = solver_rng(a, "dcfsr");
  Rng r2 = solver_rng(a, "dcfsr");
  EXPECT_EQ(r1(), r2());  // same stream
  Rng r3 = solver_rng(a, "ecmp_mcf");
  Rng r4 = solver_rng(suite.build("fat_tree/paper", 2), "dcfsr");
  Rng r5 = solver_rng(a, "dcfsr");
  const auto first = r5();
  EXPECT_NE(first, r3());  // other solver, other stream
  EXPECT_NE(first, r4());  // other seed, other stream
}

class SolverOutcomeTest : public ::testing::Test {
 protected:
  const ScenarioSuite& suite_ = ScenarioSuite::default_suite();
  ScenarioOptions small_ = [] {
    ScenarioOptions o;
    o.num_flows = 10;
    return o;
  }();
};

TEST_F(SolverOutcomeTest, EveryDeterministicSolverIsReplayValidated) {
  const Instance instance = suite_.build("fat_tree/paper", 5, small_);
  for (const char* name :
       {"mcf", "mcf_paper", "mcf_plain", "greedy", "edf", "online_greedy"}) {
    const SolverOutcome out = default_registry().create(name)->solve(instance);
    EXPECT_TRUE(out.feasible) << name << ": " << out.first_issue;
    EXPECT_GT(out.energy, 0.0) << name;
    EXPECT_EQ(out.solver, name);
    EXPECT_EQ(out.instance, "fat_tree/paper#5");
  }
}

TEST_F(SolverOutcomeTest, RandomizedSolversAreReplayValidatedAndDeterministic) {
  const Instance instance = suite_.build("fat_tree/paper", 5, small_);
  for (const char* name : {"dcfsr", "ecmp_mcf", "online_dcfsr"}) {
    const SolverOutcome a = default_registry().create(name)->solve(instance);
    const SolverOutcome b = default_registry().create(name)->solve(instance);
    EXPECT_TRUE(a.feasible) << name << ": " << a.first_issue;
    EXPECT_EQ(canonical_summary(a), canonical_summary(b)) << name;
  }
}

TEST_F(SolverOutcomeTest, DcfsrReportsALowerBoundBelowItsEnergy) {
  const Instance instance = suite_.build("fat_tree/paper", 5, small_);
  const SolverOutcome out = default_registry().create("dcfsr")->solve(instance);
  EXPECT_GT(out.lower_bound, 0.0);
  // LB is a bound on the optimum; the rounded schedule can only cost more
  // (up to float tolerance).
  EXPECT_GE(out.energy, out.lower_bound * (1.0 - 1e-9));
}

TEST_F(SolverOutcomeTest, ExactMatchesMcfWhenRoutingIsForced) {
  // On the line topology there is a single simple path per flow, so the
  // exhaustive optimum and SP+MCF coincide exactly.
  ScenarioOptions options;
  options.num_flows = 4;
  const Instance instance = suite_.build("line/paper", 3, options);
  const SolverOutcome exact = default_registry().create("exact")->solve(instance);
  const SolverOutcome mcf = default_registry().create("mcf")->solve(instance);
  EXPECT_TRUE(exact.feasible) << exact.first_issue;
  EXPECT_DOUBLE_EQ(exact.energy, mcf.energy);
}

TEST_F(SolverOutcomeTest, CanonicalSummaryIsStableAndTimingFree) {
  const Instance instance = suite_.build("line/paper", 3, small_);
  const SolverOutcome out = default_registry().create("mcf")->solve(instance);
  const std::string summary = canonical_summary(out);
  EXPECT_NE(summary.find("solver=mcf"), std::string::npos);
  EXPECT_NE(summary.find("instance=line/paper#3"), std::string::npos);
  EXPECT_NE(summary.find("feasible=1"), std::string::npos);
  EXPECT_EQ(summary.find("ms"), std::string::npos);  // no wall-clock leakage
  EXPECT_EQ(summary, canonical_summary(out));
}

}  // namespace
}  // namespace dcn::engine
