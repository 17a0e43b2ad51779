#include "engine/registry.h"

#include "common/contracts.h"
#include "engine/solvers.h"

namespace dcn::engine {

void SolverRegistry::add(const std::string& name, Factory factory) {
  DCN_EXPECTS(!name.empty());
  DCN_EXPECTS(factory != nullptr);
  DCN_EXPECTS(!factories_.contains(name));
  factories_.emplace(name, std::move(factory));
}

std::unique_ptr<Solver> SolverRegistry::create(const std::string& name) const {
  const auto it = factories_.find(name);
  if (it == factories_.end()) {
    std::string message = "unknown solver \"" + name + "\"; known solvers:";
    for (const auto& [known, factory] : factories_) message += " " + known;
    throw UnknownSolverError(message);
  }
  return it->second();
}

bool SolverRegistry::contains(const std::string& name) const {
  return factories_.contains(name);
}

std::vector<std::string> SolverRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(factories_.size());
  for (const auto& [name, factory] : factories_) out.push_back(name);
  return out;
}

namespace {

/// The calibrated Frank-Wolfe budget shared by every dcfsr-family
/// solver — the single place a recalibration lands.
///
/// v2 calibration (pairwise cold solves, the default step rule): 12
/// iterations at gap 1e-3. Criterion: LB moves < 0.5% versus a 4x
/// larger budget across the scenario grid (see EXPERIMENTS.md for the
/// sweep).
FrankWolfeOptions CalibratedFwBudget() {
  FrankWolfeOptions fw;
  fw.max_iterations = 12;
  fw.gap_tolerance = 1e-3;
  return fw;
}

}  // namespace

const SolverRegistry& default_registry() {
  static const SolverRegistry registry = [] {
    SolverRegistry r;
    r.add("mcf", [] { return std::make_unique<McfSolver>("mcf"); });
    // The paper's Fig. 2 baseline under its own name.
    r.add("sp_mcf", [] {
      return std::make_unique<McfSolver>(
          "sp_mcf", DcfsOptions{},
          "alias of mcf: the paper's SP+MCF baseline");
    });
    r.add("mcf_paper", [] {
      DcfsOptions options;
      options.circuit_exact = false;
      return std::make_unique<McfSolver>(
          "mcf_paper", options,
          "SP routing + paper-literal Algorithm 1 (per-critical-link "
          "availability)");
    });
    r.add("mcf_plain", [] {
      DcfsOptions options;
      options.use_virtual_weights = false;
      return std::make_unique<McfSolver>(
          "mcf_plain", options,
          "SP routing + MCF without virtual weights (Theorem 1 ablation)");
    });
    // Pairwise step rule (the FrankWolfeOptions default) with the
    // adaptive parallel oracle under the shared calibrated budget.
    r.add("dcfsr", [] {
      RandomScheduleOptions options;
      options.relaxation.frank_wolfe = CalibratedFwBudget();
      return std::make_unique<RandomScheduleSolver>(options);
    });
    r.add("ecmp_mcf", [] { return std::make_unique<EcmpMcfSolver>(); });
    r.add("greedy", [] { return std::make_unique<GreedySolver>(); });
    r.add("edf", [] { return std::make_unique<EdfSolver>(); });
    r.add("exact", [] { return std::make_unique<ExactSolver>(); });
    // Online arrivals (src/online): the same calibrated Frank-Wolfe
    // budget (and, via the defaults, the same pairwise rule) as dcfsr,
    // so the all-at-t=0 degenerate case is the offline run bit for bit.
    r.add("online_dcfsr", [] {
      OnlineOptions options;
      options.rounding.relaxation.frank_wolfe = CalibratedFwBudget();
      return std::make_unique<OnlineDcfsrSolver>(options);
    });
    // Flat-latency configuration: interval-windowed re-solves plus
    // epoch-batched admission on top of the calibrated budget. The
    // window (2 time units) covers the generated workloads' span scale
    // (~2.5 for the bench poisson traces), so the residual relaxation's
    // interval decomposition stops growing with the longest remaining
    // deadline; the 0.5 epoch batches ~arrival_rate/2 arrivals per
    // joint re-solve. Trades up to 0.5 trace-time units of admission
    // delay for a per-event wall clock that stays flat into the tens
    // of thousands of arrivals (the BENCH_online sweep's 16k point).
    r.add("online_dcfsr_flat", [] {
      OnlineOptions options;
      options.rounding.relaxation.frank_wolfe = CalibratedFwBudget();
      options.lookahead_window = 2.0;
      options.epoch = 0.5;
      return std::make_unique<OnlineDcfsrSolver>(options, "online_dcfsr_flat");
    });
    // The flat configuration with deadline-safe re-rating of admitted
    // flows (PDQ-style preemption, re-rate never re-route): an arrival
    // that does not fit against the committed load may reshape the
    // future rate profiles of in-flight flows sharing its path, behind
    // a commit barrier that keeps every admitted deadline inviolable.
    // With allow_rerate off this is online_dcfsr_flat byte for byte
    // (anchored in tests/online_differential_test.cc).
    r.add("online_dcfsr_preempt", [] {
      OnlineOptions options;
      options.rounding.relaxation.frank_wolfe = CalibratedFwBudget();
      options.lookahead_window = 2.0;
      options.epoch = 0.5;
      options.allow_rerate = true;
      return std::make_unique<OnlineDcfsrSolver>(options,
                                                 "online_dcfsr_preempt");
    });
    // The sharded always-on service on the flat-latency configuration:
    // flows partitioned by source edge-group, shard workers re-solving
    // per group, a serial core-link coordinator arbitrating commits
    // against the global load index. shards = 0 means one lane per
    // group; the output is byte-identical for any shard count >= 2 and
    // any worker count (topologies with a single source group run the
    // single-group plan, i.e. online_dcfsr).
    r.add("online_dcfsr_sharded", [] {
      OnlineOptions options;
      options.rounding.relaxation.frank_wolfe = CalibratedFwBudget();
      options.lookahead_window = 2.0;
      options.epoch = 0.5;
      return std::make_unique<OnlineShardedSolver>(options);
    });
    r.add("online_greedy", [] { return std::make_unique<OnlineGreedySolver>(); });
    // Hindsight admission oracle: the same calibrated budget as dcfsr,
    // so the joint-feasible case (e.g. infinite capacity) is offline
    // dcfsr bit for bit; bench_online divides the online solvers'
    // admitted counts and energies by this row's.
    r.add("oracle_dcfsr", [] {
      OnlineOptions options;
      options.rounding.relaxation.frank_wolfe = CalibratedFwBudget();
      return std::make_unique<OracleDcfsrSolver>(options);
    });
    return r;
  }();
  return registry;
}

}  // namespace dcn::engine
