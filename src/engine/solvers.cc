#include "engine/solvers.h"

#include <algorithm>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "baselines/baselines.h"
#include "common/contracts.h"
#include "common/interval.h"
#include "common/stats.h"
#include "sim/replay.h"

namespace dcn::engine {

namespace {

/// Outcome assembly for the online solvers: replay validates the
/// *admitted* subset (rejected flows receive no service by design, so
/// replaying them against their full volumes would always fail). The
/// full-size schedule (rejected rows empty) still travels in the
/// outcome for inspection.
SolverOutcome finish_online_outcome(const std::string& solver,
                                    const Instance& instance,
                                    OnlineResult result) {
  SolverOutcome out;
  out.solver = solver;
  out.instance = instance.name();

  auto [sub_flows, sub_schedule] =
      admitted_subset(instance.flows(), result.schedule, result.admitted);
  if (!sub_flows.empty()) {
    const ReplayReport replay = replay_schedule(instance.graph(), sub_flows,
                                                sub_schedule, instance.model());
    detail::apply_replay(out, replay);
  } else {
    // Nothing admitted: vacuously feasible, zero energy.
    out.feasible = true;
  }
  out.schedule = std::move(result.schedule);
  out.stats = {{"admitted", static_cast<double>(result.num_admitted)},
               {"rejected", static_cast<double>(result.num_rejected)},
               {"events", static_cast<double>(result.num_events)},
               // Load-index health: the live-segment working set that
               // bounds probe cost, and how much departed history the
               // low-water pruning folded away. Deterministic, unlike
               // the latency timings below.
               {"peak_live_segments",
                static_cast<double>(result.peak_live_segments)},
               {"load_segments_pruned",
                static_cast<double>(result.load_segments_pruned)}};
  // Wall-clock admission-decision latency percentiles ride in timings,
  // never stats: canonical output is byte-compared across --jobs.
  if (!result.decision_latency_ms.empty()) {
    out.timings = {
        {"decision_latency_p50_ms",
         percentile(result.decision_latency_ms, 0.50)},
        {"decision_latency_p99_ms",
         percentile(result.decision_latency_ms, 0.99)}};
  }
  return out;
}

/// The event loop's relaxation-rule diagnostics, in canonical key order
/// (shared by online_dcfsr and online_dcfsr_sharded, whose canonical
/// lines must stay drop-in comparable).
std::vector<std::pair<std::string, double>> event_loop_stats(
    const OnlineResult& r) {
  return {
      {"resolves", static_cast<double>(r.resolves)},
      {"fw_iterations", static_cast<double>(r.fw_iterations)},
      {"rounding_attempts", static_cast<double>(r.rounding_attempts)},
      {"batch_fallbacks", static_cast<double>(r.batch_fallbacks)},
      {"departure_gap_checks", static_cast<double>(r.departure_gap_checks)},
      {"gap_check_iterations", static_cast<double>(r.gap_check_iterations)},
      {"peak_in_flight", static_cast<double>(r.peak_in_flight)},
      {"first_lb", r.first_lower_bound},
      {"fw_sweeps", static_cast<double>(r.fw_stats.oracle_sweeps)},
      {"fw_edges_repriced", static_cast<double>(r.fw_stats.edges_repriced)},
      {"fw_ls_evals", static_cast<double>(r.fw_stats.line_search_evals)},
      // Re-rate diagnostics (all zero unless allow_rerate):
      // deterministic, the pass consumes no rng.
      {"rerate_attempts", static_cast<double>(r.rerate_attempts)},
      {"rerate_commits", static_cast<double>(r.rerate_commits)},
      {"rerated_flows", static_cast<double>(r.rerated_flows)}};
}

}  // namespace

// ---------------------------------------------------------------------------
// McfSolver

McfSolver::McfSolver(std::string name, DcfsOptions options, std::string description)
    : name_(std::move(name)),
      description_(std::move(description)),
      options_(options) {}

SolverOutcome McfSolver::solve(const Instance& instance) const {
  const std::vector<Path> paths =
      shortest_path_routing(instance.graph(), instance.flows());
  const DcfsResult r = most_critical_first(instance.graph(), instance.flows(),
                                           paths, instance.model(), options_);
  SolverOutcome out = finish_outcome(name_, instance, r.schedule);
  out.stats = {{"iterations", static_cast<double>(r.iterations)},
               {"speed_escalations", static_cast<double>(r.speed_escalations)},
               {"availability_fallbacks",
                static_cast<double>(r.availability_fallbacks)}};
  return out;
}

// ---------------------------------------------------------------------------
// RandomScheduleSolver

RandomScheduleSolver::RandomScheduleSolver(RandomScheduleOptions options)
    : options_(options) {}

std::string RandomScheduleSolver::description() const {
  return "Random-Schedule: fractional relaxation + randomized rounding "
         "(Algorithm 2)";
}

SolverOutcome RandomScheduleSolver::solve(const Instance& instance) const {
  Rng rng = solver_rng(instance, name());
  const RandomScheduleResult r = random_schedule(
      instance.graph(), instance.flows(), instance.model(), rng, options_);
  SolverOutcome out = finish_outcome(name(), instance, r.schedule);
  out.lower_bound = r.lower_bound_energy;
  // The fw_* phase counters are deterministic (no wall time here: stats
  // are byte-compared across --jobs and oracle thread counts).
  out.stats = {{"lambda", r.lambda},
               {"rounding_attempts", static_cast<double>(r.rounding_attempts)},
               {"capacity_feasible", r.capacity_feasible ? 1.0 : 0.0},
               {"mean_relative_gap", r.mean_relative_gap},
               {"fw_sweeps", static_cast<double>(r.fw_stats.oracle_sweeps)},
               {"fw_edges_repriced",
                static_cast<double>(r.fw_stats.edges_repriced)},
               {"fw_ls_evals",
                static_cast<double>(r.fw_stats.line_search_evals)}};
  if (!r.capacity_feasible && out.feasible) {
    // The last rounding draw violated link capacity; replay would have
    // flagged it, but keep the solver's own verdict authoritative too.
    out.feasible = false;
    out.first_issue = "no capacity-feasible rounding within attempt budget";
  }
  return out;
}

// ---------------------------------------------------------------------------
// EcmpMcfSolver

EcmpMcfSolver::EcmpMcfSolver(std::size_t width) : width_(width) {}

std::string EcmpMcfSolver::description() const {
  return "ECMP routing (width " + std::to_string(width_) +
         ") + Most-Critical-First";
}

SolverOutcome EcmpMcfSolver::solve(const Instance& instance) const {
  Rng rng = solver_rng(instance, name());
  const std::vector<Path> paths =
      ecmp_routing(instance.graph(), instance.flows(), width_, rng);
  const DcfsResult r = most_critical_first(instance.graph(), instance.flows(),
                                           paths, instance.model());
  SolverOutcome out = finish_outcome(name(), instance, r.schedule);
  out.stats = {{"iterations", static_cast<double>(r.iterations)},
               {"availability_fallbacks",
                static_cast<double>(r.availability_fallbacks)}};
  return out;
}

// ---------------------------------------------------------------------------
// GreedySolver

SolverOutcome GreedySolver::solve(const Instance& instance) const {
  Schedule schedule =
      greedy_energy_aware(instance.graph(), instance.flows(), instance.model());
  return finish_outcome(name(), instance, std::move(schedule));
}

// ---------------------------------------------------------------------------
// EdfSolver

SolverOutcome EdfSolver::solve(const Instance& instance) const {
  const Graph& g = instance.graph();
  const std::vector<Flow>& flows = instance.flows();
  const std::vector<Path> paths = shortest_path_routing(g, flows);

  // Deadline order, id tie-break (deterministic).
  std::vector<std::size_t> order(flows.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (flows[a].deadline != flows[b].deadline)
      return flows[a].deadline < flows[b].deadline;
    return flows[a].id < flows[b].id;
  });

  std::vector<IntervalSet> busy(static_cast<std::size_t>(g.num_edges()));
  Schedule schedule;
  schedule.flows.resize(flows.size());
  std::int32_t fallbacks = 0;

  for (const std::size_t i : order) {
    const Flow& flow = flows[i];
    const Path& path = paths[i];

    IntervalSet allowed{flow.span()};
    for (const EdgeId e : path.edges) {
      allowed.subtract(busy[static_cast<std::size_t>(e)]);
    }
    if (allowed.measure() <= 0.0) {
      // Span fully booked on some link: overlap (packet realization).
      allowed = IntervalSet{flow.span()};
      ++fallbacks;
    }

    const double rate = flow.volume / allowed.measure();
    schedule.flows[i].path = path;
    for (const Interval& iv : allowed.intervals()) {
      schedule.flows[i].segments.push_back({iv, rate});
      for (const EdgeId e : path.edges) {
        busy[static_cast<std::size_t>(e)].add(iv);
      }
    }
  }

  SolverOutcome out = finish_outcome(name(), instance, std::move(schedule));
  out.stats = {{"availability_fallbacks", static_cast<double>(fallbacks)}};
  return out;
}

// ---------------------------------------------------------------------------
// ExactSolver

ExactSolver::ExactSolver(ExactDcfsrOptions options) : options_(options) {}

std::string ExactSolver::description() const {
  return "exhaustive DCFSR optimum (" + std::to_string(options_.paths_per_flow) +
         " candidate paths per flow; tiny instances only)";
}

SolverOutcome ExactSolver::solve(const Instance& instance) const {
  const ExactDcfsrResult r =
      exact_dcfsr(instance.graph(), instance.flows(), instance.model(), options_);
  SolverOutcome out = finish_outcome(name(), instance, r.schedule);
  out.stats = {{"assignments_tried", static_cast<double>(r.assignments_tried)}};
  return out;
}

// ---------------------------------------------------------------------------
// OnlineDcfsrSolver

OnlineDcfsrSolver::OnlineDcfsrSolver(OnlineOptions options, std::string name)
    : options_(options), name_(std::move(name)) {}

SolverOutcome OnlineDcfsrSolver::solve(const Instance& instance) const {
  // Keyed to the offline algorithm's stream: the all-arrivals-at-t=0
  // degenerate case then reproduces dcfsr bit for bit.
  Rng rng = solver_rng(instance, "dcfsr");
  OnlineResult r = online_dcfsr(instance.graph(), instance.flows(),
                                instance.model(), rng, options_);
  const auto extra = event_loop_stats(r);
  SolverOutcome out = finish_online_outcome(name(), instance, std::move(r));
  out.stats.insert(out.stats.end(), extra.begin(), extra.end());
  return out;
}

// ---------------------------------------------------------------------------
// OnlineShardedSolver

OnlineShardedSolver::OnlineShardedSolver(OnlineOptions options,
                                         std::int32_t shards,
                                         std::int32_t workers, std::string name)
    : options_(options),
      shards_(shards),
      workers_(workers),
      name_(std::move(name)) {}

SolverOutcome OnlineShardedSolver::solve(const Instance& instance) const {
  // Same stream key as the rest of the dcfsr family: the single-lane
  // case is then online_dcfsr draw for draw.
  Rng rng = solver_rng(instance, "dcfsr");
  const ShardPlan plan =
      ShardPlan::by_source_group(instance.topology(), shards_);
  OnlineResult r =
      online_dcfsr_sharded(instance.graph(), instance.flows(),
                           instance.model(), rng, options_, plan, workers_);
  auto extra = event_loop_stats(r);
  // The decomposition (groups) is topology-fixed; lanes are the
  // concurrency cap actually in effect. Both deterministic.
  extra.emplace_back("shard_groups", static_cast<double>(plan.num_groups()));
  extra.emplace_back("shard_lanes", static_cast<double>(plan.num_lanes()));
  SolverOutcome out = finish_online_outcome(name(), instance, std::move(r));
  out.stats.insert(out.stats.end(), extra.begin(), extra.end());
  return out;
}

// ---------------------------------------------------------------------------
// OracleDcfsrSolver

OracleDcfsrSolver::OracleDcfsrSolver(OnlineOptions options)
    : options_(options) {}

SolverOutcome OracleDcfsrSolver::solve(const Instance& instance) const {
  // The offline algorithm's stream: when the joint rounding is
  // capacity-feasible the oracle is offline dcfsr bit for bit.
  Rng rng = solver_rng(instance, "dcfsr");
  OnlineResult r = oracle_dcfsr(instance.graph(), instance.flows(),
                                instance.model(), rng, options_);
  const std::vector<std::pair<std::string, double>> extra = {
      {"resolves", static_cast<double>(r.resolves)},
      {"fw_iterations", static_cast<double>(r.fw_iterations)},
      {"rounding_attempts", static_cast<double>(r.rounding_attempts)},
      {"batch_fallbacks", static_cast<double>(r.batch_fallbacks)},
      {"peak_in_flight", static_cast<double>(r.peak_in_flight)},
      {"first_lb", r.first_lower_bound},
      {"fw_sweeps", static_cast<double>(r.fw_stats.oracle_sweeps)},
      {"fw_edges_repriced", static_cast<double>(r.fw_stats.edges_repriced)},
      {"fw_ls_evals", static_cast<double>(r.fw_stats.line_search_evals)},
      // Admitted counts of the two contended fallback orders (-1 when
      // the joint rounding was feasible and no fallback ran); the
      // oracle committed whichever order admitted more.
      {"oracle_rcd_admitted", static_cast<double>(r.oracle_rcd_admitted)},
      {"oracle_density_admitted",
       static_cast<double>(r.oracle_density_admitted)}};
  SolverOutcome out = finish_online_outcome(name(), instance, std::move(r));
  out.stats.insert(out.stats.end(), extra.begin(), extra.end());
  return out;
}

// ---------------------------------------------------------------------------
// OnlineGreedySolver

SolverOutcome OnlineGreedySolver::solve(const Instance& instance) const {
  OnlineResult r =
      online_greedy(instance.graph(), instance.flows(), instance.model());
  const double edf_fallbacks = static_cast<double>(r.edf_fallbacks);
  SolverOutcome out = finish_online_outcome(name(), instance, std::move(r));
  out.stats.emplace_back("edf_fallbacks", edf_fallbacks);
  return out;
}

}  // namespace dcn::engine
