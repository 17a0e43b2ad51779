// dcn_run — the single entry point for engine experiments.
//
// Runs any solver x scenario x seed grid through the parallel
// BatchRunner, replays every schedule, and prints per-cell lines plus a
// per-solver aggregate table.
//
//   dcn_run --solver mcf --scenario fat_tree/paper --seed 1
//   dcn_run --solver dcfsr,mcf,greedy --scenario fat_tree/shuffle
//           --seeds 1,2,3 --jobs 8
//   dcn_run --solver all --scenario fat_tree/paper --flows 60
//   dcn_run --list
//
// Flags:
//   --solver a,b,..    solvers to run; "all" = every registered solver
//                      except exact (name it explicitly to include the
//                      exhaustive solver, which refuses big instances) [mcf]
//   --scenario s,..    "<topology>/<workload>" specs      [fat_tree/paper]
//   --seed n           single seed                        [1]
//   --seeds a,b,..     seed list (overrides --seed)
//   --jobs n           worker threads                     [1]
//   --flows n          flow count (paper/slack/permutation/online)
//   --alpha x          power exponent                     [2]
//   --sigma x          idle power                         [0]
//   --senders n        incast fan-in                      [8]
//   --volume x         per-flow volume (pattern workloads)
//   --rate x           Poisson arrival rate (poisson/websearch/hadoop) [2]
//   --slack x          deadline looseness (slack/online workloads) [2]
//   --capacity x       link capacity; finite values make the online
//                      solvers' admission control bite    [inf]
//   --verbose          per-cell canonical lines
//   --canonical        dump the full canonical result (for diffing)
//   --list             list solvers and scenarios, then exit
//
// Sustained-stream service mode (--serve): instead of a batch grid,
// runs the sharded always-on scheduler over a pull-based Poisson
// arrival stream — the trace is synthesized on demand and never
// materialized, so 100k+ arrivals run in bounded memory. The stream
// reproduces, flow for flow, the trace the scenario would materialize
// with the same seed and knobs, and the scheduler consumes the same
// rng stream as the online_dcfsr_sharded batch solver.
//
//   dcn_run --serve --scenario fat_tree8/poisson --seed 1
//           --arrivals 100000 --rate 8 --capacity 3 --flush-every 10000
//
// Serve flags (plus --seed/--flows-family knobs above where noted):
//   --arrivals n       arrivals to stream                  [10000]
//   --shards n         shard lanes (0 = one per source group) [0]
//   --workers n        phase-A threads (0 = hardware)      [0]
//   --epoch x          admission epoch                     [0.5]
//   --window x         lookahead window                    [2]
//   --flush-every n    arrivals between stats flushes (0 = off) [10000]
//   --rerate           enable deadline-safe re-rating
//   --audit            load-index audit shadow + warm-state sweeps (slow)
//
// Exit status: 0 when every cell produced a replay-validated schedule
// (batch mode) / the stream drained (serve mode); 2 on a usage error
// (serve mode: a bad flag value or an out-of-contract knob).
#include <cstdint>
#include <cstdio>
#include <exception>
#include <string>
#include <utility>
#include <vector>

#include "engine/batch_runner.h"
#include "common/stats.h"
#include "engine/cli.h"
#include "online/event_stream.h"
#include "online/sharded.h"

namespace {

double latency_percentile(const std::vector<double>& xs, double p) {
  return xs.empty() ? 0.0 : dcn::percentile(xs, p);
}

int run_serve(const dcn::cli::Args& args,
              const dcn::engine::ScenarioSuite& suite) {
  using namespace dcn;
  using namespace dcn::engine;

  const std::string spec = args.get("scenario", "fat_tree8/poisson");
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  const std::int64_t arrivals = args.get_int("arrivals", 10000);
  if (arrivals < 0) {
    std::fprintf(stderr, "dcn_run --serve: --arrivals must be >= 0\n");
    return 2;
  }

  const std::size_t slash = spec.find('/');
  const std::string workload =
      slash == std::string::npos ? "" : spec.substr(slash + 1);
  SizeModel size_model;
  if (workload == "poisson") {
    size_model = SizeModel::kFixed;
  } else if (workload == "websearch") {
    size_model = SizeModel::kWebSearch;
  } else if (workload == "hadoop") {
    size_model = SizeModel::kHadoop;
  } else {
    std::fprintf(stderr,
                 "dcn_run --serve: scenario workload must be an arrival "
                 "process (poisson|websearch|hadoop), got \"%s\"\n",
                 spec.c_str());
    return 2;
  }

  ScenarioOptions options;
  options.alpha = args.get_double("alpha", options.alpha);
  options.sigma = args.get_double("sigma", options.sigma);
  options.volume = args.get_double("volume", options.volume);
  options.arrival_rate = args.get_double("rate", options.arrival_rate);
  options.slack = args.get_double("slack", options.slack);
  options.capacity = args.get_double("capacity", options.capacity);

  // The registered online_dcfsr_sharded configuration (the calibrated
  // Frank-Wolfe budget on the flat-latency options), overridable per
  // run; --audit turns on the load-index shadow + warm-state sweeps.
  OnlineOptions online;
  online.rounding.relaxation.frank_wolfe.max_iterations = 12;
  online.rounding.relaxation.frank_wolfe.gap_tolerance = 1e-3;
  online.lookahead_window = args.get_double("window", 2.0);
  online.epoch = args.get_double("epoch", 0.5);
  if (!(online.epoch >= 0.0) || !(online.lookahead_window >= 0.0)) {
    std::fprintf(stderr,
                 "dcn_run --serve: --epoch and --window must be >= 0\n");
    return 2;
  }
  online.allow_rerate = args.has_flag("rerate");
  online.audit_load_index = args.has_flag("audit");

  // Built before the header line, so an out-of-contract power knob
  // fails before anything reads like a started run.
  const PowerModel model = options.power_model();
  auto [topology, stream_rng] = suite.build_topology(spec, seed);
  PoissonEventStream stream(topology,
                            online_workload_params(options, size_model),
                            stream_rng, arrivals);
  const ShardPlan plan = ShardPlan::by_source_group(
      topology, static_cast<std::int32_t>(args.get_int("shards", 0)));
  const auto workers = static_cast<std::int32_t>(args.get_int("workers", 0));
  const std::int64_t flush_every = args.get_int("flush-every", 10000);

  std::printf(
      "dcn_run --serve: %s seed=%llu arrivals=%lld rate=%g capacity=%g "
      "groups=%d lanes=%d epoch=%g window=%g rerate=%d audit=%d\n",
      spec.c_str(), static_cast<unsigned long long>(seed),
      static_cast<long long>(arrivals), options.arrival_rate, options.capacity,
      plan.num_groups(), plan.num_lanes(), online.epoch,
      online.lookahead_window, online.allow_rerate ? 1 : 0,
      online.audit_load_index ? 1 : 0);

  // The batch solver's exact stream key (see engine::solver_rng): a
  // serve run consumes the identical rng online_dcfsr_sharded would on
  // the materialized "<spec>#<seed>" instance.
  Rng rng(mix_seed(seed, spec + "#" + std::to_string(seed) + "|dcfsr"));

  auto on_flush = [](const StreamFlushStats& s) {
    std::printf(
        "serve t=%.2f arrivals=%lld admitted=%d rejected=%d completed=%lld "
        "in_flight=%d resolves=%d p50=%.3fms p99=%.3fms live_segments=%d "
        "pruned=%lld rss=%lldKB\n",
        s.now, static_cast<long long>(s.arrivals), s.admitted, s.rejected,
        static_cast<long long>(s.completed), s.in_flight, s.resolves, s.p50_ms,
        s.p99_ms, s.peak_live_segments,
        static_cast<long long>(s.segments_pruned),
        static_cast<long long>(s.peak_rss_kb));
    std::fflush(stdout);
  };

  OnlineResult result =
      run_online_stream(topology.graph(), stream, model, rng, online, plan,
                        workers, flush_every, on_flush,
                        /*discard_completed=*/true);

  // Deterministic counters first (byte-comparable across runs and
  // worker counts), wall-clock and RSS on their own line.
  std::printf(
      "serve done: arrivals=%lld events=%d admitted=%d rejected=%d "
      "peak_in_flight=%d resolves=%d batch_fallbacks=%d rounding_attempts=%d "
      "rerate_commits=%d peak_live_segments=%d segments_pruned=%lld\n",
      static_cast<long long>(result.num_admitted + result.num_rejected),
      result.num_events, result.num_admitted, result.num_rejected,
      result.peak_in_flight, result.resolves, result.batch_fallbacks,
      result.rounding_attempts, result.rerate_commits,
      result.peak_live_segments,
      static_cast<long long>(result.load_segments_pruned));
  std::printf("serve timings: p50=%.3f ms p99=%.3f ms peak_rss=%lld KB\n",
              latency_percentile(result.decision_latency_ms, 0.50),
              latency_percentile(result.decision_latency_ms, 0.99),
              static_cast<long long>(peak_rss_kb()));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dcn;
  using namespace dcn::engine;
  const cli::Args args(argc, argv);

  const SolverRegistry& registry = default_registry();
  const ScenarioSuite& suite = ScenarioSuite::default_suite();

  if (args.has_flag("serve")) {
    // Out-of-contract knobs (--capacity 0, --rate 0, ...) surface as
    // ContractViolation from the model or workload builders: a usage
    // error like a bad flag, not an abort.
    try {
      return run_serve(args, suite);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "dcn_run --serve: %s\n", e.what());
      return 2;
    }
  }

  if (args.has_flag("list")) {
    std::printf("solvers:\n");
    for (const std::string& name : registry.names()) {
      std::printf("  %-12s %s\n", name.c_str(),
                  registry.create(name)->description().c_str());
    }
    std::printf("\nscenarios (<topology>/<workload>):\n  topologies:");
    for (const std::string& name : suite.topology_names()) {
      std::printf(" %s", name.c_str());
    }
    std::printf("\n  workloads: ");
    for (const std::string& name : suite.workload_names()) {
      std::printf(" %s", name.c_str());
    }
    std::printf("\n");
    return 0;
  }

  BatchSpec spec;
  spec.solvers = args.get_list("solver", {"mcf"});
  if (spec.solvers.size() == 1 && spec.solvers[0] == "all") {
    // "all" means every solver that can attempt any instance; exact
    // (exhaustive, tiny instances only) must be named explicitly, so
    // `--solver all` keeps its exit-0 = replay-validated contract.
    spec.solvers.clear();
    for (const std::string& name : registry.names()) {
      if (name != "exact") spec.solvers.push_back(name);
    }
  }
  spec.scenarios = args.get_list("scenario", {"fat_tree/paper"});
  if (spec.scenarios.size() == 1 && spec.scenarios[0] == "all") {
    spec.scenarios = suite.names();
  }
  spec.seeds.clear();
  for (const std::int64_t s : args.get_int_list("seeds", {args.get_int("seed", 1)})) {
    spec.seeds.push_back(static_cast<std::uint64_t>(s));
  }
  spec.jobs = static_cast<std::int32_t>(args.get_int("jobs", 1));
  spec.options.num_flows = static_cast<std::int32_t>(
      args.get_int("flows", spec.options.num_flows));
  spec.options.alpha = args.get_double("alpha", spec.options.alpha);
  spec.options.sigma = args.get_double("sigma", spec.options.sigma);
  spec.options.senders = static_cast<std::int32_t>(
      args.get_int("senders", spec.options.senders));
  spec.options.volume = args.get_double("volume", spec.options.volume);
  spec.options.arrival_rate = args.get_double("rate", spec.options.arrival_rate);
  spec.options.slack = args.get_double("slack", spec.options.slack);
  spec.options.capacity = args.get_double("capacity", spec.options.capacity);
  spec.discard_schedules = true;

  const bool canonical = args.has_flag("canonical");
  if (!canonical) {
    std::printf("dcn_run: %zu solver(s) x %zu scenario(s) x %zu seed(s), "
                "jobs=%d, flows=%d, alpha=%g, sigma=%g\n",
                spec.solvers.size(), spec.scenarios.size(), spec.seeds.size(),
                spec.jobs, spec.options.num_flows, spec.options.alpha,
                spec.options.sigma);
  }

  BatchResult result;
  try {
    result = run_batch(registry, suite, spec);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dcn_run: %s\n", e.what());
    return 2;
  }

  if (canonical) {
    std::fputs(result.canonical().c_str(), stdout);
    return result.all_feasible() ? 0 : 1;
  }

  if (args.has_flag("verbose")) {
    for (const auto& cell : result.cells) {
      if (cell.ran) {
        std::printf("%s seed=%llu %s (%.0f ms)\n", cell.scenario.c_str(),
                    static_cast<unsigned long long>(cell.seed),
                    canonical_summary(cell.outcome).c_str(), cell.elapsed_ms);
      } else {
        std::printf("%s seed=%llu solver=%s FAILED: %s\n", cell.scenario.c_str(),
                    static_cast<unsigned long long>(cell.seed),
                    cell.solver.c_str(), cell.error.c_str());
      }
    }
    std::printf("\n");
  } else {
    for (const auto& cell : result.cells) {
      if (!cell.ran) {
        std::printf("!! %s seed=%llu solver=%s failed: %s\n",
                    cell.scenario.c_str(),
                    static_cast<unsigned long long>(cell.seed),
                    cell.solver.c_str(), cell.error.c_str());
      } else if (!cell.outcome.feasible) {
        std::printf("!! %s seed=%llu solver=%s infeasible: %s\n",
                    cell.scenario.c_str(),
                    static_cast<unsigned long long>(cell.seed),
                    cell.solver.c_str(), cell.outcome.first_issue.c_str());
      }
    }
  }

  std::fputs(result.table().c_str(), stdout);
  const bool ok = result.all_feasible();
  std::printf("%s\n", ok ? "all schedules replay-validated"
                         : "NOT all schedules replay-validated");
  return ok ? 0 : 1;
}
