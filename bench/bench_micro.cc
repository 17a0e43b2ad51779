// Micro-benchmarks (google-benchmark): runtime scaling of the library's
// algorithmic kernels — interval algebra, EDF, YDS, Most-Critical-First,
// Frank-Wolfe F-MCF solves, interval decomposition, path extraction and
// full Random-Schedule — as input sizes grow.
#include <benchmark/benchmark.h>

#include "baselines/baselines.h"
#include "bench_util.h"
#include "common/random.h"
#include "dcfs/most_critical_first.h"
#include "dcfsr/random_schedule.h"
#include "flow/workload.h"
#include "graph/flow_decomposition.h"
#include "graph/k_shortest.h"
#include "mcf/relaxation.h"
#include "opt/convex_mcf.h"
#include "schedule/edf.h"
#include "speedscale/yds.h"
#include "topology/builders.h"

namespace dcn {
namespace {

/// Surfaces the per-phase Frank-Wolfe work as benchmark counters so a
/// perf diff can be attributed (oracle vs repricing vs line search)
/// straight from the bench output.
void report_fw_stats(benchmark::State& state, const FrankWolfeStats& stats) {
  state.counters["fw_sweeps"] =
      benchmark::Counter(static_cast<double>(stats.oracle_sweeps));
  state.counters["fw_edges_repriced"] =
      benchmark::Counter(static_cast<double>(stats.edges_repriced));
  state.counters["fw_ls_evals"] =
      benchmark::Counter(static_cast<double>(stats.line_search_evals));
  state.counters["oracle_ms"] = benchmark::Counter(stats.oracle_seconds * 1e3);
  state.counters["reprice_ms"] =
      benchmark::Counter(stats.reprice_seconds * 1e3);
  state.counters["ls_ms"] =
      benchmark::Counter(stats.line_search_seconds * 1e3);
}

void BM_IntervalSetOps(benchmark::State& state) {
  const auto n = static_cast<int>(state.range(0));
  Rng rng(7);
  for (auto _ : state) {
    IntervalSet s;
    for (int i = 0; i < n; ++i) {
      double a = rng.uniform(0.0, 100.0);
      double b = a + rng.uniform(0.1, 5.0);
      if (rng.uniform() < 0.7) {
        s.add({a, b});
      } else {
        s.subtract({a, b});
      }
    }
    benchmark::DoNotOptimize(s.measure());
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_IntervalSetOps)->Range(16, 1024)->Complexity();

void BM_PreemptiveEdf(benchmark::State& state) {
  const auto n = static_cast<int>(state.range(0));
  Rng rng(11);
  std::vector<EdfJob> jobs;
  for (int i = 0; i < n; ++i) {
    const double r = rng.uniform(0.0, 100.0);
    const double d = r + rng.uniform(5.0, 30.0);
    jobs.push_back({i, d, rng.uniform(0.1, 1.0), IntervalSet{Interval{r, d}}});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(preemptive_edf(jobs));
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_PreemptiveEdf)->Range(8, 256)->Complexity();

void BM_YdsSchedule(benchmark::State& state) {
  const auto n = static_cast<int>(state.range(0));
  Rng rng(13);
  std::vector<SsJob> jobs;
  for (int i = 0; i < n; ++i) {
    double a = rng.uniform(0.0, 100.0);
    double b = a + rng.uniform(1.0, 30.0);
    jobs.push_back({i, rng.uniform(0.5, 8.0), {a, b}});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(yds_schedule(jobs));
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_YdsSchedule)->Range(8, 128)->Complexity();

void BM_MostCriticalFirst(benchmark::State& state) {
  const auto n = static_cast<int>(state.range(0));
  const Topology topo = fat_tree(8);
  Rng rng(17);
  PaperWorkloadParams params;
  params.num_flows = n;
  const auto flows = paper_workload(topo, params, rng);
  const auto paths = shortest_path_routing(topo.graph(), flows);
  const PowerModel model = PowerModel::pure_speed_scaling(2.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(most_critical_first(topo.graph(), flows, paths, model));
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_MostCriticalFirst)->Arg(40)->Arg(80)->Arg(160)->Complexity();

void BM_ConvexMcfSolve(benchmark::State& state) {
  const auto k = static_cast<int>(state.range(0));
  const Topology topo = fat_tree(8);
  Rng rng(19);
  ConvexMcfProblem problem;
  problem.graph = &topo.graph();  // default cost: x^2
  for (int c = 0; c < k; ++c) {
    const auto a = static_cast<std::size_t>(rng.uniform_int(0, 127));
    std::size_t b;
    do {
      b = static_cast<std::size_t>(rng.uniform_int(0, 127));
    } while (b == a);
    problem.commodities.push_back(
        {topo.hosts()[a], topo.hosts()[b], rng.uniform(0.5, 3.0)});
  }
  FrankWolfeOptions options;
  options.max_iterations = 15;
  options.gap_tolerance = 2e-3;
  for (auto _ : state) {
    benchmark::DoNotOptimize(solve_convex_mcf(problem, options));
  }
  state.SetComplexityN(k);
}
BENCHMARK(BM_ConvexMcfSolve)->Arg(16)->Arg(64)->Arg(128)->Complexity();

void BM_IntervalDecomposition(benchmark::State& state) {
  const auto n = static_cast<int>(state.range(0));
  const Topology topo = fat_tree(8);
  Rng rng(23);
  PaperWorkloadParams params;
  params.num_flows = n;
  const auto flows = paper_workload(topo, params, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(decompose_intervals(flows));
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_IntervalDecomposition)->Range(32, 512)->Complexity();

void BM_FlowDecomposition(benchmark::State& state) {
  const Topology topo = fat_tree(8);
  const Graph& g = topo.graph();
  // An even 16-way split across the core (worst-case candidate count).
  const NodeId src = topo.hosts()[0];
  const NodeId dst = topo.hosts()[127];
  const auto paths = equal_cost_paths(g, src, dst, 16);
  std::vector<double> edge_flow(static_cast<std::size_t>(g.num_edges()), 0.0);
  for (const Path& p : paths) {
    for (EdgeId e : p.edges) {
      edge_flow[static_cast<std::size_t>(e)] += 1.0 / static_cast<double>(paths.size());
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(decompose_flow(g, src, dst, edge_flow, 1.0));
  }
}
BENCHMARK(BM_FlowDecomposition);

// The full multi-interval fractional relaxation (Algorithm 2 steps 1-7)
// at the sizes the north star cares about: fat-tree k=6/k=8 with
// hundreds to a thousand concurrent deadline flows. This is the
// hot path of Random-Schedule and the headline case for the sparse
// Frank-Wolfe core. Runs the production defaults — since v2 the
// pairwise rule with the adaptive parallel oracle and the analytic
// envelope repricing. Args are {fat-tree k, num_flows}.
void BM_SolveRelaxation(benchmark::State& state) {
  const auto k = static_cast<int>(state.range(0));
  const auto n = static_cast<int>(state.range(1));
  const Topology topo = fat_tree(k);
  Rng rng(37);
  PaperWorkloadParams params;
  params.num_flows = n;
  const auto flows = paper_workload(topo, params, rng);
  const PowerModel model = PowerModel::pure_speed_scaling(2.0);
  RelaxationOptions options;
  options.frank_wolfe.max_iterations = 12;
  options.frank_wolfe.gap_tolerance = 1e-3;
  FrankWolfeStats stats;
  for (auto _ : state) {
    const FractionalRelaxation r =
        solve_relaxation(topo.graph(), flows, model, options);
    stats += r.fw_stats;
    benchmark::DoNotOptimize(r.lower_bound_energy);
  }
  report_fw_stats(state, stats);
  state.SetComplexityN(n);
}
BENCHMARK(BM_SolveRelaxation)
    ->Args({6, 200})
    ->Args({6, 500})
    ->Args({8, 400})
    ->Args({8, 1000})
    ->Iterations(1)  // one full multi-interval solve per measurement
    ->Unit(benchmark::kMillisecond);

// Same workload with the oracle forced sequential — the A/B baseline
// for the adaptive parallel default (oracle_threads = 0), which this
// case matched before v2 made parallel the default. Byte-identical
// results either way.
void BM_SolveRelaxationParallelOracle(benchmark::State& state) {
  const auto k = static_cast<int>(state.range(0));
  const auto n = static_cast<int>(state.range(1));
  const Topology topo = fat_tree(k);
  Rng rng(37);
  PaperWorkloadParams params;
  params.num_flows = n;
  const auto flows = paper_workload(topo, params, rng);
  const PowerModel model = PowerModel::pure_speed_scaling(2.0);
  RelaxationOptions options;
  options.frank_wolfe.max_iterations = 12;
  options.frank_wolfe.gap_tolerance = 1e-3;
  options.frank_wolfe.oracle_threads = -1;  // forced sequential
  FrankWolfeStats stats;
  for (auto _ : state) {
    const FractionalRelaxation r =
        solve_relaxation(topo.graph(), flows, model, options);
    stats += r.fw_stats;
    benchmark::DoNotOptimize(r.lower_bound_energy);
  }
  report_fw_stats(state, stats);
  state.SetComplexityN(n);
}
BENCHMARK(BM_SolveRelaxationParallelOracle)
    ->Args({8, 400})
    ->Args({8, 1000})
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

// The online scheduler's hot path: a warm-started incremental re-solve
// after one mouse arrival, from the carried rows of a tighter prior
// solve (the regime of tests/online_warm_start_test.cc at fleet
// scale), stepping with the default pairwise rule, which moves only the
// mass the arrival displaced. Args are {fat-tree k, num_flows}.
void BM_SolveRelaxationWarmPairwise(benchmark::State& state) {
  const auto k = static_cast<int>(state.range(0));
  const auto n = static_cast<int>(state.range(1));
  const Topology topo = fat_tree(k);
  Rng rng(37);
  PaperWorkloadParams params;
  params.num_flows = n;
  auto flows = paper_workload(topo, params, rng);
  const PowerModel model = PowerModel::pure_speed_scaling(2.0);

  RelaxationOptions tight;
  tight.frank_wolfe.max_iterations = 30;
  tight.frank_wolfe.gap_tolerance = 1e-3;
  RelaxationWorkspace workspace;
  const FractionalRelaxation prior =
      solve_relaxation(topo.graph(), flows, model, tight, &workspace);

  Flow arrival = flows.back();
  arrival.id = static_cast<FlowId>(flows.size());
  arrival.volume *= 0.05;
  flows.push_back(arrival);
  std::vector<SparseEdgeFlow> warm_rows = prior.final_flow;
  warm_rows.emplace_back();  // the arrival starts cold

  RelaxationOptions budget;
  budget.frank_wolfe.max_iterations = 15;
  budget.frank_wolfe.gap_tolerance = 2e-3;
  std::int64_t iterations = 0;
  FrankWolfeStats stats;
  for (auto _ : state) {
    const FractionalRelaxation warm = solve_relaxation(
        topo.graph(), flows, model, budget, &workspace, warm_rows);
    iterations += warm.total_fw_iterations;
    stats += warm.fw_stats;
    benchmark::DoNotOptimize(warm.lower_bound_energy);
  }
  state.counters["fw_iterations"] =
      benchmark::Counter(static_cast<double>(iterations));
  report_fw_stats(state, stats);
  state.SetComplexityN(n);
}

BENCHMARK(BM_SolveRelaxationWarmPairwise)
    ->Args({8, 400})
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

void BM_RandomScheduleFull(benchmark::State& state) {
  const auto n = static_cast<int>(state.range(0));
  const Topology topo = fat_tree(8);
  Rng wl(29);
  PaperWorkloadParams params;
  params.num_flows = n;
  const auto flows = paper_workload(topo, params, wl);
  const PowerModel model = PowerModel::pure_speed_scaling(2.0);
  RandomScheduleOptions options;
  // The registry's v2 calibrated budget (see src/engine/registry.cc).
  options.relaxation.frank_wolfe.max_iterations = 12;
  options.relaxation.frank_wolfe.gap_tolerance = 1e-3;
  for (auto _ : state) {
    Rng rng(31);
    benchmark::DoNotOptimize(random_schedule(topo.graph(), flows, model, rng, options));
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_RandomScheduleFull)
    ->Arg(40)
    ->Arg(80)
    ->Iterations(2)  // seconds per solve; bound the harness runtime
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace dcn

// Expanded BENCHMARK_MAIN() so a ThreadSanitizer build can stamp the
// JSON context: bench_to_json.py refuses such captures the same way it
// refuses debug benchmark-library ones (TSan is a 5-15x slowdown — the
// numbers must never fold into a tracked snapshot).
int main(int argc, char** argv) {
  if (DCN_BENCH_TSAN) {
    benchmark::AddCustomContext("dcn_sanitizer", "thread");
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
