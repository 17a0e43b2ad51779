// Online arrival sweep: sustained Poisson load against the online
// solvers (src/online) on a finite-capacity fabric, with a hindsight
// oracle column for empirical competitive ratios.
//
// The grid is rates x offered-flow counts; each cell reports, per
// solver: admitted / offered flows, replayed energy over the admitted
// subset, relaxation re-solves and total Frank-Wolfe iterations
// (online_dcfsr — the warm-start effectiveness signal: iterations per
// re-solve stays near the per-interval floor when warm starts hit),
// departures-fast-path gap checks, the peak number of flows in flight
// (what the indexed event loop keeps warm state for), EDF-fallback
// admissions (online_greedy), competitive ratios against the
// oracle_dcfsr row, and wall-clock. Every cell is replay-validated by
// the engine before it is counted.
//
// oracle_dcfsr is the hindsight baseline (cf. DCoflow): offline dcfsr
// over the whole trace with admission control — all flows known
// upfront, joint rounding first, then a per-flow fallback run in both
// the RCD and the density-first order, keeping the better admission
// set. cr_adm = solver admitted / oracle admitted and cr_en = solver
// energy / oracle energy are the empirical competitive ratios (each
// side on its own admitted subset, the two algorithms' actual
// objectives). A cell where an online solver still admits more than
// the oracle on some seed is flagged: its cr_adm is suffixed '!' and
// the count travels as the oracle_beaten counter — a ratio above a
// beaten oracle is not a competitive ratio and must not be read as one.
//
// online_dcfsr_preempt is the flat configuration plus deadline-safe
// re-rating (PDQ-style): arrivals that do not fit may reshape in-flight
// flows' future rate profiles behind a commit barrier that keeps every
// admitted deadline inviolable. Its extra columns: rr_cmt, re-rate
// passes that stuck (each one is an admission the frozen-rate contract
// would have rejected), and rr_flows, distinct in-flight profiles
// reshaped.
//
// Per solver row the table also carries the admission-decision latency
// percentiles (p50/p99 wall ms per arrival, from the schedulers'
// per-event clocks) and the load-index health columns: pk_seg, the
// largest live-segment count any edge's profile held (what bounds
// probe cost under the low-water-mark pruning), and pruned, the total
// departed-history breakpoints the index folded away.
//
// Flags: --rates a,b,..   arrival rates to sweep       [0.5,1,2,4,8]
//        --flows a,b,..   offered flows per run        [60]
//        --runs n         seeds per (cell, solver)     [3]
//        --capacity x     link capacity                [3]
//        --scenario s     online scenario              [fat_tree/poisson]
//        --solvers a,b,.. online solver columns
//                         [online_greedy,online_dcfsr,online_dcfsr_flat]
//        --jobs n         worker threads               [1]
//        --no-oracle      skip the oracle_dcfsr column
//        --json FILE      also write the table as google-benchmark JSON
//                         (bench_to_json.py converts it into the
//                         BENCH_online.json snapshot schema; the latency
//                         percentiles, index-health columns and peak RSS
//                         travel as per-benchmark counters)
//        --stream         sustained-stream mode instead of the batch
//                         grid: arrivals pulled from a PoissonEventStream
//                         into the sharded service, never materializing
//                         the trace (--flows = arrival counts, default
//                         100000; --seed [101], --shards [0 = one lane
//                         per source group]); rows are BM_OnlineStream
//                         names with per-event p50/p99 and peak-RSS
//                         counters
//
// The sustained-stream configuration tracked in BENCH_online.json (the
// bounded-memory acceptance check: per-event p50/p99 at 100k arrivals
// flat versus the 16k batch point, peak RSS bounded because the stream
// synthesizes arrivals on demand and discards completed rows):
//   bench_online --stream --scenario fat_tree8/poisson --rates 8
//                --flows 100000 --json rawstream.json
//
// The scaling configuration tracked in BENCH_online.json:
//   bench_online --scenario fat_tree8/poisson --rates 8
//                --flows 1000,2000,4000 --runs 1 --jobs 4 --json raw.json
//   bench_online --scenario fat_tree8/poisson --rates 8 --flows 16000
//                --runs 1 --jobs 4 --no-oracle
//                --solvers online_greedy,online_dcfsr,online_dcfsr_flat
//                --json raw16k.json
// (the 16k point is the flat-per-event acceptance check: online_dcfsr
// ms per event within ~1.3x of its 1000-flow value)
//
// The capacity-cliff configurations tracked in BENCH_online.json (cells
// run at a non-default capacity carry a capX name segment). Capacity
// 2.5 is the regime where re-rating lands: the generated densities
// hover around 1-2, so 2.0 leaves no repack headroom while 2.5 lets
// the EDF fill catch displaced volume later:
//   bench_online --scenario fat_tree8/poisson --rates 8 --flows 500
//                --capacity 2.5 --runs 1 --jobs 1
//                --solvers online_dcfsr_flat,online_dcfsr_preempt,oracle_dcfsr
//                --json rawcap8.json
//   bench_online --scenario fat_tree/poisson --rates 6 --flows 24
//                --capacity 2.5 --runs 10 --jobs 1
//                --solvers online_dcfsr_flat,online_dcfsr_preempt,oracle_dcfsr
//                --json rawcap4.json
// (the preempt acceptance check: where flat trails the oracle the
// preempt configuration closes a measurable share of the cr_adm gap —
// 0.957 -> 0.974 on the fat_tree sweep — at <= 5% energy premium, and
// on the fat_tree8 cliff it out-admits even the fixed oracle, which
// cannot re-rate: cr_adm 1.005, flagged '!')
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <map>
#include <string>
#include <thread>
#include <vector>

#ifndef _WIN32
#include <unistd.h>
#endif

#include "bench_util.h"
#include "engine/batch_runner.h"
#include "online/event_stream.h"
#include "online/sharded.h"

namespace {

/// One aggregated (cell, solver) row.
struct Row {
  double admitted = 0, offered = 0, energy = 0, resolves = 0, fw = 0,
         gap_checks = 0, peak = 0, edf = 0, ms = 0;
  // Frank-Wolfe phase counters (deterministic; from the fw_* stats).
  double sweeps = 0, repriced = 0, ls_evals = 0;
  // Load-index health (deterministic stats) and admission-decision
  // latency percentiles (wall clock, from SolverOutcome::timings);
  // both averaged over the cell's seeds at print time.
  double peak_seg = 0, pruned = 0, p50 = 0, p99 = 0;
  // Re-rating (online_dcfsr_preempt) totals over the cell's seeds.
  double rerate_commits = 0, rerated_flows = 0;
  // Seeds on which this solver admitted strictly more than the oracle:
  // the explicit "this cr_adm row is not a bound" flag.
  double oracle_beaten = 0;
  int cells = 0;
  bool ok = true;
};

/// "fat_tree8/poisson" -> "fat_tree8_poisson" (benchmark name segment).
std::string flatten(std::string s) {
  for (char& c : s) {
    if (c == '/') c = '_';
  }
  return s;
}

/// Rows for the optional JSON dump: one benchmark per (cell, solver)
/// with mean ms per cell as the time and the latency/index columns as
/// counters.
struct JsonRow {
  std::string name;
  double ms = 0;
  std::vector<std::pair<std::string, double>> counters;
};

/// Google-benchmark-shaped JSON so tools/bench_to_json.py can fold the
/// table into the tracked BENCH_online.json snapshot.
int write_json(const std::string& json_path,
               const std::vector<JsonRow>& json_rows) {
  std::FILE* f = std::fopen(json_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_online: cannot write %s\n", json_path.c_str());
    return 2;
  }
  // Provenance context, mirroring google-benchmark's: snapshots from
  // mismatched hosts must be tellable apart when comparing.
  char date[64] = "";
  const std::time_t now = std::time(nullptr);
  std::strftime(date, sizeof(date), "%Y-%m-%dT%H:%M:%S", std::localtime(&now));
  char host[256] = "";
#ifndef _WIN32
  if (gethostname(host, sizeof(host) - 1) != 0) host[0] = '\0';
#endif
  // dcn_sanitizer mirrors bench_micro's custom context: a TSan build's
  // numbers must be refused by bench_to_json.py, not folded into a
  // tracked snapshot (see bench_util.h).
  std::fprintf(f,
               "{\n  \"context\": {\"date\": \"%s\", \"host_name\": \"%s\", "
               "\"num_cpus\": %u%s},\n  \"benchmarks\": [\n",
               date, host, std::thread::hardware_concurrency(),
               DCN_BENCH_TSAN ? ", \"dcn_sanitizer\": \"thread\"" : "");
  for (std::size_t i = 0; i < json_rows.size(); ++i) {
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"run_type\": \"iteration\", "
                 "\"real_time\": %.6f, \"cpu_time\": %.6f, "
                 "\"time_unit\": \"ms\", \"iterations\": 1",
                 json_rows[i].name.c_str(), json_rows[i].ms, json_rows[i].ms);
    for (const auto& [key, value] : json_rows[i].counters) {
      std::fprintf(f, ", \"%s\": %.6f", key.c_str(), value);
    }
    std::fprintf(f, "}%s\n", i + 1 < json_rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  return 0;
}

double latency_pct(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  return xs[static_cast<std::size_t>(q * static_cast<double>(xs.size() - 1) +
                                     0.5)];
}

/// --stream: the sustained-stream scaling probe. Pulls arrivals from a
/// PoissonEventStream into the sharded service (run_online_stream), so
/// the trace is synthesized on demand and completed schedule rows are
/// discarded — the configuration whose memory must stay bounded at
/// 100k+ arrivals. One row per (rate, arrival count); the tracked
/// BM_OnlineStream names carry per-event latency percentiles and peak
/// RSS as counters.
int run_stream(const dcn::bench::Args& args) {
  using namespace dcn;
  using namespace dcn::engine;

  const std::string scenario =
      args.get_list("scenario", {"fat_tree8/poisson"})[0];
  const std::size_t slash = scenario.find('/');
  const std::string workload =
      slash == std::string::npos ? "" : scenario.substr(slash + 1);
  SizeModel size_model;
  if (workload == "poisson") {
    size_model = SizeModel::kFixed;
  } else if (workload == "websearch") {
    size_model = SizeModel::kWebSearch;
  } else if (workload == "hadoop") {
    size_model = SizeModel::kHadoop;
  } else {
    std::fprintf(stderr,
                 "bench_online --stream: scenario workload must be "
                 "poisson|websearch|hadoop, got \"%s\"\n",
                 scenario.c_str());
    return 2;
  }

  const std::vector<double> rates = args.get_double_list("rates", {8.0});
  const std::vector<std::int64_t> arrival_counts =
      args.get_int_list("flows", {100000});
  const double capacity = args.get_double("capacity", 3.0);
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 101));
  const auto shards = static_cast<std::int32_t>(args.get_int("shards", 0));
  const std::string json_path = args.get("json", "");

  std::printf("Sustained-stream sweep: %s, capacity=%g, seed=%llu\n",
              scenario.c_str(), capacity,
              static_cast<unsigned long long>(seed));
  bench::rule();
  std::printf("%6s %8s  %8s %8s %8s %8s %8s %8s %8s %10s %10s\n", "rate",
              "arrivals", "admit%", "peak", "pk_seg", "pruned", "p50ms",
              "p99ms", "rss_mb", "ms", "us/event");

  std::vector<JsonRow> json_rows;
  for (const double rate : rates) {
    for (const std::int64_t arrivals : arrival_counts) {
      ScenarioOptions options;
      options.capacity = capacity;
      options.arrival_rate = rate;
      options.num_flows = static_cast<std::int32_t>(arrivals);

      // The registered online_dcfsr_sharded configuration (flat-latency
      // options on the calibrated Frank-Wolfe budget).
      OnlineOptions online;
      online.rounding.relaxation.frank_wolfe.max_iterations = 12;
      online.rounding.relaxation.frank_wolfe.gap_tolerance = 1e-3;
      online.lookahead_window = 2.0;
      online.epoch = 0.5;

      auto [topology, stream_rng] = ScenarioSuite::default_suite()
                                        .build_topology(scenario, seed);
      PoissonEventStream stream(topology,
                                online_workload_params(options, size_model),
                                stream_rng, arrivals);
      const ShardPlan plan = ShardPlan::by_source_group(topology, shards);
      Rng rng(mix_seed(seed,
                       scenario + "#" + std::to_string(seed) + "|dcfsr"));
      const PowerModel model = options.power_model();

      const auto start = std::chrono::steady_clock::now();
      OnlineResult result = run_online_stream(
          topology.graph(), stream, model, rng, online, plan, /*workers=*/0,
          /*flush_every=*/0, nullptr, /*discard_completed=*/true);
      const double ms =
          std::chrono::duration<double, std::milli>(
              std::chrono::steady_clock::now() - start)
              .count();

      const double offered =
          static_cast<double>(result.num_admitted + result.num_rejected);
      const double p50 = latency_pct(result.decision_latency_ms, 0.50);
      const double p99 = latency_pct(result.decision_latency_ms, 0.99);
      const double rss_mb = static_cast<double>(peak_rss_kb()) / 1024.0;
      std::printf(
          "%6g %8lld  %7.1f%% %8d %8d %8lld %8.3f %8.3f %8.1f %10.0f %10.1f\n",
          rate, static_cast<long long>(arrivals),
          offered > 0 ? 100.0 * result.num_admitted / offered : 0.0,
          result.peak_in_flight, result.peak_live_segments,
          static_cast<long long>(result.load_segments_pruned), p50, p99,
          rss_mb, ms, offered > 0 ? 1000.0 * ms / offered : 0.0);

      char cap_segment[32] = "";
      if (capacity != 3.0) {
        std::snprintf(cap_segment, sizeof(cap_segment), "cap%g/", capacity);
      }
      char name[160];
      std::snprintf(name, sizeof(name),
                    "BM_OnlineStream/%s/rate%g/%lld/%sonline_dcfsr_sharded",
                    flatten(scenario).c_str(), rate,
                    static_cast<long long>(arrivals), cap_segment);
      json_rows.push_back(
          {name,
           ms,
           {{"decision_latency_p50_ms", p50},
            {"decision_latency_p99_ms", p99},
            {"peak_live_segments",
             static_cast<double>(result.peak_live_segments)},
            {"load_segments_pruned",
             static_cast<double>(result.load_segments_pruned)},
            {"peak_in_flight", static_cast<double>(result.peak_in_flight)},
            {"admitted", static_cast<double>(result.num_admitted)},
            {"peak_rss_mb", rss_mb}}});
    }
  }
  if (!json_path.empty()) return write_json(json_path, json_rows);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dcn;
  using namespace dcn::engine;
  const bench::Args args(argc, argv);
  if (args.has_flag("stream")) return run_stream(args);

  std::vector<std::string> solvers = args.get_list(
      "solvers", {"online_greedy", "online_dcfsr", "online_dcfsr_flat"});
  const bool with_oracle = !args.has_flag("no-oracle");
  if (with_oracle &&
      std::find(solvers.begin(), solvers.end(), "oracle_dcfsr") ==
          solvers.end()) {
    solvers.push_back("oracle_dcfsr");
  }
  const std::vector<double> rates =
      args.get_double_list("rates", {0.5, 1.0, 2.0, 4.0, 8.0});
  const std::vector<std::int64_t> flow_counts = args.get_int_list("flows", {60});
  const int runs = static_cast<int>(args.get_int("runs", 3));
  const std::string scenario = args.get_list("scenario", {"fat_tree/poisson"})[0];
  const std::string json_path = args.get("json", "");

  BatchSpec spec;
  spec.solvers = solvers;
  spec.scenarios = {scenario};
  spec.seeds.clear();
  for (int run = 0; run < runs; ++run) {
    spec.seeds.push_back(101 + static_cast<std::uint64_t>(run));
  }
  spec.options.capacity = args.get_double("capacity", 3.0);
  spec.jobs = static_cast<std::int32_t>(args.get_int("jobs", 1));
  spec.discard_schedules = true;

  std::printf("Online arrival sweep: %s, %d runs, capacity=%g\n",
              scenario.c_str(), runs, spec.options.capacity);
  bench::rule();
  std::printf("%6s %6s  %-17s %8s %12s %8s %9s %8s %10s %9s %7s %6s %6s %6s "
              "%8s %6s %8s %8s %8s %8s %7s %9s\n",
              "rate", "flows", "solver", "admit%", "energy", "resolves",
              "fw_iters", "sweeps", "repriced", "ls_evals", "gapchk", "peak",
              "edf_fb", "rr_cmt", "rr_flows", "pk_seg", "pruned", "p50ms",
              "p99ms", "cr_adm", "cr_en", "ms");

  std::vector<JsonRow> json_rows;

  for (const double rate : rates) {
    for (const std::int64_t flows : flow_counts) {
      spec.options.arrival_rate = rate;
      spec.options.num_flows = static_cast<std::int32_t>(flows);
      BatchResult result;
      try {
        result = run_batch(default_registry(), ScenarioSuite::default_suite(),
                           spec);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "bench_online: %s\n", e.what());
        return 2;
      }

      // Per-seed oracle admitted counts, so every solver cell can be
      // checked for "admitted more than the oracle" on its own seed
      // (the oracle_beaten flag — a beaten oracle makes cr_adm
      // meaningless for that cell).
      std::map<std::uint64_t, double> oracle_admitted_by_seed;
      for (const auto& cell : result.cells) {
        if (cell.solver != "oracle_dcfsr" || !cell.ran) continue;
        for (const auto& [key, value] : cell.outcome.stats) {
          if (key == "admitted") oracle_admitted_by_seed[cell.seed] = value;
        }
      }

      // Aggregate per solver over the seeds.
      std::map<std::string, Row> rows;
      for (const auto& cell : result.cells) {
        Row& row = rows[cell.solver];
        ++row.cells;
        row.ms += cell.elapsed_ms;
        if (!cell.ran || !cell.outcome.feasible) {
          row.ok = false;
          continue;
        }
        row.offered += static_cast<double>(spec.options.num_flows);
        row.energy += cell.outcome.energy;
        for (const auto& [key, value] : cell.outcome.stats) {
          if (key == "admitted") {
            row.admitted += value;
            if (cell.solver != "oracle_dcfsr") {
              const auto it = oracle_admitted_by_seed.find(cell.seed);
              if (it != oracle_admitted_by_seed.end() && value > it->second) {
                row.oracle_beaten += 1;
              }
            }
          }
          if (key == "resolves") row.resolves += value;
          if (key == "fw_iterations") row.fw += value;
          if (key == "fw_sweeps") row.sweeps += value;
          if (key == "fw_edges_repriced") row.repriced += value;
          if (key == "fw_ls_evals") row.ls_evals += value;
          if (key == "departure_gap_checks") row.gap_checks += value;
          if (key == "peak_in_flight") row.peak += value;
          if (key == "edf_fallbacks") row.edf += value;
          if (key == "peak_live_segments") row.peak_seg += value;
          if (key == "load_segments_pruned") row.pruned += value;
          if (key == "rerate_commits") row.rerate_commits += value;
          if (key == "rerated_flows") row.rerated_flows += value;
        }
        for (const auto& [key, value] : cell.outcome.timings) {
          if (key == "decision_latency_p50_ms") row.p50 += value;
          if (key == "decision_latency_p99_ms") row.p99 += value;
        }
      }
      const Row* oracle =
          with_oracle && rows.contains("oracle_dcfsr") &&
                  rows["oracle_dcfsr"].ok
              ? &rows["oracle_dcfsr"]
              : nullptr;
      for (const std::string& solver : solvers) {
        const Row& row = rows[solver];
        if (!row.ok) {
          std::printf("%6g %6lld  %-16s %8s\n", rate,
                      static_cast<long long>(flows), solver.c_str(), "FAILED");
          continue;
        }
        char cr_adm[16] = "-";
        char cr_en[16] = "-";
        if (oracle != nullptr && oracle->admitted > 0 && oracle->energy > 0) {
          // A '!' marks a cell where this solver beat the oracle on at
          // least one seed: the ratio is not a competitive ratio there.
          std::snprintf(cr_adm, sizeof(cr_adm), "%.3f%s",
                        row.admitted / oracle->admitted,
                        row.oracle_beaten > 0 ? "!" : "");
          std::snprintf(cr_en, sizeof(cr_en), "%.3f",
                        row.energy / oracle->energy);
        }
        const double cells = static_cast<double>(std::max(1, row.cells));
        std::printf("%6g %6lld  %-17s %7.1f%% %12.1f %8.0f %9.0f %8.0f %10.0f "
                    "%9.0f %7.0f %6.0f %6.0f %6.0f %8.0f %6.0f %8.0f %8.2f "
                    "%8.2f %8s %7s %9.0f\n",
                    rate, static_cast<long long>(flows), solver.c_str(),
                    row.offered > 0 ? 100.0 * row.admitted / row.offered : 0.0,
                    row.energy, row.resolves, row.fw, row.sweeps, row.repriced,
                    row.ls_evals, row.gap_checks, row.peak / cells, row.edf,
                    row.rerate_commits, row.rerated_flows,
                    row.peak_seg / cells, row.pruned / cells, row.p50 / cells,
                    row.p99 / cells, cr_adm, cr_en, row.ms);
        // Cells run at a non-default capacity get a capX name segment:
        // the capacity-cliff sweeps must not collide with the default
        // grid's tracked names.
        char cap_segment[32] = "";
        if (spec.options.capacity != 3.0) {
          std::snprintf(cap_segment, sizeof(cap_segment), "cap%g/",
                        spec.options.capacity);
        }
        char name[160];
        std::snprintf(name, sizeof(name), "BM_Online/%s/rate%g/%lld/%s%s",
                      flatten(scenario).c_str(), rate,
                      static_cast<long long>(flows), cap_segment,
                      solver.c_str());
        json_rows.push_back(
            {name,
             row.ms / cells,
             {{"decision_latency_p50_ms", row.p50 / cells},
              {"decision_latency_p99_ms", row.p99 / cells},
              {"peak_live_segments", row.peak_seg / cells},
              {"load_segments_pruned", row.pruned / cells},
              {"peak_in_flight", row.peak / cells},
              {"admitted", row.admitted / cells},
              {"energy", row.energy / cells},
              {"rerate_commits", row.rerate_commits / cells},
              {"rerated_flows", row.rerated_flows / cells},
              {"oracle_beaten", row.oracle_beaten},
              // Process-wide high-water mark at row emission: rows
              // within one invocation share the process, so read the
              // largest cell's footprint from the last row (tracked
              // sweeps run one configuration per invocation).
              {"peak_rss_mb", static_cast<double>(peak_rss_kb()) / 1024.0}}});
      }
    }
  }

  if (!json_path.empty()) return write_json(json_path, json_rows);
  return 0;
}
