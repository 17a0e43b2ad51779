// perfbench harness: the scheduler's end-to-end and per-layer benchmark.
//
// One process, one caller (closed loop): every call into the scheduler
// is issued only after the previous one returned. Every layer runs
// single-threaded (phase-A workers = 1, Frank-Wolfe oracle_threads = 1);
// outputs are byte-identical at any thread count, so this changes
// timing only and keeps the numbers about the program rather than about
// other tenants of the host.
//
//   perfbench_harness --workload serve_poisson --seed 1 --seconds 30
//                     --trace 0 [--trace-out t.json] [--commit <id>]
//
// Workloads (see perfbench/WORKLOADS.md for why each exists):
//   serve_poisson       the sharded stream service as `dcn_run --serve`
//                       configures it, driven batch by batch from here
//   flat_hadoop_rerate  the flat event loop online_dcfsr with re-rating
//                       over a materialized heavy-tailed trace
//   offline_paper       Algorithm 2 (solve_relaxation + round_relaxation)
//                       and Algorithm 1 (shortest paths + MCF) per instance
//
// A run derives kInputs inputs from --seed (input 0 is --seed itself)
// and repeats whole passes while another fits in --seconds, pass j
// running input j % kInputs on the j-th allowed CPU in turn, each after
// a few set-up-only samples (setup_s is their median), then makes one
// check pass over input 0 that replays every schedule it produced with
// src/sim. Deterministic counters must agree across every pass of the
// run over the same input. --trace 1 alternates untraced and traced
// passes over the same inputs, reports per-layer metrics and writes the
// spans as Chrome trace-event JSON. The last stdout line is the JSON
// result.
#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <sched.h>
#include <unistd.h>

#include "baselines/baselines.h"
#include "dcfs/most_critical_first.h"
#include "dcfsr/random_schedule.h"
#include "engine/scenario.h"
#include "mcf/relaxation.h"
#include "online/event_stream.h"
#include "online/online_scheduler.h"
#include "online/sharded.h"
#include "sim/replay.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE ""
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS ""
#endif

namespace {

using namespace dcn;
using engine::Instance;
using engine::ScenarioOptions;
using engine::ScenarioSuite;
using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------------
// Workload sizes. A pass is one scheduling run over one whole seeded
// input; these sizes keep one pass at 3-8 s on a 4-core x86 host, so a
// run repeats passes several times, and keep the seed-to-seed spread of
// the quality metrics (admit ratio, energy) within a few percent.

constexpr char kServeSpec[] = "fat_tree8/poisson";
constexpr std::int64_t kServeArrivals = 6000;
constexpr char kFlatSpec[] = "fat_tree8/hadoop";
constexpr std::int32_t kFlatArrivals = 500;
constexpr char kPaperSpec[] = "fat_tree8/paper";
constexpr std::int32_t kPaperInstances = 4;
constexpr std::int32_t kPaperFlows = 200;
// Inputs per run, rotated over the passes: a run's timings then pool
// several traces (or instance sets) rather than one, so the seed-to-seed
// spread of latency percentiles shrinks.
constexpr int kInputs = 16;
// Setup-only repetitions before every untraced pass (each pass adds one
// more of its own). Spread over the run, their median follows the host
// over the whole run, not over the few milliseconds one block takes.
constexpr int kSetupSamples = 8;
// Self-test stream: arrivals, and the position of the injected bad one.
constexpr std::int64_t kSelfTestArrivals = 60;
constexpr std::int64_t kSelfTestBadAt = 30;

double seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

/// The CPUs this process may run on, ascending.
std::vector<int> allowed_cpus() {
  std::vector<int> cpus;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
    }
  }
  return cpus;
}

/// Restricts the calling thread (and threads it creates) to `cpus`.
void run_on(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : cpus) CPU_SET(c, &set);
  (void)sched_setaffinity(0, sizeof set, &set);
}

/// Seed of input `k` of a run: `seed` itself for input 0 (so the check
/// pass reproduces with the same --seed in dcn_run), derived otherwise.
std::uint64_t input_seed(std::uint64_t seed, int k) {
  return k == 0 ? seed : mix_seed(seed, "perfbench-input-" + std::to_string(k));
}

// ---------------------------------------------------------------------------
// Tracing: spans recorded around calls into the library's public
// functions, kept in memory, written once at the end.

struct Span {
  const char* name = "";
  Clock::time_point start;
  Clock::time_point end;
  std::int32_t id = 0;
  std::int32_t parent = -1;  // -1: root span
  std::int64_t ref = -1;     // arrival, batch or instance id
};

class Tracer {
 public:
  explicit Tracer(Clock::time_point origin) : origin_(origin) {}

  void set_enabled(bool on) { on_ = on; }

  /// Opens a pass span that parents every span recorded until end_pass.
  void begin_pass(const char* name, std::int64_t ref) {
    if (!on_) return;
    pass_ = Span{name, Clock::now(), {}, next_id_++, -1, ref};
  }
  void end_pass() {
    if (!on_ || pass_.id < 0) return;
    pass_.end = Clock::now();
    spans_.push_back(pass_);
    pass_ = Span{};
    pass_.id = -1;
  }

  void record(const char* name, std::int64_t ref, Clock::time_point t0,
              Clock::time_point t1) {
    if (!on_) return;
    spans_.push_back(Span{name, t0, t1, next_id_++, pass_.id, ref});
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Share of each traced pass's wall time covered by its direct
  /// children (the layer calls), as the median over passes.
  [[nodiscard]] double median_coverage() const;

  [[nodiscard]] bool write(const std::string& path,
                           const std::string& provenance_json) const;

 private:
  Clock::time_point origin_;
  bool on_ = false;
  std::int32_t next_id_ = 0;
  Span pass_{"", {}, {}, -1, -1, -1};
  std::vector<Span> spans_;
};

/// Runs fn(), adds its wall time to `total` and records a span.
template <class Fn>
double timed(Tracer& tr, const char* name, std::int64_t ref, double& total,
             Fn&& fn) {
  const auto t0 = Clock::now();
  fn();
  const auto t1 = Clock::now();
  tr.record(name, ref, t0, t1);
  const double s = seconds(t1 - t0);
  total += s;
  return s;
}

double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

/// The tail percentile: p99 when at least 10 samples lie beyond it,
/// else the highest order statistic with 10 samples beyond it (the
/// maximum below 11 samples). `*label` names the percentile used.
double tail(std::vector<double> xs, std::string* label) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  std::size_t k = 0;
  if (n >= 1000) {
    k = static_cast<std::size_t>(0.99 * static_cast<double>(n));
    if (label) *label = "p99";
  } else {
    k = n > 10 ? n - 11 : n - 1;
    if (label) {
      *label = "p" + std::to_string(100.0 * static_cast<double>(k + 1) /
                                    static_cast<double>(n));
    }
  }
  return xs[std::min(k, n - 1)];
}

double Tracer::median_coverage() const {
  std::map<std::int32_t, double> child_sum;
  for (const Span& s : spans_) {
    if (s.parent >= 0) child_sum[s.parent] += seconds(s.end - s.start);
  }
  std::vector<double> shares;
  for (const Span& s : spans_) {
    if (s.parent >= 0 || std::strcmp(s.name, "pass") != 0) continue;
    const double wall = seconds(s.end - s.start);
    if (wall > 0.0) shares.push_back(child_sum[s.id] / wall);
  }
  return median(shares);
}

bool Tracer::write(const std::string& path,
                   const std::string& provenance_json) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"otherData\":%s,\n",
               provenance_json.c_str());
  std::fprintf(f, "\"traceEvents\":[\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const double ts = 1e6 * seconds(s.start - origin_);
    const double dur = 1e6 * seconds(s.end - s.start);
    std::fprintf(f,
                 "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%d,"
                 "\"parent\":%d,\"id\":%" PRId64 "}}%s\n",
                 s.name, ts, dur, s.id, s.parent, s.ref,
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

// ---------------------------------------------------------------------------
// Pass results.

/// Deterministic counters that must agree across every pass of a run.
struct Counters {
  std::int64_t admitted = 0;
  std::int64_t rejected = 0;
  std::int64_t resolves = 0;
  std::int64_t fw_iterations = 0;
  std::int64_t rounding_attempts = 0;
  std::int64_t segments_pruned = 0;
  std::int64_t rerate_commits = 0;

  friend bool operator==(const Counters&, const Counters&) = default;

  [[nodiscard]] std::string str() const {
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "admitted=%" PRId64 " rejected=%" PRId64 " resolves=%" PRId64
                  " fw_iterations=%" PRId64 " rounding_attempts=%" PRId64
                  " segments_pruned=%" PRId64 " rerate_commits=%" PRId64,
                  admitted, rejected, resolves, fw_iterations,
                  rounding_attempts, segments_pruned, rerate_commits);
    return buf;
  }
};

/// Outcome of the replay check over one pass's schedules.
struct Check {
  std::int64_t flows_checked = 0;
  std::int64_t issues = 0;
  std::int64_t failed_flows = 0;  // flows a replay issue names (all, if link-wide)
  double replay_s = 0.0;
  std::string first_issue;
  // Quality, from the replayed schedules.
  double admit_ratio = 0.0;
  double energy_per_volume = 0.0;
  double energy_over_lb = 0.0;
};

struct Pass {
  int input = 0;  // index of the run's input this pass scheduled
  double setup_s = 0.0;
  double wall_s = 0.0;  // the scheduling calls, setup excluded
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::string error;                // first exception, if any
  std::vector<double> decision_ms;  // one entry per decided arrival/flow
  std::vector<double> solve_s;      // offline: per instance
  Counters counters;
  std::map<std::string, double> layer;  // per-layer values of this pass
  std::optional<Check> check;           // check passes only
};

/// Replays `schedule` over `flows` and tallies issues into `check`.
/// Returns the replayed energy Phi_f.
double replay_into(Tracer& tr, std::int64_t ref, const Graph& g,
                   const std::vector<Flow>& flows, const Schedule& schedule,
                   const PowerModel& model, Check& check) {
  if (flows.empty()) return 0.0;
  ReplayReport rep;
  timed(tr, "replay_schedule", ref, check.replay_s,
        [&] { rep = replay_schedule(g, flows, schedule, model); });
  check.flows_checked += static_cast<std::int64_t>(flows.size());
  check.issues += static_cast<std::int64_t>(rep.issues.size());
  std::set<long> named;
  bool link_wide = false;
  for (const std::string& issue : rep.issues) {
    if (check.first_issue.empty()) check.first_issue = issue;
    if (issue.rfind("flow#", 0) == 0) {
      named.insert(std::strtol(issue.c_str() + 5, nullptr, 10));
    } else {
      link_wide = true;
    }
  }
  check.failed_flows += link_wide ? static_cast<std::int64_t>(flows.size())
                                  : static_cast<std::int64_t>(named.size());
  return rep.energy;
}

/// Energy every admitted flow would need alone on a minimum-hop path at
/// its density: a lower bound on Phi_f of any schedule of the set when
/// sigma == 0 (power x^alpha is convex and superadditive).
double isolated_lower_bound(const Graph& g, const std::vector<Flow>& flows,
                            const PowerModel& model) {
  const std::vector<Path> paths = shortest_path_routing(g, flows);
  double lb = 0.0;
  for (std::size_t i = 0; i < flows.size(); ++i) {
    const double span = flows[i].deadline - flows[i].release;
    lb += static_cast<double>(paths[i].edges.size()) * span *
          model.g(flows[i].density());
  }
  return lb;
}

/// Replays the admitted flows of an online run (`flows` indexed like
/// the result rows) and derives the quality metrics from the replay.
Check check_online(Tracer& tr, const Graph& g, const std::vector<Flow>& flows,
                   const OnlineResult& r, const PowerModel& model) {
  Check c;
  auto [admitted, schedule] = admitted_subset(flows, r.schedule, r.admitted);
  const double energy = replay_into(tr, -1, g, admitted, schedule, model, c);
  double volume = 0.0;
  for (const Flow& f : admitted) volume += f.volume;
  const double lb = isolated_lower_bound(g, admitted, model);
  c.admit_ratio =
      static_cast<double>(r.num_admitted) / static_cast<double>(flows.size());
  c.energy_per_volume = volume > 0.0 ? energy / volume : 0.0;
  c.energy_over_lb = lb > 0.0 ? energy / lb : 0.0;
  return c;
}

void fill_online_layers(const OnlineResult& r, Pass& p) {
  const auto d = [](auto v) { return static_cast<double>(v); };
  p.layer["online.resolves"] = d(r.resolves);
  p.layer["online.fw_iterations"] = d(r.fw_iterations);
  p.layer["online.fw_iters_per_resolve"] =
      r.resolves > 0 ? d(r.fw_iterations) / d(r.resolves) : 0.0;
  p.layer["online.gap_checks"] = d(r.departure_gap_checks);
  p.layer["online.gap_check_iterations"] = d(r.gap_check_iterations);
  p.layer["online.rounding_attempts"] = d(r.rounding_attempts);
  p.layer["online.batch_fallbacks"] = d(r.batch_fallbacks);
  p.layer["online.batch_fallback_ratio"] =
      r.num_events > 0 ? d(r.batch_fallbacks) / d(r.num_events) : 0.0;
  p.layer["online.rerate_attempts"] = d(r.rerate_attempts);
  p.layer["online.rerate_commits"] = d(r.rerate_commits);
  p.layer["online.rerate_commit_ratio"] =
      r.rerate_attempts > 0 ? d(r.rerate_commits) / d(r.rerate_attempts) : 0.0;
  p.layer["online.peak_in_flight"] = d(r.peak_in_flight);
  p.layer["load_index.peak_live_segments"] = d(r.peak_live_segments);
  p.layer["load_index.segments_pruned"] = d(r.load_segments_pruned);
  p.counters.admitted = r.num_admitted;
  p.counters.rejected = r.num_rejected;
  p.counters.resolves = r.resolves;
  p.counters.fw_iterations = r.fw_iterations;
  p.counters.rounding_attempts = r.rounding_attempts;
  p.counters.segments_pruned = r.load_segments_pruned;
  p.counters.rerate_commits = r.rerate_commits;
}

void fill_fw_layers(const FrankWolfeStats& s, Pass& p) {
  p.layer["opt.fw_sweeps"] = static_cast<double>(s.oracle_sweeps);
  p.layer["opt.fw_edges_repriced"] = static_cast<double>(s.edges_repriced);
  p.layer["opt.fw_ls_evals"] = static_cast<double>(s.line_search_evals);
  p.layer["opt.oracle_s"] = s.oracle_seconds;
  p.layer["opt.reprice_s"] = s.reprice_seconds;
  p.layer["opt.line_search_s"] = s.line_search_seconds;
}

/// The registry's calibrated Frank-Wolfe budget, oracle pinned to one
/// thread.
FrankWolfeOptions calibrated_fw() {
  FrankWolfeOptions fw;
  fw.max_iterations = 12;
  fw.gap_tolerance = 1e-3;
  fw.oracle_threads = 1;
  return fw;
}

/// The registered flat-latency configuration: window 2, epoch 0.5.
OnlineOptions online_options(bool rerate) {
  OnlineOptions o;
  o.rounding.relaxation.frank_wolfe = calibrated_fw();
  o.lookahead_window = 2.0;
  o.epoch = 0.5;
  o.allow_rerate = rerate;
  return o;
}

// ---------------------------------------------------------------------------
// serve_poisson: ShardedScheduler fed from a PoissonEventStream, batched
// exactly as run_online_stream does, one process_batch call timed per
// global event. The loop is repeated here because run_online_stream
// offers no per-batch hook to time the calls from outside.

/// Benchmark-owned stream wrapper: times every pull, keeps the pulled
/// flows when recording (check passes replay them), and optionally
/// injects one arrival no scheduler contract accepts (a flow sourced at
/// a switch) for the failure-accounting self-test.
class RecordingStream final : public EventStream {
 public:
  RecordingStream(EventStream& inner, Tracer& tr, bool record)
      : inner_(inner), tr_(tr), record_(record) {}

  void inject_bad_at(std::int64_t pos, NodeId switch_node) {
    bad_at_ = pos;
    bad_src_ = switch_node;
  }

  [[nodiscard]] std::optional<Flow> next() override {
    std::optional<Flow> f;
    timed(tr_, "PoissonEventStream::next", pulls_, pull_s_,
          [&] { f = inner_.next(); });
    if (f.has_value()) {
      if (pulls_ == bad_at_) f->src = bad_src_;
      if (record_) flows_.push_back(*f);
      ++pulls_;
    }
    return f;
  }

  [[nodiscard]] std::int64_t pulls() const { return pulls_; }
  [[nodiscard]] double pull_s() const { return pull_s_; }
  [[nodiscard]] const std::vector<Flow>& flows() const { return flows_; }

 private:
  EventStream& inner_;
  Tracer& tr_;
  bool record_;
  std::int64_t pulls_ = 0;
  double pull_s_ = 0.0;
  std::int64_t bad_at_ = -1;
  NodeId bad_src_ = kInvalidNode;
  std::vector<Flow> flows_;
};

class ServeWorkload {
 public:
  /// Setup: topology, stream, shard plan and scheduler.
  ServeWorkload(std::uint64_t seed, std::int64_t arrivals, bool discard) {
    ScenarioOptions so;
    so.arrival_rate = 8.0;
    so.capacity = 3.0;
    model_ = std::make_unique<PowerModel>(so.power_model());
    auto [topo, stream_rng] =
        ScenarioSuite::default_suite().build_topology(kServeSpec, seed);
    topo_ = std::make_unique<Topology>(std::move(topo));
    stream_ = std::make_unique<PoissonEventStream>(
        *topo_, online_workload_params(so, SizeModel::kFixed), stream_rng,
        arrivals);
    plan_ = std::make_unique<ShardPlan>(ShardPlan::by_source_group(*topo_, 0));
    // dcn_run --serve's rng key, so this is the service's exact run.
    const std::string spec = kServeSpec;
    Rng rng(mix_seed(seed, spec + "#" + std::to_string(seed) + "|dcfsr"));
    sched_ = std::make_unique<ShardedScheduler>(
        topo_->graph(), *model_, online_options(false), *plan_, rng(),
        /*workers=*/1, discard);
  }

  [[nodiscard]] const Topology& topology() const { return *topo_; }
  [[nodiscard]] const PowerModel& model() const { return *model_; }
  [[nodiscard]] EventStream& stream() { return *stream_; }

  /// Drives the scheduler from `src` until the stream ends. A thrown
  /// exception stops the pass: every arrival not yet decided (the
  /// failing batch included) counts as failed. `total` is the number of
  /// arrivals the stream offers.
  void drive(RecordingStream& src, std::int64_t total, Tracer& tr, Pass& p) {
    const double epoch = online_options(false).epoch;
    std::int64_t decided = 0;
    std::int64_t batches = 0;
    double process_s = 0.0;
    double take_s = 0.0;
    std::vector<double> batch_ms;
    const auto t0 = Clock::now();
    try {
      std::optional<Flow> pending = src.next();
      std::vector<Flow> batch;
      while (pending.has_value()) {
        const double now = pending->release;
        batch.clear();
        batch.push_back(*pending);
        pending.reset();
        while (auto next = src.next()) {
          if (next->release <= now + epoch) {
            batch.push_back(*next);
          } else {
            pending = std::move(next);
            break;
          }
        }
        const double s = timed(tr, "ShardedScheduler::process_batch", batches,
                               process_s,
                               [&] { sched_->process_batch(now, batch); });
        ++batches;
        batch_ms.push_back(1e3 * s);
        // Every arrival of the batch is charged the call that decided it.
        p.decision_ms.insert(p.decision_ms.end(), batch.size(), 1e3 * s);
        decided += static_cast<std::int64_t>(batch.size());
      }
      timed(tr, "ShardedScheduler::take_result", -1, take_s,
            [&] { result_ = sched_->take_result(); });
    } catch (const std::exception& e) {
      p.error = e.what();
      result_.reset();
    }
    p.wall_s = seconds(Clock::now() - t0);
    p.attempted += total;
    p.failed += total - decided;
    p.layer["event_stream.pulls"] = static_cast<double>(src.pulls());
    p.layer["event_stream.pull_s"] = src.pull_s();
    p.layer["sharded.batches"] = static_cast<double>(batches);
    p.layer["sharded.arrivals_per_batch"] =
        batches > 0 ? static_cast<double>(decided) / static_cast<double>(batches)
                    : 0.0;
    p.layer["sharded.process_s"] = process_s + take_s;
    p.layer["sharded.batch_p50_ms"] = median(batch_ms);
    p.layer["sharded.batch_p99_ms"] = tail(batch_ms, nullptr);
    if (result_.has_value()) {
      fill_online_layers(*result_, p);
      fill_fw_layers(result_->fw_stats, p);
    }
  }

  [[nodiscard]] const std::optional<OnlineResult>& result() const {
    return result_;
  }

 private:
  std::unique_ptr<PowerModel> model_;
  std::unique_ptr<Topology> topo_;
  std::unique_ptr<PoissonEventStream> stream_;
  std::unique_ptr<ShardPlan> plan_;
  std::unique_ptr<ShardedScheduler> sched_;
  std::optional<OnlineResult> result_;
};

Pass serve_pass(std::uint64_t seed, bool check, Tracer& tr) {
  Pass p;
  const auto t0 = Clock::now();
  // Check passes keep completed rows so every admitted flow replays.
  ServeWorkload w(seed, kServeArrivals, /*discard=*/!check);
  p.setup_s = seconds(Clock::now() - t0);
  RecordingStream src(w.stream(), tr, /*record=*/check);
  w.drive(src, kServeArrivals, tr, p);
  if (check && w.result().has_value()) {
    p.check = check_online(tr, w.topology().graph(), src.flows(), *w.result(),
                           w.model());
  }
  return p;
}

/// Failure-accounting self-test: a benchmark-owned stream injects one
/// arrival sourced at a switch. The harness must survive it, and the
/// arrival must end up counted as failed (the scheduler threw) or as
/// rejected (a scheduler that screens its input), never admitted.
bool self_test(std::string* detail) {
  Tracer off(Clock::now());
  Pass p;
  ServeWorkload w(1, kSelfTestArrivals, /*discard=*/false);
  const std::vector<NodeId> switches = w.topology().switches();
  RecordingStream src(w.stream(), off, /*record=*/false);
  src.inject_bad_at(kSelfTestBadAt, switches.front());
  w.drive(src, kSelfTestArrivals, off, p);
  bool ok = false;
  if (!p.error.empty()) {
    // The failing batch and everything after it: at least the injected
    // arrival and the ones behind it.
    ok = p.attempted == kSelfTestArrivals &&
         p.failed >= kSelfTestArrivals - kSelfTestBadAt &&
         p.failed <= kSelfTestArrivals;
  } else if (w.result().has_value()) {
    ok = w.result()->admitted.size() > static_cast<std::size_t>(kSelfTestBadAt) &&
         !w.result()->admitted[kSelfTestBadAt];
  }
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "attempted=%" PRId64 " failed=%" PRId64 " caught=\"%s\"",
                p.attempted, p.failed, p.error.substr(0, 200).c_str());
  *detail = buf;
  return ok;
}

// ---------------------------------------------------------------------------
// flat_hadoop_rerate: the flat event loop online_dcfsr with the
// online_dcfsr_preempt options over a materialized hadoop trace.

Instance flat_instance(std::uint64_t seed) {
  ScenarioOptions so;
  so.num_flows = kFlatArrivals;
  so.arrival_rate = 8.0;
  so.capacity = 2.5;
  return ScenarioSuite::default_suite().build(kFlatSpec, seed, so);
}

Pass flat_pass(std::uint64_t seed, bool check, Tracer& tr) {
  Pass p;
  const auto t0 = Clock::now();
  const Instance inst = flat_instance(seed);
  const OnlineOptions options = online_options(/*rerate=*/true);
  Rng rng(mix_seed(inst.seed(), inst.name() + "|dcfsr"));
  p.setup_s = seconds(Clock::now() - t0);

  const auto n = static_cast<std::int64_t>(inst.flows().size());
  p.attempted = n;
  OnlineResult r;
  double run_s = 0.0;
  try {
    timed(tr, "online_dcfsr", -1, run_s, [&] {
      r = online_dcfsr(inst.graph(), inst.flows(), inst.model(), rng, options);
    });
  } catch (const std::exception& e) {
    p.error = e.what();
    p.failed = n;
    p.wall_s = run_s;
    return p;
  }
  p.wall_s = run_s;
  p.decision_ms = r.decision_latency_ms;
  p.layer["online_dcfsr.run_s"] = run_s;
  fill_online_layers(r, p);
  fill_fw_layers(r.fw_stats, p);
  if (check) p.check = check_online(tr, inst.graph(), inst.flows(), r, inst.model());
  return p;
}

// ---------------------------------------------------------------------------
// offline_paper: per instance, Algorithm 2 as solve_relaxation ->
// round_relaxation (the calibrated budget) and Algorithm 1 as
// most_critical_first on shortest-path routes.

std::vector<Instance> paper_instances(std::uint64_t seed) {
  ScenarioOptions so;
  so.num_flows = kPaperFlows;
  std::vector<Instance> out;
  for (std::int32_t k = 0; k < kPaperInstances; ++k) {
    const std::uint64_t s = mix_seed(seed, "offline_paper-" + std::to_string(k));
    out.push_back(ScenarioSuite::default_suite().build(kPaperSpec, s, so));
  }
  return out;
}

Pass offline_pass(std::uint64_t seed, bool check, Tracer& tr) {
  Pass p;
  const auto t0 = Clock::now();
  const std::vector<Instance> instances = paper_instances(seed);
  RandomScheduleOptions alg2;
  alg2.relaxation.frank_wolfe = calibrated_fw();
  p.setup_s = seconds(Clock::now() - t0);

  double relax_s = 0.0, round_s = 0.0, sp_s = 0.0, dcfs_s = 0.0;
  double gap_sum = 0.0;
  std::int64_t dcfs_iter = 0, escalations = 0, fallbacks = 0;
  std::int64_t flows_total = 0, flows_feasible = 0;
  FrankWolfeStats fw;
  Check c;
  double energy_sum = 0.0, volume_sum = 0.0, ratio_sum = 0.0;
  const auto run_t0 = Clock::now();
  for (std::size_t k = 0; k < instances.size(); ++k) {
    const Instance& inst = instances[k];
    const auto ref = static_cast<std::int64_t>(k);
    const auto n = static_cast<std::int64_t>(inst.flows().size());
    p.attempted += 1;
    flows_total += n;
    try {
      Rng rng(mix_seed(inst.seed(), inst.name() + "|dcfsr"));
      FractionalRelaxation relax;
      RandomScheduleResult alg2_result;
      std::vector<Path> paths;
      DcfsResult alg1_result;
      const double decide =
          timed(tr, "solve_relaxation", ref, relax_s, [&] {
            relax = solve_relaxation(inst.graph(), inst.flows(), inst.model(),
                                     alg2.relaxation);
          }) +
          timed(tr, "round_relaxation", ref, round_s, [&] {
            alg2_result = round_relaxation(inst.graph(), inst.flows(),
                                           inst.model(), relax, rng, alg2);
          });
      const double alg1 =
          timed(tr, "shortest_path_routing", ref, sp_s, [&] {
            paths = shortest_path_routing(inst.graph(), inst.flows());
          }) +
          timed(tr, "most_critical_first", ref, dcfs_s, [&] {
            alg1_result = most_critical_first(inst.graph(), inst.flows(), paths,
                                              inst.model());
          });
      p.decision_ms.insert(p.decision_ms.end(), static_cast<std::size_t>(n),
                           1e3 * decide);
      p.solve_s.push_back(decide + alg1);
      fw += relax.fw_stats;
      gap_sum += relax.mean_relative_gap;
      dcfs_iter += alg1_result.iterations;
      escalations += alg1_result.speed_escalations;
      fallbacks += alg1_result.availability_fallbacks;
      p.counters.resolves += 1;
      p.counters.fw_iterations += relax.total_fw_iterations;
      p.counters.rounding_attempts += alg2_result.rounding_attempts;
      if (alg2_result.capacity_feasible) {
        flows_feasible += n;
        p.counters.admitted += n;
      } else {
        p.counters.rejected += n;
      }
      if (check) {
        const double e2 = replay_into(tr, ref, inst.graph(), inst.flows(),
                                      alg2_result.schedule, inst.model(), c);
        replay_into(tr, ref, inst.graph(), inst.flows(), alg1_result.schedule,
                    inst.model(), c);
        double volume = 0.0;
        for (const Flow& f : inst.flows()) volume += f.volume;
        energy_sum += e2;
        volume_sum += volume;
        ratio_sum += e2 / relax.lower_bound_energy;
      }
    } catch (const std::exception& e) {
      if (p.error.empty()) p.error = e.what();
      p.failed += static_cast<std::int64_t>(instances.size() - k);
      p.attempted += static_cast<std::int64_t>(instances.size() - k - 1);
      break;
    }
  }
  // The check pass's replays are not scheduling time.
  p.wall_s = seconds(Clock::now() - run_t0) - c.replay_s;
  const double solved = static_cast<double>(p.solve_s.size());
  p.layer["mcf.relax_s"] = relax_s;
  p.layer["mcf.fw_iterations"] = static_cast<double>(p.counters.fw_iterations);
  p.layer["mcf.mean_gap"] = solved > 0 ? gap_sum / solved : 0.0;
  p.layer["mcf.other_s"] = relax_s - fw.oracle_seconds - fw.reprice_seconds -
                           fw.line_search_seconds;
  p.layer["dcfsr.round_s"] = round_s;
  p.layer["dcfsr.rounding_attempts"] =
      static_cast<double>(p.counters.rounding_attempts);
  p.layer["baselines.sp_routing_s"] = sp_s;
  p.layer["dcfs.run_s"] = dcfs_s;
  p.layer["dcfs.iterations"] = static_cast<double>(dcfs_iter);
  p.layer["dcfs.speed_escalations"] = static_cast<double>(escalations);
  p.layer["dcfs.availability_fallbacks"] = static_cast<double>(fallbacks);
  fill_fw_layers(fw, p);
  if (check && p.failed == 0) {
    c.admit_ratio = static_cast<double>(flows_feasible) /
                    static_cast<double>(flows_total);
    c.energy_per_volume = energy_sum / volume_sum;
    c.energy_over_lb = ratio_sum / solved;
    p.check = c;
  }
  return p;
}

struct WorkloadDef {
  const char* name;
  std::int64_t ops_per_pass;  // arrivals, or offline instances
  Pass (*pass)(std::uint64_t seed, bool check, Tracer& tr);
  /// A pass's set-up alone, its result dropped.
  void (*setup)(std::uint64_t seed);
};

const WorkloadDef kWorkloads[] = {
    {"serve_poisson", kServeArrivals, serve_pass,
     [](std::uint64_t seed) { ServeWorkload w(seed, kServeArrivals, true); }},
    {"flat_hadoop_rerate", kFlatArrivals, flat_pass,
     [](std::uint64_t seed) { (void)flat_instance(seed); }},
    {"offline_paper", kPaperInstances, offline_pass,
     [](std::uint64_t seed) { (void)paper_instances(seed); }},
};

// ---------------------------------------------------------------------------
// Metric catalogue (must match BENCHMARK.json; perfbench/run.py checks).

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"decision_p50_ms", "ms"},
    {"decision_p99_ms", "ms"},
    {"arrivals_per_s", "1/s"},
    {"admit_ratio", "ratio"},
    {"energy_per_volume", "energy/vol"},
    {"solve_s", "s"},
    {"energy_over_lb", "ratio"},
    {"peak_rss_mb", "MB"},
    {"success_frac", "ratio"},
};

constexpr MetricDef kPerLayer[] = {
    {"event_stream.pulls", "count"},
    {"event_stream.pull_s", "s"},
    {"sharded.batches", "count"},
    {"sharded.arrivals_per_batch", "count"},
    {"sharded.process_s", "s"},
    {"sharded.batch_p50_ms", "ms"},
    {"sharded.batch_p99_ms", "ms"},
    {"online_dcfsr.run_s", "s"},
    {"online.resolves", "count"},
    {"online.fw_iterations", "count"},
    {"online.fw_iters_per_resolve", "count"},
    {"online.gap_checks", "count"},
    {"online.gap_check_iterations", "count"},
    {"online.rounding_attempts", "count"},
    {"online.batch_fallbacks", "count"},
    {"online.batch_fallback_ratio", "ratio"},
    {"online.rerate_attempts", "count"},
    {"online.rerate_commits", "count"},
    {"online.rerate_commit_ratio", "ratio"},
    {"online.peak_in_flight", "count"},
    {"load_index.peak_live_segments", "count"},
    {"load_index.segments_pruned", "count"},
    {"opt.fw_sweeps", "count"},
    {"opt.fw_edges_repriced", "count"},
    {"opt.fw_ls_evals", "count"},
    {"opt.oracle_s", "s"},
    {"opt.reprice_s", "s"},
    {"opt.line_search_s", "s"},
    {"mcf.relax_s", "s"},
    {"mcf.fw_iterations", "count"},
    {"mcf.mean_gap", "ratio"},
    {"mcf.other_s", "s"},
    {"dcfsr.round_s", "s"},
    {"dcfsr.rounding_attempts", "count"},
    {"baselines.sp_routing_s", "s"},
    {"dcfs.run_s", "s"},
    {"dcfs.iterations", "count"},
    {"dcfs.speed_escalations", "count"},
    {"dcfs.availability_fallbacks", "count"},
    {"sim.replay_s", "s"},
    {"sim.flows_checked", "count"},
    {"sim.issues", "count"},
    {"decision.samples", "count"},
    {"trace.overhead", "s"},
    {"trace.coverage", "ratio"},
    {"trace.spans", "count"},
};

bool is_time(const std::string& name) {
  const auto ends = [&](const char* suffix) {
    const std::size_t n = std::strlen(suffix);
    return name.size() >= n && name.compare(name.size() - n, n, suffix) == 0;
  };
  return ends("_s") || ends("_ms");
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
    } else {
      out += ch;
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Provenance.

struct Provenance {
  std::string workload;
  std::uint64_t seed = 0;
  std::string commit;
  std::string sanitizers;
  std::size_t cpus = 0;  // CPUs the passes rotate over

  [[nodiscard]] std::string json() const {
    char buf[1024];
    std::snprintf(
        buf, sizeof buf,
        "{\"workload\":\"%s\",\"seed\":%" PRIu64
        ",\"nproc\":%ld,\"compiler\":\"%s\",\"build_type\":\"%s\","
        "\"cxx_flags\":\"%s\",\"sanitizers\":\"%s\",\"commit\":\"%s\","
        "\"workers\":1,\"oracle_threads\":1,\"cpu_rotation\":%zu}",
        json_escape(workload).c_str(), seed, sysconf(_SC_NPROCESSORS_ONLN),
        json_escape(compiler()).c_str(), PERFBENCH_BUILD_TYPE,
        json_escape(PERFBENCH_CXX_FLAGS).c_str(), sanitizers.c_str(),
        json_escape(commit).c_str(), cpus);
    return buf;
  }

  static std::string compiler() {
#if defined(__clang__)
    return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
    return std::string("gcc ") + __VERSION__;
#else
    return "unknown";
#endif
  }
};

std::string detect_sanitizers() {
  std::string out;
#if defined(__SANITIZE_ADDRESS__)
  out += "address,";
#endif
#if defined(__SANITIZE_THREAD__)
  out += "thread,";
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer) || __has_feature(undefined_behavior_sanitizer)
  out += "clang-sanitizer,";
#endif
#endif
  if (std::strstr(PERFBENCH_CXX_FLAGS, "-fsanitize") != nullptr) {
    out += "flags,";
  }
  if (!out.empty()) out.pop_back();
  return out;
}

// ---------------------------------------------------------------------------
// Entry point.

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 30.0;
  bool trace = false;
  std::string trace_out;
  std::string commit = "unknown";
};

int usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench_harness: %s\nusage: perfbench_harness --workload "
               "serve_poisson|flat_hadoop_rerate|offline_paper --seed N "
               "--seconds S --trace 0|1 [--trace-out FILE] [--commit ID]\n",
               msg);
  return 2;
}

void print_pass(const char* kind, std::size_t i, const Pass& p) {
  std::printf("pass %s#%zu: input=%d setup=%.6fs wall=%.4fs attempted=%" PRId64
              " failed=%" PRId64 " %s%s%s\n",
              kind, i, p.input, p.setup_s, p.wall_s, p.attempted, p.failed,
              p.counters.str().c_str(), p.error.empty() ? "" : " error=",
              p.error.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + key).c_str());
    const std::string val = argv[++i];
    if (key == "--workload") {
      args.workload = val;
    } else if (key == "--seed") {
      args.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(val.c_str(), nullptr);
    } else if (key == "--trace") {
      args.trace = val == "1";
    } else if (key == "--trace-out") {
      args.trace_out = val;
    } else if (key == "--commit") {
      args.commit = val;
    } else {
      return usage(("unknown flag " + key).c_str());
    }
  }
  const WorkloadDef* workload = nullptr;
  for (const WorkloadDef& w : kWorkloads) {
    if (args.workload == w.name) workload = &w;
  }
  if (workload == nullptr) return usage("unknown workload");
  if (!(args.seconds > 0.0)) return usage("--seconds must be positive");

  const std::vector<int> cpus = allowed_cpus();
  Provenance prov{args.workload, args.seed, args.commit, detect_sanitizers(),
                  cpus.size()};
  std::printf("provenance: %s\n", prov.json().c_str());
  const std::string build_type = PERFBENCH_BUILD_TYPE;
  if ((build_type != "Release" && build_type != "RelWithDebInfo") ||
      !prov.sanitizers.empty()) {
    std::fprintf(stderr,
                 "perfbench_harness: refusing to measure a '%s' build "
                 "(sanitizers: '%s'); build Release without sanitizers\n",
                 build_type.c_str(), prov.sanitizers.c_str());
    return 3;
  }
#if !defined(NDEBUG)
  std::fprintf(stderr, "perfbench_harness: refusing a build without NDEBUG\n");
  return 3;
#endif

  bool correct = true;
  std::string self_detail;
  bool self_ok = false;
  try {
    self_ok = self_test(&self_detail);
  } catch (const std::exception& e) {
    self_detail = std::string("escaped: ") + e.what();
  }
  std::printf("self-test (injected bad arrival): %s %s\n",
              self_ok ? "ok" : "FAILED", self_detail.c_str());
  correct = correct && self_ok;

  Tracer tr(Clock::now());
  std::vector<double> setup_samples;
  auto sample_setup = [&] {
    try {
      for (int i = 0; i < kSetupSamples; ++i) {
        const auto t0 = Clock::now();
        workload->setup(input_seed(args.seed, static_cast<int>(
                                                  setup_samples.size() % kInputs)));
        setup_samples.push_back(seconds(Clock::now() - t0));
      }
    } catch (const std::exception& e) {
      correct = false;
      std::printf("setup failed: %s\n", e.what());
    }
  };

  // A pass that throws outside its own layer calls (in set-up) fails
  // whole; the run moves on.
  auto run_pass = [&](int input, bool check) {
    Pass p;
    try {
      p = workload->pass(input_seed(args.seed, input), check, tr);
    } catch (const std::exception& e) {
      p = Pass{};
      p.attempted = p.failed = workload->ops_per_pass;
      p.error = e.what();
    }
    p.input = input;
    return p;
  };

  // Timed (and, with --trace 1, alternating traced) passes, as many as
  // fit in --seconds at the median pass time so far (at least one each).
  // The j-th pass of each kind runs input j % kInputs, so a traced pass
  // and the untraced one before it schedule the same input. Each untraced
  // pass, with the set-up samples before it and the traced pass after it,
  // runs pinned to the next allowed CPU in turn: on a shared host the
  // CPUs differ in speed by up to 1.5x for minutes at a time, and a run
  // left on one CPU measures that CPU's luck rather than the program.
  std::vector<Pass> plain;
  std::vector<Pass> traced;
  std::vector<double> pass_walls;
  const auto measure_start = Clock::now();
  while (true) {
    const bool trace_this = args.trace && plain.size() > traced.size();
    const int input =
        static_cast<int>((trace_this ? traced.size() : plain.size()) % kInputs);
    if (!trace_this) {
      if (!cpus.empty()) run_on({cpus[plain.size() % cpus.size()]});
      sample_setup();
    }
    const auto pass_start = Clock::now();
    tr.set_enabled(trace_this);
    tr.begin_pass("pass", static_cast<std::int64_t>(plain.size() + traced.size()));
    Pass p = run_pass(input, /*check=*/false);
    tr.end_pass();
    tr.set_enabled(false);
    print_pass(trace_this ? "traced" : "timed",
               trace_this ? traced.size() : plain.size(), p);
    (trace_this ? traced : plain).push_back(std::move(p));
    pass_walls.push_back(seconds(Clock::now() - pass_start));
    const bool full = seconds(Clock::now() - measure_start) + median(pass_walls) >
                      args.seconds;
    if (full && (!args.trace || !traced.empty())) break;
  }
  const double rss_mb = static_cast<double>(peak_rss_kb()) / 1024.0;
  run_on(cpus);

  tr.set_enabled(args.trace);
  tr.begin_pass("check", -1);
  Pass check = run_pass(0, /*check=*/true);
  tr.end_pass();
  tr.set_enabled(false);
  print_pass("check", 0, check);

  // Failures, and counters that must agree across every pass over the
  // same input.
  std::int64_t attempted = check.attempted;
  std::int64_t failed = check.failed;
  std::vector<const Pass*> all;
  for (const Pass& p : plain) all.push_back(&p);
  for (const Pass& p : traced) all.push_back(&p);
  all.push_back(&check);
  std::map<int, const Pass*> first;  // input -> its first pass
  for (const Pass* p : all) {
    if (p != &check) {
      attempted += p->attempted;
      failed += p->failed;
    }
    const Pass* ref = first.emplace(p->input, p).first->second;
    if (p->failed == 0 && ref->failed == 0 && !(p->counters == ref->counters)) {
      correct = false;
      std::printf("MISMATCH: input %d counters %s differ from its first pass %s\n",
                  p->input, p->counters.str().c_str(), ref->counters.str().c_str());
    }
  }
  if (!check.check.has_value()) {
    correct = false;
    std::printf("check pass produced no schedules to replay\n");
  } else {
    const Check& c = *check.check;
    failed += c.failed_flows;
    std::printf("replay: flows_checked=%" PRId64 " issues=%" PRId64
                " failed_flows=%" PRId64 " replay_s=%.4f%s%s\n",
                c.flows_checked, c.issues, c.failed_flows, c.replay_s,
                c.first_issue.empty() ? "" : " first_issue=",
                c.first_issue.c_str());
    if (c.issues > 0) correct = false;
  }

  // Metrics.
  std::vector<std::pair<MetricDef, double>> out;
  if (!args.trace) {
    std::vector<double> decisions;
    std::vector<double> walls;
    std::vector<double> solves;
    double arrivals = 0.0;
    double busy = 0.0;
    for (const Pass& p : plain) {
      setup_samples.push_back(p.setup_s);
      decisions.insert(decisions.end(), p.decision_ms.begin(),
                       p.decision_ms.end());
      walls.push_back(p.wall_s);
      solves.insert(solves.end(), p.solve_s.begin(), p.solve_s.end());
      arrivals += static_cast<double>(p.decision_ms.size());
      busy += p.wall_s;
    }
    std::string tail_label;
    const double p99 = tail(decisions, &tail_label);
    std::printf("decisions: samples=%zu tail=%s passes=%zu\n", decisions.size(),
                tail_label.c_str(), plain.size());
    const Check c = check.check.value_or(Check{});
    const double success =
        attempted > 0 ? 1.0 - static_cast<double>(failed) /
                                  static_cast<double>(attempted)
                      : 0.0;
    const double values[] = {
        median(setup_samples),
        median(decisions),
        p99,
        busy > 0.0 ? arrivals / busy : 0.0,
        c.admit_ratio,
        c.energy_per_volume,
        solves.empty() ? median(walls) : median(solves),
        c.energy_over_lb,
        rss_mb,
        success,
    };
    for (std::size_t i = 0; i < std::size(kEndToEnd); ++i) {
      out.emplace_back(kEndToEnd[i], values[i]);
    }
  } else {
    // Counts from the first traced pass (input 0, the check pass's input;
    // they repeat exactly), times as the median over traced passes;
    // sim.* from the traced check pass.
    std::map<std::string, std::vector<double>> samples;
    for (const Pass& p : traced) {
      for (const auto& [name, v] : p.layer) samples[name].push_back(v);
    }
    std::vector<double> plain_wall, traced_wall;
    for (const Pass& p : plain) plain_wall.push_back(p.wall_s);
    for (const Pass& p : traced) traced_wall.push_back(p.wall_s);
    const Check c = check.check.value_or(Check{});
    for (const MetricDef& m : kPerLayer) {
      const std::string name = m.name;
      double v = 0.0;
      if (name == "sim.replay_s") {
        v = c.replay_s;
      } else if (name == "sim.flows_checked") {
        v = static_cast<double>(c.flows_checked);
      } else if (name == "sim.issues") {
        v = static_cast<double>(c.issues);
      } else if (name == "decision.samples") {
        v = static_cast<double>(traced.front().decision_ms.size());
      } else if (name == "trace.overhead") {
        v = median(traced_wall) - median(plain_wall);
      } else if (name == "trace.coverage") {
        v = tr.median_coverage();
      } else if (name == "trace.spans") {
        v = static_cast<double>(tr.spans().size());
      } else if (const auto it = samples.find(name); it != samples.end()) {
        v = is_time(name) ? median(it->second) : it->second.front();
      }
      out.emplace_back(m, v);
    }
    if (!args.trace_out.empty()) {
      if (tr.write(args.trace_out, prov.json())) {
        std::printf("trace: %zu spans written to %s (coverage %.4f)\n",
                    tr.spans().size(), args.trace_out.c_str(),
                    tr.median_coverage());
      } else {
        correct = false;
        std::printf("trace: could not write %s\n", args.trace_out.c_str());
      }
    }
  }

  for (const auto& [m, v] : out) {
    std::printf("metric %-32s %.10g %s\n", m.name, v, m.unit);
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < out.size(); ++i) {
    char buf[256];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", out[i].first.name, out[i].second,
                  out[i].first.unit);
    json += buf;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
