// The online event loop: stream -> shard -> coordinator.
//
// ShardedScheduler is the one event loop of every online policy:
// online_dcfsr, online_greedy and the always-on service. It absorbs
// epoch batches of arrivals (from a trace or an EventStream pulled on
// demand) and runs each global event in two phases:
//
//   Phase A (parallel over affected source groups): each group — a
//   long-lived shard worker owning its warm rows, path atoms, active
//   set, rng stream, and reachability cache — pops its completions,
//   runs the departures-only gap check, builds its residual problem,
//   warm re-solves the relaxation in its private workspace, and draws
//   candidate paths by randomized rounding from its own rng stream.
//   Nothing global is written: proposals go to per-group slots, so any
//   worker count produces identical state (the BatchRunner house rule).
//
//   Phase B (the core-link coordinator, serial): proposals are folded
//   in ascending group id — i.e. reservations are arbitrated in
//   deterministic (event-time, shard-id, flow-id) order — against the
//   one committed-load EdgeLoadIndex, which only phase B and the prune
//   between the phases touch. With more than one group, a group's joint
//   draw checked capacity only against its own residual timeline, so
//   every drawn path is verified against the index before committing
//   (and likewise once re-rating may have reshaped committed profiles).
//   Arrivals whose drawn path no longer fits go through the per-flow
//   fallback (fresh draws from the group's stream, then — with
//   allow_rerate — the deadline-safe re-rate transaction over the
//   group's own in-flight flows).
//
// That is the relaxation placement rule. The greedy rule (online_greedy)
// skips the re-solve: phase B routes each routable arrival on its
// least-marginal-energy path against the index, at density or EDF-filled.
//
// The decomposition (which flows solve together) is fixed by the
// topology via ShardPlan, so results are byte-identical for any shard
// count >= 2 and any worker count. On ShardPlan::single_group with the
// caller's rng the scheduler is the plain event loop: that is what
// online_dcfsr runs, and what online_dcfsr_sharded runs for a 1-lane or
// 1-group plan, so "1 shard" is online_dcfsr_flat byte for byte.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/parallel.h"
#include "common/random.h"
#include "mcf/relaxation.h"
#include "online/admission_core.h"
#include "online/event_stream.h"
#include "online/load_index.h"
#include "online/online_scheduler.h"
#include "online/shard_plan.h"

namespace dcn {

/// How phase B places an event's arrivals (see the file comment).
enum class Placement {
  kRelaxation,  // warm re-solve + randomized rounding (online_dcfsr)
  kGreedy,      // marginal-energy routing + EDF fill (online_greedy)
};

/// The long-lived admission engine. Feed arrivals in event
/// order via process_batch (each batch = one global event: the epoch
/// window starting at the batch's first release); read the aggregate
/// OnlineResult with take_result() when the stream ends. Result rows
/// are indexed by feed order (slot k = k-th arrival fed), not by the
/// caller's original flow indices — online_dcfsr_sharded() remaps.
class ShardedScheduler {
 public:
  /// `stream_seed` seeds the per-shard rng streams (one mix per group).
  /// `workers` caps phase-A concurrency: 0 = min(hardware, lanes).
  /// `discard_completed` drops completed flows' committed segments and
  /// paths (service mode: keeps resident state proportional to flows
  /// in flight; the aggregate counters stay exact, the returned
  /// schedule keeps only in-flight rows). `placement` picks the rule.
  ShardedScheduler(const Graph& g, const PowerModel& model,
                   const OnlineOptions& options, const ShardPlan& plan,
                   std::uint64_t stream_seed, std::int32_t workers,
                   bool discard_completed,
                   Placement placement = Placement::kRelaxation);
  /// The plain event loop: a single-group `plan` (ShardPlan::
  /// single_group) whose rounding draws come straight from the caller's
  /// `rng`, serial, completed rows kept. `rng` must outlive the
  /// scheduler.
  ShardedScheduler(const Graph& g, const PowerModel& model,
                   const OnlineOptions& options, const ShardPlan& plan,
                   Rng& rng);
  ~ShardedScheduler();  // out of line: GroupState is private to the TU

  /// One global event: `batch` holds the arrivals with release in
  /// [now, now + epoch], in (release, id) order; `now` is the first
  /// release. Calls must present non-decreasing `now`.
  void process_batch(double now, const std::vector<Flow>& batch);

  /// Finalizes index-health counters and moves the result out.
  [[nodiscard]] OnlineResult take_result();

  /// Validates `flows`, feeds them in epoch batches (decision point =
  /// the batch's first release) and returns take_result() re-indexed
  /// like `flows` (latencies stay in decision order).
  [[nodiscard]] OnlineResult run_trace(const std::vector<Flow>& flows,
                                       double epoch);

  /// Live introspection for the stream service's periodic flushes.
  [[nodiscard]] const OnlineResult& result() const { return out_; }
  [[nodiscard]] std::int64_t arrivals() const {
    return static_cast<std::int64_t>(flows_.size());
  }
  [[nodiscard]] std::int64_t completed() const { return completed_; }
  [[nodiscard]] std::int32_t in_flight() const;
  [[nodiscard]] std::int32_t peak_live_segments() const;
  [[nodiscard]] std::int64_t load_segments_pruned() const;

 private:
  struct GroupState;
  struct Proposal;

  [[nodiscard]] double residual_volume(std::size_t slot, double t) const;
  void phase_a(GroupState& gs, const std::vector<std::size_t>& batch_slots,
               double now, Proposal& p);
  void phase_b(GroupState& gs, double now, Proposal& p);
  [[nodiscard]] bool place_greedy(std::size_t slot);
  void release_warm(std::size_t slot);
  void audit_warm_state() const;

  const Graph& g_;
  const PowerModel& model_;
  const OnlineOptions options_;
  const ShardPlan& plan_;
  const Placement placement_;
  const double capacity_;
  const bool discard_completed_;
  // Phase B verifies a feasible joint draw against the index before
  // committing it unless the draw already saw all committed load: one
  // group, and no re-rate ever reshaped a committed profile.
  const bool verify_draws_;

  std::vector<std::unique_ptr<GroupState>> groups_;
  std::unique_ptr<WorkerPool> pool_;  // phase A lanes; null = serial

  // Slot-indexed state (slot = feed order). Phase A touches only its
  // own group's slots, so parallel groups never alias.
  std::vector<Flow> flows_;
  std::vector<SparseEdgeFlow> warm_;
  std::vector<AtomSet> warm_atoms_;
  std::vector<char> rerated_;

  EdgeLoadIndex load_;
  OnlineResult out_;
  std::int64_t completed_ = 0;
  bool first_lb_set_ = false;

  // Per-batch scratch, reused across events.
  std::vector<std::vector<std::size_t>> batch_slots_;
  std::vector<std::int32_t> affected_;
  std::vector<double> edge_weights_;  // place_greedy's Dijkstra weights
};

/// Batch-API entry point, registered as `online_dcfsr_sharded`: runs
/// the scheduler over a materialized trace and returns a result
/// indexed like the input (drop-in comparable with online_dcfsr).
/// Plans with a single lane or a single source group run on
/// ShardPlan::single_group with the caller's rng stream — exactly
/// online_dcfsr under the same options. With >= 2 lanes the output is
/// a pure function of (inputs, plan groups): byte-identical for any
/// shard count >= 2 and any `workers` (0 = min(hardware, lanes)).
[[nodiscard]] OnlineResult online_dcfsr_sharded(
    const Graph& g, const std::vector<Flow>& flows, const PowerModel& model,
    Rng& rng, const OnlineOptions& options, const ShardPlan& plan,
    std::int32_t workers = 0);

/// Periodic service snapshot handed to the stream runner's flush
/// callback (stats are cumulative since the stream started).
struct StreamFlushStats {
  double now = 0.0;           // current event time (trace time)
  std::int64_t arrivals = 0;  // pulled from the stream so far
  std::int32_t admitted = 0;
  std::int32_t rejected = 0;
  std::int64_t completed = 0;      // admitted flows past their deadline
  std::int32_t in_flight = 0;      // admitted, still active
  std::int32_t resolves = 0;       // relaxation re-solves so far
  double p50_ms = 0.0;             // decision latency so far (wall clock)
  double p99_ms = 0.0;
  std::int32_t peak_live_segments = 0;
  std::int64_t segments_pruned = 0;
  std::int64_t peak_rss_kb = 0;  // process high-water (getrusage)
};

/// Sustained-stream mode: pulls arrivals from `stream` (never
/// materializing the trace), feeds them to a ShardedScheduler in epoch
/// batches, and invokes `on_flush` every `flush_every` arrivals (and
/// once at the end; pass 0 to disable periodic flushes). With
/// `discard_completed` (service default) completed flows' committed
/// segments are dropped as they finish, so resident state tracks the
/// in-flight working set instead of the stream length — the returned
/// schedule then keeps only still-in-flight rows, while admission
/// counters and decision latencies stay exact.
[[nodiscard]] OnlineResult run_online_stream(
    const Graph& g, EventStream& stream, const PowerModel& model, Rng& rng,
    const OnlineOptions& options, const ShardPlan& plan, std::int32_t workers,
    std::int64_t flush_every,
    const std::function<void(const StreamFlushStats&)>& on_flush,
    bool discard_completed = true);

/// Process-wide peak resident set size in KB (getrusage high-water;
/// monotonic over the process lifetime — callers comparing runs should
/// measure in separate processes). 0 where unsupported.
[[nodiscard]] std::int64_t peak_rss_kb();

}  // namespace dcn
