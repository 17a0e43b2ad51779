// Online rolling-horizon scheduling for DCFSR.
//
// The paper solves DCFSR with every flow known upfront, but its own
// motivation — hard-deadline flows in production data centers — is
// online: flows arrive over time and the schedule must be re-planned
// without violating already-admitted deadlines (cf. RCD, DCoflow).
// This module runs that regime as an event-driven loop over arrival
// times:
//
//   * Arrivals with the same release time form one event batch.
//   * At each event the residual problem is formed: every admitted,
//     still-active flow contributes its remaining volume over
//     [now, d_i]; flows transmit at their density, so the residual
//     density equals the original density and committed rates never
//     need revision (the Theorem 4 schedule, executed online).
//   * Admission control: a batch (or, when joint admission fails, each
//     arrival individually, closest deadline first — the RCD urgency order
//     of Noormohammadpour et al., ties broken by higher density then id) is
//     accepted iff a capacity-feasible schedule exists for the union of
//     residual admitted demands and the new flow(s). Admitted flows are
//     never preempted or rejected later; rejected flows are dropped at
//     arrival (no partial service).
//   * Paths are virtual circuits: committed at admission and held fixed
//     through every later re-solve (a mid-flight path change is not
//     representable — nor desirable — in the circuit model of
//     Sec. III-A). Re-solves therefore re-optimize *routing of new
//     arrivals* against a fractional re-optimization of everything in
//     flight.
//   * With OnlineOptions::allow_rerate (the online_dcfsr_preempt
//     solver), the frozen-rate half of that contract softens: an
//     arrival that cannot fit against the committed load may trigger a
//     re-rate pass that reshapes the *future* rate profiles of admitted
//     in-flight flows sharing its path's edges — never their paths, and
//     never the past. A commit barrier keeps admitted deadlines
//     inviolable: each reshaped flow must still move its full remaining
//     volume by its deadline within capacity, or the whole pass rolls
//     back bitwise and the arrival is rejected (cf. PDQ's deadline-
//     aware preemptive re-rating).
//   * One event loop runs every online policy: ShardedScheduler
//     (sharded.h). online_dcfsr and online_greedy (its greedy placement
//     rule) run it on a single-group plan; online_dcfsr_sharded and the
//     always-on service on a per-source-pod plan.
//   * The event loop is indexed: admitted in-flight flows live in a
//     deadline-ordered active set, so each event touches O(active +
//     log n) state — completions pop off the front, the residual
//     problem reads the set directly, and the warm rows + path atoms
//     of departed (or rejected) flows are released immediately, so a
//     run over thousands of arrivals keeps memory and per-event cost
//     proportional to the flows actually in flight.
//
// Two policies:
//
//   online_dcfsr   On each event, re-solves the interval relaxation of
//                  Algorithm 2 over the residual demands — warm-started
//                  from the previous event's per-flow fractional flows
//                  with the configured (pairwise) step rule, and
//                  reusing one RelaxationWorkspace across the whole
//                  run, so a re-solve costs a fraction of a cold solve —
//                  then draws the new arrivals' paths by randomized
//                  rounding with admitted flows pinned to their
//                  circuits. Completions between arrivals take the
//                  departures-only fast path (a single gap check) in
//                  place of a full relaxation. When every flow arrives
//                  at t = 0 this degenerates to exactly offline
//                  Random-Schedule (asserted by
//                  tests/online_differential_test.cc).
//   online_greedy  No re-solve: each arrival is routed on the path of
//                  minimum marginal energy against the committed load
//                  (the greedy baseline's rule) and admitted at its
//                  density rate when capacity allows; when the constant
//                  density does not fit, an EDF-style fallback packs
//                  the flow into the earliest remaining capacity on
//                  that path, and the flow is rejected only when even
//                  that cannot finish by the deadline (or when no path
//                  exists at all — disconnected endpoints are a
//                  rejection, not an abort).
//   oracle_dcfsr   The hindsight baseline for empirical competitive
//                  ratios (cf. DCoflow): every flow is presented in one
//                  batch with full knowledge of the trace, admitted by
//                  exactly the online machinery — joint rounding first,
//                  per-flow fallback after — against the true spans.
//                  When the joint rounding is feasible (always, at
//                  infinite capacity) this IS offline Random-Schedule
//                  bit for bit; under contention the fallback runs
//                  *both* the RCD urgency order and a density-first
//                  order on identical rng streams and keeps whichever
//                  admits more (a single fixed order is beatable by the
//                  online policies it is supposed to bound — cf.
//                  DCoflow's offline subset selection), the denominator
//                  of bench_online's cr_admit and cr_energy columns.
#pragma once

#include <cstdint>
#include <vector>

#include "common/piecewise.h"
#include "common/random.h"
#include "dcfsr/random_schedule.h"
#include "flow/flow.h"
#include "graph/graph.h"
#include "online/load_index.h"
#include "power/power_model.h"
#include "schedule/schedule.h"

namespace dcn {

/// Knobs of the online schedulers. The event loop's relaxation rule
/// (ShardedScheduler: online_dcfsr, its flat/preempt/sharded variants
/// and the stream service) reads every field; oracle_dcfsr reads
/// `rounding` and `audit_load_index`; online_greedy, the loop's greedy
/// rule, reads only `audit_load_index`.
struct OnlineOptions {
  /// Relaxation + rounding knobs of the per-event re-solve, warm
  /// re-solves and departure gap checks included. The rounding attempt
  /// budget doubles as the per-event admission budget.
  RandomScheduleOptions rounding;
  /// Lookahead window W for the per-event re-solves; 0 keeps the
  /// full-horizon behavior bit for bit. With W > 0 every residual flow
  /// whose deadline lies past now + W enters the *relaxation* clipped to
  /// [release, now + W] at its original density (volume scaled to the
  /// clipped span) — near-deadline decisions only need a short lookahead
  /// (cf. RCD) and the interval decomposition shrinks with W instead of the
  /// longest remaining span. Admission stays sound at any W: the randomized
  /// rounding's capacity accept/reject and the per-flow fallback always
  /// check the *true* spans against the committed load, so a finite window
  /// can never break an admitted deadline (asserted across the property
  /// sweep). A window covering every span is bit-identical to W = 0.
  double lookahead_window = 0.0;
  /// Admission epoch; 0 keeps one event per distinct release time bit for
  /// bit. With epoch > 0 all arrivals whose releases land within `epoch` of
  /// the event's first arrival are admitted in a single joint re-solve —
  /// the event's decision point stays the *first* release (completions pop
  /// and residual volumes shrink to it, so the joint capacity check covers
  /// every batched span soundly); admitted batch members keep their true
  /// releases and densities. This trades up to `epoch` of extra decision
  /// latency (in trace time) for ~arrival_rate*epoch fewer re-solves per
  /// unit time.
  double epoch = 0.0;
  /// Deadline-safe re-rating of admitted flows (the online_dcfsr_preempt
  /// solver). When an arrival does not fit against the committed load —
  /// after the usual rounding attempts — a re-rate pass may reshape the
  /// *future* rate profiles of admitted in-flight flows that share an edge
  /// with the candidate path: their committed futures are retracted from
  /// the load index, the arrival is placed at its density, and each
  /// displaced flow is repacked within [now, deadline] — at its flat
  /// residual density when that still fits, else into the earliest
  /// remaining capacity (EDF) on its committed path. Paths are never
  /// changed and the past is never rewritten. The commit barrier: if any
  /// displaced flow cannot move its full remaining volume by its deadline
  /// within capacity, every profile is restored bitwise and the arrival is
  /// rejected — no previously admitted deadline is ever broken
  /// (property-swept with the audit shadow on, packet-sim replayed).
  /// Re-rated flows re-enter subsequent relaxations pinned to their paths
  /// with residual-size demands (their warm rows are dropped: the rows
  /// route the original density, which a reshaped profile no longer has).
  /// false is byte-identical to the plain event loop.
  bool allow_rerate = false;
  /// Differential audit: the EdgeLoadIndex keeps a naive never-pruned
  /// StepFunction shadow and cross-checks every probe bitwise (tests;
  /// far too slow for large runs). Also sweeps warm-state hygiene at
  /// every event: a flow that is not admitted-and-in-flight must hold
  /// no warm rows or path atoms.
  bool audit_load_index = false;
};

struct OnlineResult {
  /// One entry per input flow: admitted flows carry their committed
  /// path and rate segments, rejected flows are empty.
  Schedule schedule;
  std::vector<bool> admitted;

  std::int32_t num_admitted = 0;
  std::int32_t num_rejected = 0;
  /// Global events processed (distinct releases, or epoch batches).
  std::int32_t num_events = 0;

  // Relaxation diagnostics (zero for online_greedy: no re-solves).
  std::int32_t resolves = 0;            // full relaxation re-solves
  std::int64_t fw_iterations = 0;       // total Frank-Wolfe iterations
  std::int32_t rounding_attempts = 0;   // total rounding draws
  std::int32_t batch_fallbacks = 0;     // events demoted to per-flow admission
  /// Departures-only fast path: completion windows handled by a single
  /// gap check instead of a full relaxation, and the (one-per-interval)
  /// Frank-Wolfe iterations those checks spent — kept out of
  /// fw_iterations so the warm-start economy of the full re-solves
  /// stays directly comparable across runs.
  std::int32_t departure_gap_checks = 0;
  std::int64_t gap_check_iterations = 0;
  /// Per-phase Frank-Wolfe work summed over every relaxation call this
  /// run made (full re-solves and departure gap checks alike). The
  /// counters are deterministic — byte-identical across --jobs and
  /// oracle thread counts — and may surface as engine stats; the
  /// seconds are wall time and must stay out of canonical output.
  FrankWolfeStats fw_stats;
  /// LB of the first re-solve; equals the offline relaxation LB when
  /// every flow arrives at the first event.
  double first_lower_bound = 0.0;

  /// Largest number of admitted flows simultaneously in flight at any
  /// event — the working-set size the indexed event loop keeps warm
  /// state for (memory scales with this, not with the offered total).
  std::int32_t peak_in_flight = 0;

  /// Load-index health: the largest live-breakpoint count any edge's
  /// profile ever held, and the total breakpoints the low-water-mark
  /// pruning folded away. peak_live_segments is what bounds probe
  /// cost; segments_pruned is how much history the flat per-event
  /// claim did *not* have to carry. Deterministic (canonical-safe).
  std::int32_t peak_live_segments = 0;
  std::int64_t load_segments_pruned = 0;

  /// Wall-clock admission-decision latency per arrival, in the order
  /// decisions were made: each arrival is charged its event's
  /// processing time (every member of an epoch batch gets the batch's
  /// joint solve time — that is the latency a caller of the decision
  /// would see). Wall time: must never reach canonical output or
  /// stats; bench_online folds it into p50/p99 columns via
  /// SolverOutcome::timings.
  std::vector<double> decision_latency_ms;

  // online_greedy diagnostics.
  std::int32_t edf_fallbacks = 0;       // admissions via the EDF fill

  // Re-rating diagnostics (OnlineOptions::allow_rerate; all zero
  // otherwise). Deterministic — the pass consumes no rng.
  std::int32_t rerate_attempts = 0;  // re-rate passes tried
  std::int32_t rerate_commits = 0;   // passes that stuck (arrival admitted)
  std::int32_t rerated_flows = 0;    // in-flight profiles reshaped (cumulative)

  // oracle_dcfsr diagnostics: admitted counts of the two contended
  // fallback orders (-1 when the joint rounding was feasible and the
  // fallback never ran). The oracle keeps the better set.
  std::int32_t oracle_rcd_admitted = -1;
  std::int32_t oracle_density_admitted = -1;
};

/// Builds the flow subset selected by `admitted` with ids renumbered to
/// positions, and the matching schedule rows — the replayable view of
/// an online run (replay/packet-sim validate admitted flows only;
/// rejected flows receive no service by design).
[[nodiscard]] std::pair<std::vector<Flow>, Schedule> admitted_subset(
    const std::vector<Flow>& flows, const Schedule& schedule,
    const std::vector<bool>& admitted);

/// Runs the online loop with per-event relaxation re-solves (see file
/// comment). `rng` drives the randomized rounding; passing the offline
/// dcfsr stream makes the all-arrivals-at-t=0 case bit-identical to
/// offline Random-Schedule.
[[nodiscard]] OnlineResult online_dcfsr(const Graph& g,
                                        const std::vector<Flow>& flows,
                                        const PowerModel& model, Rng& rng,
                                        const OnlineOptions& options = {});

/// Runs the event loop's greedy rule: marginal-energy routing,
/// density-rate admission with EDF fallback, one event per distinct
/// release. Deterministic (no rng). Only audit_load_index is read from
/// `options` (there are no re-solves to window, batch or re-rate).
[[nodiscard]] OnlineResult online_greedy(const Graph& g,
                                         const std::vector<Flow>& flows,
                                         const PowerModel& model,
                                         const OnlineOptions& options = {});

/// Hindsight admission oracle (see file comment): offline dcfsr over
/// the whole trace with admission control — joint randomized rounding,
/// then a per-flow fallback run in both the RCD and the density-first
/// order (identical rng streams), keeping whichever admits more.
/// Passing the offline dcfsr rng stream makes the joint-feasible case
/// bit-identical to offline Random-Schedule. The denominator of
/// empirical competitive ratios.
[[nodiscard]] OnlineResult oracle_dcfsr(const Graph& g,
                                        const std::vector<Flow>& flows,
                                        const PowerModel& model, Rng& rng,
                                        const OnlineOptions& options = {});

/// EDF-style fallback fill: packs `volume` into the earliest remaining
/// capacity of `path` within `span` against the committed per-edge
/// load, one segment per elementary piece of constant committed load.
/// Returns the segments, or an empty vector when even the full
/// remaining capacity cannot finish the volume by span.hi (to the
/// relative tolerance of the admission slack). The cut collection and
/// per-piece load probes read only the span window of the index (plus
/// pruning, this is what makes the fill O(segments in span) instead of
/// O(total history)); in audit mode the result is cross-checked
/// against the reference overload below on the naive shadow.
[[nodiscard]] std::vector<RateSegment> edf_fill(const EdgeLoadIndex& load,
                                                const Path& path,
                                                const Interval& span,
                                                double volume, double capacity);

/// Reference implementation of the fill against plain StepFunctions —
/// scans every segment of each edge's full profile. Kept as the
/// differential baseline (audit mode and tests/edf_fill_test.cc); the
/// schedulers route through the indexed overload above.
[[nodiscard]] std::vector<RateSegment> edf_fill(
    const std::vector<StepFunction>& load, const Path& path,
    const Interval& span, double volume, double capacity);

}  // namespace dcn
