// The online event loop (see sharded.h for its shape and
// sharded_service.cc for the online_dcfsr / batch / stream entry
// points; online_greedy.cc holds the greedy placement rule and its
// entry point). Phase A is the per-event body — completions, gap
// check, residual build, warm re-solve, joint rounding draw — run per
// source group over the group's own state; phase B is the core-link
// coordinator: serial, ascending group id, committing against the one
// load index.
#include "online/sharded.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <set>
#include <string>
#include <thread>
#include <utility>

#include "common/contracts.h"
#include "dcfsr/random_schedule.h"
#include "online/rerate.h"

namespace dcn {

using online_impl::commit;
using online_impl::rate_fits;
using online_impl::rcd_before;
using online_impl::remaining_volume;
using online_impl::ReachabilityCache;
using online_impl::try_rerate;

/// A shard worker's long-lived state: its admitted in-flight flows
/// keyed by (deadline, slot) — completions pop off the front, the
/// residual problem reads the set in deadline order — and their
/// releases (the low-water mark's input), the relaxation workspace
/// reused across its re-solves, its rng stream (one deterministic mix
/// per group, independent of lane/worker placement, or the caller's own
/// stream on the plain event loop), and its reachability cache (sound
/// per group: flows are partitioned by source).
struct ShardedScheduler::GroupState {
  GroupState(const Graph& g, Rng stream)
      : own_rng(stream), rng(&own_rng), reach(g) {}
  // `rng` may point into this object: never copied or moved.
  GroupState(const GroupState&) = delete;
  GroupState& operator=(const GroupState&) = delete;

  std::set<std::pair<double, std::size_t>> active;  // (deadline, slot)
  std::multiset<double> live_releases;
  RelaxationWorkspace workspace;
  Rng own_rng;
  Rng* rng;  // &own_rng, or the caller's stream
  ReachabilityCache reach;
  std::vector<double> weights;  // draw_path scratch
};

/// What phase A hands the coordinator: the group's residual problem,
/// its solved relaxation (candidates feed the per-flow fallback), the
/// joint rounding draw, and the counters to fold — everything written
/// to per-group slots so concurrent groups never alias.
struct ShardedScheduler::Proposal {
  std::vector<Flow> residual;
  std::vector<std::size_t> orig;  // residual row -> slot (greedy: arrivals)
  std::size_t first_new = 0;
  FractionalRelaxation relax;
  RandomScheduleResult draw;
  bool solved = false;  // false: residual was empty, nothing to fold in B

  std::int64_t completions = 0;
  std::int32_t rejected_unroutable = 0;
  std::int32_t gap_checks = 0;
  std::int64_t gap_iterations = 0;
  std::int64_t fw_iterations = 0;
  FrankWolfeStats fw_stats;
  double lower_bound = 0.0;
};

ShardedScheduler::ShardedScheduler(const Graph& g, const PowerModel& model,
                                   const OnlineOptions& options,
                                   const ShardPlan& plan,
                                   std::uint64_t stream_seed,
                                   std::int32_t workers,
                                   bool discard_completed,
                                   Placement placement)
    : g_(g),
      model_(model),
      options_(options),
      plan_(plan),
      placement_(placement),
      capacity_(model.capacity()),
      discard_completed_(discard_completed),
      verify_draws_(plan.num_groups() > 1 || options.allow_rerate),
      load_(g.num_edges(), options.audit_load_index) {
  const std::int32_t n = plan_.num_groups();
  DCN_EXPECTS(n > 0);
  groups_.reserve(static_cast<std::size_t>(n));
  for (std::int32_t gid = 0; gid < n; ++gid) {
    groups_.push_back(std::make_unique<GroupState>(
        g, Rng(mix_seed(stream_seed, "shard-" + std::to_string(gid)))));
  }
  batch_slots_.resize(static_cast<std::size_t>(n));
  // Lanes cap concurrency, never semantics: phase A writes only
  // per-group slots, so any pool size (or none) is byte-identical.
  std::int32_t effective =
      workers <= 0 ? static_cast<std::int32_t>(std::max<unsigned>(
                         1, std::thread::hardware_concurrency()))
                   : workers;
  effective = std::min(effective, plan_.num_lanes());
  if (plan_.num_lanes() > 1 && effective > 1) {
    pool_ = std::make_unique<WorkerPool>(static_cast<std::size_t>(effective));
  }
}

ShardedScheduler::ShardedScheduler(const Graph& g, const PowerModel& model,
                                   const OnlineOptions& options,
                                   const ShardPlan& plan, Rng& rng)
    : ShardedScheduler(g, model, options, plan, /*stream_seed=*/0,
                       /*workers=*/1, /*discard_completed=*/false) {
  DCN_EXPECTS(plan.num_groups() == 1);
  groups_.front()->rng = &rng;
}

ShardedScheduler::~ShardedScheduler() = default;

std::int32_t ShardedScheduler::in_flight() const {
  std::size_t total = 0;
  for (const auto& gp : groups_) total += gp->active.size();
  return static_cast<std::int32_t>(total);
}

void ShardedScheduler::release_warm(std::size_t slot) {
  // `vector = {}` is assign(empty) and keeps the old capacity; warm
  // rows are sparse edge-flow vectors that can run to hundreds of
  // entries, and a completed or rejected slot is never written again.
  // Move-assigning a fresh vector actually releases the heap, which is
  // what keeps a long-running service's RSS proportional to the
  // in-flight working set instead of the stream length.
  warm_[slot] = SparseEdgeFlow();
  warm_atoms_[slot] = AtomSet();
}

double ShardedScheduler::residual_volume(std::size_t slot, double t) const {
  // The density invariant for untouched flows (residual density equals
  // original density), the committed profile's actual remainder once
  // re-rated: a reshaped profile is not flat.
  return rerated_[slot]
             ? remaining_volume(flows_[slot], out_.schedule.flows[slot], t)
             : flows_[slot].density() * (flows_[slot].deadline - t);
}

void ShardedScheduler::phase_a(GroupState& gs,
                               const std::vector<std::size_t>& batch_slots,
                               double now, Proposal& p) {
  // Completions since the group's previous activation: pop the prefix
  // with deadline <= now and release the departed flows' warm state.
  double depart = -std::numeric_limits<double>::infinity();
  while (!gs.active.empty() && gs.active.begin()->first <= now) {
    const std::size_t done = gs.active.begin()->second;
    depart = gs.active.begin()->first;
    gs.active.erase(gs.active.begin());
    gs.live_releases.erase(gs.live_releases.find(flows_[done].release));
    release_warm(done);
    ++p.completions;
    if (discard_completed_) {
      // Service mode: the completed flow's committed row is history —
      // drop its path and segments so resident state tracks the
      // in-flight working set, not the stream length. The admission
      // flag and aggregate counters keep the outcome.
      out_.schedule.flows[done] = FlowSchedule{};
    }
  }

  if (placement_ == Placement::kGreedy) {
    // Nothing to re-solve: hand phase B the routable arrivals in batch
    // (release, id) order.
    for (const std::size_t slot : batch_slots) {
      if (gs.reach.routable(flows_[slot].src, flows_[slot].dst)) {
        p.orig.push_back(slot);
      } else {
        ++p.rejected_unroutable;
      }
    }
    return;
  }

  // Departures-only fast path. The completions changed the group's
  // carried problem by removal only: the surviving warm rows stay
  // feasible and close to optimal, so instead of a full relaxation the
  // latest completion time gets a single gap check — a one-iteration
  // warm re-solve that certifies the rows or sheds one step of mass
  // onto the freed capacity — and this event's re-solve starts from
  // rows adapted to the post-departure network.
  if (std::isfinite(depart) && !gs.active.empty()) {
    std::vector<Flow> survivors;
    std::vector<std::size_t> surviving;
    std::vector<SparseEdgeFlow> gap_rows;
    std::vector<AtomSet> gap_atoms;
    survivors.reserve(gs.active.size());
    // With a finite lookahead the survivors are clipped to
    // [depart, depart + W] at their original densities (no admission
    // happens here, so the window only shrinks the decomposition).
    const double gap_horizon =
        options_.lookahead_window > 0.0
            ? depart + options_.lookahead_window
            : std::numeric_limits<double>::infinity();
    for (const auto& [deadline, i] : gs.active) {
      Flow res = flows_[i];
      res.volume = residual_volume(i, depart);
      if (rerated_[i] &&
          res.volume <= 1e-12 * std::max(1.0, flows_[i].volume)) {
        continue;  // accelerated to completion before its deadline
      }
      res.id = static_cast<FlowId>(survivors.size());
      res.release = depart;
      if (res.deadline > gap_horizon) {
        // A re-rated profile is not flat: its clipped volume is the
        // window's share of the remainder.
        res.volume = rerated_[i]
                         ? res.volume *
                               ((gap_horizon - depart) / (deadline - depart))
                         : flows_[i].density() * (gap_horizon - depart);
        res.deadline = gap_horizon;
      }
      survivors.push_back(res);
      surviving.push_back(i);
      // Moved out and moved back below; a re-rated flow's are empty.
      gap_rows.push_back(std::move(warm_[i]));
      gap_atoms.push_back(std::move(warm_atoms_[i]));
    }
    // When every survivor was re-rated to completion there is nothing
    // to certify (and no problem to hand the relaxation): the check is
    // skipped and not counted. It reads no candidates, so none are
    // built.
    if (!survivors.empty()) {
      RelaxationOptions gap_options = options_.rounding.relaxation;
      gap_options.frank_wolfe.max_iterations = 1;
      FractionalRelaxation check = solve_relaxation(
          g_, survivors, model_, gap_options, &gs.workspace,
          std::move(gap_rows), std::move(gap_atoms),
          /*first_candidate_row=*/survivors.size());
      ++p.gap_checks;
      p.gap_iterations += check.total_fw_iterations;
      p.fw_stats += check.fw_stats;
      for (std::size_t r = 0; r < survivors.size(); ++r) {
        if (rerated_[surviving[r]]) continue;  // stays cold
        warm_[surviving[r]] = std::move(check.final_flow[r]);
        warm_atoms_[surviving[r]] = std::move(check.final_atoms[r]);
      }
    }
  }

  // Residual problem: the group's in-flight flows pinned to their
  // circuits (at their residual volumes over [now, deadline]), then its
  // share of the arriving batch. A re-rated flow accelerated to
  // completion has nothing left to carry.
  std::vector<const Path*> forced;
  p.residual.reserve(gs.active.size() + batch_slots.size());
  for (const auto& [deadline, i] : gs.active) {
    (void)deadline;
    Flow res = flows_[i];
    res.volume = residual_volume(i, now);
    if (rerated_[i] && res.volume <= 1e-12 * std::max(1.0, flows_[i].volume)) {
      continue;
    }
    res.id = static_cast<FlowId>(p.residual.size());
    res.release = now;
    p.residual.push_back(res);
    p.orig.push_back(i);
    forced.push_back(&out_.schedule.flows[i].path);
  }
  p.first_new = p.residual.size();
  for (const std::size_t slot : batch_slots) {
    Flow res = flows_[slot];
    if (!gs.reach.routable(res.src, res.dst)) {
      // No route at all: reject here rather than crash the routing
      // oracle inside the relaxation.
      ++p.rejected_unroutable;
      continue;
    }
    res.id = static_cast<FlowId>(p.residual.size());
    p.residual.push_back(res);
    p.orig.push_back(slot);
    forced.push_back(nullptr);
  }
  if (p.residual.empty()) return;  // p.solved stays false

  // Warm-started re-solve over the group's shifted horizon with the
  // configured rule (the all-at-t=0 case is then offline dcfsr bit for
  // bit). Flows whose deadlines lie past now + W enter the
  // *relaxation* clipped to the window at their original densities —
  // admission below still checks the true spans, so the window affects
  // solve cost, never soundness; an epoch-batched arrival releasing at
  // or past the horizon keeps its true span. The warm state moves
  // through the solve and back into warm_ / warm_atoms_ below.
  std::vector<SparseEdgeFlow> warm_rows(p.residual.size());
  std::vector<AtomSet> warm_atom_rows(p.residual.size());
  for (std::size_t r = 0; r < p.residual.size(); ++r) {
    warm_rows[r] = std::move(warm_[p.orig[r]]);
    warm_atom_rows[r] = std::move(warm_atoms_[p.orig[r]]);
  }
  const std::vector<Flow>* relax_flows = &p.residual;
  std::vector<Flow> clipped;
  if (options_.lookahead_window > 0.0) {
    const double horizon = now + options_.lookahead_window;
    bool any_clipped = false;
    for (const Flow& fl : p.residual) {
      if (fl.deadline > horizon && fl.release < horizon) {
        any_clipped = true;
        break;
      }
    }
    if (any_clipped) {
      clipped = p.residual;
      for (Flow& fl : clipped) {
        if (fl.deadline > horizon && fl.release < horizon) {
          fl.volume = fl.density() * (horizon - fl.release);
          fl.deadline = horizon;
        }
      }
      relax_flows = &clipped;
    }
  }
  // Pinned rows keep their committed paths: only the arrivals (from
  // first_new on) need candidates, for the draw and phase B's fallback.
  p.relax = solve_relaxation(g_, *relax_flows, model_,
                             options_.rounding.relaxation, &gs.workspace,
                             std::move(warm_rows), std::move(warm_atom_rows),
                             p.first_new);
  p.solved = true;
  p.fw_iterations += p.relax.total_fw_iterations;
  p.fw_stats += p.relax.fw_stats;
  p.lower_bound = p.relax.lower_bound_energy;
  for (std::size_t r = 0; r < p.residual.size(); ++r) {
    if (rerated_[p.orig[r]]) {
      // A re-rated flow's residual density drifts between events, so
      // rows routing this event's density would be stale: stay cold.
      release_warm(p.orig[r]);
      continue;
    }
    warm_[p.orig[r]] = std::move(p.relax.final_flow[r]);
    warm_atoms_[p.orig[r]] = std::move(p.relax.final_atoms[r]);
  }

  // Joint rounding draw with admitted flows pinned to their circuits
  // (exactly offline Algorithm 2 when nothing is pinned); commits
  // happen in phase B.
  p.draw = round_relaxation(g_, p.residual, model_, p.relax, *gs.rng,
                            options_.rounding, &forced);
}

void ShardedScheduler::phase_b(GroupState& gs, double now, Proposal& p) {
  completed_ += p.completions;
  out_.num_rejected += p.rejected_unroutable;
  out_.departure_gap_checks += p.gap_checks;
  out_.gap_check_iterations += p.gap_iterations;
  out_.fw_stats += p.fw_stats;

  auto admit_into_index = [&](std::size_t i) {
    gs.active.emplace(flows_[i].deadline, i);
    gs.live_releases.insert(flows_[i].release);
  };
  if (placement_ == Placement::kGreedy) {
    for (const std::size_t i : p.orig) {
      if (place_greedy(i)) {
        admit_into_index(i);
      } else {
        ++out_.num_rejected;
      }
    }
    return;
  }

  if (!p.solved) return;
  ++out_.resolves;
  out_.fw_iterations += p.fw_iterations;
  if (!first_lb_set_) {
    out_.first_lower_bound = p.lower_bound;
    first_lb_set_ = true;
  }
  auto release_rejected = [&](std::size_t i) { release_warm(i); };

  // Per-flow fallback against the committed load: fresh draws from the
  // group's stream, then — with allow_rerate — deterministic re-rate
  // attempts over the top-weight candidate paths (ranked by rounding
  // weight, no rng, at most three distinct), reshaping the group's own
  // in-flight flows (the only ones a source-partitioned pass may).
  auto place_arrival = [&](std::size_t r) -> bool {
    const std::size_t i = p.orig[r];
    const Flow& fl = flows_[i];
    for (std::int32_t attempt = 0;
         attempt < options_.rounding.max_rounding_attempts; ++attempt) {
      ++out_.rounding_attempts;
      const Path& path = draw_path(p.relax.candidates[r], *gs.rng, gs.weights);
      if (rate_fits(load_, path, fl.span(), fl.density(), capacity_)) {
        commit(out_, load_, i, path, {{fl.span(), fl.density()}});
        admit_into_index(i);
        return true;
      }
    }
    if (!options_.allow_rerate) return false;
    std::vector<const WeightedPath*> ranked;
    for (const WeightedPath& wp : p.relax.candidates[r].paths) {
      ranked.push_back(&wp);
    }
    std::stable_sort(ranked.begin(), ranked.end(),
                     [](const WeightedPath* a, const WeightedPath* b) {
                       return a->weight > b->weight;
                     });
    std::size_t tried = 0;
    for (std::size_t k = 0; k < ranked.size() && tried < 3; ++k) {
      bool duplicate = false;
      for (std::size_t j = 0; j < k && !duplicate; ++j) {
        duplicate = ranked[j]->path.edges == ranked[k]->path.edges;
      }
      if (duplicate) continue;
      ++tried;
      if (try_rerate(out_, load_, flows_, gs.active, now, capacity_, i,
                     ranked[k]->path, rerated_, warm_, warm_atoms_)) {
        admit_into_index(i);
        return true;
      }
    }
    return false;
  };

  out_.rounding_attempts += p.draw.rounding_attempts;
  if (p.draw.capacity_feasible) {
    // Coordinator arbitration (verify_draws_): with other groups, shared
    // aggregation/core edges carry committed load the group's joint
    // check never saw, and a re-rated profile's acceleration is more
    // than its flat residual density. Each drawn path is then verified
    // against the index, in residual (event-time, shard-id, flow-id)
    // order, before it commits; flows the arbitration displaces go
    // through the per-flow fallback.
    std::vector<std::size_t> leftover;
    for (std::size_t r = p.first_new; r < p.residual.size(); ++r) {
      const Flow& fl = flows_[p.orig[r]];
      const Path& path = p.draw.schedule.flows[r].path;
      if (verify_draws_ &&
          !rate_fits(load_, path, fl.span(), fl.density(), capacity_)) {
        leftover.push_back(r);
        continue;
      }
      commit(out_, load_, p.orig[r], std::move(p.draw.schedule.flows[r].path),
             {{fl.span(), fl.density()}});
      admit_into_index(p.orig[r]);
    }
    for (const std::size_t r : leftover) {
      if (!place_arrival(r)) {
        ++out_.num_rejected;
        release_rejected(p.orig[r]);
      }
    }
    return;
  }

  // The group's joint admission failed within its attempt budget: admit
  // its batch share one flow at a time, each against the committed load
  // only — so one unroutable elephant cannot veto a batch of mice. The
  // order is RCD-style close-to-deadline first (ties: denser first,
  // then id), so urgent, hard-to-place flows draw their paths while the
  // committed load is lightest.
  ++out_.batch_fallbacks;
  std::vector<std::size_t> fallback_order;
  for (std::size_t r = p.first_new; r < p.residual.size(); ++r) {
    fallback_order.push_back(r);
  }
  std::sort(fallback_order.begin(), fallback_order.end(),
            [&](std::size_t a, std::size_t b) {
              return rcd_before(flows_[p.orig[a]], flows_[p.orig[b]]);
            });
  for (const std::size_t r : fallback_order) {
    if (!place_arrival(r)) {
      ++out_.num_rejected;
      release_rejected(p.orig[r]);
    }
  }
}

void ShardedScheduler::audit_warm_state() const {
  // Warm-state hygiene (audit mode): at every event exit only admitted
  // in-flight flows may hold warm rows or path atoms — a rejected or
  // departed flow keeping either would leak carried state and corrupt a
  // later re-solve (the rows route a density no residual contains).
  if (!options_.audit_load_index) return;
  std::vector<char> in_flight(flows_.size(), 0);
  for (const auto& gp : groups_) {
    for (const auto& [deadline, i] : gp->active) {
      (void)deadline;
      in_flight[i] = 1;
    }
  }
  for (std::size_t i = 0; i < flows_.size(); ++i) {
    if (in_flight[i]) continue;
    DCN_ENSURES(warm_[i].empty());
    DCN_ENSURES(warm_atoms_[i].empty());
  }
}

void ShardedScheduler::process_batch(double now,
                                     const std::vector<Flow>& batch) {
  ++out_.num_events;
  // dcn-lint: allow(wall-clock) timing capture: decision latency, reaches SolverOutcome::timings only (never canonical)
  const auto event_start = std::chrono::steady_clock::now();

  const std::size_t base = flows_.size();
  flows_.insert(flows_.end(), batch.begin(), batch.end());
  warm_.resize(flows_.size());
  warm_atoms_.resize(flows_.size());
  rerated_.resize(flows_.size(), 0);
  out_.schedule.flows.resize(flows_.size());
  out_.admitted.resize(flows_.size(), false);

  // Bucket the batch per group (batch order is (release, id), which
  // the buckets preserve), then find the affected groups: those with
  // arrivals or completions due. Untouched groups carry their state
  // forward for free — no per-event work proportional to group count
  // beyond this scan.
  for (auto& bucket : batch_slots_) bucket.clear();
  affected_.clear();
  for (std::size_t k = 0; k < batch.size(); ++k) {
    const std::size_t slot = base + k;
    const std::int32_t gid = plan_.group_of(flows_[slot]);
    DCN_EXPECTS(gid >= 0);
    batch_slots_[static_cast<std::size_t>(gid)].push_back(slot);
  }
  for (std::int32_t gid = 0; gid < plan_.num_groups(); ++gid) {
    GroupState& gs = *groups_[static_cast<std::size_t>(gid)];
    const bool arrivals = !batch_slots_[static_cast<std::size_t>(gid)].empty();
    const bool completions =
        !gs.active.empty() && gs.active.begin()->first <= now;
    if (arrivals || completions) affected_.push_back(gid);
  }

  // Phase A: independent per-group work, parallel across lanes. Every
  // write lands in the group's own slots or its proposal, so the task
  // schedule (and whether a pool exists at all) cannot affect results.
  std::vector<Proposal> proposals(affected_.size());
  auto run_group = [&](std::size_t task, std::size_t worker) {
    (void)worker;
    const auto gid = static_cast<std::size_t>(affected_[task]);
    phase_a(*groups_[gid], batch_slots_[gid], now, proposals[task]);
  };
  if (pool_ && affected_.size() > 1) {
    pool_->run(affected_.size(), run_group);
  } else {
    for (std::size_t t = 0; t < affected_.size(); ++t) run_group(t, 0);
  }

  // Prune between phases — completions popped, commits not yet placed
  // (phase A never touches the index). The mark is global:
  // min(now, earliest live release across every group). Departed
  // history is dead weight for every future probe, and folding it away
  // is what keeps probe cost flat as the stream grows.
  double earliest = now;
  for (const auto& gp : groups_) {
    if (!gp->live_releases.empty()) {
      earliest = std::min(earliest, *gp->live_releases.begin());
    }
  }
  load_.advance_low_water(earliest);

  // Phase B: the coordinator folds proposals in ascending group id —
  // deterministic (event-time, shard-id, flow-id) arbitration order.
  for (std::size_t t = 0; t < affected_.size(); ++t) {
    phase_b(*groups_[static_cast<std::size_t>(affected_[t])], now,
            proposals[t]);
  }

  out_.peak_in_flight = std::max(out_.peak_in_flight, in_flight());
  audit_warm_state();
  // dcn-lint: allow(wall-clock) timing capture: closes the decision-latency window opened at event_start
  const double ms = std::chrono::duration<double, std::milli>(
                        // dcn-lint: allow(wall-clock) timing capture: same latency read (continuation)
                        std::chrono::steady_clock::now() - event_start)
                        .count();
  for (std::size_t k = 0; k < batch.size(); ++k) {
    out_.decision_latency_ms.push_back(ms);
  }
}

OnlineResult ShardedScheduler::take_result() {
  out_.peak_live_segments = load_.peak_live_segments();
  out_.load_segments_pruned = load_.segments_pruned();
  return std::move(out_);
}

}  // namespace dcn
