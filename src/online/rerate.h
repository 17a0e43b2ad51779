// The preemption/re-rate transaction (OnlineOptions::allow_rerate).
//
// The deadline-safe PDQ-style pass that reshapes in-flight flows'
// *future* rate profiles behind a commit barrier. The event loop
// (sharded.cc) runs it in phase B, over the arriving flow's group's
// in-flight set, against the scheduler's one EdgeLoadIndex.
#pragma once

#include <cstddef>
#include <set>
#include <utility>
#include <vector>

#include "online/admission_core.h"

namespace dcn {
namespace online_impl {

/// The deadline-safe re-rate pass (OnlineOptions::allow_rerate). Tries
/// to make room for arrival `fl` (flow index `arrival`) at its density
/// rate on `path` by reshaping the future rate profiles of admitted
/// in-flight flows that share an edge with `path` — re-rate, never
/// re-route. The transaction:
///
///   1. Retract every candidate's future segments from the index. If
///      the arrival still does not fit, the displaced load was not the
///      obstacle: restore and fail.
///   2. Place the arrival at its density over its true span.
///   3. Re-admit the candidates in deadline (EDF) order. A candidate
///      whose old future still fits keeps it bitwise — it is not
///      re-rated, its warm rows stay valid. Otherwise it is repacked
///      within [max(now, release), deadline] on its committed path: at
///      its flat residual density when that fits (re-rating should not
///      spike rates — the power curve is convex), else into the
///      earliest remaining capacity (edf_fill).
///   4. The commit barrier: if any candidate cannot move its full
///      remaining volume by its deadline, every index mutation is
///      rolled back (bitwise: the retract/add pairs cancel exactly) and
///      the pass fails — no admitted deadline is ever broken.
///
/// On success the arrival's schedule + admission are recorded (its load
/// is already placed), reshaped candidates get their segments stitched
/// (immutable past + repacked future), their warm rows/atoms dropped
/// (the rows route the original density, which the reshaped profile no
/// longer has), and their `rerated` flags set — from then on their
/// residual demands are computed from the committed profile, not the
/// density invariant. Consumes no rng: given the same index state the
/// pass is deterministic.
inline bool try_rerate(OnlineResult& out, EdgeLoadIndex& load,
                       const std::vector<Flow>& flows,
                       const std::set<std::pair<double, std::size_t>>& active,
                       double now, double capacity, std::size_t arrival,
                       const Path& path, std::vector<char>& rerated,
                       std::vector<SparseEdgeFlow>& warm,
                       std::vector<AtomSet>& warm_atoms) {
  const Flow& fl = flows[arrival];
  ++out.rerate_attempts;

  std::vector<char> on_path(static_cast<std::size_t>(
                                *std::max_element(path.edges.begin(),
                                                  path.edges.end()) +
                                1),
                            0);
  for (const EdgeId e : path.edges) on_path[static_cast<std::size_t>(e)] = 1;
  auto shares_edge = [&](const Path& p) {
    for (const EdgeId e : p.edges) {
      const auto k = static_cast<std::size_t>(e);
      if (k < on_path.size() && on_path[k]) return true;
    }
    return false;
  };

  // Candidates: admitted in-flight flows sharing an edge with `path`
  // whose profiles still have a future to reshape, in deadline order
  // (`active` iterates (deadline, index)).
  struct Candidate {
    std::size_t i;
    std::vector<RateSegment> old_future;
    double remaining;
  };
  std::vector<Candidate> candidates;
  for (const auto& [deadline, i] : active) {
    const FlowSchedule& fs = out.schedule.flows[i];
    if (!shares_edge(fs.path)) continue;
    std::vector<RateSegment> future = future_segments(fs, now);
    if (future.empty()) continue;
    candidates.push_back(
        {i, std::move(future), remaining_volume(flows[i], fs, now)});
  }
  if (candidates.empty()) return false;

  // 1. Retract the candidates' futures.
  for (const Candidate& c : candidates) {
    for (const RateSegment& seg : c.old_future) {
      for (const EdgeId e : out.schedule.flows[c.i].path.edges) {
        load.retract(e, seg.interval, seg.rate);
      }
    }
  }
  auto restore_futures = [&] {
    for (const Candidate& c : candidates) {
      for (const RateSegment& seg : c.old_future) {
        for (const EdgeId e : out.schedule.flows[c.i].path.edges) {
          load.add(e, seg.interval, seg.rate);
        }
      }
    }
  };
  if (!rate_fits(load, path, fl.span(), fl.density(), capacity)) {
    restore_futures();
    return false;
  }

  // 2. Place the arrival.
  for (const EdgeId e : path.edges) load.add(e, fl.span(), fl.density());

  // 3. Re-admit the candidates, earliest deadline first. `kept[k]` set
  // means candidate k kept its old future bitwise (not re-rated);
  // otherwise repacked[k] holds its replacement future.
  std::vector<std::vector<RateSegment>> repacked(candidates.size());
  std::vector<char> kept(candidates.size(), 0);
  bool feasible = true;
  std::size_t readmitted = 0;
  for (; readmitted < candidates.size(); ++readmitted) {
    const Candidate& c = candidates[readmitted];
    const Flow& cf = flows[c.i];
    const Path& cpath = out.schedule.flows[c.i].path;
    const Interval window{std::max(now, cf.release), cf.deadline};
    if (c.remaining <= 1e-12 * std::max(1.0, cf.volume)) {
      // Nothing left to move (an earlier re-rating accelerated it to
      // completion): its future stays empty.
      continue;
    }
    if (segments_fit(load, cpath, c.old_future, capacity)) {
      kept[readmitted] = 1;
      for (const RateSegment& seg : c.old_future) {
        for (const EdgeId e : cpath.edges) load.add(e, seg.interval, seg.rate);
      }
      continue;
    }
    const double flat = c.remaining / window.measure();
    if (rate_fits(load, cpath, window, flat, capacity)) {
      repacked[readmitted] = {{window, flat}};
    } else {
      repacked[readmitted] =
          edf_fill(load, cpath, window, c.remaining, capacity);
      if (repacked[readmitted].empty()) {
        feasible = false;
        break;
      }
    }
    for (const RateSegment& seg : repacked[readmitted]) {
      for (const EdgeId e : cpath.edges) load.add(e, seg.interval, seg.rate);
    }
  }

  if (!feasible) {
    // 4. Commit barrier: roll back bitwise — retract what was re-added,
    // retract the arrival, restore the original futures.
    for (std::size_t k = 0; k < readmitted; ++k) {
      const Candidate& c = candidates[k];
      const Path& cpath = out.schedule.flows[c.i].path;
      const std::vector<RateSegment>& placed =
          kept[k] ? c.old_future : repacked[k];
      for (const RateSegment& seg : placed) {
        for (const EdgeId e : cpath.edges) {
          load.retract(e, seg.interval, seg.rate);
        }
      }
    }
    for (const EdgeId e : path.edges) load.retract(e, fl.span(), fl.density());
    restore_futures();
    return false;
  }

  // Success: record the arrival (its load is already placed) and stitch
  // the reshaped candidates' profiles — immutable past + new future.
  record_commit(out, arrival, path, {{fl.span(), fl.density()}});
  for (std::size_t k = 0; k < candidates.size(); ++k) {
    const Candidate& c = candidates[k];
    if (kept[k]) continue;
    FlowSchedule& fs = out.schedule.flows[c.i];
    std::vector<RateSegment> stitched;
    for (const RateSegment& seg : fs.segments) {
      const Interval past{seg.interval.lo, std::min(seg.interval.hi, now)};
      if (!past.empty()) stitched.push_back({past, seg.rate});
    }
    stitched.insert(stitched.end(), repacked[k].begin(), repacked[k].end());
    fs.segments = std::move(stitched);
    if (!rerated[c.i]) ++out.rerated_flows;
    rerated[c.i] = 1;
    warm[c.i] = {};
    warm_atoms[c.i] = {};
  }
  ++out.rerate_commits;
  return true;
}

}  // namespace online_impl
}  // namespace dcn
