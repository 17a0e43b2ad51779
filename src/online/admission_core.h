// The event/admission core shared by every online scheduler TU.
//
// The admission primitives the online policies share — reachability
// screening, the fallback orders, the capacity probes and commits
// against the committed-load EdgeLoadIndex — with one definition for
// the event loop behind every online policy (sharded.cc, its entry
// points in sharded_service.cc and its greedy rule in
// online_greedy.cc), oracle_dcfsr.cc, edf_fill.cc and rerate.h. This
// header is internal to src/online; the public surface stays
// online_scheduler.h.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <numeric>
#include <utility>
#include <vector>

#include "flow/flow.h"
#include "graph/graph.h"
#include "graph/shortest_path.h"
#include "online/load_index.h"
#include "online/online_scheduler.h"
#include "schedule/schedule.h"

namespace dcn {
namespace online_impl {

/// Relative slack applied to every capacity comparison (mirrors the
/// rounding accept/reject step of Algorithm 2).
constexpr double kCapacitySlack = 1e-9;

/// Per-source reachability (the routing layer's bfs_distances), cached
/// per distinct source for the run. Online inputs are not pre-screened
/// for connectivity: every admission path must treat an unroutable
/// flow as a rejection, never feed it to the relaxation (whose routing
/// oracle asserts reachability). Connectivity is static for a run, so
/// each check after a source's first is O(1); the graph is directed,
/// so this is a true reachability sweep, not an undirected component
/// labeling. In the sharded service each shard keeps its own cache —
/// sound because flows are partitioned by source, so no two shards
/// ever sweep the same source.
class ReachabilityCache {
 public:
  explicit ReachabilityCache(const Graph& g) : g_(g) {}

  bool routable(NodeId src, NodeId dst) {
    auto [it, inserted] = cache_.try_emplace(src);
    if (inserted) it->second = bfs_distances(g_, src);
    return it->second[static_cast<std::size_t>(dst)] >= 0;
  }

 private:
  const Graph& g_;
  std::map<NodeId, std::vector<std::int32_t>> cache_;
};

/// RCD urgency order (Noormohammadpour et al.): closest deadline
/// first, then higher density, then id. Both per-flow admission
/// fallbacks — the online event loop's and the hindsight oracle's —
/// sort by exactly this comparator, which is what lets the oracle
/// claim "the online machinery with full knowledge".
inline bool rcd_before(const Flow& a, const Flow& b) {
  if (a.deadline != b.deadline) return a.deadline < b.deadline;
  if (a.density() != b.density()) return a.density() > b.density();
  return a.id < b.id;
}

/// Density-first fallback order (the DCoflow-style counterpart of RCD):
/// higher density first, then closer deadline, then id. Dense flows are
/// the hardest to place late; admitting them first wins on traces where
/// the RCD order burns capacity on urgent-but-thin flows.
inline bool density_before(const Flow& a, const Flow& b) {
  if (a.density() != b.density()) return a.density() > b.density();
  if (a.deadline != b.deadline) return a.deadline < b.deadline;
  return a.id < b.id;
}

/// Peak number of admitted flows simultaneously in flight: the maximum
/// overlap of the admitted spans (half-open, so a flow ending exactly
/// when another starts does not overlap it).
inline std::int32_t peak_overlap(const std::vector<Flow>& flows,
                                 const std::vector<bool>& admitted) {
  std::vector<std::pair<double, std::int32_t>> events;
  for (std::size_t i = 0; i < flows.size(); ++i) {
    if (!admitted[i]) continue;
    events.emplace_back(flows[i].release, +1);
    events.emplace_back(flows[i].deadline, -1);
  }
  std::sort(events.begin(), events.end());
  std::int32_t current = 0, peak = 0;
  for (const auto& [time, delta] : events) {
    current += delta;
    peak = std::max(peak, current);
  }
  return peak;
}

/// Arrival order: indices sorted by (release, id).
inline std::vector<std::size_t> arrival_order(const std::vector<Flow>& flows) {
  std::vector<std::size_t> order(flows.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&flows](std::size_t a, std::size_t b) {
    if (flows[a].release != flows[b].release) {
      return flows[a].release < flows[b].release;
    }
    return flows[a].id < flows[b].id;
  });
  return order;
}

/// True when adding constant rate `rate` over `span` keeps every edge of
/// `path` within capacity against the committed `load`. The peak lookup
/// is the index's max_within — cached prefix values plus a block-max
/// overlay over the live (unpruned) region, so the probe cost is bounded
/// by the in-flight history even after thousands of commits.
inline bool rate_fits(const EdgeLoadIndex& load, const Path& path,
                      const Interval& span, double rate, double capacity) {
  const double limit = capacity * (1.0 + kCapacitySlack);
  if (rate > limit) return false;
  for (const EdgeId e : path.edges) {
    if (load.max_within(e, span) + rate > limit) return false;
  }
  return true;
}

/// Records the committed schedule and admission of flow `i` without
/// touching the load index (the re-rate pass places the arrival's load
/// itself, mid-transaction).
inline void record_commit(OnlineResult& out, std::size_t i, Path path,
                          std::vector<RateSegment> segments) {
  FlowSchedule& fs = out.schedule.flows[i];
  fs.path = std::move(path);
  fs.segments = std::move(segments);
  out.admitted[i] = true;
  ++out.num_admitted;
}

/// Commits `segments` on `path` for flow `i`: records the flow schedule
/// and adds every segment to the per-edge load index.
inline void commit(OnlineResult& out, EdgeLoadIndex& load, std::size_t i,
                   Path path, std::vector<RateSegment> segments) {
  record_commit(out, i, std::move(path), std::move(segments));
  const FlowSchedule& fs = out.schedule.flows[i];
  for (const RateSegment& seg : fs.segments) {
    for (const EdgeId e : fs.path.edges) {
      load.add(e, seg.interval, seg.rate);
    }
  }
}

/// Volume flow `fl` still has to move at time `t` under its committed
/// profile (segments before `t` have been transmitted; `t` inside a
/// segment counts the elapsed part). Exact for any committed profile,
/// re-rated or not.
inline double remaining_volume(const Flow& fl, const FlowSchedule& fs,
                               double t) {
  double sent = 0.0;
  for (const RateSegment& seg : fs.segments) {
    const Interval past{seg.interval.lo, std::min(seg.interval.hi, t)};
    if (!past.empty()) sent += seg.rate * past.measure();
  }
  return std::max(0.0, fl.volume - sent);
}

/// The part of a committed profile at or after `t`, with a straddling
/// segment split at `t`. These are the segments the re-rate pass may
/// retract and replace; everything before `t` is history and immutable.
inline std::vector<RateSegment> future_segments(const FlowSchedule& fs,
                                                double t) {
  std::vector<RateSegment> future;
  for (const RateSegment& seg : fs.segments) {
    if (seg.interval.hi <= t) continue;
    future.push_back({{std::max(seg.interval.lo, t), seg.interval.hi}, seg.rate});
  }
  return future;
}

/// True when re-adding `segments` on `path` keeps every edge within
/// capacity against the committed `load` (the segments themselves are
/// not yet in the index).
inline bool segments_fit(const EdgeLoadIndex& load, const Path& path,
                         const std::vector<RateSegment>& segments,
                         double capacity) {
  const double limit = capacity * (1.0 + kCapacitySlack);
  for (const RateSegment& seg : segments) {
    for (const EdgeId e : path.edges) {
      if (load.max_within(e, seg.interval) + seg.rate > limit) return false;
    }
  }
  return true;
}

}  // namespace online_impl
}  // namespace dcn
