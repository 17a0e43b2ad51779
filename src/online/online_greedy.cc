// The greedy online baseline (see online_scheduler.h): a placement rule
// of the one event loop (sharded.h) — marginal-energy routing,
// density-rate admission with EDF fallback. No re-solves, no rng.
#include <algorithm>
#include <utility>
#include <vector>

#include "graph/shortest_path.h"
#include "online/sharded.h"

namespace dcn {

using online_impl::commit;
using online_impl::rate_fits;

bool ShardedScheduler::place_greedy(std::size_t slot) {
  // The greedy baseline's routing rule against the committed load. The
  // weight loop probes *every* edge per arrival, so each weight reads
  // only the span window of the pruned index, not the edge's history.
  const Flow& fl = flows_[slot];
  const double d = fl.density();
  edge_weights_.resize(static_cast<std::size_t>(g_.num_edges()));
  for (EdgeId e = 0; e < g_.num_edges(); ++e) {
    edge_weights_[static_cast<std::size_t>(e)] =
        std::max(load_.marginal_energy(e, fl.span(), d, model_), 1e-12);
  }
  auto path = dijkstra_shortest_path(g_, fl.src, fl.dst, edge_weights_);
  if (!path.has_value()) return false;

  if (rate_fits(load_, *path, fl.span(), d, capacity_)) {
    commit(out_, load_, slot, std::move(*path), {{fl.span(), d}});
    return true;
  }
  // EDF fallback: earliest remaining capacity on the same path.
  std::vector<RateSegment> segments =
      edf_fill(load_, *path, fl.span(), fl.volume, capacity_);
  if (segments.empty()) return false;
  ++out_.edf_fallbacks;
  commit(out_, load_, slot, std::move(*path), std::move(segments));
  return true;
}

OnlineResult online_greedy(const Graph& g, const std::vector<Flow>& flows,
                           const PowerModel& model,
                           const OnlineOptions& options) {
  // One event per distinct release: the rule has no re-solve to batch,
  // window or re-rate, so only the audit switch carries over.
  OnlineOptions greedy;
  greedy.audit_load_index = options.audit_load_index;
  const ShardPlan plan = ShardPlan::single_group(g);
  ShardedScheduler sched(g, model, greedy, plan, /*stream_seed=*/0,
                         /*workers=*/1, /*discard_completed=*/false,
                         Placement::kGreedy);
  return sched.run_trace(flows, /*epoch=*/0.0);
}

}  // namespace dcn
