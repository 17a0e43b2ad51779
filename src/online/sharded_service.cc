// Entry points of the online event loop: online_dcfsr (the loop on a
// single-group plan with the caller's rng), the sharded batch API
// (online_dcfsr_sharded — drop-in comparable with online_dcfsr) and the
// sustained-stream runner (run_online_stream — pulls from an
// EventStream, flushes periodic service stats, never materializes the
// trace). All three — and online_greedy (online_greedy.cc) — drive
// ShardedScheduler::process_batch; the engine itself lives in
// sharded.cc.
#include <optional>
#include <utility>

#include "common/contracts.h"
#include "common/stats.h"
#include "online/sharded.h"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

namespace dcn {

std::int32_t ShardedScheduler::peak_live_segments() const {
  return load_.peak_live_segments();
}

std::int64_t ShardedScheduler::load_segments_pruned() const {
  return load_.segments_pruned();
}

std::int64_t peak_rss_kb() {
#if defined(__unix__) || defined(__APPLE__)
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
#if defined(__APPLE__)
  return usage.ru_maxrss / 1024;  // reported in bytes on macOS
#else
  return usage.ru_maxrss;  // reported in KB on Linux
#endif
#else
  return 0;
#endif
}

OnlineResult ShardedScheduler::run_trace(const std::vector<Flow>& flows,
                                         double epoch) {
  validate_flows(g_, flows);
  const std::vector<std::size_t> order = online_impl::arrival_order(flows);
  std::vector<Flow> batch;
  for (std::size_t lo = 0; lo < order.size();) {
    const double now = flows[order[lo]].release;
    batch.clear();
    std::size_t hi = lo;
    while (hi < order.size() && flows[order[hi]].release <= now + epoch) {
      batch.push_back(flows[order[hi]]);
      ++hi;
    }
    process_batch(now, batch);
    lo = hi;
  }

  OnlineResult out = take_result();
  std::vector<FlowSchedule> rows(flows.size());
  std::vector<bool> admitted(flows.size(), false);
  for (std::size_t k = 0; k < order.size(); ++k) {
    rows[order[k]] = std::move(out.schedule.flows[k]);
    admitted[order[k]] = out.admitted[k];
  }
  out.schedule.flows = std::move(rows);
  out.admitted = std::move(admitted);
  return out;
}

OnlineResult online_dcfsr(const Graph& g, const std::vector<Flow>& flows,
                          const PowerModel& model, Rng& rng,
                          const OnlineOptions& options) {
  const ShardPlan plan = ShardPlan::single_group(g);
  ShardedScheduler sched(g, model, options, plan, rng);
  return sched.run_trace(flows, options.epoch);
}

OnlineResult online_dcfsr_sharded(const Graph& g,
                                  const std::vector<Flow>& flows,
                                  const PowerModel& model, Rng& rng,
                                  const OnlineOptions& options,
                                  const ShardPlan& plan,
                                  std::int32_t workers) {
  // A single lane (or a single source group, where sharding has nothing
  // to decompose) runs on the single-group plan with the caller's own
  // stream, so "1 shard" is online_dcfsr byte for byte.
  if (plan.num_lanes() <= 1 || plan.num_groups() <= 1) {
    return online_dcfsr(g, flows, model, rng, options);
  }
  if (flows.empty()) return {};
  // One draw from the caller's stream seeds every per-shard stream (a
  // deterministic mix per group) — the caller's rng advances by exactly
  // one draw regardless of shard, worker, or group count.
  ShardedScheduler sched(g, model, options, plan, rng(), workers,
                         /*discard_completed=*/false);
  return sched.run_trace(flows, options.epoch);
}

OnlineResult run_online_stream(
    const Graph& g, EventStream& stream, const PowerModel& model, Rng& rng,
    const OnlineOptions& options, const ShardPlan& plan, std::int32_t workers,
    std::int64_t flush_every,
    const std::function<void(const StreamFlushStats&)>& on_flush,
    bool discard_completed) {
  const std::uint64_t stream_seed = rng();
  ShardedScheduler sched(g, model, options, plan, stream_seed, workers,
                         discard_completed);

  auto latency_percentile = [](const std::vector<double>& values, double q) {
    return values.empty() ? 0.0 : percentile(values, q);
  };
  auto flush = [&](double now) {
    if (!on_flush) return;
    const OnlineResult& r = sched.result();
    StreamFlushStats s;
    s.now = now;
    s.arrivals = sched.arrivals();
    s.admitted = r.num_admitted;
    s.rejected = r.num_rejected;
    s.completed = sched.completed();
    s.in_flight = sched.in_flight();
    s.resolves = r.resolves;
    s.p50_ms = latency_percentile(r.decision_latency_ms, 0.50);
    s.p99_ms = latency_percentile(r.decision_latency_ms, 0.99);
    s.peak_live_segments = sched.peak_live_segments();
    s.segments_pruned = sched.load_segments_pruned();
    s.peak_rss_kb = peak_rss_kb();
    on_flush(s);
  };

  // Pull-with-holdback epoch batching: the batch is closed by the first
  // arrival past the epoch window, which is held over as the next
  // batch's opener — at most one synthesized-but-unfed flow exists at
  // any time, so a 100k-arrival soak never materializes its trace.
  std::optional<Flow> pending = stream.next();
  std::vector<Flow> batch;
  std::int64_t since_flush = 0;
  double now = 0.0;
  while (pending.has_value()) {
    now = pending->release;
    batch.clear();
    batch.push_back(*pending);
    pending.reset();
    while (auto next = stream.next()) {
      DCN_EXPECTS(next->release >= now);
      if (next->release <= now + options.epoch) {
        batch.push_back(*next);
      } else {
        pending = std::move(next);
        break;
      }
    }
    sched.process_batch(now, batch);
    since_flush += static_cast<std::int64_t>(batch.size());
    if (flush_every > 0 && since_flush >= flush_every) {
      flush(now);
      since_flush = 0;
    }
  }
  // Final flush, unless the periodic one just fired at this arrival.
  if (since_flush > 0 || sched.arrivals() == 0) flush(now);
  return sched.take_result();
}

}  // namespace dcn
