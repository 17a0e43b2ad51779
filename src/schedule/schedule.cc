#include "schedule/schedule.h"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace dcn {

double FlowSchedule::transmitted_volume() const {
  double total = 0.0;
  for (const RateSegment& seg : segments) total += seg.volume();
  return total;
}

double FlowSchedule::transmission_time() const {
  double total = 0.0;
  for (const RateSegment& seg : segments) {
    if (seg.rate > 0.0) total += seg.interval.measure();
  }
  return total;
}

std::vector<StepFunction> link_timelines(const Graph& g, const Schedule& schedule) {
  std::vector<StepFunction> timelines(static_cast<std::size_t>(g.num_edges()));
  for (const FlowSchedule& fs : schedule.flows) {
    for (const RateSegment& seg : fs.segments) {
      if (seg.rate <= 0.0 || seg.interval.empty()) continue;
      for (EdgeId e : fs.path.edges) {
        timelines[static_cast<std::size_t>(e)].add(seg.interval, seg.rate);
      }
    }
  }
  return timelines;
}

std::vector<EdgeId> active_edges(const Graph& g, const Schedule& schedule) {
  const std::vector<StepFunction> timelines = link_timelines(g, schedule);
  std::vector<EdgeId> active;
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    if (!timelines[static_cast<std::size_t>(e)].is_zero()) active.push_back(e);
  }
  return active;
}

namespace {

/// The schedule's rows, in order, on edges checked against `g`.
TouchedEdgeLoad touched_load(const Graph& g, const Schedule& schedule) {
  TouchedEdgeLoad load;
  for (const FlowSchedule& fs : schedule.flows) {
    for (const EdgeId e : fs.path.edges) DCN_EXPECTS(g.valid_edge(e));
    load.add_row(fs.path.edges, fs.segments);
  }
  return load;
}

}  // namespace

double energy_phi_f(const Graph& g, const Schedule& schedule,
                    const PowerModel& model, Interval horizon) {
  return touched_load(g, schedule).energy_phi_f(model, horizon);
}

double energy_phi_g(const Graph& g, const Schedule& schedule,
                    const PowerModel& model, Interval horizon) {
  return touched_load(g, schedule).energy_phi_g(model, horizon);
}

void TouchedEdgeLoad::clear() {
  steps_.clear();
  breakpoints_.clear();
  runs_.clear();
  merged_ = true;
}

void TouchedEdgeLoad::add_row(std::span<const EdgeId> path,
                              std::span<const RateSegment> segments) {
  for (const RateSegment& seg : segments) {
    // link_timelines' and StepFunction::add's skips.
    if (seg.rate <= 0.0 || seg.interval.empty()) continue;
    for (const EdgeId e : path) {
      const auto order = static_cast<std::uint32_t>(steps_.size());
      steps_.push_back({seg.interval.lo, seg.rate, e, order});
      // StepFunction subtracts the rate at hi; x - r == x + (-r) exactly.
      steps_.push_back({seg.interval.hi, -seg.rate, e, order + 1});
    }
  }
  merged_ = false;
}

void TouchedEdgeLoad::merge() {
  if (merged_) return;
  merged_ = true;
  std::sort(steps_.begin(), steps_.end(), [](const Step& a, const Step& b) {
    if (a.edge != b.edge) return a.edge < b.edge;
    if (a.time != b.time) return a.time < b.time;
    return a.order < b.order;
  });
  breakpoints_.clear();
  runs_.clear();
  for (std::size_t i = 0; i < steps_.size(); ++i) {
    const Step& step = steps_[i];
    if (i == 0 || step.edge != steps_[i - 1].edge) {
      runs_.push_back({breakpoints_.size(), breakpoints_.size()});
    }
    // A StepFunction keys its map by the first-inserted equal time and
    // starts each entry at 0.0 before adding.
    if (runs_.back().end == runs_.back().begin ||
        breakpoints_.back().first != step.time) {
      breakpoints_.emplace_back(step.time, 0.0);
      ++runs_.back().end;
    }
    breakpoints_.back().second += step.delta;
  }
}

double TouchedEdgeLoad::peak() {
  merge();
  double peak = 0.0;
  for (const Run& run : runs_) {
    peak = std::max(peak, piecewise_detail::fold_max(breakpoints(run)));
  }
  return peak;
}

std::pair<std::size_t, double> TouchedEdgeLoad::active_and_dynamic(
    const PowerModel& model, Interval horizon) {
  DCN_EXPECTS(!horizon.empty());
  merge();
  std::size_t active = 0;
  double dynamic = 0.0;
  for (const Run& run : runs_) {
    const std::span<const std::pair<double, double>> bps = breakpoints(run);
    if (!piecewise_detail::fold_is_zero(bps)) ++active;
    dynamic += piecewise_detail::fold_integrate(
        bps, horizon, [&model](double x) { return model.g(x); });
  }
  return {active, dynamic};
}

double TouchedEdgeLoad::energy_phi_f(const PowerModel& model, Interval horizon) {
  const auto [active, dynamic] = active_and_dynamic(model, horizon);
  return model.sigma() * horizon.measure() * static_cast<double>(active) +
         dynamic;
}

double TouchedEdgeLoad::energy_phi_g(const PowerModel& model, Interval horizon) {
  return active_and_dynamic(model, horizon).second;
}

void FeasibilityReport::fail(std::string message) {
  feasible = false;
  violations.push_back(std::move(message));
}

FeasibilityReport check_feasibility(const Graph& g, const std::vector<Flow>& flows,
                                    const Schedule& schedule,
                                    const PowerModel& model, double tol) {
  FeasibilityReport report;
  if (schedule.flows.size() != flows.size()) {
    report.fail("schedule has " + std::to_string(schedule.flows.size()) +
                " entries for " + std::to_string(flows.size()) + " flows");
    return report;
  }

  for (std::size_t i = 0; i < flows.size(); ++i) {
    const Flow& flow = flows[i];
    const FlowSchedule& fs = schedule.flows[i];
    std::ostringstream tag;
    tag << "flow#" << flow.id << ": ";

    if (!is_valid_path(g, fs.path) || fs.path.src != flow.src ||
        fs.path.dst != flow.dst || fs.path.empty()) {
      report.fail(tag.str() + "path is not a valid simple src->dst path");
      continue;
    }

    // Segments: positive rate, inside the span, pairwise disjoint.
    std::vector<RateSegment> segs = fs.segments;
    std::sort(segs.begin(), segs.end(),
              [](const RateSegment& a, const RateSegment& b) {
                return a.interval.lo < b.interval.lo;
              });
    const double time_tol = tol * std::max(1.0, flow.deadline - flow.release);
    for (std::size_t s = 0; s < segs.size(); ++s) {
      if (segs[s].rate <= 0.0) {
        report.fail(tag.str() + "segment with non-positive rate");
      }
      if (segs[s].rate > model.capacity() * (1.0 + tol)) {
        report.fail(tag.str() + "segment rate exceeds link capacity");
      }
      if (segs[s].interval.lo < flow.release - time_tol ||
          segs[s].interval.hi > flow.deadline + time_tol) {
        report.fail(tag.str() + "segment outside the flow span");
      }
      if (s > 0 && segs[s].interval.lo < segs[s - 1].interval.hi - time_tol) {
        report.fail(tag.str() + "overlapping segments");
      }
    }

    const double moved = fs.transmitted_volume();
    if (std::fabs(moved - flow.volume) > tol * std::max(1.0, flow.volume)) {
      std::ostringstream msg;
      msg << tag.str() << "moved " << moved << " of " << flow.volume;
      report.fail(msg.str());
    }
  }
  if (!report.feasible) return report;

  // Link capacity across flows.
  const std::vector<StepFunction> timelines = link_timelines(g, schedule);
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const double peak = timelines[static_cast<std::size_t>(e)].max_value();
    if (peak > model.capacity() * (1.0 + tol)) {
      std::ostringstream msg;
      msg << "link e" << e << ": peak rate " << peak << " exceeds capacity "
          << model.capacity();
      report.fail(msg.str());
    }
  }
  return report;
}

}  // namespace dcn
