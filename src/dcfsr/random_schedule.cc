#include "dcfsr/random_schedule.h"

#include <limits>
#include <utility>

#include "common/contracts.h"

namespace dcn {

const Path& draw_path(const FlowCandidates& candidates, Rng& rng,
                      std::vector<double>& weights) {
  DCN_EXPECTS(!candidates.paths.empty());
  weights.clear();
  weights.reserve(candidates.paths.size());
  for (const WeightedPath& wp : candidates.paths) weights.push_back(wp.weight);
  return candidates.paths[rng.weighted_index(weights)].path;
}

std::vector<Path> sample_paths(const std::vector<FlowCandidates>& candidates,
                               Rng& rng) {
  std::vector<Path> paths;
  paths.reserve(candidates.size());
  std::vector<double> weights;
  for (const FlowCandidates& cand : candidates) {
    paths.push_back(draw_path(cand, rng, weights));
  }
  return paths;
}

namespace {

/// density_schedule over paths held by pointer (rounding keeps its
/// draws as pointers into the candidates and the pinned paths).
Schedule density_schedule_of(const std::vector<Flow>& flows,
                             const std::vector<const Path*>& paths) {
  DCN_EXPECTS(paths.size() == flows.size());
  Schedule schedule;
  schedule.flows.resize(flows.size());
  for (std::size_t i = 0; i < flows.size(); ++i) {
    FlowSchedule& fs = schedule.flows[i];
    fs.path = *paths[i];
    fs.segments = {{flows[i].span(), flows[i].density()}};
  }
  return schedule;
}

}  // namespace

Schedule density_schedule(const std::vector<Flow>& flows,
                          const std::vector<Path>& paths) {
  std::vector<const Path*> pointers;
  pointers.reserve(paths.size());
  for (const Path& path : paths) pointers.push_back(&path);
  return density_schedule_of(flows, pointers);
}

// The graph is not read: a draw's check needs only its paths' edges.
RandomScheduleResult round_relaxation(const Graph& /*g*/,
                                      const std::vector<Flow>& flows,
                                      const PowerModel& model,
                                      const FractionalRelaxation& relaxation,
                                      Rng& rng, const RandomScheduleOptions& options,
                                      const std::vector<const Path*>* forced_paths) {
  DCN_EXPECTS(options.max_rounding_attempts >= 1);
  DCN_EXPECTS(options.best_of >= 1);
  DCN_EXPECTS(forced_paths == nullptr || forced_paths->size() == flows.size());
  DCN_EXPECTS(relaxation.candidates.size() == flows.size());
  auto forced = [&](std::size_t i) {
    return forced_paths != nullptr ? (*forced_paths)[i] : nullptr;
  };
  // Pinned rows may come without candidates (solve_relaxation's
  // first_candidate_row); every other row draws from its own.
  for (std::size_t i = 0; i < flows.size(); ++i) {
    DCN_EXPECTS(forced(i) != nullptr ||
                !relaxation.candidates[i].paths.empty());
  }

  RandomScheduleResult result;
  result.lower_bound_energy = relaxation.lower_bound_energy;
  result.lambda = relaxation.decomposition.lambda();
  result.mean_relative_gap = relaxation.mean_relative_gap;
  result.fw_stats = relaxation.fw_stats;

  const Interval horizon = flow_horizon(flows);
  double best_energy = std::numeric_limits<double>::infinity();
  std::int32_t feasible_found = 0;

  // A draw is checked on the edges of its paths only (TouchedEdgeLoad:
  // bitwise the full-fabric link timelines' peak and energy), and only
  // the kept draw becomes a Schedule.
  std::vector<const Path*> drawn(flows.size());
  std::vector<const Path*> best;
  TouchedEdgeLoad load;
  std::vector<double> weights;
  for (std::int32_t attempt = 1; attempt <= options.max_rounding_attempts; ++attempt) {
    result.rounding_attempts = attempt;
    // Pinned flows keep their committed path; the rest draw from their
    // candidate distribution through the same draw_path as
    // sample_paths, so unpinned rounding consumes the rng identically.
    load.clear();
    for (std::size_t i = 0; i < flows.size(); ++i) {
      drawn[i] = forced(i) != nullptr
                     ? forced(i)
                     : &draw_path(relaxation.candidates[i], rng, weights);
      const RateSegment density{flows[i].span(), flows[i].density()};
      load.add_row(drawn[i]->edges, {&density, 1});
    }
    if (load.peak() > model.capacity() * (1.0 + 1e-9)) {
      continue;  // capacity violated: redraw (Algorithm 2 repeat step)
    }
    ++feasible_found;
    const double energy = load.energy_phi_f(model, horizon);
    if (energy < best_energy) {
      best_energy = energy;
      best = drawn;
    }
    if (feasible_found >= options.best_of) break;
  }

  if (feasible_found == 0) {
    // No capacity-feasible rounding found; report the last draw so the
    // caller can inspect the violation.
    result.capacity_feasible = false;
    result.schedule = density_schedule_of(flows, drawn);
    result.energy = load.energy_phi_f(model, horizon);
    return result;
  }
  result.capacity_feasible = true;
  if (!best.empty()) result.schedule = density_schedule_of(flows, best);
  result.energy = best_energy;
  return result;
}

RandomScheduleResult random_schedule(const Graph& g, const std::vector<Flow>& flows,
                                     const PowerModel& model, Rng& rng,
                                     const RandomScheduleOptions& options) {
  const FractionalRelaxation relaxation =
      solve_relaxation(g, flows, model, options.relaxation);
  return round_relaxation(g, flows, model, relaxation, rng, options);
}

}  // namespace dcn
