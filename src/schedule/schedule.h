// Schedule representation, link timelines, energy (Eq. 5/6), and
// feasibility checking.
//
// A Schedule implements the paper's S = {(s_i(t), P_i)}: per flow, one
// path and a piecewise-constant rate function represented as disjoint
// (interval, rate) segments. While a flow transmits, every link on its
// path carries its rate (virtual-circuit model, Sec. III-A); link rates
// are the sums over flows currently transmitting on them.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/interval.h"
#include "common/piecewise.h"
#include "flow/flow.h"
#include "graph/path.h"
#include "power/power_model.h"

namespace dcn {

/// One constant-rate transmission segment of a flow.
struct RateSegment {
  Interval interval;
  double rate = 0.0;

  [[nodiscard]] double volume() const { return rate * interval.measure(); }

  friend bool operator==(const RateSegment&, const RateSegment&) = default;
};

/// The path and rate function assigned to one flow.
struct FlowSchedule {
  Path path;
  std::vector<RateSegment> segments;

  /// Total data moved by the segments.
  [[nodiscard]] double transmitted_volume() const;

  /// Total time with positive rate.
  [[nodiscard]] double transmission_time() const;
};

/// A complete schedule: entry i belongs to flows[i].
struct Schedule {
  std::vector<FlowSchedule> flows;
};

/// Per-edge transmission-rate timelines x_e(t) induced by a schedule.
[[nodiscard]] std::vector<StepFunction> link_timelines(const Graph& g,
                                                       const Schedule& schedule);

/// Edges that carry traffic at some point (the active set E_a of Eq. 4).
[[nodiscard]] std::vector<EdgeId> active_edges(const Graph& g,
                                               const Schedule& schedule);

/// Total energy Phi_f of Eq. 5 over `horizon` = [T0, T1]:
///   sigma * (T1 - T0) * |E_a|  +  sum_e integral mu * x_e(t)^alpha dt.
/// Computed over the edges the schedule touches (TouchedEdgeLoad);
/// every path edge must be an edge of `g`.
[[nodiscard]] double energy_phi_f(const Graph& g, const Schedule& schedule,
                                  const PowerModel& model, Interval horizon);

/// Dynamic-only energy Phi_g of Eq. 6 (no idle term).
[[nodiscard]] double energy_phi_g(const Graph& g, const Schedule& schedule,
                                  const PowerModel& model, Interval horizon);

/// The link timelines of a set of routed rows, kept over the edges the
/// rows touch only, in work proportional to the rows' paths rather than
/// to the fabric: what randomized rounding checks each draw with, and
/// what energy_phi_f / energy_phi_g fold. Rows are added in schedule
/// order; per edge, the rate steps at equal times are summed in that
/// order and then folded in ascending time — exactly how
/// link_timelines' StepFunctions fold them — so for the rows of a
/// Schedule, peak() is bitwise the maximum of its timelines'
/// max_value(), and the energies are bitwise the sums over every edge's
/// timeline (an untouched edge adds exactly 0).
class TouchedEdgeLoad {
 public:
  /// Forgets every row; keeps the scratch capacity.
  void clear();

  /// Adds one row: each positive-rate, non-empty segment's rate on every
  /// edge of `path`.
  void add_row(std::span<const EdgeId> path,
               std::span<const RateSegment> segments);

  /// Peak link rate over all edges.
  [[nodiscard]] double peak();

  /// Phi_f of Eq. 5 over `horizon`: the active-edge count and the
  /// dynamic energy in one ascending-edge pass over the touched edges.
  [[nodiscard]] double energy_phi_f(const PowerModel& model, Interval horizon);

  /// Phi_g of Eq. 6 over `horizon` (the dynamic term alone).
  [[nodiscard]] double energy_phi_g(const PowerModel& model, Interval horizon);

 private:
  struct Step {
    double time;
    double delta;
    EdgeId edge;
    std::uint32_t order;  // insertion order: ties at equal times sum in it
  };
  struct Run {  // one touched edge's breakpoints_[begin, end)
    std::size_t begin;
    std::size_t end;
  };

  void merge();
  [[nodiscard]] std::pair<std::size_t, double> active_and_dynamic(
      const PowerModel& model, Interval horizon);
  [[nodiscard]] std::span<const std::pair<double, double>> breakpoints(
      const Run& run) const {
    return {breakpoints_.data() + run.begin, run.end - run.begin};
  }

  std::vector<Step> steps_;
  std::vector<std::pair<double, double>> breakpoints_;  // (time, summed delta)
  std::vector<Run> runs_;                               // ascending edge id
  bool merged_ = true;
};

/// Result of validating a schedule against its flow set.
struct FeasibilityReport {
  bool feasible = true;
  std::vector<std::string> violations;

  void fail(std::string message);
};

/// Checks every requirement of a feasible schedule (Sec. II-B):
///  * each flow's path is a valid simple src->dst path,
///  * segments lie inside the flow's span, are disjoint, have positive
///    rate, and move the full volume (Eq. 3),
///  * no link's total rate ever exceeds capacity.
/// `tol` absorbs float error (volumes are compared relative to w_i).
[[nodiscard]] FeasibilityReport check_feasibility(const Graph& g,
                                                  const std::vector<Flow>& flows,
                                                  const Schedule& schedule,
                                                  const PowerModel& model,
                                                  double tol = 1e-6);

}  // namespace dcn
