// One-dimensional minimization of unimodal functions.
//
// Header-only templates: these run on the innermost hot path of the
// Frank-Wolfe solver (hundreds of millions of objective evaluations
// per cold solve), where an indirect call would cost more than the
// arithmetic it wraps. Taking the callable as a template parameter
// lets the per-edge cost — the power model's envelope, EnvelopeCostSpec
// — inline into the search loop.
#pragma once

#include <algorithm>
#include <utility>
#include <vector>

#include "common/contracts.h"

namespace dcn {

/// Golden-section search for the minimizer of a unimodal `fn` on
/// [lo, hi]. Returns the abscissa of the minimum within `tol` of the
/// true minimizer. Deterministic, derivative-free: exactly what the
/// Frank-Wolfe step-size search needs (the restricted objective is
/// convex, hence unimodal).
template <class Fn>
[[nodiscard]] double golden_section_minimize(const Fn& fn, double lo,
                                             double hi, double tol = 1e-7) {
  DCN_EXPECTS(lo <= hi);
  DCN_EXPECTS(tol > 0.0);
  constexpr double kInvPhi = 0.6180339887498949;  // 1/phi
  double a = lo, b = hi;
  double c = b - (b - a) * kInvPhi;
  double d = a + (b - a) * kInvPhi;
  double fc = fn(c);
  double fd = fn(d);
  while (b - a > tol) {
    if (fc < fd) {
      b = d;
      d = c;
      fd = fc;
      c = b - (b - a) * kInvPhi;
      fc = fn(c);
    } else {
      a = c;
      c = d;
      fc = fd;
      d = a + (b - a) * kInvPhi;
      fd = fn(d);
    }
  }
  return 0.5 * (a + b);
}

/// Golden-section search specialized to the Frank-Wolfe restricted
/// objective along a direction: minimizes
///
///     phi(t) = sum_i cost(x_i + t * d_i)        over t in [0, t_max]
///
/// where `diff` holds one (x_i, d_i) pair per edge whose flow the step
/// changes (off-support edges only add a constant, which cannot move
/// the minimizer). Used by the pairwise Frank-Wolfe step, whose
/// direction support is the symmetric difference of the away and
/// target paths. Values are clamped at 0 before evaluation — a full
/// drain (d_i = -x_i at t = t_max) can dip below zero by float dust —
/// and entries at or below 1e-15 are treated as exactly idle, matching
/// the solver's support threshold. A bracket converging onto either
/// endpoint snaps to it exactly when the endpoint is no worse, so
/// callers can recognize boundary steps: t = t_max is a drop step
/// (away atom fully drained), t = 0 is a stall.
template <class CostFn>
[[nodiscard]] double golden_section_minimize_direction(
    const CostFn& cost, const std::vector<std::pair<double, double>>& diff,
    double t_max, double tol = 1e-6) {
  DCN_EXPECTS(t_max > 0.0);
  const auto phi = [&](double t) {
    double total = 0.0;
    for (const auto& [x, d] : diff) {
      const double v = std::max(0.0, x + t * d);
      if (v > 1e-15) total += cost(v);
    }
    return total;
  };
  double t = golden_section_minimize(phi, 0.0, t_max, tol);
  // Snap onto an endpoint the bracket converged against: the interior
  // midpoint golden section returns can never be exactly 0 or t_max,
  // but the pairwise caller needs exact boundary steps (a drop step
  // must drain its away atom completely, and an exact 0 signals the
  // fallback). Convexity makes the single comparison sufficient.
  if (t_max - t <= 2.0 * tol && phi(t_max) <= phi(t)) return t_max;
  if (t <= 2.0 * tol && phi(0.0) <= phi(t)) return 0.0;
  return t;
}

}  // namespace dcn
