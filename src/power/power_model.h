// The link power model of Eq. 1 and its derived quantities.
//
//   f(x) = 0                     if x = 0
//   f(x) = sigma + mu * x^alpha  if 0 < x <= capacity     (alpha > 1)
//
// sigma is the idle power for keeping the link up, mu*x^alpha the
// superadditive dynamic (speed-scaling) power. The model combines the
// power-down strategy (f(0) = 0: a link that never carries traffic in
// the horizon can be switched off) with speed scaling.
//
// Derived quantities used throughout the paper:
//  * g(x) = mu * x^alpha — dynamic power only (Sec. III drops sigma for
//    links that are active anyway).
//  * power rate f(x)/x — energy per unit of traffic (Definition 3).
//  * R_opt = (sigma / (mu * (alpha - 1)))^(1/alpha) — the rate that
//    minimizes the power rate (Lemma 3).
//  * the convex envelope of f — linear through the origin with slope
//    f(R_hat)/R_hat up to R_hat = min(R_opt, capacity), then f itself.
//    This is the tightest convex lower bound of f; the fractional
//    multi-commodity relaxation (and hence the paper's LB curve) is
//    computed against it. EnvelopeCostSpec carries it as plain data —
//    the one cost the Frank-Wolfe solver minimizes.
#pragma once

#include <cmath>
#include <limits>

#include "common/contracts.h"

namespace dcn {

/// The convex envelope of a PowerModel as plain data,
///
///     env(x) = env_slope * x                 for x <= r_hat
///     env(x) = sigma + mu * x^alpha          for x >  r_hat,
///
/// the cost every Frank-Wolfe F-MCF solve minimizes
/// (ConvexMcfProblem::cost). Direct arithmetic, no indirect calls: the
/// solver's dense repricing pass vectorizes over it, and alpha == 2 /
/// alpha == 3 take pow-free fast paths (std::pow(x, 2.0) is correctly
/// rounded, hence bit-equal to x * x). The sigma == 0 degenerate case
/// (r_hat == 0, env_slope == 0) falls out: x <= 0 only at x == 0, where
/// both pieces meet at 0. The default spec is the pure quadratic x^2,
/// with value x * x and derivative 2 * x bit for bit.
struct EnvelopeCostSpec {
  double sigma = 0.0;
  double mu = 1.0;
  double alpha = 2.0;
  double r_hat = 0.0;      // min(r_opt, capacity); 0 when sigma == 0
  double env_slope = 0.0;  // f(r_hat)/r_hat; 0 when r_hat == 0

  [[nodiscard]] double value(double x) const {
    if (x <= r_hat) return env_slope * x;
    if (alpha == 2.0) return sigma + mu * (x * x);
    return sigma + mu * std::pow(x, alpha);
  }
  [[nodiscard]] double derivative(double x) const {
    if (x <= r_hat) return env_slope;
    if (alpha == 2.0) return mu * alpha * x;
    if (alpha == 3.0) return mu * alpha * (x * x);
    return mu * alpha * std::pow(x, alpha - 1.0);
  }
};

class PowerModel {
 public:
  /// sigma >= 0, mu > 0, alpha > 1, capacity > 0 (may be +infinity).
  PowerModel(double sigma, double mu, double alpha,
             double capacity = std::numeric_limits<double>::infinity());

  /// Pure speed-scaling model x^alpha (the paper's numerical section
  /// uses x^2 and x^4: sigma = 0, mu = 1).
  static PowerModel pure_speed_scaling(double alpha);

  [[nodiscard]] double sigma() const { return envelope_.sigma; }
  [[nodiscard]] double mu() const { return envelope_.mu; }
  [[nodiscard]] double alpha() const { return envelope_.alpha; }
  [[nodiscard]] double capacity() const { return capacity_; }

  /// Full power f(x) of Eq. 1; requires x >= 0.
  [[nodiscard]] double f(double x) const;

  /// Dynamic power g(x) = mu * x^alpha; requires x >= 0.
  [[nodiscard]] double g(double x) const;

  /// Power rate f(x)/x (Definition 3); requires x > 0.
  [[nodiscard]] double power_rate(double x) const;

  /// The power-rate-minimizing operation rate of Lemma 3 (0 when
  /// sigma == 0: with no idle power, slower is always cheaper).
  [[nodiscard]] double r_opt() const;

  /// min(r_opt, capacity): the best achievable operation rate.
  [[nodiscard]] double r_hat() const { return envelope_.r_hat; }

  /// The convex envelope as plain data (see EnvelopeCostSpec).
  [[nodiscard]] const EnvelopeCostSpec& envelope_cost() const {
    return envelope_;
  }

  /// Convex envelope of f at x (>= 0): the tightest convex function
  /// below f on [0, capacity]; linear on [0, r_hat], equal to f beyond.
  [[nodiscard]] double envelope(double x) const;

  /// Derivative of the envelope (subgradient at the kink, right
  /// derivative at 0). Strictly positive for sigma > 0, which keeps the
  /// Frank-Wolfe shortest-path oracle well-posed on idle networks.
  [[nodiscard]] double envelope_derivative(double x) const;

  /// True when 0 <= x <= capacity (+ tolerance).
  [[nodiscard]] bool within_capacity(double x, double tol = 1e-9) const;

  /// Theorem 3: no polynomial algorithm approximates DCFSR better than
  /// 3/2 * (1 + ((2/3)^alpha - 1)/alpha) unless P=NP.
  [[nodiscard]] double inapproximability_bound() const;

 private:
  double capacity_;
  EnvelopeCostSpec envelope_;  // sigma, mu, alpha and the cached envelope
};

}  // namespace dcn
