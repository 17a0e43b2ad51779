#include "power/power_model.h"

#include <cmath>

namespace dcn {

PowerModel::PowerModel(double sigma, double mu, double alpha, double capacity)
    : capacity_(capacity) {
  DCN_EXPECTS(sigma >= 0.0);
  DCN_EXPECTS(mu > 0.0);
  DCN_EXPECTS(alpha > 1.0);
  DCN_EXPECTS(capacity > 0.0);
  envelope_.sigma = sigma;
  envelope_.mu = mu;
  envelope_.alpha = alpha;
  envelope_.r_hat = std::min(r_opt(), capacity_);
  // With sigma == 0 the envelope is f itself; represent that with a
  // degenerate (empty) linear part.
  const double r_hat = envelope_.r_hat;
  envelope_.env_slope = r_hat > 0.0 ? f(r_hat) / r_hat : 0.0;
}

PowerModel PowerModel::pure_speed_scaling(double alpha) {
  return PowerModel(/*sigma=*/0.0, /*mu=*/1.0, alpha);
}

namespace {

/// x^alpha with the same alpha = 2 fast path as EnvelopeCostSpec::value,
/// so f and the envelope agree bit for bit beyond r_hat.
inline double pow_alpha(double x, double alpha) {
  if (alpha == 2.0) return x * x;
  return std::pow(x, alpha);
}

}  // namespace

double PowerModel::f(double x) const {
  DCN_EXPECTS(x >= 0.0);
  if (x == 0.0) return 0.0;
  return sigma() + mu() * pow_alpha(x, alpha());
}

double PowerModel::g(double x) const {
  DCN_EXPECTS(x >= 0.0);
  return mu() * pow_alpha(x, alpha());
}

double PowerModel::power_rate(double x) const {
  DCN_EXPECTS(x > 0.0);
  return f(x) / x;
}

double PowerModel::r_opt() const {
  if (sigma() == 0.0) return 0.0;
  return std::pow(sigma() / (mu() * (alpha() - 1.0)), 1.0 / alpha());
}

double PowerModel::envelope(double x) const {
  DCN_EXPECTS(x >= 0.0);
  return envelope_.value(x);
}

double PowerModel::envelope_derivative(double x) const {
  DCN_EXPECTS(x >= 0.0);
  return envelope_.derivative(x);
}

bool PowerModel::within_capacity(double x, double tol) const {
  return x >= 0.0 && x <= capacity_ * (1.0 + tol);
}

double PowerModel::inapproximability_bound() const {
  return 1.5 * (1.0 + (std::pow(2.0 / 3.0, alpha()) - 1.0) / alpha());
}

}  // namespace dcn
