#include "urmem/ml/elasticnet.hpp"

#include <algorithm>
#include <cmath>

#include "urmem/common/contracts.hpp"
#include "urmem/ml/preprocessing.hpp"

namespace urmem {

namespace {

double soft_threshold(double value, double threshold) {
  if (value > threshold) return value - threshold;
  if (value < -threshold) return value + threshold;
  return 0.0;
}

}  // namespace

elasticnet::elasticnet(elasticnet_config config) : config_(config) {
  expects(config.alpha >= 0.0, "alpha must be nonnegative");
  expects(config.l1_ratio >= 0.0 && config.l1_ratio <= 1.0, "l1_ratio in [0,1]");
  expects(config.max_iter >= 1, "max_iter must be positive");
}

void elasticnet::fit(const matrix& x, const std::vector<double>& y) {
  expects(x.rows() == y.size(), "row count mismatch between x and y");
  expects(x.rows() >= 2, "need at least two samples");
  const std::size_t n = x.rows();
  const std::size_t p = x.cols();
  const double n_d = static_cast<double>(n);

  // Center features and targets; the intercept absorbs the means. The
  // centered features are kept column-major (row j of xt is feature j),
  // so the per-feature sweeps below run over contiguous memory.
  const std::vector<double> x_means = column_means(x);
  matrix xt(p, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < p; ++j) xt(j, i) = x(i, j) - x_means[j];
  }
  double y_mean = 0.0;
  for (const double v : y) y_mean += v;
  y_mean /= n_d;

  // Per-feature mean squared norms z_j = (1/n) sum_i x_ij^2.
  std::vector<double> z(p, 0.0);
  for (std::size_t j = 0; j < p; ++j) {
    for (const double v : xt.row(j)) z[j] += v * v;
    z[j] /= n_d;
  }

  coef_.assign(p, 0.0);
  std::vector<double> residual(n);
  for (std::size_t i = 0; i < n; ++i) residual[i] = y[i] - y_mean;

  const double l1 = config_.alpha * config_.l1_ratio;
  const double l2 = config_.alpha * (1.0 - config_.l1_ratio);

  iterations_ = 0;
  for (std::size_t sweep = 0; sweep < config_.max_iter; ++sweep) {
    ++iterations_;
    double max_delta = 0.0;
    for (std::size_t j = 0; j < p; ++j) {
      if (z[j] == 0.0) continue;  // constant (centered-to-zero) feature
      // rho = (1/n) sum_i x_ij * (r_i + x_ij * w_j): the correlation of
      // feature j with the residual that excludes its own contribution.
      const auto xj = xt.row(j);
      double rho = 0.0;
      for (std::size_t i = 0; i < n; ++i) rho += xj[i] * residual[i];
      rho = rho / n_d + z[j] * coef_[j];

      const double updated = soft_threshold(rho, l1) / (z[j] + l2);
      const double delta = updated - coef_[j];
      if (delta != 0.0) {
        for (std::size_t i = 0; i < n; ++i) residual[i] -= delta * xj[i];
        coef_[j] = updated;
        max_delta = std::max(max_delta, std::abs(delta));
      }
    }
    if (max_delta < config_.tol) break;
  }

  intercept_ = y_mean;
  for (std::size_t j = 0; j < p; ++j) intercept_ -= coef_[j] * x_means[j];
}

std::vector<double> elasticnet::predict(const matrix& x) const {
  expects(!coef_.empty(), "fit must be called before predict");
  expects(x.cols() == coef_.size(), "feature count mismatch");
  std::vector<double> out(x.rows(), intercept_);
  for (std::size_t i = 0; i < x.rows(); ++i) {
    const auto row = x.row(i);
    double acc = 0.0;
    for (std::size_t j = 0; j < coef_.size(); ++j) acc += row[j] * coef_[j];
    out[i] += acc;
  }
  return out;
}

}  // namespace urmem
