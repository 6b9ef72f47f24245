#include "urmem/common/binomial.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "urmem/common/contracts.hpp"

namespace urmem {

namespace {

double log_choose(std::uint64_t n, std::uint64_t k) {
  return std::lgamma(static_cast<double>(n) + 1.0) -
         std::lgamma(static_cast<double>(k) + 1.0) -
         std::lgamma(static_cast<double>(n - k) + 1.0);
}

}  // namespace

binomial_distribution::binomial_distribution(std::uint64_t trials, double p)
    : trials_(trials), p_(p) {
  expects(trials >= 1, "binomial requires at least one trial");
  expects(p >= 0.0 && p <= 1.0, "binomial requires p in [0,1]");
}

binomial_distribution::binomial_distribution(const binomial_distribution& other)
    : trials_(other.trials_), p_(other.p_) {}

double binomial_distribution::log_pmf(std::uint64_t n) const {
  if (n > trials_) return -std::numeric_limits<double>::infinity();
  if (p_ == 0.0) return n == 0 ? 0.0 : -std::numeric_limits<double>::infinity();
  if (p_ == 1.0) return n == trials_ ? 0.0 : -std::numeric_limits<double>::infinity();
  const auto nd = static_cast<double>(n);
  const auto md = static_cast<double>(trials_ - n);
  // log1p(-p) keeps precision for the (1-p)^(M-n) factor when p ~ 1e-9.
  return log_choose(trials_, n) + nd * std::log(p_) + md * std::log1p(-p_);
}

double binomial_distribution::pmf(std::uint64_t n) const { return std::exp(log_pmf(n)); }

void binomial_distribution::build_table() const {
  std::call_once(table_built_, [this] {
    // Locate the mode and expand outward until the missed mass is
    // negligible.
    const double mu = mean();
    const double sd = std::sqrt(std::max(variance(), 1.0));
    const auto mode = static_cast<std::uint64_t>(std::max(0.0, std::floor(mu)));
    const auto span = static_cast<std::uint64_t>(std::ceil(12.0 * sd + 24.0));
    table_lo_ = mode > span ? mode - span : 0;
    const std::uint64_t hi = std::min(trials_, mode + span);
    table_.reserve(hi - table_lo_ + 1);
    double running = 0.0;
    for (std::uint64_t n = table_lo_; n <= hi; ++n) {
      running += pmf(n);
      table_.push_back(running);
    }
  });
}

double binomial_distribution::cdf(std::uint64_t n) const {
  build_table();
  if (n < table_lo_) {
    // Below the cached window the mass is < 1e-15; sum it directly.
    double acc = 0.0;
    for (std::uint64_t i = 0; i <= n; ++i) acc += pmf(i);
    return acc;
  }
  const std::uint64_t idx = n - table_lo_;
  if (idx >= table_.size()) return 1.0;
  // Mass below the window start (only nonzero when table_lo_ > 0).
  double below = 0.0;
  if (table_lo_ > 0) below = std::max(0.0, 1.0 - table_.back());
  return std::min(1.0, below + table_[idx]);
}

std::uint64_t binomial_distribution::quantile(double q) const {
  expects(q > 0.0 && q < 1.0, "quantile requires q in (0,1)");
  build_table();
  const double below = table_lo_ > 0 ? std::max(0.0, 1.0 - table_.back()) : 0.0;
  const double target = q - below;
  if (target <= 0.0) return table_lo_;
  const auto it = std::lower_bound(table_.begin(), table_.end(), target);
  if (it == table_.end()) return std::min(trials_, table_lo_ + table_.size());
  return table_lo_ + static_cast<std::uint64_t>(std::distance(table_.begin(), it));
}

std::uint64_t binomial_distribution::sample(rng& gen) const {
  build_table();
  const double below = table_lo_ > 0 ? std::max(0.0, 1.0 - table_.back()) : 0.0;
  const double u = gen.uniform() * (below + table_.back());
  if (u < below) return table_lo_ == 0 ? 0 : table_lo_ - 1;  // sub-window tail
  const auto it = std::lower_bound(table_.begin(), table_.end(), u - below);
  if (it == table_.end()) return table_lo_ + table_.size() - 1;
  return table_lo_ + static_cast<std::uint64_t>(std::distance(table_.begin(), it));
}

std::vector<std::uint64_t> stratified_sample_counts(const binomial_distribution& dist,
                                                    std::uint64_t n_max,
                                                    std::uint64_t total_runs) {
  expects(n_max >= 1, "n_max must be at least 1");
  std::vector<std::uint64_t> counts(n_max);
  for (std::uint64_t n = 1; n <= n_max; ++n) {
    counts[n - 1] = static_cast<std::uint64_t>(
        std::llround(dist.pmf(n) * static_cast<double>(total_runs)));
  }
  return counts;
}

}  // namespace urmem
