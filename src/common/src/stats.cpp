#include "urmem/common/stats.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numeric>

#include "urmem/common/contracts.hpp"

namespace urmem {

double normal_cdf(double x) {
  return 0.5 * std::erfc(-x * 0.7071067811865475244);  // 1/sqrt(2)
}

namespace {

// Acklam's inverse-normal rational approximation (|rel err| < 1.15e-9).
double acklam_quantile(double p) {
  static constexpr double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                                 -2.759285104469687e+02, 1.383577518672690e+02,
                                 -3.066479806614716e+01, 2.506628277459239e+00};
  static constexpr double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                                 -1.556989798598866e+02, 6.680131188771972e+01,
                                 -1.328068155288572e+01};
  static constexpr double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                                 -2.400758277161838e+00, -2.549732539343734e+00,
                                 4.374664141464968e+00,  2.938163982698783e+00};
  static constexpr double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                                 2.445134137142996e+00, 3.754408661907416e+00};
  constexpr double p_low = 0.02425;

  if (p < p_low) {
    const double q = std::sqrt(-2.0 * std::log(p));
    return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
           ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }
  if (p <= 1.0 - p_low) {
    const double q = p - 0.5;
    const double r = q * q;
    return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q /
           (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0);
  }
  const double q = std::sqrt(-2.0 * std::log(1.0 - p));
  return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
         ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
}

}  // namespace

double normal_quantile(double p) {
  expects(p > 0.0 && p < 1.0, "normal_quantile requires p in (0,1)");
  double x = acklam_quantile(p);
  // One Halley refinement step against the exact CDF.
  constexpr double inv_sqrt_2pi = 0.3989422804014326779;
  const double e = normal_cdf(x) - p;
  const double u = e / (inv_sqrt_2pi * std::exp(-0.5 * x * x));
  x -= u / (1.0 + 0.5 * x * u);
  return x;
}

double mean(std::span<const double> values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

double variance(std::span<const double> values) {
  if (values.size() < 2) return 0.0;
  const double m = mean(values);
  double acc = 0.0;
  for (const double v : values) acc += (v - m) * (v - m);
  return acc / static_cast<double>(values.size() - 1);
}

double stddev(std::span<const double> values) { return std::sqrt(variance(values)); }

std::vector<double> linspace(double lo, double hi, std::size_t count) {
  expects(count >= 2, "linspace requires at least 2 points");
  std::vector<double> out(count);
  const double step = (hi - lo) / static_cast<double>(count - 1);
  for (std::size_t i = 0; i < count; ++i) out[i] = lo + step * static_cast<double>(i);
  out.back() = hi;
  return out;
}

std::vector<double> logspace(double lo, double hi, std::size_t count) {
  expects(lo > 0.0 && hi > 0.0, "logspace requires positive endpoints");
  auto exponents = linspace(std::log10(lo), std::log10(hi), count);
  for (double& e : exponents) e = std::pow(10.0, e);
  exponents.back() = hi;
  return exponents;
}

empirical_cdf::empirical_cdf(std::vector<double> values)
    : empirical_cdf(std::move(values), {}) {}

empirical_cdf::empirical_cdf(std::vector<double> values, std::vector<double> weights) {
  expects(!values.empty(), "empirical_cdf requires at least one sample");
  if (weights.empty()) {
    weights.assign(values.size(), 1.0);
  }
  expects(weights.size() == values.size(), "values/weights size mismatch");

  // The unstable sort's order among tied values is load-bearing: the
  // running sum below adds tied samples' weights (which differ across
  // Fig. 5 strata) in that order, so its rounding is baked into every
  // fig5 golden and perfbench digest. With GCC 12's libstdc++,
  // std::stable_sort here moves all 33 recorded fig5_yield digests,
  // while std::sort over (value, weight) records, compared by value,
  // keeps them. Changing this sort is a change of recorded results,
  // not a refactor.
  std::vector<std::size_t> order(values.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(),
            [&](std::size_t l, std::size_t r) { return values[l] < values[r]; });

  double total = 0.0;
  for (const double w : weights) {
    expects(w >= 0.0, "weights must be nonnegative");
    total += w;
  }
  expects(total > 0.0, "total weight must be positive");

  double running = 0.0;
  for (const std::size_t idx : order) {
    running += weights[idx] / total;
    if (!values_.empty() && values_.back() == values[idx]) {
      cumulative_.back() = running;  // merge duplicate support points
    } else {
      values_.push_back(values[idx]);
      cumulative_.push_back(running);
    }
  }
  cumulative_.back() = 1.0;  // absorb rounding
}

double empirical_cdf::at(double x) const {
  expects(!values_.empty(), "empirical_cdf is empty");
  const auto it = std::upper_bound(values_.begin(), values_.end(), x);
  if (it == values_.begin()) return 0.0;
  const auto idx = static_cast<std::size_t>(std::distance(values_.begin(), it)) - 1;
  return cumulative_[idx];
}

double empirical_cdf::quantile(double p) const {
  expects(!values_.empty(), "empirical_cdf is empty");
  expects(p > 0.0 && p <= 1.0, "quantile requires p in (0,1]");
  const auto it = std::lower_bound(cumulative_.begin(), cumulative_.end(), p);
  if (it == cumulative_.end()) return values_.back();
  const auto idx = static_cast<std::size_t>(std::distance(cumulative_.begin(), it));
  return values_[idx];
}

latency_histogram::latency_histogram() : buckets_(bucket_table_size, 0) {}

std::size_t latency_histogram::bucket_index(std::uint64_t value) {
  // Values with at most (sub_bucket_bits + 1) significant bits get
  // exact unit buckets; above that the top sub_bucket_bits+1 bits pick
  // the bucket, giving 32 sub-buckets per octave.
  if (value < 2 * sub_bucket_count) return static_cast<std::size_t>(value);
  const unsigned shift =
      static_cast<unsigned>(std::bit_width(value)) - (sub_bucket_bits + 1);
  const std::uint64_t top = value >> shift;  // in [32, 64)
  return static_cast<std::size_t>(shift) * sub_bucket_count +
         static_cast<std::size_t>(top);
}

std::uint64_t latency_histogram::bucket_upper(std::size_t index) {
  expects(index < bucket_table_size, "bucket index out of range");
  if (index < 2 * sub_bucket_count) return index;
  const unsigned shift =
      static_cast<unsigned>(index / sub_bucket_count) - 1;
  const std::uint64_t top = index - std::size_t{shift} * sub_bucket_count;
  return (top << shift) | ((std::uint64_t{1} << shift) - 1);
}

void latency_histogram::record(std::uint64_t value) {
  ++buckets_[bucket_index(value)];
  if (count_ == 0) {
    min_ = max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  ++count_;
  sum_ += value;
}

void latency_histogram::merge(const latency_histogram& other) {
  if (other.count_ == 0) return;
  for (std::size_t i = 0; i < bucket_table_size; ++i) {
    buckets_[i] += other.buckets_[i];
  }
  min_ = count_ == 0 ? other.min_ : std::min(min_, other.min_);
  max_ = count_ == 0 ? other.max_ : std::max(max_, other.max_);
  count_ += other.count_;
  sum_ += other.sum_;
}

double latency_histogram::mean() const {
  if (count_ == 0) return 0.0;
  return static_cast<double>(sum_) / static_cast<double>(count_);
}

std::uint64_t latency_histogram::quantile(double q) const {
  if (count_ == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  const auto rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(
             std::ceil(q * static_cast<double>(count_))));
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < bucket_table_size; ++i) {
    cumulative += buckets_[i];
    if (cumulative >= rank) {
      return std::clamp(bucket_upper(i), min_, max_);
    }
  }
  return max_;  // unreachable: cumulative reaches count_
}

}  // namespace urmem
