// Binomial distribution machinery for fault-count statistics.
//
// The number of failing bit-cells N in a memory of M cells with cell
// failure probability Pcell follows Binomial(M, Pcell) — Eq. (4) of the
// paper. Everything here works in the log domain so that M = 131072 and
// Pcell = 1e-9 are handled without underflow.
#pragma once

#include <cstdint>
#include <mutex>
#include <vector>

#include "urmem/common/rng.hpp"

namespace urmem {

/// Binomial(M, p) fault-count distribution (paper Eq. 4).
///
/// cdf, quantile and sample read a cumulative table of ~24 sd + 48 pmf
/// terms (three lgammas, a log1p and an exp each; ~30 us at M = 131072,
/// p = 1e-3). It is built once per object, on the first call that needs
/// it, under std::call_once, so pmf-only callers never pay for it and
/// one const distribution may be shared by any number of threads: every
/// reader sees the finished table. Build a distribution once per
/// operating point and reuse it; a fresh one per draw rebuilds the table
/// every time.
class binomial_distribution {
 public:
  /// `trials` >= 1, `p` in [0, 1].
  binomial_distribution(std::uint64_t trials, double p);

  /// Copies the parameters, not the table: the copy builds its own on
  /// first use (the source may be building its table right now).
  binomial_distribution(const binomial_distribution& other);
  binomial_distribution& operator=(const binomial_distribution&) = delete;

  [[nodiscard]] std::uint64_t trials() const { return trials_; }
  [[nodiscard]] double probability() const { return p_; }

  /// ln Pr(N = n).
  [[nodiscard]] double log_pmf(std::uint64_t n) const;

  /// Pr(N = n).
  [[nodiscard]] double pmf(std::uint64_t n) const;

  /// Pr(N <= n), summed from the dominant region (exact to double precision).
  [[nodiscard]] double cdf(std::uint64_t n) const;

  /// E[N] = M * p.
  [[nodiscard]] double mean() const { return static_cast<double>(trials_) * p_; }

  /// Var[N] = M * p * (1 - p).
  [[nodiscard]] double variance() const { return mean() * (1.0 - p_); }

  /// Smallest n with Pr(N <= n) >= q. Used to pick Nmax such that 99 % of
  /// memory samples have no more failures (paper Sec. 5.2).
  [[nodiscard]] std::uint64_t quantile(double q) const;

  /// Draws a fault count: inversion over the cumulative table, which
  /// covers all but 1e-15 of the mass. O(log n) per draw once the table
  /// exists; the first draw on a distribution also builds it.
  [[nodiscard]] std::uint64_t sample(rng& gen) const;

 private:
  /// The cumulative table, built on first call and read-only after.
  void build_table() const;

  std::uint64_t trials_;
  double p_;
  // Cumulative table over [table_lo_, table_lo_ + table_.size()),
  // written only inside build_table's call_once.
  mutable std::once_flag table_built_;
  mutable std::vector<double> table_;
  mutable std::uint64_t table_lo_ = 0;
};

/// Sample allocation for the stratified Monte-Carlo sweep of Fig. 5:
/// for each failure count n in [1, n_max], the paper draws
/// Pr(N = n) * total_runs fault maps. Entry i of the result is the
/// (rounded) number of samples for n = i + 1.
[[nodiscard]] std::vector<std::uint64_t> stratified_sample_counts(
    const binomial_distribution& dist, std::uint64_t n_max, std::uint64_t total_runs);

}  // namespace urmem
