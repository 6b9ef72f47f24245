// Tests for the yield/MSE machinery of paper Sec. 4: the stratified
// Monte-Carlo CDF (Fig. 5) and the quality-aware yield criterion.
#include <gtest/gtest.h>

#include <cmath>

#include "urmem/scheme/protection_scheme.hpp"
#include "urmem/sim/campaign_runner.hpp"
#include "urmem/yield/mse_distribution.hpp"

namespace urmem {
namespace {

mse_cdf_config small_config() {
  mse_cdf_config config;
  config.total_runs = 200'000;
  config.n_max = 40;
  config.seed = 7;
  return config;
}

/// The sweep on a two-worker runner seeded like `config`.
empirical_cdf sweep(const protection_scheme& scheme, double pcell,
                    const mse_cdf_config& config) {
  campaign_runner runner({.threads = 2, .seed = config.seed});
  return compute_mse_cdf(runner, scheme, 4096, pcell, config);
}

TEST(MseCdfTest, ProducesValidDistribution) {
  const auto scheme = make_scheme_none();
  const empirical_cdf cdf = sweep(*scheme, 5e-6, small_config());
  EXPECT_GT(cdf.size(), 10u);
  EXPECT_DOUBLE_EQ(cdf.cumulative().back(), 1.0);
  // Support of the unprotected scheme spans many decades.
  EXPECT_LT(cdf.support().front(), 1.0);
  EXPECT_GT(cdf.support().back(), 1e6);
}

TEST(MseCdfTest, ShuffleDominatesUnprotected) {
  // The Fig. 5 headline: bit-shuffling reduces the MSE that must be
  // tolerated for a given yield by orders of magnitude.
  const auto none = make_scheme_none();
  const auto shuffled = make_scheme_shuffle(4096, 32, 1);
  const auto cfg = small_config();
  const empirical_cdf cdf_none = sweep(*none, 5e-6, cfg);
  const empirical_cdf cdf_shuffle = sweep(*shuffled, 5e-6, cfg);
  for (const double y : {0.5, 0.9, 0.99}) {
    EXPECT_LT(mse_for_yield(cdf_shuffle, y) * 30.0, mse_for_yield(cdf_none, y))
        << "yield target " << y;
  }
}

TEST(MseCdfTest, HigherNfmGivesLowerMseQuantiles) {
  const auto cfg = small_config();
  double prev = 1e300;
  for (unsigned n_fm = 1; n_fm <= 5; ++n_fm) {
    const auto scheme = make_scheme_shuffle(4096, 32, n_fm);
    const empirical_cdf cdf = sweep(*scheme, 5e-6, cfg);
    const double q99 = mse_for_yield(cdf, 0.99);
    EXPECT_LE(q99, prev) << "nFM=" << n_fm;
    prev = q99;
  }
}

TEST(MseCdfTest, ShuffleMseRespectsSingleFaultBound) {
  // Single faults dominate at Pcell = 5e-6: the 1-fault stratum (~71%
  // of the conditional mass) respects the exact (2^(S-1))^2 / R bound.
  // Rare multi-fault rows may exceed it (a second fault can land in a
  // higher segment); shuffle_test's MinMseIsOptimalOnEveryTwoFaultRow
  // bounds those exhaustively at 2^-16 of the unprotected (2^31)^2.
  const auto scheme = make_scheme_shuffle(4096, 32, 2);  // S = 8
  const empirical_cdf cdf = sweep(*scheme, 5e-6, small_config());
  const double per_fault = std::ldexp(1.0, 14) / 4096.0;  // (2^7)^2 / R
  EXPECT_LE(cdf.quantile(0.7), per_fault + 1e-12);
}

TEST(MseCdfTest, SecdedIsAlmostAlwaysZero) {
  const auto scheme = make_scheme_secded();
  const empirical_cdf cdf = sweep(*scheme, 5e-6, small_config());
  // Two faults in the same row are overwhelmingly unlikely at this
  // Pcell: virtually all mass sits at MSE = 0.
  EXPECT_GT(yield_at_mse(cdf, 0.0), 0.999);
}

TEST(MseCdfTest, IncludeFaultFreeAddsMassAtZero) {
  const auto scheme = make_scheme_none();
  auto cfg = small_config();
  const empirical_cdf without = sweep(*scheme, 5e-6, cfg);
  cfg.include_fault_free = true;
  const empirical_cdf with = sweep(*scheme, 5e-6, cfg);
  // Pr(N=0) ~ 0.52 at this operating point, so the CDF at tiny MSE
  // jumps by roughly that much.
  EXPECT_GT(yield_at_mse(with, 0.0), 0.5);
  EXPECT_LT(yield_at_mse(without, 0.0), 0.05);
}

TEST(MseCdfTest, YieldQueriesAreConsistent) {
  const auto scheme = make_scheme_pecc();
  const empirical_cdf cdf = sweep(*scheme, 5e-6, small_config());
  for (const double y : {0.3, 0.6, 0.9}) {
    const double budget = mse_for_yield(cdf, y);
    EXPECT_GE(yield_at_mse(cdf, budget), y);
  }
}

TEST(MseCdfTest, DeterministicUnderSeed) {
  const auto scheme = make_scheme_none();
  const auto cfg = small_config();
  const empirical_cdf a = sweep(*scheme, 5e-6, cfg);
  const empirical_cdf b = sweep(*scheme, 5e-6, cfg);
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a.support(), b.support());
}

TEST(MseCdfTest, RejectsBadConfig) {
  const auto scheme = make_scheme_none();
  mse_cdf_config config;
  config.n_min = 5;
  config.n_max = 2;
  EXPECT_THROW(sweep(*scheme, 5e-6, config), std::invalid_argument);
  EXPECT_THROW(sweep(*scheme, 0.0, small_config()), std::invalid_argument);
  // A config seed the runner does not carry would be silently ignored.
  campaign_runner runner({.threads = 1, .seed = 8});
  EXPECT_THROW(compute_mse_cdf(runner, *scheme, 4096, 5e-6, small_config()),
               std::invalid_argument);
}

TEST(MseCdfTest, TinyRunCountStillCoversDominantStrata) {
  const auto scheme = make_scheme_none();
  mse_cdf_config config;
  config.total_runs = 100;  // only the n=1..3 strata get samples
  config.seed = 3;
  const empirical_cdf cdf = sweep(*scheme, 5e-6, config);
  EXPECT_GT(cdf.size(), 5u);
}

}  // namespace
}  // namespace urmem
