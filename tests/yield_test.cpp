// Tests for the yield/MSE machinery of paper Sec. 4: the stratified
// Monte-Carlo CDF (Fig. 5) and the quality-aware yield criterion.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include "urmem/common/binomial.hpp"
#include "urmem/scenario/scheme_registry.hpp"
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

/// The sweep's trial layout rebuilt around the sample_mse oracle: the
/// same strata (the Pr(N = 0) mass as a one-trial n = 0 stratum first)
/// flattened in order, one map_weighted trial each.
empirical_cdf oracle_sweep(const protection_scheme& scheme, std::uint32_t rows,
                           double pcell, const mse_cdf_config& config) {
  const array_geometry geometry{rows, scheme.storage_bits()};
  std::vector<mse_stratum> strata = mse_strata(geometry, pcell, config);
  if (config.include_fault_free) {
    strata.insert(strata.begin(),
                  {0, 1, binomial_distribution(geometry.cells(), pcell).pmf(0)});
  }
  std::vector<std::uint64_t> starts;
  std::uint64_t trials = 0;
  for (const mse_stratum& s : strata) {
    starts.push_back(trials);
    trials += s.count;
  }
  campaign_runner runner({.threads = 1, .seed = config.seed});
  return runner.map_weighted(
      trials, [&](std::uint64_t trial, rng& gen) -> weighted_sample {
        const auto it = std::upper_bound(starts.begin(), starts.end(), trial);
        const mse_stratum& s = strata[static_cast<std::size_t>(
            std::distance(starts.begin(), it) - 1)];
        return {sample_mse(scheme, geometry, s.n, gen), s.weight_each};
      });
}

/// compute_mse_cdf scores homogeneous schemes from a per-column table
/// and tiered ones through sample_mse; either way its CDF must equal the
/// oracle campaign bit for bit. Every registered recipe (the tiered one
/// split into an unprotected and a SECDED half) on a 4096-row memory and
/// on a 16-row one, where rows with several faults are common, with and
/// without the fault-free mass, at 1 and 4 threads.
TEST(MseCdfTest, TableScoringMatchesSampleMseOracle) {
  for (const std::uint32_t rows : {4096u, 16u}) {
    geometry_spec geometry;
    geometry.rows_per_tile = rows;
    const double pcell = rows == 16 ? 1e-2 : 5e-5;
    for (const auto& info : scheme_registry::instance().list()) {
      if (info.name.starts_with("test-")) continue;
      scheme_ref ref{info.name, option_map("schemes[0]")};
      if (info.name == "tiered") {
        ref.options.set("0-" + std::to_string(rows / 2 - 1), "none");
        ref.options.set(std::to_string(rows / 2) + "-" + std::to_string(rows - 1),
                        "secded");
      }
      const auto scheme =
          scheme_registry::instance().make(ref, geometry).factory(rows);
      for (const bool fault_free : {false, true}) {
        mse_cdf_config config;
        config.total_runs = 20'000;
        config.n_max = 40;
        config.include_fault_free = fault_free;
        config.seed = 91;
        const empirical_cdf oracle = oracle_sweep(*scheme, rows, pcell, config);
        for (const unsigned threads : {1u, 4u}) {
          const std::string point = info.name + " rows=" + std::to_string(rows) +
                                    " fault_free=" + std::to_string(fault_free) +
                                    " threads=" + std::to_string(threads);
          campaign_runner runner({.threads = threads, .seed = config.seed});
          const empirical_cdf cdf =
              compute_mse_cdf(runner, *scheme, rows, pcell, config);
          // Vector equality on doubles is exact: bit-identical, not close.
          EXPECT_EQ(cdf.support(), oracle.support()) << point;
          EXPECT_EQ(cdf.cumulative(), oracle.cumulative()) << point;
        }
      }
    }
  }
}

}  // namespace
}  // namespace urmem
