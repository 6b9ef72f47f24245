// Tests for the closed-form single-fault distributions and their
// agreement with the Monte-Carlo sampler — the strongest validation of
// the Fig. 5 machinery.
#include <gtest/gtest.h>

#include <cmath>

#include "urmem/scheme/protection_scheme.hpp"
#include "urmem/sim/campaign_runner.hpp"
#include "urmem/yield/analytic.hpp"
#include "urmem/yield/mse_distribution.hpp"

namespace urmem {
namespace {

TEST(SingleFaultDistributionTest, NoneSchemeIsUniformOverBitWeights) {
  const auto scheme = make_scheme_none();
  const auto dist = single_fault_cost_distribution(*scheme);
  ASSERT_EQ(dist.size(), 32u);  // 32 distinct costs 4^0..4^31
  for (std::size_t i = 0; i < dist.size(); ++i) {
    EXPECT_DOUBLE_EQ(dist[i].first, std::ldexp(1.0, 2 * static_cast<int>(i)));
    EXPECT_DOUBLE_EQ(dist[i].second, 1.0 / 32.0);
  }
}

TEST(SingleFaultDistributionTest, SecdedIsPointMassAtZero) {
  const auto scheme = make_scheme_secded();
  const auto dist = single_fault_cost_distribution(*scheme);
  ASSERT_EQ(dist.size(), 1u);
  EXPECT_DOUBLE_EQ(dist[0].first, 0.0);
  EXPECT_DOUBLE_EQ(dist[0].second, 1.0);
}

TEST(SingleFaultDistributionTest, PeccSplitsMassBetweenRegions) {
  const auto scheme = make_scheme_pecc();
  const auto dist = single_fault_cost_distribution(*scheme);
  // 22 of 38 columns are protected (cost 0), 16 unprotected with costs
  // 4^0..4^15.
  EXPECT_DOUBLE_EQ(dist.front().first, 0.0);
  EXPECT_NEAR(dist.front().second, 22.0 / 38.0, 1e-12);
  EXPECT_DOUBLE_EQ(dist.back().first, std::ldexp(1.0, 30));
  double total = 0.0;
  for (const auto& [cost, prob] : dist) total += prob;
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(SingleFaultDistributionTest, ShuffleFoldsMassIntoSegment) {
  // nFM=2 (S=8): each residual position 0..7 receives 4/32 of the mass.
  const auto scheme = make_scheme_shuffle(16, 32, 2);
  const auto dist = single_fault_cost_distribution(*scheme);
  ASSERT_EQ(dist.size(), 8u);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_DOUBLE_EQ(dist[i].first, std::ldexp(1.0, 2 * static_cast<int>(i)));
    EXPECT_DOUBLE_EQ(dist[i].second, 1.0 / 8.0);
  }
}

TEST(SingleFaultDistributionTest, ExpectedCostOrdersSchemes) {
  const double none = expected_single_fault_cost(*make_scheme_none());
  const double pecc = expected_single_fault_cost(*make_scheme_pecc());
  const double nfm1 = expected_single_fault_cost(*make_scheme_shuffle(16, 32, 1));
  const double nfm5 = expected_single_fault_cost(*make_scheme_shuffle(16, 32, 5));
  const double ecc = expected_single_fault_cost(*make_scheme_secded());
  EXPECT_LT(ecc, nfm5);
  EXPECT_LT(nfm5, nfm1);
  EXPECT_LT(nfm1, none);
  EXPECT_LT(pecc, none);
  // nFM=1's mean (dominated by 4^15) undercuts P-ECC's (dominated by
  // the unprotected 4^15 share): both ~4^15-scale.
  EXPECT_NEAR(std::log2(nfm1 / pecc), std::log2(30.0 / 16.0) - 0.0, 2.0);
}

TEST(SingleFaultDistributionTest, MonteCarloOneFaultStratumMatchesExactly) {
  // The MC sampler restricted to n = 1 must reproduce the closed form
  // at every support point.
  for (const auto& scheme :
       {make_scheme_none(), make_scheme_pecc(), make_scheme_shuffle(4096, 32, 2)}) {
    const empirical_cdf exact = analytic_single_fault_mse_cdf(*scheme, 4096);
    mse_cdf_config config;
    config.total_runs = 40'000'000;  // pmf(1) ~ 0.34 -> ~13.6M... capped below
    config.total_runs = 2'000'000;
    config.n_min = 1;
    config.n_max = 1;
    config.seed = 5;
    campaign_runner runner({.threads = 2, .seed = config.seed});
    const empirical_cdf sampled =
        compute_mse_cdf(runner, *scheme, 4096, 5e-6, config);
    for (const double v : exact.support()) {
      EXPECT_NEAR(sampled.at(v), exact.at(v), 0.01)
          << scheme->name() << " at MSE " << v;
    }
  }
}

TEST(ConvolutionTest, MatchesHandComputedSum) {
  // X uniform on {0,1}, Y uniform on {0,2}: X+Y uniform on {0,1,2,3}.
  const discrete_distribution x{{0.0, 0.5}, {1.0, 0.5}};
  const discrete_distribution y{{0.0, 0.5}, {2.0, 0.5}};
  const discrete_distribution sum = convolve(x, y);
  ASSERT_EQ(sum.size(), 4u);
  for (const auto& [value, prob] : sum) EXPECT_DOUBLE_EQ(prob, 0.25);
  EXPECT_DOUBLE_EQ(sum[3].first, 3.0);
}

TEST(ConvolutionTest, MergesCoincidentSums) {
  // {0,1} + {0,1}: value 1 arises twice.
  const discrete_distribution x{{0.0, 0.5}, {1.0, 0.5}};
  const discrete_distribution sum = convolve(x, x);
  ASSERT_EQ(sum.size(), 3u);
  EXPECT_DOUBLE_EQ(sum[1].first, 1.0);
  EXPECT_DOUBLE_EQ(sum[1].second, 0.5);
}

TEST(ConvolutionTest, NormalizesAfterPruning) {
  const discrete_distribution x{{0.0, 1.0 - 1e-18}, {1.0, 1e-18}};
  const discrete_distribution sum = convolve(x, x, 1e-12);
  double total = 0.0;
  for (const auto& [value, prob] : sum) total += prob;
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(AnalyticMixtureCdfTest, AgreesWithMonteCarloAtFig5OperatingPoint) {
  // The convolution mixture must track the stratified sampler across
  // the schemes that matter for Fig. 5.
  for (const auto& scheme :
       {make_scheme_none(), make_scheme_pecc(), make_scheme_shuffle(4096, 32, 1)}) {
    const empirical_cdf exact = analytic_mse_cdf(*scheme, 4096, 5e-6, {});
    mse_cdf_config mc_config;
    mc_config.total_runs = 400'000;
    mc_config.n_max = 40;
    mc_config.seed = 21;
    campaign_runner runner({.threads = 2, .seed = mc_config.seed});
    const empirical_cdf sampled =
        compute_mse_cdf(runner, *scheme, 4096, 5e-6, mc_config);
    for (const double q : {1e-3, 1e-1, 1e1, 1e3, 1e5, 1e7, 1e9}) {
      EXPECT_NEAR(sampled.at(q), exact.at(q), 0.01)
          << scheme->name() << " at MSE " << q;
    }
  }
}

TEST(AnalyticMixtureCdfTest, FaultFreeMassLandsAtZero) {
  const auto scheme = make_scheme_none();
  analytic_cdf_config config;
  config.include_fault_free = true;
  const empirical_cdf cdf = analytic_mse_cdf(*scheme, 4096, 5e-6, config);
  // Pr(N=0) ~ 0.519 at this Pcell.
  EXPECT_NEAR(cdf.at(0.0), 0.52, 0.01);
}

TEST(AnalyticMixtureCdfTest, SecdedMixtureIsDegenerate) {
  const auto scheme = make_scheme_secded();
  const empirical_cdf cdf = analytic_mse_cdf(*scheme, 4096, 5e-6, {});
  // Single faults are free and the independent-fault approximation has
  // no same-row pairs: all mass at 0.
  EXPECT_DOUBLE_EQ(cdf.at(0.0), 1.0);
}

TEST(AnalyticMixtureCdfTest, RejectsBadConfig) {
  const auto scheme = make_scheme_none();
  analytic_cdf_config config;
  config.n_min = 5;
  config.n_max = 2;
  EXPECT_THROW((void)analytic_mse_cdf(*scheme, 4096, 5e-6, config),
               std::invalid_argument);
}

TEST(SingleFaultDistributionTest, CdfNormalizedAndMonotone) {
  const auto scheme = make_scheme_shuffle(4096, 32, 3);
  const empirical_cdf cdf = analytic_single_fault_mse_cdf(*scheme, 4096);
  EXPECT_DOUBLE_EQ(cdf.cumulative().back(), 1.0);
  double prev = 0.0;
  for (const double c : cdf.cumulative()) {
    EXPECT_GE(c, prev);
    prev = c;
  }
}

}  // namespace
}  // namespace urmem
