// Golden equivalence of the scenario runner against the legacy
// hand-wired experiment drivers: the fig5 and fig7 aggregates computed
// through `scenario_runner` must be bit-identical to the library calls
// the old binaries made on a shared pool (compute_mse_cdf per scheme
// for fig5, run_quality_experiment per scheme for fig7) at fixed
// seeds, at 1 and 4 campaign threads.
#include <gtest/gtest.h>

#include <sstream>

#include "urmem/scenario/scenario_runner.hpp"
#include "urmem/scheme/protection_scheme.hpp"
#include "urmem/sim/applications.hpp"
#include "urmem/sim/quality_experiment.hpp"
#include "urmem/yield/mse_distribution.hpp"

namespace urmem {
namespace {

constexpr std::uint64_t kFig5Runs = 20'000;
constexpr std::uint64_t kFig5Nmax = 30;
constexpr double kFig5Pcell = 5e-6;
constexpr std::uint64_t kFig5Seed = 42;
constexpr std::uint32_t kRows = 4096;

struct fig5_quantiles {
  double q50, q90, q99, q9999, yield_1e6;
};

std::vector<fig5_quantiles> legacy_fig5(unsigned threads) {
  // The pre-API fig5 binary's wiring: one stratified campaign per
  // scheme on a shared pool.
  mse_cdf_config config;
  config.total_runs = kFig5Runs;
  config.n_max = kFig5Nmax;
  config.seed = kFig5Seed;

  std::vector<std::unique_ptr<protection_scheme>> schemes;
  schemes.push_back(make_scheme_none());
  schemes.push_back(make_scheme_shuffle(kRows, 32, 1));
  schemes.push_back(make_scheme_pecc());

  campaign_runner runner({.threads = threads, .seed = kFig5Seed});
  std::vector<fig5_quantiles> result;
  for (const auto& scheme : schemes) {
    const empirical_cdf cdf =
        compute_mse_cdf(runner, *scheme, kRows, kFig5Pcell, config);
    result.push_back({mse_for_yield(cdf, 0.50), mse_for_yield(cdf, 0.90),
                      mse_for_yield(cdf, 0.99), mse_for_yield(cdf, 0.9999),
                      yield_at_mse(cdf, 1e6)});
  }
  return result;
}

json_value scenario_fig5(unsigned threads) {
  scenario_spec spec = scenario_spec::parse_text(R"json({
    "name": "fig5-golden",
    "fault": {"pcell": 5e-6},
    "seeds": {"root": 42},
    "schemes": ["none", "shuffle:nfm=1", "pecc"],
    "workload": {"name": "fig5-mse", "runs": 20000, "nmax": 30}
  })json");
  spec.run.threads = threads;
  std::ostringstream text;
  const scenario_report report = scenario_runner(spec).run(text);
  EXPECT_FALSE(text.str().empty());
  return report.points.at(0).output.json;
}

TEST(ScenarioGolden, Fig5AggregatesBitIdenticalToLegacyDriver) {
  for (const unsigned threads : {1u, 4u}) {
    const std::vector<fig5_quantiles> legacy = legacy_fig5(threads);
    const json_value json = scenario_fig5(threads);
    const auto& schemes = json.find("schemes")->as_array();
    ASSERT_EQ(schemes.size(), legacy.size()) << threads << " threads";
    for (std::size_t i = 0; i < legacy.size(); ++i) {
      // Bit-identical, not approximately equal: the scenario path must
      // replay exactly the legacy draws and reduction order.
      EXPECT_EQ(schemes[i].find("mse_at_yield_50")->as_double(), legacy[i].q50)
          << threads << " threads, scheme " << i;
      EXPECT_EQ(schemes[i].find("mse_at_yield_90")->as_double(), legacy[i].q90);
      EXPECT_EQ(schemes[i].find("mse_at_yield_99")->as_double(), legacy[i].q99);
      EXPECT_EQ(schemes[i].find("mse_at_yield_9999")->as_double(),
                legacy[i].q9999);
      EXPECT_EQ(schemes[i].find("yield_at_mse_1e6")->as_double(),
                legacy[i].yield_1e6);
    }
  }
}

TEST(ScenarioGolden, Fig5ThreadCountInvariance) {
  const json_value t1 = scenario_fig5(1);
  const json_value t4 = scenario_fig5(4);
  EXPECT_EQ(t1.dump(), t4.dump());
}

// ------------------------------------------------------------------ fig7

constexpr double kFig7Pcell = 2e-4;  // Nmax ~ 40: laptop-fast strata
constexpr std::uint64_t kFig7Seed = 99;
constexpr std::uint64_t kAppSeed = 7;

struct fig7_result {
  double clean, q01, q10, q50;
};

std::vector<fig7_result> legacy_fig7(unsigned threads) {
  // Verbatim wiring of the pre-API fig7 binary: shared pool, fixed
  // scheme list, run_quality_experiment per scheme.
  quality_experiment_config config;
  config.pcell = kFig7Pcell;
  config.samples_per_count = 1;
  config.seed = kFig7Seed;

  campaign_runner runner({.threads = threads, .seed = kFig7Seed});
  const auto app = make_elasticnet_app(kAppSeed);

  struct legacy_scheme {
    std::string name;
    scheme_factory factory;
  };
  const legacy_scheme schemes[] = {
      {"no-correction", [](std::uint32_t) { return make_scheme_none(); }},
      {"nFM=1",
       [](std::uint32_t rows) { return make_scheme_shuffle(rows, 32, 1); }},
  };
  std::vector<fig7_result> result;
  for (const auto& scheme : schemes) {
    const quality_result r = run_quality_experiment(*app, scheme.factory,
                                                    scheme.name, config, runner);
    result.push_back({r.clean_metric, r.cdf.quantile(0.01),
                      r.cdf.quantile(0.10), r.cdf.quantile(0.50)});
  }
  return result;
}

json_value scenario_fig7(unsigned threads) {
  scenario_spec spec = scenario_spec::parse_text(R"json({
    "name": "fig7-golden",
    "fault": {"pcell": 2e-4},
    "seeds": {"root": 99, "app": 7},
    "schemes": ["none", "shuffle:nfm=1"],
    "workload": {"name": "fig7-quality", "samples": 1, "apps": "elasticnet"}
  })json");
  spec.run.threads = threads;
  std::ostringstream text;
  const scenario_report report = scenario_runner(spec).run(text);
  return report.points.at(0).output.json;
}

TEST(ScenarioGolden, Fig7AggregatesBitIdenticalToLegacyDriver) {
  for (const unsigned threads : {1u, 4u}) {
    const std::vector<fig7_result> legacy = legacy_fig7(threads);
    const json_value json = scenario_fig7(threads);
    const auto& apps = json.find("apps")->as_array();
    ASSERT_EQ(apps.size(), 1u);
    const auto& schemes = apps[0].find("schemes")->as_array();
    ASSERT_EQ(schemes.size(), legacy.size());
    EXPECT_EQ(apps[0].find("clean_metric")->as_double(), legacy[0].clean)
        << threads << " threads";
    for (std::size_t i = 0; i < legacy.size(); ++i) {
      EXPECT_EQ(schemes[i].find("q01")->as_double(), legacy[i].q01)
          << threads << " threads, scheme " << i;
      EXPECT_EQ(schemes[i].find("q10")->as_double(), legacy[i].q10);
      EXPECT_EQ(schemes[i].find("q50")->as_double(), legacy[i].q50);
    }
  }
}

TEST(ScenarioGolden, Fig7ThreadCountInvariance) {
  const json_value t1 = scenario_fig7(1);
  const json_value t4 = scenario_fig7(4);
  EXPECT_EQ(t1.dump(), t4.dump());
}

}  // namespace
}  // namespace urmem
