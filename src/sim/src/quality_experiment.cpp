#include "urmem/sim/quality_experiment.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <optional>
#include <span>
#include <utility>

#include "urmem/common/binomial.hpp"
#include "urmem/common/contracts.hpp"

namespace urmem {

namespace {

/// Consecutive trials scored together by one group-evaluator call (PCA
/// solves them in the lanes of one batched Jacobi).
constexpr std::size_t trials_per_group = 8;

}  // namespace

std::uint64_t failure_count_limit(const quality_experiment_config& config) {
  // Nmax is defined over the data-array cell count of one tile (the
  // scheme-specific parity columns only shift it marginally).
  const array_geometry geometry{config.storage.rows_per_tile,
                                config.storage.word_bits};
  const binomial_distribution dist(geometry.cells(), config.pcell);
  return std::max<std::uint64_t>(1, dist.quantile(config.coverage));
}

quality_result run_quality_experiment(const application& app,
                                      const scheme_factory& factory,
                                      const std::string& scheme_name,
                                      const quality_experiment_config& config,
                                      campaign_runner& runner) {
  expects(config.samples_per_count >= 1, "need at least one sample per count");
  expects(config.pcell > 0.0 && config.pcell < 1.0, "pcell must be in (0,1)");
  expects(config.seed == runner.seed(),
          "quality_experiment_config::seed must equal the campaign runner's "
          "seed");

  // Fault-free baseline: the quantization round trip, which is exactly
  // what a fault-free store reads back. Every trial patches its changed
  // rows into this image, and the group evaluator is built on it.
  const quantized_matrix clean = quantize(app.train_features(), config.storage);
  const double clean_metric = app.evaluate(clean.values);
  ensures(std::isfinite(clean_metric) && clean_metric != 0.0,
          "clean baseline metric must be finite and nonzero");
  const application::group_evaluator evaluate =
      app.make_group_evaluator(clean.values);

  const std::uint64_t n_max = failure_count_limit(config);
  const array_geometry geometry{config.storage.rows_per_tile,
                                config.storage.word_bits};
  const binomial_distribution dist(geometry.cells(), config.pcell);

  // Strata with positive binomial mass; each contributes
  // samples_per_count trials weighted Pr(N = n) / samples_per_count.
  struct stratum {
    std::uint64_t n;
    double weight_each;
  };
  std::vector<stratum> strata;
  strata.reserve(n_max);
  for (std::uint64_t n = 1; n <= n_max; ++n) {
    const double pn = dist.pmf(n);
    if (pn <= 0.0) continue;
    strata.push_back({n, pn / config.samples_per_count});
  }
  ensures(!strata.empty(), "no failure-count stratum has positive mass");

  // Trials are scored in groups of consecutive trials, each drawn from
  // its own engine, so the group size cannot change a sample; samples
  // land in their trial's slot and merge in trial order. Each worker
  // builds one tile on its first group and reuses it for every trial it
  // runs (a reused tile stores exactly what a new one would).
  const std::uint64_t trials = strata.size() * config.samples_per_count;
  std::vector<double> values(trials);
  std::vector<double> weights(trials);
  std::vector<std::optional<store_tile>> tiles(runner.threads());
  runner.run_groups(
      trials, trials_per_group,
      [&](std::uint64_t first, std::span<rng> gens, unsigned worker) {
        std::optional<store_tile>& tile = tiles[worker];
        if (!tile) tile.emplace(config.storage, factory);
        std::array<double, trials_per_group> metrics{};
        evaluate(
            [&](std::size_t k) {
              const stratum& s = strata[(first + k) / config.samples_per_count];
              return store_and_readback(
                  clean, *tile, exact_fault_injector(s.n, config.polarity),
                  gens[k]);
            },
            std::span<double>(metrics.data(), gens.size()));
        for (std::size_t k = 0; k < gens.size(); ++k) {
          const std::uint64_t trial = first + k;
          const double metric = metrics[k];
          values[trial] = std::clamp(
              std::isfinite(metric) ? metric / clean_metric : 0.0, 0.0, 1.0);
          weights[trial] = strata[trial / config.samples_per_count].weight_each;
        }
      });
  empirical_cdf cdf(std::move(values), std::move(weights));

  quality_result result;
  result.scheme_name = scheme_name;
  result.clean_metric = clean_metric;
  result.cdf = std::move(cdf);
  return result;
}

quality_result run_quality_experiment(const application& app,
                                      const scheme_factory& factory,
                                      const std::string& scheme_name,
                                      const quality_experiment_config& config) {
  campaign_runner runner({.threads = config.threads,
                          .batch_size = config.batch_size,
                          .seed = config.seed});
  return run_quality_experiment(app, factory, scheme_name, config, runner);
}

}  // namespace urmem
