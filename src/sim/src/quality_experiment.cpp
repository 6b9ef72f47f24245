#include "urmem/sim/quality_experiment.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "urmem/common/binomial.hpp"
#include "urmem/common/contracts.hpp"

namespace urmem {

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

  // Fault-free baseline: the quantization round trip, which is exactly
  // what a fault-free store reads back. Every trial starts from this
  // image and re-scores only the rows its faults changed.
  const quantized_matrix clean = quantize(app.train_features(), config.storage);
  const double clean_metric = app.evaluate(clean.values);
  ensures(std::isfinite(clean_metric) && clean_metric != 0.0,
          "clean baseline metric must be finite and nonzero");
  const application::delta_evaluator evaluate =
      app.make_delta_evaluator(clean.values);

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

  const std::uint64_t trials = strata.size() * config.samples_per_count;
  empirical_cdf cdf = runner.map_weighted(
      trials, [&](std::uint64_t trial, rng& gen) -> weighted_sample {
        const stratum& s = strata[trial / config.samples_per_count];
        const fault_injector inject =
            exact_fault_injector(s.n, config.polarity);
        const readback stored =
            store_and_readback(clean, config.storage, factory, inject, gen);
        const double metric = evaluate(stored.values, stored.changed_rows);
        const double normalized = std::clamp(
            std::isfinite(metric) ? metric / clean_metric : 0.0, 0.0, 1.0);
        return {normalized, s.weight_each};
      });

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
