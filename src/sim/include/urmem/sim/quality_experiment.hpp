// The Fig. 7 experiment: CDF of application quality under memory
// failures (paper Sec. 5.2).
//
// For each failure count N = 1..Nmax (Nmax chosen so 99 % of memories
// have no more failures, per the paper), `samples_per_count` random
// fault maps are injected into the tiled training-feature store, the
// benchmark is retrained on the corrupted features, and the quality
// metric — normalized to the fault-free (quantization-only) baseline —
// is recorded. Strata are weighted by the binomial Pr(N = n), so the
// resulting weighted CDF is the quality-yield curve of Fig. 7.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "urmem/common/stats.hpp"
#include "urmem/memory/fault_sampler.hpp"
#include "urmem/sim/applications.hpp"
#include "urmem/sim/campaign_runner.hpp"
#include "urmem/sim/memory_pipeline.hpp"

namespace urmem {

/// Parameters of the Fig. 7 sweep.
struct quality_experiment_config {
  double pcell = 1e-3;                 ///< paper's Fig. 7 operating point
  storage_config storage;              ///< 16 KB tiles of 32-bit words
  std::uint32_t samples_per_count = 10;///< paper uses 500 (CLI-scalable)
  double coverage = 0.99;              ///< quantile defining Nmax
  fault_polarity polarity = fault_polarity::flip;  ///< paper injects bit-flips
  std::uint64_t seed = 99;
  unsigned threads = 1;                ///< campaign workers; 0 = all cores
  std::uint64_t batch_size = 0;        ///< trials per scheduling step; 0 = auto
};

/// One scheme's quality distribution.
struct quality_result {
  std::string scheme_name;
  double clean_metric = 0.0;  ///< fault-free (quantized) metric value
  empirical_cdf cdf;          ///< CDF of the normalized metric
};

/// Runs the stratified sweep of one application under one scheme.
/// The normalized metric is evaluate(corrupted)/evaluate(clean),
/// clamped to [0, 1]. Trials are sharded over a campaign_runner seeded
/// with `config.seed`, so the result is bit-identical for a fixed seed
/// at any `config.threads`.
[[nodiscard]] quality_result run_quality_experiment(
    const application& app, const scheme_factory& factory,
    const std::string& scheme_name, const quality_experiment_config& config);

/// Same sweep on an existing (shared) campaign runner; per-trial streams
/// derive from `runner.seed()`, which must equal `config.seed`
/// (std::invalid_argument otherwise). Lets one pool serve the whole
/// Fig. 7 scheme x application grid without re-spawning workers.
[[nodiscard]] quality_result run_quality_experiment(
    const application& app, const scheme_factory& factory,
    const std::string& scheme_name, const quality_experiment_config& config,
    campaign_runner& runner);

/// Largest failure count Nmax such that `coverage` of the memories have
/// at most Nmax failures (per 16 KB tile).
[[nodiscard]] std::uint64_t failure_count_limit(
    const quality_experiment_config& config);

}  // namespace urmem
