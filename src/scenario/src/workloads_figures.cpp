// Built-in workloads reproducing the paper's figure/table experiments.
// Each text body is what `urmem-run` prints; it is byte-stable at fixed
// seeds, and every experiment is sweepable from spec files.
#include <algorithm>
#include <cctype>
#include <cmath>
#include <iostream>
#include <memory>
#include <sstream>

#include "urmem/common/binomial.hpp"
#include "urmem/common/table.hpp"
#include "urmem/scenario/workload_registry.hpp"
#include "urmem/sim/applications.hpp"
#include "urmem/sim/quality_experiment.hpp"
#include "urmem/sim/quantizer.hpp"
#include "urmem/yield/analytic.hpp"
#include "urmem/yield/mse_distribution.hpp"

namespace urmem {
namespace {

// ------------------------------------------------------------- fig5-mse

/// Stratified Fig. 5 sweep of one scheme as a fault-injection campaign:
/// trial i belongs to the stratum covering i in the flattened
/// per-stratum sample allocation, and every trial draws its own fault
/// map on its own deterministic stream.
empirical_cdf campaign_mse_cdf(campaign_runner& runner,
                               const protection_scheme& scheme,
                               std::uint32_t rows, double pcell,
                               const mse_cdf_config& config) {
  const array_geometry geometry{rows, scheme.storage_bits()};
  std::vector<mse_stratum> strata = mse_strata(geometry, pcell, config);
  if (config.include_fault_free) {
    // Same Pr(N = 0) mass at MSE 0 that compute_mse_cdf prepends; an
    // n = 0 trial draws no cells and costs 0 without touching its rng.
    const binomial_distribution dist(geometry.cells(), pcell);
    strata.insert(strata.begin(), {0, 1, dist.pmf(0)});
  }

  std::vector<std::uint64_t> starts;  // first trial index of each stratum
  starts.reserve(strata.size());
  std::uint64_t trials = 0;
  for (const mse_stratum& s : strata) {
    starts.push_back(trials);
    trials += s.count;
  }

  return runner.map_weighted(
      trials, [&](std::uint64_t trial, rng& gen) -> weighted_sample {
        const auto it = std::upper_bound(starts.begin(), starts.end(), trial);
        const mse_stratum& s = strata[static_cast<std::size_t>(
            std::distance(starts.begin(), it) - 1)];
        return {sample_mse(scheme, geometry, s.n, gen), s.weight_each};
      });
}

/// Fig. 5: CDF of the memory MSE (Eq. 6) across the spec's schemes.
class fig5_workload final : public workload {
 public:
  explicit fig5_workload(const option_map& options)
      : runs_(options.get_u64("runs", 10'000'000)),
        n_max_(options.get_u64("nmax", 150)),
        analytic_(options.get_bool("analytic", false)) {
    if (runs_ < 1) {
      throw spec_error(options.field_name("runs"), "must be at least 1");
    }
    if (n_max_ < 1) {
      throw spec_error(options.field_name("nmax"), "must be at least 1");
    }
  }

  workload_output run(const scenario_spec& spec,
                      campaign_pool& pool) const override {
    reject_region_operating_points(spec, "fig5-mse");
    const std::vector<scheme_recipe> recipes =
        resolve_word_transform_schemes(spec, "fig5-mse");
    if (recipes.empty()) {
      throw spec_error("schemes", "fig5-mse needs at least one scheme");
    }
    const double pcell = spec.resolved_pcell("fig5-mse");
    if (pcell <= 0.0) {
      throw spec_error("fault.pcell",
                       "fig5-mse stratifies over failure counts and needs a "
                       "positive Pcell");
    }
    const std::uint32_t rows = spec.geometry.rows_per_tile;

    mse_cdf_config config;
    config.total_runs = runs_;
    config.n_max = n_max_;
    config.seed = spec.seeds.root;

    std::vector<std::unique_ptr<protection_scheme>> schemes;
    schemes.reserve(recipes.size());
    for (const scheme_recipe& recipe : recipes) schemes.push_back(recipe.factory(rows));

    std::ostringstream out;
    out << spec.geometry.size_label() << " memory (" << rows << " x "
        << spec.geometry.word_bits
        << "), Pcell = " << format_scientific(pcell, 2)
        << ", Trun = " << config.total_runs << ", failure counts 1.."
        << config.n_max << " (CDF conditional on N >= 1, per Eq. 5)\n\n";

    std::uint64_t total_trials = 0;
    std::vector<empirical_cdf> cdfs;
    if (analytic_) {
      // The analytic convolution builds ONE per-row cost distribution
      // from row 0's worst_case_row_cost; a tiered scheme has
      // no single such distribution (each tier has its own), so the
      // closed form would charge every fault at row 0's tier.
      for (std::size_t i = 0; i < recipes.size(); ++i) {
        if (recipes[i].regions.empty()) continue;
        throw spec_error(i < spec.schemes.size()
                             ? "schemes[" + std::to_string(i) + "]"
                             : "regions",
                         "fig5-mse analytic=true convolves one per-row cost "
                         "distribution and cannot model tiered schemes; use "
                         "the sampled path (analytic=false)");
      }
    }
    for (const auto& scheme : schemes) {
      if (analytic_) {
        std::cerr << "  convolving " << scheme->name() << "...\n";
        analytic_cdf_config acfg;
        acfg.n_max = std::min<std::uint64_t>(config.n_max, 40);
        cdfs.push_back(analytic_mse_cdf(*scheme, rows, pcell, acfg));
      } else {
        campaign_runner& runner = pool.runner();
        std::cerr << "  sampling " << scheme->name() << "...\n";
        cdfs.push_back(campaign_mse_cdf(runner, *scheme, rows, pcell, config));
        const campaign_stats stats = runner.last_stats();
        total_trials += stats.trials;
        std::cerr << "    " << stats.trials << " trials in " << stats.batches
                  << " batches (" << stats.steals << " steals)\n";
      }
    }

    // The paper's x-axis: MSE from 1e-4 to 1e8.
    std::vector<std::string> headers{"MSE <="};
    for (const auto& scheme : schemes) headers.push_back(scheme->name());
    console_table table(headers);
    for (const double mse : logspace(1e-4, 1e8, 25)) {
      std::vector<std::string> row{format_scientific(mse, 1)};
      for (const auto& cdf : cdfs) row.push_back(format_double(cdf.at(mse), 4));
      table.add_row(std::move(row));
    }
    table.print(out);

    out << "\nMSE budget required per yield target (quantiles):\n";
    console_table quantiles({"scheme", "yield 50%", "yield 90%", "yield 99%",
                             "yield 99.99%"});
    for (std::size_t i = 0; i < schemes.size(); ++i) {
      quantiles.add_row({schemes[i]->name(),
                         format_scientific(mse_for_yield(cdfs[i], 0.50), 2),
                         format_scientific(mse_for_yield(cdfs[i], 0.90), 2),
                         format_scientific(mse_for_yield(cdfs[i], 0.99), 2),
                         format_scientific(mse_for_yield(cdfs[i], 0.9999), 2)});
    }
    quantiles.print(out);

    // The paper's headline claims compare specific schemes; the block
    // only prints when the scheme set contains them (it always does for
    // the canonical Fig. 5 spec).
    const auto index_of = [&](std::string_view name) -> std::ptrdiff_t {
      for (std::size_t i = 0; i < schemes.size(); ++i) {
        if (schemes[i]->name() == name) return static_cast<std::ptrdiff_t>(i);
      }
      return -1;
    };
    const auto index_of_suffix = [&](std::string_view suffix) -> std::ptrdiff_t {
      for (std::size_t i = 0; i < schemes.size(); ++i) {
        if (schemes[i]->name().ends_with(suffix)) {
          return static_cast<std::ptrdiff_t>(i);
        }
      }
      return -1;
    };
    const std::ptrdiff_t idx_none = index_of("no-correction");
    const std::ptrdiff_t idx_n1 = index_of("nFM=1");
    const std::ptrdiff_t idx_n2 = index_of("nFM=2");
    const std::ptrdiff_t idx_pecc = index_of_suffix("P-ECC");
    if (idx_none >= 0 && idx_n1 >= 0 && idx_n2 >= 0 && idx_pecc >= 0) {
      out << "\nPaper headline checks:\n";
      console_table claims({"claim", "paper", "measured"});
      const double reduction = mse_for_yield(cdfs[idx_none], 0.99) /
                               mse_for_yield(cdfs[idx_n1], 0.99);
      claims.add_row({"MSE reduction @ matched yield, nFM=1 vs none", ">= 30x",
                      format_double(reduction, 3) + "x"});
      claims.add_row({"yield @ MSE < 1e6, nFM=1", "99.9999%",
                      format_percent(yield_at_mse(cdfs[idx_n1], 1e6), 4)});
      claims.add_row({"yield @ MSE < 1e6, no correction",
                      "<6%  (see EXPERIMENTS.md)",
                      format_percent(yield_at_mse(cdfs[idx_none], 1e6), 1)});
      claims.add_row({"nFM=2..5 beat P-ECC @ yield 99%", "yes",
                      mse_for_yield(cdfs[idx_n2], 0.99) <
                              mse_for_yield(cdfs[idx_pecc], 0.99)
                          ? "yes"
                          : "no"});
      claims.print(out);
    }

    workload_output output;
    output.text = out.str();
    output.trials = total_trials;
    output.json = json_value::make_object();
    output.json.set("pcell", pcell);
    output.json.set("runs", config.total_runs);
    output.json.set("n_max", config.n_max);
    output.json.set("analytic", analytic_);
    json_value scheme_results = json_value::make_array();
    for (std::size_t i = 0; i < schemes.size(); ++i) {
      json_value entry = json_value::make_object();
      entry.set("name", schemes[i]->name());
      entry.set("mse_at_yield_50", mse_for_yield(cdfs[i], 0.50));
      entry.set("mse_at_yield_90", mse_for_yield(cdfs[i], 0.90));
      entry.set("mse_at_yield_99", mse_for_yield(cdfs[i], 0.99));
      entry.set("mse_at_yield_9999", mse_for_yield(cdfs[i], 0.9999));
      entry.set("yield_at_mse_1e6", yield_at_mse(cdfs[i], 1e6));
      scheme_results.push_back(std::move(entry));
    }
    output.json.set("schemes", std::move(scheme_results));
    return output;
  }

 private:
  std::uint64_t runs_;
  std::uint64_t n_max_;
  bool analytic_;
};

// --------------------------------------------------------- fig7-quality

/// Fig. 7: CDF of application quality across the spec's schemes.
class fig7_workload final : public workload {
 public:
  explicit fig7_workload(const option_map& options)
      : samples_(options.get_u32("samples", 10)),
        coverage_(options.get_double("coverage", 0.99)),
        apps_(options.get_list("apps", "")) {
    if (samples_ < 1) {
      throw spec_error(options.field_name("samples"), "must be at least 1");
    }
    if (coverage_ <= 0.0 || coverage_ >= 1.0) {
      throw spec_error(options.field_name("coverage"), "must be in (0, 1)");
    }
    // A typo here would otherwise filter every application out and
    // produce an empty, successful-looking run.
    for (const std::string& app : apps_) {
      if (app != "elasticnet" && app != "pca" && app != "knn") {
        throw spec_error(options.field_name("apps"),
                         "unknown application \"" + app +
                             "\" (valid: elasticnet, pca, knn)");
      }
    }
  }

  workload_output run(const scenario_spec& spec,
                      campaign_pool& pool) const override {
    reject_region_operating_points(spec, "fig7-quality");
    const std::vector<scheme_recipe> recipes = resolve_schemes(spec);
    if (recipes.empty()) {
      throw spec_error("schemes", "fig7-quality needs at least one scheme");
    }
    campaign_runner& runner = pool.runner();

    quality_experiment_config config;
    config.pcell = spec.resolved_pcell("fig7-quality");
    if (config.pcell <= 0.0) {
      throw spec_error("fault.pcell",
                       "fig7-quality stratifies over failure counts and needs "
                       "a positive Pcell");
    }
    config.storage = spec.storage();
    config.samples_per_count = samples_;
    config.coverage = coverage_;
    config.polarity = spec.fault.polarity;
    config.seed = spec.seeds.root;

    std::ostringstream out;
    out << spec.geometry.size_label()
        << " tiles, Pcell = " << format_scientific(config.pcell, 2) << ", Nmax ("
        << static_cast<int>(std::llround(coverage_ * 100))
        << "% coverage) = " << failure_count_limit(config)
        << ", samples per failure count = " << config.samples_per_count
        << "\n(H(39,32) ECC is the paper's error-free reference: samples "
           "with >1 error per word are discarded there, normalized "
           "metric = 1.0 by construction.)\n\n";

    workload_output output;
    output.json = json_value::make_object();
    output.json.set("pcell", config.pcell);
    output.json.set("samples_per_count", std::uint64_t{config.samples_per_count});
    json_value app_results = json_value::make_array();

    for (const auto& app : make_all_applications(spec.seeds.app)) {
      if (!apps_.empty() &&
          std::find(apps_.begin(), apps_.end(),
                    lowercase(app->name())) == apps_.end()) {
        continue;
      }
      out << "--- " << app->name() << " (" << app->dataset_name()
          << ", metric: " << app->metric_name() << ") ---\n";

      std::vector<quality_result> results;
      for (const scheme_recipe& recipe : recipes) {
        std::cerr << "  running " << app->name() << " / " << recipe.display_name
                  << "...\n";
        quality_experiment_config scheme_config = config;
        scheme_config.storage.spare_rows_per_tile = recipe.spare_rows;
        scheme_config.storage.regions = recipe.regions;
        results.push_back(run_quality_experiment(
            *app, recipe.factory, recipe.display_name, scheme_config, runner));
        output.trials += runner.last_stats().trials;
      }

      out << "clean (quantized) metric = "
          << format_double(results.front().clean_metric, 4) << "\n\n";

      // The paper's y-axis: CDF over the normalized metric grid.
      std::vector<std::string> headers{"normalized metric <="};
      for (const auto& r : results) headers.push_back(r.scheme_name);
      console_table table(headers);
      for (const double q : linspace(0.0, 1.0, 21)) {
        std::vector<std::string> row{format_double(q, 3)};
        for (const auto& r : results) row.push_back(format_double(r.cdf.at(q), 4));
        table.add_row(std::move(row));
      }
      table.print(out);

      out << "\nLow quantiles (quality floor) per scheme:\n";
      console_table quantiles({"scheme", "q01", "q10", "q50"});
      for (const auto& r : results) {
        quantiles.add_row({r.scheme_name, format_double(r.cdf.quantile(0.01), 4),
                           format_double(r.cdf.quantile(0.10), 4),
                           format_double(r.cdf.quantile(0.50), 4)});
      }
      quantiles.print(out);
      out << "\n";

      json_value app_entry = json_value::make_object();
      app_entry.set("app", app->name());
      app_entry.set("clean_metric", results.front().clean_metric);
      json_value scheme_results = json_value::make_array();
      for (const auto& r : results) {
        json_value entry = json_value::make_object();
        entry.set("name", r.scheme_name);
        entry.set("q01", r.cdf.quantile(0.01));
        entry.set("q10", r.cdf.quantile(0.10));
        entry.set("q50", r.cdf.quantile(0.50));
        scheme_results.push_back(std::move(entry));
      }
      app_entry.set("schemes", std::move(scheme_results));
      app_results.push_back(std::move(app_entry));
    }
    output.json.set("apps", std::move(app_results));
    output.text = out.str();
    return output;
  }

 private:
  static std::string lowercase(std::string text) {
    std::transform(text.begin(), text.end(), text.begin(),
                   [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
    return text;
  }

  std::uint32_t samples_;
  double coverage_;
  std::vector<std::string> apps_;
};

// ---------------------------------------------------------- table1-apps

/// Table 1: the evaluation applications, datasets and metrics, plus the
/// fault-free metric through the quantized storage path.
class table1_workload final : public workload {
 public:
  explicit table1_workload(const option_map& /*options*/) {}

  workload_output run(const scenario_spec& spec,
                      campaign_pool& pool) const override {
    reject_schemes(spec, "table1-apps");
    campaign_runner& runner = pool.runner();
    const char* classes[] = {"Regression", "Dimensionality Reduction",
                             "Classification"};
    const char* paper_datasets[] = {"Wine Quality [18]", "Madelon [19]",
                                    "Activity Recognition [20]"};

    console_table table({"Class", "Algorithm", "Paper dataset",
                         "Substitute dataset", "Metric",
                         "train rows x features", "clean metric",
                         "quantized metric"});
    const matrix_quantizer quantizer;
    const auto apps = make_all_applications(spec.seeds.app);

    // Trial 2i evaluates application i on its clean features, trial 2i+1
    // on the quantized round trip; no randomness is consumed.
    const std::vector<double> metrics =
        runner.map<double>(2 * apps.size(), [&](std::uint64_t trial, rng&) {
          const auto& app = apps[trial / 2];
          const matrix& train = app->train_features();
          return app->evaluate(trial % 2 == 0 ? train
                                              : quantizer.roundtrip(train));
        });

    workload_output output;
    output.trials = runner.last_stats().trials;
    output.json = json_value::make_object();
    json_value app_results = json_value::make_array();

    for (std::size_t i = 0; i < apps.size(); ++i) {
      const auto& app = apps[i];
      const matrix& train = app->train_features();
      const double clean = metrics[2 * i];
      const double quantized = metrics[2 * i + 1];
      table.add_row({classes[i], app->name(), paper_datasets[i],
                     app->dataset_name(), app->metric_name(),
                     std::to_string(train.rows()) + " x " +
                         std::to_string(train.cols()),
                     format_double(clean, 4), format_double(quantized, 4)});

      json_value entry = json_value::make_object();
      entry.set("class", classes[i]);
      entry.set("algorithm", app->name());
      entry.set("dataset", app->dataset_name());
      entry.set("metric", app->metric_name());
      entry.set("train_rows", static_cast<std::uint64_t>(train.rows()));
      entry.set("train_cols", static_cast<std::uint64_t>(train.cols()));
      entry.set("clean_metric", clean);
      entry.set("quantized_metric", quantized);
      app_results.push_back(std::move(entry));
    }

    std::ostringstream out;
    table.print(out);

    // Legacy prose spells the size "16 KB" (spaced) while the header
    // column uses "16KB"; keep both spellings for byte-identical output.
    const std::uint64_t tile_bits =
        static_cast<std::uint64_t>(spec.geometry.rows_per_tile) *
        spec.geometry.word_bits;
    const std::string spaced_label =
        tile_bits % (8 * 1024) == 0
            ? std::to_string(tile_bits / (8 * 1024)) + " KB"
            : spec.geometry.size_label();
    out << "\nStorage footprint (Q15.16 words in " << spaced_label
        << " tiles of " << spec.geometry.rows_per_tile << " words):\n";
    console_table footprint({"application", "words",
                             spec.geometry.size_label() + " tiles"});
    const std::uint64_t rows_per_tile = spec.geometry.rows_per_tile;
    for (const auto& app : apps) {
      const std::uint64_t words = static_cast<std::uint64_t>(
          app->train_features().rows() * app->train_features().cols());
      footprint.add_row({app->name(), std::to_string(words),
                         std::to_string((words + rows_per_tile - 1) /
                                        rows_per_tile)});
    }
    footprint.print(out);

    output.json.set("apps", std::move(app_results));
    output.text = out.str();
    return output;
  }
};

}  // namespace

namespace detail {

void register_figure_workloads(workload_registry& registry) {
  registry.add("fig5-mse",
               "CDF of the memory MSE under fault injection (paper Fig. 5)",
               "runs=1e7 nmax=150 analytic=false",
               [](const option_map& options) {
                 return std::make_unique<fig5_workload>(options);
               });
  registry.add("fig7-quality",
               "CDF of application quality under memory failures (Fig. 7)",
               "samples=10 coverage=0.99 apps=all",
               [](const option_map& options) {
                 return std::make_unique<fig7_workload>(options);
               });
  registry.add("table1-apps",
               "evaluation applications, datasets and clean metrics (Table 1)",
               "",
               [](const option_map& options) {
                 return std::make_unique<table1_workload>(options);
               });
}

}  // namespace detail

}  // namespace urmem
