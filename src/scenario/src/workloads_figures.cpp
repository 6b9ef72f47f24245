// Built-in workloads reproducing the paper's figure/table experiments.
// Each text body is what `urmem-run` prints; it is byte-stable at fixed
// seeds, and every experiment is sweepable from spec files.
#include <algorithm>
#include <cctype>
#include <cmath>
#include <iostream>
#include <memory>
#include <sstream>

#include "urmem/common/table.hpp"
#include "urmem/hwmodel/overhead_model.hpp"
#include "urmem/scenario/workload_registry.hpp"
#include "urmem/shuffle/bit_shuffler.hpp"
#include "urmem/sim/applications.hpp"
#include "urmem/sim/quality_experiment.hpp"
#include "urmem/sim/quantizer.hpp"
#include "urmem/yield/analytic.hpp"
#include "urmem/yield/mse_distribution.hpp"

namespace urmem {
namespace {

// ------------------------------------------------------------- fig5-mse

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
    check_mse_nmax(spec, n_max_);

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
        check_mse_strata({rows, scheme->storage_bits()}, pcell, config,
                         spec.fault.pcell.has_value() ? "fault.pcell"
                                                      : "fault.vdd");
        campaign_runner& runner = pool.runner();
        std::cerr << "  sampling " << scheme->name() << "...\n";
        cdfs.push_back(compute_mse_cdf(runner, *scheme, rows, pcell, config));
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
                      "<6%",
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

// ----------------------------------------------------------- fig2-pcell

/// Fig. 2: Pcell of the spec's cell model across 0.50..1.10 V, with the
/// traditional zero-failure yield Y = (1 - Pcell)^M of one tile, which
/// collapses at 0.73 V (Sec. 2).
class fig2_workload final : public workload {
 public:
  workload_output run(const scenario_spec& spec,
                      campaign_pool& /*pool*/) const override {
    reject_schemes(spec, "fig2-pcell");
    const cell_failure_model model = spec.failure_model();
    const std::uint64_t cells =
        static_cast<std::uint64_t>(spec.geometry.rows_per_tile) *
        spec.geometry.word_bits;
    const std::string size = spec.geometry.size_label();

    workload_output output;
    output.json = json_value::make_object();
    json_value points = json_value::make_array();
    console_table table({"VDD [V]", "Pcell", size + " zero-failure yield",
                         "E[failures] per " + size});
    for (const double vdd : linspace(0.50, 1.10, 25)) {
      const double pcell = model.pcell(vdd);
      const double yield = cell_failure_model::array_yield(cells, pcell);
      const double failures = pcell * static_cast<double>(cells);
      table.add_row({format_double(vdd, 3), format_scientific(pcell, 3),
                     format_scientific(yield, 3), format_double(failures, 3)});
      json_value point = json_value::make_object();
      point.set("vdd", vdd);
      point.set("pcell", pcell);
      point.set("zero_failure_yield", yield);
      point.set("expected_failures", failures);
      points.push_back(std::move(point));
    }
    std::ostringstream out;
    table.print(out);

    const double pcell_073 = model.pcell(0.73);
    const double yield_073 = cell_failure_model::array_yield(cells, pcell_073);
    out << "\nCalibration anchors:\n";
    console_table anchors({"condition", "paper", "measured"});
    anchors.add_row({"Pcell @ 1.00 V", "~1e-9 (negligible)",
                     format_scientific(model.pcell(1.00), 3)});
    anchors.add_row({"Pcell @ 0.73 V", "~1e-4 (" + size + " yield -> 0)",
                     format_scientific(pcell_073, 3)});
    anchors.add_row({size + " yield @ 0.73 V", "approaches zero",
                     format_scientific(yield_073, 3)});
    anchors.print(out);

    const double vdd_fig5 = model.vdd_for_pcell(5e-6);
    const double vdd_fig7 = model.vdd_for_pcell(1e-3);
    out << "\nOperating points used by the paper's experiments:\n";
    console_table operating({"experiment", "Pcell", "implied VDD [V]"});
    operating.add_row({"Fig. 5 (MSE CDF)", "5e-6", format_double(vdd_fig5, 4)});
    operating.add_row(
        {"Fig. 7 (app quality)", "1e-3", format_double(vdd_fig7, 4)});
    operating.print(out);

    output.json.set("points", std::move(points));
    output.json.set("pcell_at_0v73", pcell_073);
    output.json.set("zero_failure_yield_at_0v73", yield_073);
    output.json.set("vdd_fig5", vdd_fig5);
    output.json.set("vdd_fig7", vdd_fig7);
    output.text = out.str();
    return output;
  }
};

// ----------------------------------------------------------- fig4-error

/// Fig. 4: worst-case error magnitude per faulty bit position for every
/// FM-LUT size nFM = 1..log2(W). BIST programs xFM = segment_of(b), so a
/// fault at b lands at logical position b mod S and costs 2^(b mod S),
/// bounded by 2^(S-1) with S = W / 2^nFM.
class fig4_workload final : public workload {
 public:
  workload_output run(const scenario_spec& spec,
                      campaign_pool& /*pool*/) const override {
    reject_schemes(spec, "fig4-error");
    // Names geometry.word_bits for a width that is not a power of two.
    validate_shuffle_design(spec.geometry, 1, "geometry.word_bits");
    const unsigned width = spec.geometry.word_bits;

    std::vector<bit_shuffler> shufflers;
    std::vector<std::string> headers{"fault bit b", "no-correction log2|e|"};
    for (unsigned n_fm = 1; n_fm <= log2_exact(width); ++n_fm) {
      shufflers.emplace_back(width, n_fm);
      headers.push_back("nFM=" + std::to_string(n_fm) + " log2|e|");
    }
    const auto residual = [](const bit_shuffler& s, unsigned b) {
      return s.logical_position(b, s.segment_of(b));
    };

    console_table table(headers);
    for (unsigned b = 0; b < width; ++b) {
      std::vector<std::string> row{std::to_string(b), std::to_string(b)};
      for (const bit_shuffler& s : shufflers) {
        row.push_back(std::to_string(residual(s, b)));
      }
      table.add_row(std::move(row));
    }
    std::ostringstream out;
    table.print(out);

    workload_output output;
    output.json = json_value::make_object();
    output.json.set("width", width);
    json_value options = json_value::make_array();
    out << "\nWorst-case envelope (Sec. 3: bounded by 2^(S-1)):\n";
    console_table bounds({"nFM", "segment size S", "max |error|",
                          "paper bound 2^(S-1)"});
    for (const bit_shuffler& s : shufflers) {
      double max_error = 0.0;
      json_value positions = json_value::make_array();
      for (unsigned b = 0; b < width; ++b) {
        max_error = std::max(
            max_error, std::ldexp(1.0, static_cast<int>(residual(s, b))));
        positions.push_back(residual(s, b));
      }
      bounds.add_row({std::to_string(s.n_fm()),
                      std::to_string(s.segment_size()),
                      format_double(max_error, 10),
                      format_double(s.max_error_magnitude(), 10)});
      json_value entry = json_value::make_object();
      entry.set("nfm", s.n_fm());
      entry.set("segment_size", s.segment_size());
      entry.set("residual_log2", std::move(positions));
      entry.set("max_error", max_error);
      entry.set("bound", s.max_error_magnitude());
      options.push_back(std::move(entry));
    }
    bounds.print(out);

    output.json.set("options", std::move(options));
    output.text = out.str();
    return output;
  }
};

// -------------------------------------------------------- fig6-overhead

/// Fig. 6: read power, read delay and area of bit-shuffling (nFM = 1..5)
/// and H(22,16) P-ECC relative to H(39,32) SECDED on the 28 nm-class
/// cost model (Sec. 5.1: power and delay cost the readout path only,
/// area all added hardware), plus the write path and the FM-LUT
/// realization trade (SRAM columns vs register file).
class fig6_workload final : public workload {
 public:
  workload_output run(const scenario_spec& spec,
                      campaign_pool& /*pool*/) const override {
    reject_schemes(spec, "fig6-overhead");
    if (spec.geometry.word_bits != 32) {
      throw spec_error("geometry.word_bits",
                       "fig6-overhead compares against the paper's H(39,32) "
                       "and H(22,16) baselines and needs 32-bit words, got " +
                           std::to_string(spec.geometry.word_bits));
    }
    const std::uint32_t rows = spec.geometry.rows_per_tile;
    const overhead_model model(gate_library::fdsoi_28nm(),
                               sram_macro_model::fdsoi_28nm(),
                               array_geometry{rows, 32});
    const hamming_secded h39(32);
    const priority_ecc h22(32, 16);
    const overhead_metrics base = model.secded(h39);
    const overhead_metrics pecc = model.pecc(h22);

    std::vector<std::pair<std::string, overhead_metrics>> reads{
        {"H(39,32) ECC", base}, {"H(22,16) P-ECC", pecc}};
    for (unsigned n_fm = 1; n_fm <= 5; ++n_fm) {
      reads.emplace_back("nFM=" + std::to_string(n_fm), model.shuffle(n_fm));
    }

    workload_output output;
    output.json = json_value::make_object();
    output.json.set("rows", rows);
    json_value read_results = json_value::make_array();
    console_table absolute({"scheme", "read energy [fJ]", "read delay [ps]",
                            "area [um^2]"});
    console_table relative({"scheme", "read power", "read delay", "area"});
    for (const auto& [name, m] : reads) {
      const relative_overhead rel = overhead_model::relative(m, base);
      absolute.add_row({name, format_double(m.read_energy_fj, 4),
                        format_double(m.read_delay_ps, 4),
                        format_double(m.area_um2, 5)});
      relative.add_row({name, format_double(rel.read_power, 3),
                        format_double(rel.read_delay, 3),
                        format_double(rel.area, 3)});
      json_value entry = json_value::make_object();
      entry.set("name", name);
      entry.set("read_energy_fj", m.read_energy_fj);
      entry.set("read_delay_ps", m.read_delay_ps);
      entry.set("area_um2", m.area_um2);
      entry.set("read_power_rel", rel.read_power);
      entry.set("read_delay_rel", rel.read_delay);
      entry.set("area_rel", rel.area);
      read_results.push_back(std::move(entry));
    }
    std::ostringstream out;
    out << "Absolute overhead added on top of the unprotected " << rows
        << " x 32 array:\n";
    absolute.print(out);
    out << "\nRelative to H(39,32) SECDED (= 1.00, the paper's Fig. 6 axes):\n";
    relative.print(out);

    std::vector<std::pair<std::string, write_overhead_metrics>> writes{
        {"H(39,32) ECC", model.secded_write(h39)},
        {"H(22,16) P-ECC", model.pecc_write(h22)}};
    for (unsigned n_fm = 1; n_fm <= 5; ++n_fm) {
      const std::string name = "nFM=" + std::to_string(n_fm);
      writes.emplace_back(name + " (SRAM LUT)", model.shuffle_write(n_fm));
      writes.emplace_back(
          name + " (regfile LUT)",
          model.shuffle_write(n_fm, lut_realization::register_file));
    }
    out << "\nWrite-path overhead (not in Fig. 6 — Sec. 5.1 notes writes "
           "are off the critical path; the shuffle write needs a serial "
           "LUT read first):\n";
    console_table write_table({"scheme", "write energy [fJ]",
                               "write delay [ps]"});
    json_value write_results = json_value::make_array();
    for (const auto& [name, m] : writes) {
      write_table.add_row({name, format_double(m.write_energy_fj, 4),
                           format_double(m.write_delay_ps, 4)});
      json_value entry = json_value::make_object();
      entry.set("name", name);
      entry.set("write_energy_fj", m.write_energy_fj);
      entry.set("write_delay_ps", m.write_delay_ps);
      write_results.push_back(std::move(entry));
    }
    write_table.print(out);

    // nFM = 1 is the cheapest shuffle design, nFM = 5 the dearest.
    const overhead_metrics& nfm1 = reads[2].second;
    const relative_overhead best = overhead_model::relative(nfm1, base);
    const relative_overhead worst =
        overhead_model::relative(reads.back().second, base);
    const relative_overhead pecc_rel = overhead_model::relative(pecc, base);
    const relative_overhead vs_pecc = overhead_model::relative(nfm1, pecc);
    const auto saving = [](double worst_ratio, double best_ratio) {
      return format_percent(1.0 - worst_ratio, 1) + " - " +
             format_percent(1.0 - best_ratio, 1);
    };
    const double gate_delays = model.decoder_gate_delays(h39);
    out << "\nPaper headline checks (savings vs SECDED / P-ECC):\n";
    console_table claims({"claim", "paper", "measured"});
    claims.add_row({"read power saving vs ECC", "20% - 83%",
                    saving(worst.read_power, best.read_power)});
    claims.add_row({"read delay saving vs ECC", "41% - 77%",
                    saving(worst.read_delay, best.read_delay)});
    claims.add_row(
        {"area saving vs ECC", "32% - 89%", saving(worst.area, best.area)});
    claims.add_row({"best power saving vs P-ECC", "59%",
                    format_percent(1.0 - vs_pecc.read_power, 1)});
    claims.add_row({"best delay saving vs P-ECC", "64%",
                    format_percent(1.0 - vs_pecc.read_delay, 1)});
    claims.add_row({"best area saving vs P-ECC", "57%",
                    format_percent(1.0 - vs_pecc.area, 1)});
    claims.add_row({"P-ECC relative power/delay/area", "0.41 / 0.64 / 0.26",
                    format_double(pecc_rel.read_power, 2) + " / " +
                        format_double(pecc_rel.read_delay, 2) + " / " +
                        format_double(pecc_rel.area, 2)});
    claims.add_row({"SECDED decode depth [17]", "~13 gate delays",
                    format_double(gate_delays, 3)});
    claims.print(out);

    // Sec. 5.1 prices the LUT as whole bit columns, "the most
    // straightforward realization", and notes a register file could
    // cost much less; this section quantifies that trade.
    out << "\nFM-LUT realization (Sec. 5.1): SRAM columns vs register file:\n";
    console_table lut_table({"nFM", "LUT", "read power (rel ECC)",
                             "read delay (rel ECC)", "area (rel ECC)"});
    json_value lut_results = json_value::make_array();
    for (unsigned n_fm = 1; n_fm <= 5; ++n_fm) {
      for (const auto realization :
           {lut_realization::sram_columns, lut_realization::register_file}) {
        const relative_overhead rel =
            overhead_model::relative(model.shuffle(n_fm, realization), base);
        const bool sram = realization == lut_realization::sram_columns;
        lut_table.add_row({std::to_string(n_fm),
                           sram ? "SRAM columns" : "register file",
                           format_double(rel.read_power, 3),
                           format_double(rel.read_delay, 3),
                           format_double(rel.area, 3)});
        json_value entry = json_value::make_object();
        entry.set("nfm", n_fm);
        entry.set("lut", sram ? "sram_columns" : "register_file");
        entry.set("read_power_rel", rel.read_power);
        entry.set("read_delay_rel", rel.read_delay);
        entry.set("area_rel", rel.area);
        lut_results.push_back(std::move(entry));
      }
    }
    lut_table.print(out);

    output.json.set("read", std::move(read_results));
    output.json.set("write", std::move(write_results));
    output.json.set("lut_realization", std::move(lut_results));
    output.json.set("secded_decoder_gate_delays", gate_delays);
    output.text = out.str();
    return output;
  }
};

}  // namespace

namespace detail {

void register_figure_workloads(workload_registry& registry) {
  registry.add("fig2-pcell",
               "cell failure probability and array yield vs VDD (Fig. 2)",
               "",
               [](const option_map& /*options*/) {
                 return std::make_unique<fig2_workload>();
               });
  registry.add("fig4-error",
               "error magnitude per faulty bit position for each nFM (Fig. 4)",
               "",
               [](const option_map& /*options*/) {
                 return std::make_unique<fig4_workload>();
               });
  registry.add("fig5-mse",
               "CDF of the memory MSE under fault injection (paper Fig. 5)",
               "runs=1e7 nmax=150 analytic=false",
               [](const option_map& options) {
                 return std::make_unique<fig5_workload>(options);
               });
  registry.add("fig6-overhead",
               "read power, delay and area vs H(39,32) SECDED (Fig. 6)",
               "",
               [](const option_map& /*options*/) {
                 return std::make_unique<fig6_workload>();
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
               [](const option_map& /*options*/) {
                 return std::make_unique<table1_workload>();
               });
}

}  // namespace detail

}  // namespace urmem
