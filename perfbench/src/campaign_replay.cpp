// Traced replays of the campaign workloads: fig7-quality, hrm-quality
// (app=synthetic) and fig5-mse (sampled path).
//
// Each replay walks the same trials as the library's workload: the same
// campaign_runner seed, the same per-trial streams, the same
// trial-ordered reduction. It issues the per-trial layer calls itself,
// timing each one, and rebuilds the workload's JSON aggregate into a
// scenario_report, so the caller can require the replay's report digest
// to equal the untraced run's. A replay that drifts from the library
// fails that check instead of measuring a different program.
#include <algorithm>
#include <cctype>
#include <cmath>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "perfbench.hpp"
#include "urmem/common/binomial.hpp"
#include "urmem/common/bitops.hpp"
#include "urmem/scenario/workload_registry.hpp"
#include "urmem/sim/applications.hpp"
#include "urmem/sim/memory_pipeline.hpp"
#include "urmem/sim/quality_experiment.hpp"
#include "urmem/sim/quantizer.hpp"
#include "urmem/yield/mse_distribution.hpp"

namespace perfbench {

using namespace urmem;

namespace {

/// Per-worker recorders plus the campaign wall clock of one replay.
class replay_context {
 public:
  recorder& main() { return main_; }

  /// Runs `trials` trials on `runner`, each wrapped in a sim_trial span
  /// and handed its worker's recorder.
  template <typename Body>
  void run(campaign_runner& runner, std::uint64_t trials, Body&& body) {
    if (workers_.size() < runner.threads()) workers_.resize(runner.threads());
    const auto start = clock_type::now();
    runner.run(trials, campaign_runner::worker_trial_body(
                           [&](std::uint64_t trial, rng& gen, unsigned worker) {
                             recorder& rec = workers_[worker];
                             timed(rec, span::sim_trial,
                                   [&] { body(trial, gen, rec); });
                           }));
    campaign_seconds_ += seconds_since(start);
    main_.count(counter::trials, trials);
  }

  void finish(campaign_trace& trace) const {
    trace.main = main_;
    for (const recorder& worker : workers_) trace.workers.merge(worker);
    trace.campaign_seconds = campaign_seconds_;
  }

 private:
  recorder main_;
  std::vector<recorder> workers_;
  double campaign_seconds_ = 0.0;
};

/// One sweep grid point, expanded exactly as scenario_runner::run does.
struct grid_point {
  std::string label;
  json_value assignments;
  scenario_spec spec;
};

std::vector<grid_point> expand_grid(const scenario_spec& spec) {
  json_value base = spec.to_json();
  std::erase_if(base.as_object(),
                [](const auto& member) { return member.first == "sweep"; });
  const std::vector<sweep_axis>& axes = spec.sweep;
  std::uint64_t total = 1;
  for (const sweep_axis& axis : axes) total *= axis.values.size();

  std::vector<grid_point> points;
  for (std::uint64_t index = 0; index < total; ++index) {
    std::vector<std::size_t> combo(axes.size(), 0);
    std::uint64_t rest = index;
    for (std::size_t axis = axes.size(); axis > 0;) {
      --axis;
      combo[axis] = static_cast<std::size_t>(rest % axes[axis].values.size());
      rest /= axes[axis].values.size();
    }
    json_value doc = base;
    grid_point point{"", json_value::make_object(), {}};
    for (std::size_t i = 0; i < axes.size(); ++i) {
      const json_value& value = axes[i].values[combo[i]];
      doc.set_path(axes[i].param, value);
      point.assignments.set(axes[i].param, value);
      if (!point.label.empty()) point.label += ", ";
      point.label += axes[i].param + "=" + value.dump(0);
    }
    point.spec = scenario_spec::from_json(doc);
    points.push_back(std::move(point));
  }
  return points;
}

/// Tile built the way memory_pipeline and the workloads build it.
protected_memory build_tile(std::uint32_t rows, const scheme_factory& factory,
                            std::uint32_t spare_rows,
                            const std::vector<memory_region>& regions) {
  return regions.empty() ? protected_memory(rows, factory(rows), spare_rows)
                         : protected_memory(rows, factory(rows), regions);
}

/// store_and_readback (memory_pipeline.cpp), one span per layer call.
matrix traced_store_and_readback(const matrix& input,
                                 const storage_config& config,
                                 const scheme_factory& factory,
                                 const fault_injector& inject, rng& gen,
                                 recorder& rec) {
  const matrix_quantizer quantizer(
      fixed_point_codec(config.word_bits, config.frac_bits));
  const std::vector<word_t> words =
      timed(rec, span::sim_quantize, [&] { return quantizer.to_words(input); });
  std::vector<word_t> restored(words.size());
  std::size_t cursor = 0;
  while (cursor < words.size()) {
    const auto tile_words =
        std::min<std::size_t>(config.rows_per_tile, words.size() - cursor);
    protected_memory memory = timed(rec, span::scheme_tile_build, [&] {
      return build_tile(config.rows_per_tile, factory,
                        config.spare_rows_per_tile, config.regions);
    });
    fault_map faults = timed(rec, span::memory_sample,
                             [&] { return inject(memory.storage_geometry(), gen); });
    rec.count(counter::faults_sampled, faults.fault_count());
    timed(rec, span::scheme_install,
          [&] { memory.set_fault_map(std::move(faults)); });
    timed(rec, span::scheme_write_block, [&] {
      memory.write_block(
          0, std::span<const word_t>(words).subspan(cursor, tile_words));
    });
    protected_memory::block_stats block;
    timed(rec, span::scheme_read_block, [&] {
      memory.read_block(
          0, std::span<word_t>(restored).subspan(cursor, tile_words), &block);
    });
    rec.count(counter::words, tile_words);
    rec.count(counter::corrected_words, block.corrected);
    rec.count(counter::uncorrectable_words, block.uncorrectable);
    cursor += tile_words;
  }
  return timed(rec, span::sim_quantize, [&] {
    return quantizer.from_words(restored, input.rows(), input.cols());
  });
}

/// campaign_runner::map_weighted's trial-ordered reduction, timed.
empirical_cdf reduce(const std::vector<weighted_sample>& samples, recorder& rec) {
  return timed(rec, span::sim_reduce, [&] {
    std::vector<double> values;
    std::vector<double> weights;
    values.reserve(samples.size());
    weights.reserve(samples.size());
    for (const weighted_sample& s : samples) {
      values.push_back(s.value);
      weights.push_back(s.weight);
    }
    return empirical_cdf(std::move(values), std::move(weights));
  });
}

std::string lowercase(std::string text) {
  std::transform(text.begin(), text.end(), text.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return text;
}

span evaluate_span(const application& app) {
  const std::string name = lowercase(app.name());
  if (name == "elasticnet") return span::ml_evaluate_elasticnet;
  if (name == "pca") return span::ml_evaluate_pca;
  if (name == "knn") return span::ml_evaluate_knn;
  throw std::invalid_argument("no ml span for application " + app.name());
}

// ------------------------------------------------------- fig7-quality

struct quality_replay {
  double clean_metric = 0.0;
  empirical_cdf cdf;
  std::uint64_t trials = 0;
};

/// run_quality_experiment (quality_experiment.cpp), traced.
quality_replay replay_quality(const application& app, span evaluate,
                              const scheme_factory& factory,
                              const quality_experiment_config& config,
                              campaign_runner& runner, replay_context& ctx) {
  recorder& main = ctx.main();
  rng baseline_gen = named_stream_rng(runner.seed(), "quality.baseline");
  const matrix clean_stored =
      traced_store_and_readback(app.train_features(), config.storage, factory,
                                no_fault_injector(), baseline_gen, main);
  const double clean_metric =
      timed(main, evaluate, [&] { return app.evaluate(clean_stored); });

  const std::uint64_t n_max = failure_count_limit(config);
  const array_geometry geometry{config.storage.rows_per_tile,
                                config.storage.word_bits};
  const binomial_distribution dist(geometry.cells(), config.pcell);
  struct stratum {
    std::uint64_t n;
    double weight_each;
  };
  std::vector<stratum> strata;
  for (std::uint64_t n = 1; n <= n_max; ++n) {
    const double pn = dist.pmf(n);
    if (pn <= 0.0) continue;
    strata.push_back({n, pn / config.samples_per_count});
  }

  const std::uint64_t trials = strata.size() * config.samples_per_count;
  std::vector<weighted_sample> samples(trials);
  ctx.run(runner, trials, [&](std::uint64_t trial, rng& gen, recorder& rec) {
    const stratum& s = strata[trial / config.samples_per_count];
    const fault_injector inject = exact_fault_injector(s.n, config.polarity);
    const matrix stored = traced_store_and_readback(
        app.train_features(), config.storage, factory, inject, gen, rec);
    const double metric = timed(rec, evaluate, [&] { return app.evaluate(stored); });
    const double normalized = std::clamp(
        std::isfinite(metric) ? metric / clean_metric : 0.0, 0.0, 1.0);
    samples[trial] = {normalized, s.weight_each};
  });

  return {clean_metric, reduce(samples, ctx.main()), trials};
}

workload_output replay_fig7(const scenario_spec& spec, campaign_runner& runner,
                            replay_context& ctx) {
  const option_map& options = spec.workload.options;
  const std::vector<std::string> apps = options.get_list("apps", "");

  quality_experiment_config config;
  config.pcell = spec.resolved_pcell("fig7-quality");
  config.storage = spec.storage();
  config.samples_per_count = options.get_u32("samples", 10);
  config.coverage = options.get_double("coverage", 0.99);
  config.polarity = spec.fault.polarity;
  config.seed = spec.seeds.root;

  workload_output output;
  output.json = json_value::make_object();
  output.json.set("pcell", config.pcell);
  output.json.set("samples_per_count", std::uint64_t{config.samples_per_count});
  json_value app_results = json_value::make_array();
  const std::vector<scheme_recipe> recipes = resolve_schemes(spec);
  for (const auto& app : make_all_applications(spec.seeds.app)) {
    if (!apps.empty() &&
        std::find(apps.begin(), apps.end(), lowercase(app->name())) == apps.end()) {
      continue;
    }
    const span evaluate = evaluate_span(*app);
    json_value scheme_results = json_value::make_array();
    double clean_metric = 0.0;
    for (const scheme_recipe& recipe : recipes) {
      quality_experiment_config scheme_config = config;
      scheme_config.storage.spare_rows_per_tile = recipe.spare_rows;
      scheme_config.storage.regions = recipe.regions;
      const quality_replay result =
          replay_quality(*app, evaluate, recipe.factory, scheme_config, runner, ctx);
      if (scheme_results.as_array().empty()) clean_metric = result.clean_metric;
      output.trials += result.trials;
      json_value entry = json_value::make_object();
      entry.set("name", recipe.display_name);
      entry.set("q01", result.cdf.quantile(0.01));
      entry.set("q10", result.cdf.quantile(0.10));
      entry.set("q50", result.cdf.quantile(0.50));
      scheme_results.push_back(std::move(entry));
    }
    json_value app_entry = json_value::make_object();
    app_entry.set("app", app->name());
    app_entry.set("clean_metric", clean_metric);
    app_entry.set("schemes", std::move(scheme_results));
    app_results.push_back(std::move(app_entry));
  }
  output.json.set("apps", std::move(app_results));
  return output;
}

// ---------------------------------------------------------- hrm-quality

struct region_counts {
  std::uint64_t injected_faults = 0;
  std::uint64_t repaired_rows = 0;
  std::uint64_t residual_rows = 0;
  std::uint64_t residual_faults = 0;
  std::uint64_t word_errors = 0;
  std::uint64_t error_lsb_sum = 0;
  double analytic_mse_sum = 0.0;
};

struct hrm_trial {
  std::vector<region_counts> regions;
  std::uint64_t corrected_words = 0;
  std::uint64_t uncorrectable_words = 0;
  std::uint64_t tiles = 0;
  std::vector<std::uint64_t> baseline_word_errors;
};

std::size_t region_index(const std::vector<memory_region>& regions,
                         std::uint32_t row) {
  for (std::size_t r = 0; r < regions.size(); ++r) {
    if (row <= regions[r].last_row) return r;
  }
  return regions.size() - 1;
}

/// One hrm-quality trial (workloads_hrm.cpp run_trial), traced.
hrm_trial replay_hrm_trial(const scenario_spec& spec, const scheme_recipe& tiered,
                           const std::vector<scheme_recipe>& baselines,
                           double baseline_pcell,
                           const std::vector<region_operating_point>& points,
                           const std::vector<word_t>& words, rng& gen,
                           recorder& rec) {
  const std::uint32_t rows = spec.geometry.rows_per_tile;
  const fault_injector inject = region_fault_injector(points, spec.fault.polarity);
  const std::vector<memory_region>& regions = tiered.regions;

  hrm_trial result;
  result.regions.resize(regions.size());
  std::vector<word_t> restored(words.size());
  std::size_t cursor = 0;
  while (cursor < words.size()) {
    const auto tile_words = std::min<std::size_t>(rows, words.size() - cursor);
    protected_memory memory = timed(rec, span::scheme_tile_build, [&] {
      return protected_memory(rows, tiered.factory(rows), regions);
    });
    fault_map faults = timed(rec, span::memory_sample,
                             [&] { return inject(memory.storage_geometry(), gen); });
    rec.count(counter::faults_sampled, faults.fault_count());
    for (const fault& f : faults.all_faults()) {
      if (f.row < rows) {
        result.regions[region_index(regions, f.row)].injected_faults++;
        continue;
      }
      for (std::size_t r = regions.size(); r-- > 0;) {
        if (f.row >= memory.region_spare_base(r)) {
          result.regions[r].injected_faults++;
          break;
        }
      }
    }
    timed(rec, span::scheme_install,
          [&] { memory.set_fault_map(std::move(faults)); });

    const auto& remaps = memory.row_remaps();
    for (const auto& remap : remaps) {
      result.regions[region_index(regions, remap.first)].repaired_rows++;
    }
    const fault_map& installed = memory.array().faults();
    for (const std::uint32_t row : installed.faulty_rows()) {
      if (row >= rows) continue;
      const auto it = std::lower_bound(
          remaps.begin(), remaps.end(), row,
          [](const auto& remap, std::uint32_t key) { return remap.first < key; });
      if (it != remaps.end() && it->first == row) continue;
      const std::size_t r = region_index(regions, row);
      const unsigned region_bits = regions[r].storage_bits == 0
                                       ? memory.scheme().storage_bits()
                                       : regions[r].storage_bits;
      std::uint64_t visible = 0;
      for (const fault& f : installed.faults_in_row(row)) {
        if (f.col < region_bits) ++visible;
      }
      if (visible == 0) continue;
      result.regions[r].residual_rows++;
      result.regions[r].residual_faults += visible;
    }

    timed(rec, span::scheme_write_block, [&] {
      memory.write_block(
          0, std::span<const word_t>(words).subspan(cursor, tile_words));
    });
    protected_memory::block_stats stats;
    timed(rec, span::scheme_read_block, [&] {
      memory.read_block(
          0, std::span<word_t>(restored).subspan(cursor, tile_words), &stats);
    });
    rec.count(counter::words, tile_words);
    rec.count(counter::corrected_words, stats.corrected);
    rec.count(counter::uncorrectable_words, stats.uncorrectable);
    result.corrected_words += stats.corrected;
    result.uncorrectable_words += stats.uncorrectable;

    for (std::size_t i = 0; i < tile_words; ++i) {
      const word_t written = words[cursor + i];
      const word_t read = restored[cursor + i];
      if (written == read) continue;
      region_counts& counts =
          result.regions[region_index(regions, static_cast<std::uint32_t>(i))];
      counts.word_errors++;
      counts.error_lsb_sum += written > read ? written - read : read - written;
    }
    for (std::size_t r = 0; r < regions.size(); ++r) {
      result.regions[r].analytic_mse_sum +=
          timed(rec, span::scheme_analytic_mse, [&] {
            return memory.analytic_mse(regions[r].first_row, regions[r].last_row);
          });
    }
    ++result.tiles;
    cursor += tile_words;
  }

  // Uniform baselines on the same trial stream, after the tiered store.
  for (const scheme_recipe& baseline : baselines) {
    storage_config storage = spec.storage(baseline.spare_rows);
    storage.regions = baseline.regions;
    const fault_injector base_inject =
        binomial_fault_injector(baseline_pcell, spec.fault.polarity);
    std::vector<word_t> base_restored(words.size());
    std::size_t base_cursor = 0;
    while (base_cursor < words.size()) {
      const auto tile_words =
          std::min<std::size_t>(rows, words.size() - base_cursor);
      protected_memory memory = timed(rec, span::scheme_tile_build, [&] {
        return build_tile(rows, baseline.factory, storage.spare_rows_per_tile,
                          storage.regions);
      });
      fault_map faults = timed(rec, span::memory_sample, [&] {
        return base_inject(memory.storage_geometry(), gen);
      });
      rec.count(counter::faults_sampled, faults.fault_count());
      timed(rec, span::scheme_install,
            [&] { memory.set_fault_map(std::move(faults)); });
      timed(rec, span::scheme_write_block, [&] {
        memory.write_block(
            0, std::span<const word_t>(words).subspan(base_cursor, tile_words));
      });
      protected_memory::block_stats stats;
      timed(rec, span::scheme_read_block, [&] {
        memory.read_block(
            0, std::span<word_t>(base_restored).subspan(base_cursor, tile_words),
            &stats);
      });
      rec.count(counter::words, tile_words);
      rec.count(counter::corrected_words, stats.corrected);
      rec.count(counter::uncorrectable_words, stats.uncorrectable);
      base_cursor += tile_words;
    }
    std::uint64_t errors = 0;
    for (std::size_t i = 0; i < words.size(); ++i) {
      if (words[i] != base_restored[i]) ++errors;
    }
    result.baseline_word_errors.push_back(errors);
  }
  return result;
}

workload_output replay_hrm(const scenario_spec& spec, campaign_runner& runner,
                           replay_context& ctx) {
  const option_map& options = spec.workload.options;
  const std::string app = options.get_string("app", "synthetic");
  const std::uint32_t trials = options.get_u32("trials", 1);
  const std::uint32_t tiles = options.get_u32("tiles", 1);
  if (app != "synthetic" || options.has("exact_faults")) {
    throw std::invalid_argument(
        "the hrm-quality replay covers app=synthetic with binomial injection");
  }

  const scheme_recipe tiered = resolve_region_recipe(spec);
  std::vector<scheme_recipe> baselines;
  for (const scheme_ref& ref : spec.schemes) {
    baselines.push_back(scheme_registry::instance().make(ref, spec.geometry));
  }
  std::vector<region_operating_point> points;
  for (std::size_t r = 0; r < spec.regions.size(); ++r) {
    points.push_back({tiered.regions[r],
                      spec.resolved_region_pcell(spec.regions[r], "hrm-quality")});
  }
  rng data_gen = named_stream_rng(spec.seeds.app, "hrm.data");
  std::vector<word_t> words(static_cast<std::size_t>(tiles) *
                            spec.geometry.rows_per_tile);
  for (word_t& word : words) word = data_gen() & word_mask(spec.geometry.word_bits);
  const double baseline_pcell =
      baselines.empty() ? 0.0 : spec.resolved_pcell("hrm-quality");

  std::vector<hrm_trial> results(trials);
  ctx.run(runner, trials, [&](std::uint64_t trial, rng& gen, recorder& rec) {
    results[trial] = replay_hrm_trial(spec, tiered, baselines, baseline_pcell,
                                      points, words, gen, rec);
  });

  hrm_trial total;
  total.regions.resize(tiered.regions.size());
  total.baseline_word_errors.resize(baselines.size(), 0);
  for (const hrm_trial& r : results) {
    for (std::size_t i = 0; i < r.regions.size(); ++i) {
      region_counts& sum = total.regions[i];
      sum.injected_faults += r.regions[i].injected_faults;
      sum.repaired_rows += r.regions[i].repaired_rows;
      sum.residual_rows += r.regions[i].residual_rows;
      sum.residual_faults += r.regions[i].residual_faults;
      sum.word_errors += r.regions[i].word_errors;
      sum.error_lsb_sum += r.regions[i].error_lsb_sum;
      sum.analytic_mse_sum += r.regions[i].analytic_mse_sum;
    }
    total.corrected_words += r.corrected_words;
    total.uncorrectable_words += r.uncorrectable_words;
    total.tiles += r.tiles;
    for (std::size_t b = 0; b < baselines.size(); ++b) {
      total.baseline_word_errors[b] += r.baseline_word_errors[b];
    }
  }

  // The JSON half of hrm_workload::render.
  workload_output output;
  output.trials = trials;
  output.json = json_value::make_object();
  output.json.set("app", app);
  output.json.set("trials", std::uint64_t{trials});
  output.json.set("tiles", total.tiles);
  const double tile_samples =
      total.tiles != 0 ? static_cast<double>(total.tiles) : 1.0;
  json_value region_results = json_value::make_array();
  std::uint64_t injected = 0;
  std::uint64_t residual = 0;
  std::uint64_t word_errors = 0;
  for (std::size_t r = 0; r < spec.regions.size(); ++r) {
    const region_counts& counts = total.regions[r];
    json_value entry = json_value::make_object();
    entry.set("rows", spec.regions[r].range_label());
    entry.set("scheme", spec.regions[r].scheme.name);
    entry.set("spare_rows", tiered.regions[r].spare_rows);
    entry.set("pcell", points[r].pcell);
    entry.set("injected_faults", counts.injected_faults);
    entry.set("repaired_rows", counts.repaired_rows);
    entry.set("residual_rows", counts.residual_rows);
    entry.set("residual_faults", counts.residual_faults);
    entry.set("word_errors", counts.word_errors);
    entry.set("error_lsb_sum", counts.error_lsb_sum);
    entry.set("analytic_mse", counts.analytic_mse_sum / tile_samples);
    region_results.push_back(std::move(entry));
    injected += counts.injected_faults;
    residual += counts.residual_faults;
    word_errors += counts.word_errors;
  }
  output.json.set("regions", std::move(region_results));
  json_value totals = json_value::make_object();
  totals.set("injected_faults", injected);
  totals.set("residual_faults", residual);
  totals.set("word_errors", word_errors);
  totals.set("corrected_words", total.corrected_words);
  totals.set("uncorrectable_words", total.uncorrectable_words);
  output.json.set("totals", std::move(totals));
  if (!baselines.empty()) {
    json_value baseline_results = json_value::make_array();
    for (std::size_t b = 0; b < baselines.size(); ++b) {
      json_value entry = json_value::make_object();
      entry.set("name", baselines[b].display_name);
      entry.set("word_errors", total.baseline_word_errors[b]);
      baseline_results.push_back(std::move(entry));
    }
    output.json.set("baselines", std::move(baseline_results));
  }
  return output;
}

// ------------------------------------------------------------- fig5-mse

/// campaign_mse_cdf (workloads_figures.cpp), traced.
empirical_cdf replay_mse_cdf(const protection_scheme& scheme, std::uint32_t rows,
                             double pcell, const mse_cdf_config& config,
                             campaign_runner& runner, replay_context& ctx,
                             std::uint64_t& trials) {
  const array_geometry geometry{rows, scheme.storage_bits()};
  const std::vector<mse_stratum> strata = mse_strata(geometry, pcell, config);
  std::vector<std::uint64_t> starts;
  trials = 0;
  for (const mse_stratum& s : strata) {
    starts.push_back(trials);
    trials += s.count;
  }
  std::vector<weighted_sample> samples(trials);
  ctx.run(runner, trials, [&](std::uint64_t trial, rng& gen, recorder& rec) {
    const auto it = std::upper_bound(starts.begin(), starts.end(), trial);
    const mse_stratum& s = strata[static_cast<std::size_t>(
        std::distance(starts.begin(), it) - 1)];
    samples[trial] = {timed(rec, span::yield_sample_mse,
                            [&] { return sample_mse(scheme, geometry, s.n, gen); }),
                      s.weight_each};
  });
  return reduce(samples, ctx.main());
}

workload_output replay_fig5(const scenario_spec& spec, campaign_runner& runner,
                            replay_context& ctx) {
  const option_map& options = spec.workload.options;
  if (options.get_bool("analytic", false)) {
    throw std::invalid_argument("the fig5-mse replay covers the sampled path");
  }
  mse_cdf_config config;
  config.total_runs = options.get_u64("runs", 10'000'000);
  config.n_max = options.get_u64("nmax", 150);
  config.seed = spec.seeds.root;
  const double pcell = spec.resolved_pcell("fig5-mse");
  const std::uint32_t rows = spec.geometry.rows_per_tile;

  workload_output output;
  output.json = json_value::make_object();
  output.json.set("pcell", pcell);
  output.json.set("runs", config.total_runs);
  output.json.set("n_max", config.n_max);
  output.json.set("analytic", false);
  json_value scheme_results = json_value::make_array();
  for (const scheme_recipe& recipe :
       resolve_word_transform_schemes(spec, "fig5-mse")) {
    const std::unique_ptr<protection_scheme> scheme = recipe.factory(rows);
    std::uint64_t trials = 0;
    const empirical_cdf cdf =
        replay_mse_cdf(*scheme, rows, pcell, config, runner, ctx, trials);
    output.trials += trials;
    json_value entry = json_value::make_object();
    entry.set("name", scheme->name());
    entry.set("mse_at_yield_50", mse_for_yield(cdf, 0.50));
    entry.set("mse_at_yield_90", mse_for_yield(cdf, 0.90));
    entry.set("mse_at_yield_99", mse_for_yield(cdf, 0.99));
    entry.set("mse_at_yield_9999", mse_for_yield(cdf, 0.9999));
    entry.set("yield_at_mse_1e6", yield_at_mse(cdf, 1e6));
    scheme_results.push_back(std::move(entry));
  }
  output.json.set("schemes", std::move(scheme_results));
  return output;
}

}  // namespace

campaign_trace replay_campaign(const scenario_spec& spec) {
  const std::string& name = spec.workload.name;
  if (name != "fig7-quality" && name != "hrm-quality" && name != "fig5-mse") {
    throw std::invalid_argument("no traced replay for workload " + name);
  }
  campaign_trace trace;
  replay_context ctx;
  const auto start = clock_type::now();
  trace.report.spec = spec.to_json();
  std::unique_ptr<campaign_runner> runner;
  for (grid_point& point : expand_grid(spec)) {
    const campaign_config wanted{.threads = point.spec.run.threads,
                                 .batch_size = point.spec.run.batch,
                                 .seed = point.spec.seeds.root};
    if (runner == nullptr || runner->threads() != wanted.threads ||
        runner->seed() != wanted.seed) {
      runner = std::make_unique<campaign_runner>(wanted);
    }
    scenario_point_result result;
    result.label = std::move(point.label);
    result.assignments = std::move(point.assignments);
    result.output = name == "fig7-quality"
                        ? replay_fig7(point.spec, *runner, ctx)
                        : name == "hrm-quality"
                              ? replay_hrm(point.spec, *runner, ctx)
                              : replay_fig5(point.spec, *runner, ctx);
    trace.report.total_trials += result.output.trials;
    trace.report.points.push_back(std::move(result));
  }
  trace.wall_seconds = seconds_since(start);
  trace.threads = runner != nullptr ? runner->threads() : 1;
  ctx.finish(trace);
  return trace;
}

}  // namespace perfbench
