// The heterogeneous-reliability payoff workload (`hrm-quality`): one
// data set stored through region-tiered tiles — each region with its
// own scheme, spare pool, and fault operating point — with the report
// broken out PER REGION: injected faults, spare-row repairs, residual
// faults, word-level corruption and the region's analytic MSE, next to
// whole-store quality and any uniform baseline schemes the spec lists.
//
// Every store, tiered and baseline, is one store_words pass (the
// at-risk tile pass of memory_pipeline.hpp); the per-region accounting
// reads each tile's installed fault map, remaps and changed words from
// the pass's visitor. Each worker builds one store_tile per store on
// its first trial and reuses them for every trial it runs; they are
// freed when the grid point ends.
//
// Determinism: trials shard over the campaign pool on per-trial streams
// (bit-identical at any thread count); `app=synthetic` stores a
// seed-derived integer pattern so every reported count is integer-exact
// across platforms (the CI golden runs this mode), while the analytic
// MSE is a sum of powers of four — dyadic, hence also bit-stable.
#include <algorithm>
#include <cmath>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>

#include "urmem/common/table.hpp"
#include "urmem/scenario/workload_registry.hpp"
#include "urmem/sim/applications.hpp"
#include "urmem/sim/quantizer.hpp"

namespace urmem {
namespace {

/// Integer counters of one region, summed over tiles and trials.
struct region_counts {
  std::uint64_t injected_faults = 0;   ///< region data rows + its spares
  std::uint64_t repaired_rows = 0;     ///< rows fused onto the region pool
  std::uint64_t residual_rows = 0;     ///< faulty rows left visible
  std::uint64_t residual_faults = 0;   ///< faults in those rows
  std::uint64_t word_errors = 0;       ///< readback words != written words
  std::uint64_t error_lsb_sum = 0;     ///< sum |readback - written| in LSBs
  double analytic_mse_sum = 0.0;       ///< Eq. (6) per tile, summed

  void operator+=(const region_counts& other) {
    injected_faults += other.injected_faults;
    repaired_rows += other.repaired_rows;
    residual_rows += other.residual_rows;
    residual_faults += other.residual_faults;
    word_errors += other.word_errors;
    error_lsb_sum += other.error_lsb_sum;
    analytic_mse_sum += other.analytic_mse_sum;
  }
};

/// One trial's outputs (merged in trial order after the pool drains).
struct trial_result {
  std::vector<region_counts> regions;
  std::uint64_t corrected_words = 0;
  std::uint64_t uncorrectable_words = 0;
  std::uint64_t tiles = 0;
  double metric = 0.0;  ///< app modes only
  std::vector<std::uint64_t> baseline_word_errors;
  std::vector<double> baseline_metrics;
};

class hrm_workload final : public workload {
 public:
  explicit hrm_workload(const option_map& options)
      : app_name_(options.get_string("app", "synthetic")),
        trials_(options.get_u32("trials", 1)),
        tiles_(options.get_u32("tiles", 1)) {
    if (app_name_ != "synthetic" && !is_known_application(app_name_)) {
      throw spec_error(options.field_name("app"),
                       "unknown application \"" + app_name_ +
                           "\" (valid: synthetic, elasticnet, pca, knn, image)");
    }
    if (trials_ < 1) {
      throw spec_error(options.field_name("trials"), "must be at least 1");
    }
    if (tiles_ < 1) {
      throw spec_error(options.field_name("tiles"), "must be at least 1");
    }
    // exact_faults=n0,n1,... pins each region's per-tile fault count —
    // pure integer sampling, so golden runs diff bit-identically across
    // platforms (the binomial path draws through libm).
    for (const double n : options.get_double_list("exact_faults", "")) {
      if (n < 0.0 || n != std::floor(n)) {
        throw spec_error(options.field_name("exact_faults"),
                         "entries must be non-negative integers");
      }
      exact_faults_.push_back(static_cast<std::uint64_t>(n));
    }
  }

  workload_output run(const scenario_spec& spec,
                      campaign_pool& pool) const override {
    const scheme_recipe tiered = resolve_region_recipe(spec);
    // The uniform comparison set (spec.schemes) rides along as
    // baselines; resolved directly so the tiered recipe is built once.
    std::vector<scheme_recipe> baselines;
    baselines.reserve(spec.schemes.size());
    for (const scheme_ref& ref : spec.schemes) {
      baselines.push_back(scheme_registry::instance().make(ref, spec.geometry));
    }

    if (!exact_faults_.empty()) {
      if (exact_faults_.size() != tiered.regions.size()) {
        throw spec_error("workload.exact_faults",
                         "needs exactly one fault count per region (" +
                             std::to_string(tiered.regions.size()) + ")");
      }
      // Capacity is measured over the manufactured storage width (the
      // widest tier's columns), which is what the injector covers.
      const unsigned storage_width = tiered.factory(1)->storage_bits();
      for (std::size_t r = 0; r < tiered.regions.size(); ++r) {
        const std::uint64_t cells =
            std::uint64_t{tiered.regions[r].rows() +
                          tiered.regions[r].spare_rows} *
            storage_width;
        if (exact_faults_[r] > cells) {
          throw spec_error("workload.exact_faults",
                           "region " + spec.regions[r].range_label() +
                               " has only " + std::to_string(cells) +
                               " cells, cannot hold " +
                               std::to_string(exact_faults_[r]) + " faults");
        }
      }
      // Pinned counts define the whole operating point; a pcell/vdd
      // override alongside them would be silently dead configuration.
      for (std::size_t r = 0; r < spec.regions.size(); ++r) {
        if (!spec.regions[r].pcell.has_value() &&
            !spec.regions[r].vdd.has_value()) {
          continue;
        }
        throw spec_error(
            "regions[" + std::to_string(r) + "]." +
                (spec.regions[r].pcell.has_value() ? "pcell" : "vdd"),
            "exact_faults pins every region's fault count; remove the "
            "per-region operating-point override (or drop exact_faults)");
      }
    }
    // Per-region operating points, spec point as the fallback (unused,
    // and not required, when exact per-region counts are pinned).
    std::vector<region_operating_point> points;
    points.reserve(tiered.regions.size());
    for (std::size_t r = 0; r < spec.regions.size(); ++r) {
      points.push_back(
          {tiered.regions[r],
           exact_faults_.empty()
               ? spec.resolved_region_pcell(spec.regions[r], "hrm-quality")
               : 0.0});
    }

    // The stored data: a seed-derived integer pattern (deterministic
    // across platforms), or an application's quantized training set.
    const matrix_quantizer quantizer(
        fixed_point_codec(spec.geometry.word_bits, spec.geometry.frac_bits));
    std::unique_ptr<application> app;
    std::vector<word_t> words;
    double clean_metric = 0.0;
    if (app_name_ == "synthetic") {
      rng data_gen = named_stream_rng(spec.seeds.app, "hrm.data");
      words.resize(static_cast<std::size_t>(tiles_) *
                   spec.geometry.rows_per_tile);
      for (word_t& word : words) {
        word = data_gen() & word_mask(spec.geometry.word_bits);
      }
    } else {
      app = make_application(app_name_, spec.seeds.app);
      words = quantizer.to_words(app->train_features());
      clean_metric = app->evaluate(quantizer.roundtrip(app->train_features()));
    }

    // Baselines inject at the spec-level operating point; resolve it
    // once up front so a missing point fails before any trial runs. In
    // exact mode they draw the same total count instead (integer path).
    const double baseline_pcell =
        baselines.empty() || !exact_faults_.empty()
            ? 0.0
            : spec.resolved_pcell("hrm-quality");

    // Every store's tile geometry and injector, built once for the
    // point and shared read-only by all trials: the binomial injectors
    // build their fault-count tables here, not per tile.
    store_plan tiered_store{spec.storage(), {}};
    tiered_store.storage.regions = tiered.regions;
    tiered_store.inject =
        exact_faults_.empty()
            ? region_fault_injector(
                  tile_storage_geometry(tiered_store.storage, tiered.factory),
                  points, spec.fault.polarity)
            : region_exact_fault_injector(tiered.regions, exact_faults_,
                                          spec.fault.polarity);
    // Baselines draw at the spec operating point, after the tiered
    // store; in exact mode they draw the same total count instead.
    std::uint64_t exact_total = 0;
    for (const std::uint64_t n : exact_faults_) exact_total += n;
    std::vector<store_plan> baseline_stores;
    baseline_stores.reserve(baselines.size());
    for (const scheme_recipe& baseline : baselines) {
      store_plan plan{spec.storage(baseline.spare_rows), {}};
      plan.storage.regions = baseline.regions;
      const array_geometry geometry =
          tile_storage_geometry(plan.storage, baseline.factory);
      // The exact injector would silently clamp an overfull draw to the
      // tile's cells, so the report would claim faults never injected.
      if (!exact_faults_.empty() && exact_total > geometry.cells()) {
        throw spec_error("workload.exact_faults",
                         "baseline " + baseline.display_name + " has only " +
                             std::to_string(geometry.cells()) +
                             " cells per tile, cannot hold the " +
                             std::to_string(exact_total) +
                             " faults the regions' counts sum to");
      }
      plan.inject =
          exact_faults_.empty()
              ? binomial_fault_injector(geometry, baseline_pcell,
                                        spec.fault.polarity)
              : exact_fault_injector(exact_total, spec.fault.polarity);
      baseline_stores.push_back(std::move(plan));
    }

    // One tile per store per worker, built on the worker's first trial
    // (only that worker touches its slot) and reused for its others.
    campaign_runner& runner = pool.runner();
    std::vector<std::optional<worker_tiles>> tiles(runner.threads());
    std::vector<trial_result> results(trials_);
    runner.run(trials_, campaign_runner::worker_trial_body(
                            [&](std::uint64_t trial, rng& gen, unsigned worker) {
                              std::optional<worker_tiles>& own = tiles[worker];
                              if (!own) {
                                own.emplace(tiered, tiered_store, baselines,
                                            baseline_stores);
                              }
                              results[trial] =
                                  run_trial(spec, tiered, *own, tiered_store,
                                            baselines, baseline_stores,
                                            quantizer, app.get(), words, gen);
                            }));

    // Trial-ordered reduction keeps every count (and the dyadic MSE
    // sums) bit-identical at any thread count.
    trial_result total;
    total.regions.resize(tiered.regions.size());
    total.baseline_word_errors.resize(baselines.size(), 0);
    total.baseline_metrics.resize(baselines.size(), 0.0);
    for (const trial_result& r : results) {
      for (std::size_t i = 0; i < r.regions.size(); ++i) {
        total.regions[i] += r.regions[i];
      }
      total.corrected_words += r.corrected_words;
      total.uncorrectable_words += r.uncorrectable_words;
      total.tiles += r.tiles;
      total.metric += r.metric;
      for (std::size_t b = 0; b < baselines.size(); ++b) {
        total.baseline_word_errors[b] += r.baseline_word_errors[b];
        total.baseline_metrics[b] += r.baseline_metrics[b];
      }
    }

    return render(spec, tiered, baselines, points, total, clean_metric);
  }

 private:
  /// One store of a trial: its tiled storage and its fault injector.
  struct store_plan {
    storage_config storage;
    fault_injector inject;
  };

  /// One worker's tiles: the tiered store's and one per baseline.
  struct worker_tiles {
    worker_tiles(const scheme_recipe& tiered, const store_plan& tiered_store,
                 const std::vector<scheme_recipe>& baselines,
                 const std::vector<store_plan>& baseline_stores)
        : tiered(tiered_store.storage, tiered.factory) {
      baseline.reserve(baselines.size());
      for (std::size_t b = 0; b < baselines.size(); ++b) {
        baseline.emplace_back(baseline_stores[b].storage,
                              baselines[b].factory);
      }
    }

    store_tile tiered;
    std::vector<store_tile> baseline;
  };

  trial_result run_trial(const scenario_spec& spec,
                         const scheme_recipe& tiered, worker_tiles& tiles,
                         const store_plan& tiered_store,
                         const std::vector<scheme_recipe>& baselines,
                         const std::vector<store_plan>& baseline_stores,
                         const matrix_quantizer& quantizer, const application* app,
                         const std::vector<word_t>& words, rng& gen) const {
    const std::uint32_t rows = spec.geometry.rows_per_tile;
    const auto evaluate = [&](const std::vector<word_t>& restored) {
      return app == nullptr
                 ? 0.0
                 : app->evaluate(quantizer.from_words(
                       restored, app->train_features().rows(),
                       app->train_features().cols()));
    };

    trial_result result;
    result.regions.resize(tiered.regions.size());
    // The restored copies only feed an application; synthetic data is
    // scored from the changed words alone.
    std::vector<word_t> restored;
    if (app != nullptr) restored = words;
    const pipeline_stats stats = store_words(
        words, tiles.tiered, tiered_store.inject, gen,
        [&](std::size_t first_word, const protected_memory& tile,
            std::span<const changed_word> changed) {
          // Injected faults per region: data rows route by range, spare
          // rows by the region-order pool layout.
          for (const fault& f : tile.array().faults().all_faults()) {
            if (f.row < rows) {
              result.regions[tile.region_of(f.row)].injected_faults++;
              continue;
            }
            for (std::size_t r = tiered.regions.size(); r-- > 0;) {
              if (f.row >= tile.region_spare_base(r)) {
                result.regions[r].injected_faults++;
                break;
              }
            }
          }

          const auto& remaps = tile.row_remaps();
          for (const auto& remap : remaps) {
            result.regions[tile.region_of(remap.first)].repaired_rows++;
          }
          // Residual = faults still visible through the remapped address
          // space: faulty, unrepaired data rows — counting only columns
          // the row's own tier stores (faults in a wider sibling's
          // surplus columns are harmless and never reach the repair pass
          // either). Spares only serve remapped rows, so only data rows
          // count.
          for_each_faulty_row(
              tile.array().faults().faults_in_rows(0, rows),
              [&](std::uint32_t row, std::span<const fault> row_faults) {
                const auto it = std::lower_bound(
                    remaps.begin(), remaps.end(), row,
                    [](const auto& remap, std::uint32_t key) {
                      return remap.first < key;
                    });
                if (it != remaps.end() && it->first == row) return;
                const std::size_t r = tile.region_of(row);
                const unsigned region_bits =
                    tiered.regions[r].storage_bits == 0
                        ? tile.scheme().storage_bits()
                        : tiered.regions[r].storage_bits;
                std::uint64_t visible = 0;
                for (const fault& f : row_faults) {
                  if (f.col < region_bits) ++visible;
                }
                if (visible == 0) return;
                result.regions[r].residual_rows++;
                result.regions[r].residual_faults += visible;
              });

          for (const changed_word& word : changed) {
            const word_t written = words[first_word + word.row];
            region_counts& counts = result.regions[tile.region_of(word.row)];
            counts.word_errors++;
            counts.error_lsb_sum +=
                written > word.read ? written - word.read : word.read - written;
            if (app != nullptr) restored[first_word + word.row] = word.read;
          }
          for (std::size_t r = 0; r < tiered.regions.size(); ++r) {
            result.regions[r].analytic_mse_sum += tile.analytic_mse(
                tiered.regions[r].first_row, tiered.regions[r].last_row);
          }
        });
    result.corrected_words = stats.corrected_words;
    result.uncorrectable_words = stats.uncorrectable_words;
    result.tiles = stats.tiles;
    result.metric = evaluate(restored);

    // Uniform baselines on the same trial stream, drawn after the
    // tiered store (sequential draws keep the trial deterministic).
    for (std::size_t b = 0; b < baselines.size(); ++b) {
      std::vector<word_t> base_restored;
      if (app != nullptr) base_restored = words;
      std::uint64_t errors = 0;
      store_words(
          words, tiles.baseline[b], baseline_stores[b].inject, gen,
          [&](std::size_t first_word, const protected_memory& /*tile*/,
              std::span<const changed_word> changed) {
            errors += changed.size();
            if (app == nullptr) return;
            for (const changed_word& word : changed) {
              base_restored[first_word + word.row] = word.read;
            }
          });
      result.baseline_word_errors.push_back(errors);
      result.baseline_metrics.push_back(evaluate(base_restored));
    }
    return result;
  }

  workload_output render(const scenario_spec& spec, const scheme_recipe& tiered,
                         const std::vector<scheme_recipe>& baselines,
                         const std::vector<region_operating_point>& points,
                         const trial_result& total, double clean_metric) const {
    std::ostringstream out;
    out << spec.geometry.size_label() << " tiles (" << spec.geometry.rows_per_tile
        << " x " << spec.geometry.word_bits << "), "
        << spec.regions.size() << " reliability region(s), " << trials_
        << " trial(s), data: " << app_name_ << ".\n"
        << "Tiered design: " << tiered.display_name << "\n\n";

    workload_output output;
    output.trials = trials_;
    output.json = json_value::make_object();
    output.json.set("app", app_name_);
    output.json.set("trials", std::uint64_t{trials_});
    output.json.set("tiles", total.tiles);

    const double tile_samples =
        total.tiles != 0 ? static_cast<double>(total.tiles) : 1.0;
    console_table table({"region", "scheme", "spares",
                         exact_faults_.empty() ? "Pcell" : "faults/tile",
                         "injected", "repaired", "residual", "word errors",
                         "MSE (Eq. 6)"});
    json_value region_results = json_value::make_array();
    std::uint64_t injected = 0;
    std::uint64_t residual = 0;
    std::uint64_t word_errors = 0;
    for (std::size_t r = 0; r < spec.regions.size(); ++r) {
      const region_spec& region = spec.regions[r];
      const region_counts& counts = total.regions[r];
      const double mse = counts.analytic_mse_sum / tile_samples;
      table.add_row({region.range_label(), region.scheme.name,
                     std::to_string(tiered.regions[r].spare_rows),
                     exact_faults_.empty()
                         ? format_scientific(points[r].pcell, 2)
                         : std::to_string(exact_faults_[r]),
                     std::to_string(counts.injected_faults),
                     std::to_string(counts.repaired_rows),
                     std::to_string(counts.residual_faults),
                     std::to_string(counts.word_errors),
                     format_scientific(mse, 3)});
      json_value entry = json_value::make_object();
      entry.set("rows", region.range_label());
      entry.set("scheme", region.scheme.name);
      entry.set("spare_rows", tiered.regions[r].spare_rows);
      if (exact_faults_.empty()) {
        entry.set("pcell", points[r].pcell);
      } else {
        entry.set("exact_faults_per_tile", exact_faults_[r]);
      }
      entry.set("injected_faults", counts.injected_faults);
      entry.set("repaired_rows", counts.repaired_rows);
      entry.set("residual_rows", counts.residual_rows);
      entry.set("residual_faults", counts.residual_faults);
      entry.set("word_errors", counts.word_errors);
      entry.set("error_lsb_sum", counts.error_lsb_sum);
      entry.set("analytic_mse", mse);
      region_results.push_back(std::move(entry));
      injected += counts.injected_faults;
      residual += counts.residual_faults;
      word_errors += counts.word_errors;
    }
    table.print(out);
    output.json.set("regions", std::move(region_results));

    json_value totals = json_value::make_object();
    totals.set("injected_faults", injected);
    totals.set("residual_faults", residual);
    totals.set("word_errors", word_errors);
    totals.set("corrected_words", total.corrected_words);
    totals.set("uncorrectable_words", total.uncorrectable_words);
    output.json.set("totals", std::move(totals));
    out << "\ntotals: " << injected << " injected, " << residual
        << " residual after repair, " << word_errors << " corrupted words, "
        << total.corrected_words << " ECC-corrected\n";

    if (app_name_ != "synthetic") {
      const double metric = total.metric / static_cast<double>(trials_);
      output.json.set("clean_metric", clean_metric);
      output.json.set("metric", metric);
      out << "clean (quantized) metric = " << format_double(clean_metric, 4)
          << ", tiered metric = " << format_double(metric, 4) << " ("
          << format_double(metric / clean_metric, 4) << " normalized)\n";
    }

    if (!baselines.empty()) {
      out << "\nuniform baselines (same trial streams, spec operating point):\n";
      console_table baseline_table(
          app_name_ != "synthetic"
              ? std::vector<std::string>{"scheme", "word errors", "metric"}
              : std::vector<std::string>{"scheme", "word errors"});
      json_value baseline_results = json_value::make_array();
      for (std::size_t b = 0; b < baselines.size(); ++b) {
        json_value entry = json_value::make_object();
        entry.set("name", baselines[b].display_name);
        entry.set("word_errors", total.baseline_word_errors[b]);
        std::vector<std::string> row{baselines[b].display_name,
                                     std::to_string(
                                         total.baseline_word_errors[b])};
        if (app_name_ != "synthetic") {
          const double metric =
              total.baseline_metrics[b] / static_cast<double>(trials_);
          entry.set("metric", metric);
          row.push_back(format_double(metric, 4));
        }
        baseline_table.add_row(std::move(row));
        baseline_results.push_back(std::move(entry));
      }
      baseline_table.print(out);
      output.json.set("baselines", std::move(baseline_results));
    }

    output.text = out.str();
    return output;
  }

  std::string app_name_;
  std::uint32_t trials_;
  std::uint32_t tiles_;
  std::vector<std::uint64_t> exact_faults_;  ///< empty = binomial injection
};

}  // namespace

namespace detail {

void register_hrm_workloads(workload_registry& registry) {
  registry.add(
      "hrm-quality",
      "per-region residual-fault + quality breakdown of a tiered design",
      "app=synthetic trials=1 tiles=1 exact_faults=",
      [](const option_map& options) {
        return std::make_unique<hrm_workload>(options);
      });
}

}  // namespace detail

}  // namespace urmem
