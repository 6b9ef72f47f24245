// Built-in domain-scenario and ablation workloads: PSNR image storage,
// single-application ML quality, BIST march coverage, spare-row
// redundancy economics, the multi-fault shift-policy ablation and the
// faulty FM-LUT ablation.
#include <cmath>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>

#include "urmem/bist/bist_engine.hpp"
#include "urmem/common/table.hpp"
#include "urmem/hwmodel/overhead_model.hpp"
#include "urmem/memory/fault_sampler.hpp"
#include "urmem/memory/sram_array.hpp"
#include "urmem/scenario/workload_registry.hpp"
#include "urmem/scheme/row_redundancy.hpp"
#include "urmem/shuffle/shuffle_scheme.hpp"
#include "urmem/sim/applications.hpp"
#include "urmem/sim/quantizer.hpp"
#include "urmem/yield/mse_distribution.hpp"

namespace urmem {
namespace {

// ------------------------------------------------------------ psnr-image

/// Frame-buffer storage PSNR across a VDD sweep — the multimedia
/// setting of the P-ECC prior art (paper Sec. 2, refs. [4, 12]).
class psnr_workload final : public workload {
 public:
  explicit psnr_workload(const option_map& options)
      : repeats_(options.get_u32("repeats", 4)),
        vdds_(options.get_double_list("vdds", "0.8,0.73,0.7,0.66")) {
    if (repeats_ < 1) {
      throw spec_error(options.field_name("repeats"), "must be at least 1");
    }
    if (vdds_.empty()) {
      throw spec_error(options.field_name("vdds"),
                       "needs at least one voltage");
    }
    for (const double vdd : vdds_) {
      if (vdd <= 0.0 || vdd > 2.0) {
        throw spec_error(options.field_name("vdds"),
                         "voltages must be in (0, 2] volts");
      }
    }
  }

  workload_output run(const scenario_spec& spec,
                      campaign_pool& pool) const override {
    // The VDD sweep below defines the operating point; per-region
    // overrides would silently contradict it.
    reject_region_operating_points(spec, "psnr-image");
    const std::vector<scheme_recipe> recipes = resolve_schemes(spec);
    if (recipes.empty()) {
      throw spec_error("schemes", "psnr-image needs at least one scheme");
    }
    campaign_runner& runner = pool.runner();
    const cell_failure_model model = spec.failure_model();
    const auto app = make_image_app(spec.seeds.app);
    const double clean_psnr =
        app->evaluate(matrix_quantizer().roundtrip(app->train_features()));

    std::ostringstream out;
    out << "Frame buffer: " << app->train_features().rows() << " x "
        << app->train_features().cols() << " image, Q15.16 words in "
        << spec.geometry.size_label() << " tiles.\n"
        << "Quantization-only PSNR (fault-free): "
        << format_double(clean_psnr, 4) << " dB\n\n";

    std::vector<std::string> headers{"VDD [V]", "Pcell"};
    for (const scheme_recipe& recipe : recipes) {
      headers.push_back("PSNR " + recipe.display_name);
    }
    console_table table(headers);

    workload_output output;
    output.json = json_value::make_object();
    output.json.set("clean_psnr_db", clean_psnr);
    json_value points = json_value::make_array();

    // The (vdd x scheme) grid is sharded over the campaign pool: every
    // scheme sees the identical fault stream at each voltage (one named
    // stream per grid cell), so columns stay comparable. The image is
    // quantized once (every recipe stores spec.geometry's Q-format),
    // each grid cell's injector is built once and shared by its
    // repeats, and each worker builds one tile per scheme on its first
    // trial of that scheme and reuses it at every voltage.
    const std::size_t grid = vdds_.size() * recipes.size();
    std::vector<storage_config> storages(recipes.size());
    std::vector<fault_injector> injects(grid);
    for (std::size_t s = 0; s < recipes.size(); ++s) {
      storages[s] = spec.storage(recipes[s].spare_rows);
      storages[s].regions = recipes[s].regions;
      const array_geometry tile =
          tile_storage_geometry(storages[s], recipes[s].factory);
      for (std::size_t v = 0; v < vdds_.size(); ++v) {
        injects[v * recipes.size() + s] = binomial_fault_injector(
            tile, model.pcell(vdds_[v]), spec.fault.polarity);
      }
    }
    const quantized_matrix clean =
        quantize(app->train_features(), spec.storage());
    const std::uint64_t trials = grid * repeats_;
    std::vector<std::optional<store_tile>> tiles(runner.threads() *
                                                 recipes.size());
    std::vector<double> psnrs(trials);
    const campaign_runner::worker_trial_body store_trial =
        [&](std::uint64_t trial, rng&, unsigned worker) {
          const std::uint64_t cell = trial / repeats_;
          const std::uint64_t repeat = trial % repeats_;
          const std::uint64_t vdd_index = cell / recipes.size();
          const std::size_t s = cell % recipes.size();
          // Scheme-independent stream keyed by the voltage INDEX:
          // every scheme stores through the same manufactured fault
          // population at this (vdd, repeat), and integer keys stay
          // locale-proof and collision-free.
          rng fault_gen = named_stream_rng(
              spec.seeds.root,
              "psnr.faults." + std::to_string(vdd_index) + "." +
                  std::to_string(repeat));
          std::optional<store_tile>& tile =
              tiles[worker * recipes.size() + s];
          if (!tile) tile.emplace(storages[s], recipes[s].factory);
          psnrs[trial] = app->evaluate(
              store_and_readback(clean, *tile, injects[cell], fault_gen)
                  .values);
        };
    runner.run(trials, store_trial);
    output.trials = runner.last_stats().trials;

    for (std::size_t v = 0; v < vdds_.size(); ++v) {
      const double vdd = vdds_[v];
      const double pcell = model.pcell(vdd);
      std::vector<std::string> row{format_double(vdd, 3),
                                   format_scientific(pcell, 1)};
      json_value point = json_value::make_object();
      point.set("vdd", vdd);
      point.set("pcell", pcell);
      json_value scheme_results = json_value::make_array();
      for (std::size_t s = 0; s < recipes.size(); ++s) {
        double total = 0.0;
        for (unsigned r = 0; r < repeats_; ++r) {
          total += psnrs[(v * recipes.size() + s) * repeats_ + r];
        }
        const double psnr = total / repeats_;
        row.push_back(format_double(psnr, 4) + " dB");
        json_value entry = json_value::make_object();
        entry.set("name", recipes[s].display_name);
        entry.set("psnr_db", psnr);
        scheme_results.push_back(std::move(entry));
      }
      point.set("schemes", std::move(scheme_results));
      points.push_back(std::move(point));
      table.add_row(std::move(row));
    }
    table.print(out);

    output.json.set("points", std::move(points));
    output.text = out.str();
    return output;
  }

 private:
  unsigned repeats_;
  std::vector<double> vdds_;
};

// ------------------------------------------------------------ ml-quality

/// One application stored through each scheme at one operating point —
/// the end-to-end walk of the knn/elasticnet example binaries.
class ml_quality_workload final : public workload {
 public:
  explicit ml_quality_workload(const option_map& options)
      : app_name_(options.get_string("app", "knn")) {
    if (!is_known_application(app_name_)) {
      throw spec_error(options.field_name("app"),
                       "unknown application \"" + app_name_ +
                           "\" (valid: elasticnet, pca, knn, image)");
    }
  }

  workload_output run(const scenario_spec& spec,
                      campaign_pool& /*pool*/) const override {
    const std::vector<scheme_recipe> recipes = resolve_schemes(spec);
    if (recipes.empty()) {
      throw spec_error("schemes", "ml-quality needs at least one scheme");
    }
    // A regions-only spec whose every region carries its own operating
    // point needs no spec-level one; uniform scheme entries do, and the
    // per-region fallback path resolves (and diagnoses) it on demand.
    const bool has_spec_point =
        spec.fault.pcell.has_value() || spec.fault.vdd.has_value();
    const double pcell = has_spec_point || !spec.schemes.empty()
                             ? spec.resolved_pcell("ml-quality")
                             : 0.0;
    const cell_failure_model model = spec.failure_model();
    const auto app = make_application(app_name_, spec.seeds.app);
    const double clean = app->evaluate(app->train_features());
    const quantized_matrix clean_image =
        quantize(app->train_features(), spec.storage());

    std::ostringstream out;
    out << app->name() << " (" << app->dataset_name()
        << ", metric: " << app->metric_name() << ") with training data in a "
        << spec.geometry.size_label() << "-tiled unreliable SRAM.\n";
    if (has_spec_point || !spec.schemes.empty()) {
      out << "Operating point: Pcell = " << format_scientific(pcell, 2);
      // Pcell = 0 (explicit fault-free point) has no finite VDD preimage.
      if (pcell > 0.0) {
        out << " (VDD ~ " << format_double(model.vdd_for_pcell(pcell), 3)
            << " V in the 28nm-class cell model)";
      }
      out << ".\n\n";
    } else {
      out << "Operating point: per-region overrides (regions section).\n\n";
    }
    out << "Fault-free metric on the held-out set: " << format_double(clean, 4)
        << "\n\n";

    workload_output output;
    output.json = json_value::make_object();
    output.json.set("app", app->name());
    output.json.set("pcell", pcell);
    output.json.set("clean_metric", clean);
    json_value scheme_results = json_value::make_array();

    console_table table({"scheme", "storage cols", "injected faults",
                         "corrected", "uncorrectable", "metric", "normalized"});
    for (std::size_t i = 0; i < recipes.size(); ++i) {
      const scheme_recipe& recipe = recipes[i];
      // Identical fault stream for every scheme (shared named stream).
      rng gen = named_stream_rng(spec.seeds.root, "quality.faults");
      pipeline_stats stats;
      storage_config storage = spec.storage(recipe.spare_rows);
      storage.regions = recipe.regions;
      // The spec-section tiered recipe (appended after the uniform
      // baselines) may carry per-region operating points; honor them
      // with the region-segmented injector. Uniform recipes (and
      // `tiered:` compact entries) inject at the spec point.
      const array_geometry tile = tile_storage_geometry(storage, recipe.factory);
      fault_injector inject;
      if (i == spec.schemes.size() && !spec.regions.empty()) {
        std::vector<region_operating_point> points;
        points.reserve(recipe.regions.size());
        for (std::size_t r = 0; r < recipe.regions.size(); ++r) {
          points.push_back({recipe.regions[r],
                            spec.resolved_region_pcell(spec.regions[r],
                                                       "ml-quality")});
        }
        inject = region_fault_injector(tile, std::move(points),
                                       spec.fault.polarity);
      } else {
        inject = binomial_fault_injector(tile, pcell, spec.fault.polarity);
      }
      store_tile store(storage, recipe.factory);
      const double metric = app->evaluate(
          store_and_readback(clean_image, store, inject, gen, &stats).values);
      const unsigned storage_cols = tile.width;
      table.add_row({recipe.display_name, std::to_string(storage_cols),
                     std::to_string(stats.injected_faults),
                     std::to_string(stats.corrected_words),
                     std::to_string(stats.uncorrectable_words),
                     format_double(metric, 4), format_double(metric / clean, 4)});

      json_value entry = json_value::make_object();
      entry.set("name", recipe.display_name);
      entry.set("storage_bits", storage_cols);
      entry.set("injected_faults", stats.injected_faults);
      entry.set("corrected_words", stats.corrected_words);
      entry.set("uncorrectable_words", stats.uncorrectable_words);
      entry.set("metric", metric);
      entry.set("normalized", metric / clean);
      scheme_results.push_back(std::move(entry));
      ++output.trials;
    }
    table.print(out);

    output.json.set("schemes", std::move(scheme_results));
    output.text = out.str();
    return output;
  }

 private:
  std::string app_name_;
};

// ------------------------------------------------------------ bist-march

/// March-test fault discovery on a manufactured array — integer-only,
/// which also makes it the cross-platform CI smoke golden.
class bist_workload final : public workload {
 public:
  explicit bist_workload(const option_map& options)
      : faults_(options.get_u64("faults", 16)),
        nfm_(options.get_u32("nfm", 5)),
        model_(options.get_bool("model", false)) {}

  workload_output run(const scenario_spec& spec,
                      campaign_pool& /*pool*/) const override {
    // BIST is a single deterministic pass; no campaign pool is spawned.
    reject_schemes(spec, "bist-march");
    validate_shuffle_design(spec.geometry, nfm_, "workload.nfm");
    const array_geometry geometry{spec.geometry.rows_per_tile,
                                  spec.geometry.word_bits};
    if (faults_ > geometry.cells()) {
      throw spec_error("workload.faults", "more faults than cells");
    }
    // model=true derives the manufactured faults from the critical-
    // voltage cell model at fault.vdd (aged by fault.age_hours) instead
    // of sampling `faults` positions — the aging-BIST scenario: sweeping
    // fault.age_hours grows the map monotonically (supersets), exactly
    // what re-running BIST at every POST is for.
    fault_map injected(geometry);
    if (model_) {
      if (!spec.fault.vdd.has_value()) {
        throw spec_error("fault.vdd",
                         "workload.model=true derives faults from the cell "
                         "model and needs the fault.vdd operating point");
      }
      injected = spec.failure_model().faults_at_voltage(geometry,
                                                        *spec.fault.vdd);
    } else {
      rng gen = named_stream_rng(spec.seeds.root, "bist.faults");
      injected =
          sample_fault_map_exact(geometry, faults_, gen, spec.fault.polarity);
    }
    sram_array array(injected);

    shuffle_scheme scheme(geometry.rows, geometry.width, nfm_);
    const bist_engine engine;
    const bist_result result = engine.run_and_program(array, scheme);

    std::ostringstream out;
    out << "Array " << geometry.rows << " x " << geometry.width << " ("
        << spec.geometry.size_label() << "), " << injected.fault_count()
        << " manufactured faulty cells, polarity "
        << to_string(spec.fault.polarity) << ".\n"
        << "BIST (" << engine.algorithm().name << "): found "
        << result.faults.fault_count() << " faults using " << result.reads
        << " reads / " << result.writes << " writes.\n"
        << "Traditional zero-failure verdict: "
        << (result.traditional_accept() ? "accept" : "reject")
        << "; FM-LUT programmed with nFM=" << nfm_ << " ("
        << scheme.shuffler().segment_count() << " shift values).\n";

    workload_output output;
    output.trials = 1;
    output.json = json_value::make_object();
    output.json.set("rows", geometry.rows);
    output.json.set("width", geometry.width);
    output.json.set("injected_faults", injected.fault_count());
    output.json.set("found_faults", result.faults.fault_count());
    output.json.set("reads", result.reads);
    output.json.set("writes", result.writes);
    output.json.set("pass", result.pass);
    output.json.set("nfm", nfm_);
    output.text = out.str();
    return output;
  }

 private:
  std::uint64_t faults_;
  unsigned nfm_;
  bool model_;
};

// ------------------------------------------------------ redundancy-yield

/// Spare-row repair economics across Pcell (the Sec. 2 ablation).
class redundancy_yield_workload final : public workload {
 public:
  explicit redundancy_yield_workload(const option_map& options)
      : mc_runs_(options.get_u32("runs", 400)),
        yield_target_(options.get_double("yield", 0.99)),
        pcells_(options.get_double_list(
            "pcells", "1e-7,1e-6,5e-6,1e-5,5e-5,1e-4,5e-4,1e-3")) {
    if (mc_runs_ < 1) {
      throw spec_error(options.field_name("runs"), "must be at least 1");
    }
    if (yield_target_ <= 0.0 || yield_target_ >= 1.0) {
      throw spec_error(options.field_name("yield"), "must be in (0, 1)");
    }
    if (pcells_.empty()) {
      throw spec_error(options.field_name("pcells"),
                       "needs at least one failure probability");
    }
  }

  workload_output run(const scenario_spec& spec,
                      campaign_pool& /*pool*/) const override {
    // Incremental spare search is inherently sequential: no pool.
    reject_schemes(spec, "redundancy-yield");
    const std::uint32_t rows = spec.geometry.rows_per_tile;
    const std::uint32_t width = spec.geometry.word_bits;
    rng gen = named_stream_rng(spec.seeds.root, "redundancy.mc");

    const sram_macro_model sram = sram_macro_model::fdsoi_28nm();
    const overhead_model model(gate_library::fdsoi_28nm(), sram,
                               array_geometry{rows, width});
    const double ecc_area = model.secded(hamming_secded(width)).area_um2;
    const double nfm1_area = model.shuffle(1).area_um2;
    const double row_area = width * sram.cell_area_um2 / sram.array_efficiency;

    std::ostringstream out;
    out << spec.geometry.size_label() << " array (" << rows << " x " << width
        << "), repair yield target "
        << format_percent(yield_target_, 0) << ", " << mc_runs_
        << " MC arrays per spare-count candidate.\n"
        << "Reference area overheads: H(" << hamming_secded(width).codeword_bits()
        << "," << width << ") ECC = " << format_double(ecc_area, 4)
        << " um^2, nFM=1 shuffle = " << format_double(nfm1_area, 4)
        << " um^2.\n\n";

    workload_output output;
    output.json = json_value::make_object();
    output.json.set("yield_target", yield_target_);
    output.json.set("mc_runs", std::uint64_t{mc_runs_});
    json_value points = json_value::make_array();

    console_table table({"Pcell", "E[faulty rows]",
                         "spares for " + format_percent(yield_target_, 0) +
                             " yield",
                         "area overhead [um^2]", "vs ECC", "vs nFM=1 shuffle"});
    for (const double pcell : pcells_) {
      const double row_fail =
          1.0 - std::pow(1.0 - pcell, static_cast<double>(width));
      const double expected_faulty = row_fail * rows;
      const auto spares = spares_for_yield(rows, width, pcell, yield_target_,
                                           rows, mc_runs_, gen);
      json_value point = json_value::make_object();
      point.set("pcell", pcell);
      point.set("expected_faulty_rows", expected_faulty);
      if (!spares.has_value()) {
        table.add_row({format_scientific(pcell, 1),
                       format_double(expected_faulty, 3),
                       "> " + std::to_string(rows) + " (infeasible)", "-", "-",
                       "-"});
        point.set("spares", json_value());
      } else {
        const double area = *spares * row_area;
        table.add_row({format_scientific(pcell, 1),
                       format_double(expected_faulty, 3),
                       std::to_string(*spares), format_double(area, 4),
                       format_double(area / ecc_area, 3) + "x",
                       format_double(area / nfm1_area, 3) + "x"});
        point.set("spares", *spares);
        point.set("area_um2", area);
        point.set("area_vs_ecc", area / ecc_area);
        point.set("area_vs_nfm1", area / nfm1_area);
      }
      points.push_back(std::move(point));
      ++output.trials;
    }
    table.print(out);

    output.json.set("points", std::move(points));
    output.text = out.str();
    return output;
  }

 private:
  std::uint32_t mc_runs_;
  double yield_target_;
  std::vector<double> pcells_;
};

// ----------------------------------------------------- multifault-policy

/// Multi-fault FM-LUT programming policy ablation (min-MSE vs
/// first-fault) over a Pcell x nFM grid.
class multifault_policy_workload final : public workload {
 public:
  explicit multifault_policy_workload(const option_map& options)
      : runs_(options.get_u64("runs", 200'000)),
        n_max_(options.get_u64("nmax", 400)),
        pcells_(options.get_double_list("pcells", "5e-6,1e-4,1e-3")),
        nfms_(options.get_double_list("nfms", "2,5")) {
    if (runs_ < 1) {
      throw spec_error(options.field_name("runs"), "must be at least 1");
    }
    if (n_max_ < 1) {
      throw spec_error(options.field_name("nmax"), "must be at least 1");
    }
    if (pcells_.empty() || nfms_.empty()) {
      throw spec_error(
          options.field_name(pcells_.empty() ? "pcells" : "nfms"),
          "needs at least one value");
    }
    for (const double pcell : pcells_) {
      if (!(pcell > 0.0 && pcell < 1.0)) {
        throw spec_error(options.field_name("pcells"),
                         "entries must lie in (0, 1)");
      }
    }
  }

  workload_output run(const scenario_spec& spec,
                      campaign_pool& pool) const override {
    reject_schemes(spec, "multifault-policy");
    const std::uint32_t rows = spec.geometry.rows_per_tile;
    const unsigned width = spec.geometry.word_bits;
    // Same pre-checks as the shuffle scheme's registry entry, so a bad
    // nfm or word width blames a spec field instead of tripping a
    // bit_shuffler contract mid-run.
    for (const double nfm : nfms_) {
      if (nfm < 1.0 || nfm > 64.0 || nfm != std::floor(nfm)) {
        throw spec_error("workload.nfms", "entries must be small integers");
      }
      validate_shuffle_design(spec.geometry, static_cast<unsigned>(nfm),
                              "workload.nfms");
    }

    check_mse_nmax(spec, n_max_);

    mse_cdf_config config;
    config.total_runs = runs_;
    config.seed = spec.seeds.root;
    config.n_max = n_max_;
    // Every Pcell x nFM x policy point is one stratified sweep on the
    // pool, seeded like it with spec.seeds.root.
    campaign_runner& runner = pool.runner();

    workload_output output;
    output.json = json_value::make_object();
    json_value points = json_value::make_array();

    std::ostringstream out;
    console_table table({"Pcell", "nFM", "policy", "MSE @ yield 90%",
                         "MSE @ yield 99%"});
    for (const double pcell : pcells_) {
      for (const double nfm_value : nfms_) {
        const auto n_fm = static_cast<unsigned>(nfm_value);
        for (const shift_policy policy :
             {shift_policy::min_mse, shift_policy::first_fault}) {
          const auto scheme = make_scheme_shuffle(rows, width, n_fm, policy);
          check_mse_strata({rows, scheme->storage_bits()}, pcell, config,
                           "workload.pcells");
          const empirical_cdf cdf =
              compute_mse_cdf(runner, *scheme, rows, pcell, config);
          const double q90 = mse_for_yield(cdf, 0.90);
          const double q99 = mse_for_yield(cdf, 0.99);
          const char* policy_name =
              policy == shift_policy::min_mse ? "min-MSE" : "first-fault";
          table.add_row({format_scientific(pcell, 1), std::to_string(n_fm),
                         policy_name, format_scientific(q90, 3),
                         format_scientific(q99, 3)});
          json_value point = json_value::make_object();
          point.set("pcell", pcell);
          point.set("nfm", n_fm);
          point.set("policy", policy_name);
          point.set("mse_at_yield_90", q90);
          point.set("mse_at_yield_99", q99);
          points.push_back(std::move(point));
          ++output.trials;
        }
      }
    }
    table.print(out);

    output.json.set("points", std::move(points));
    output.text = out.str();
    return output;
  }

 private:
  std::uint64_t runs_;
  std::uint64_t n_max_;
  std::vector<double> pcells_;
  std::vector<double> nfms_;
};

// ------------------------------------------------------------ lut-faults

/// Ablation: FM-LUT columns that are not fault-free. The paper assumes
/// the LUT cells are reliable (BIST writes them); here each LUT bit
/// fails at the data array's Pcell and flips its stored xFM bit, and a
/// wrong xFM mis-rotates the whole word. Each trial draws one data
/// fault map and reads the same random words back through the
/// programmed LUT and through a corrupted copy of it, so both MSEs come
/// from the same array.
class lut_faults_workload final : public workload {
 public:
  workload_output run(const scenario_spec& spec,
                      campaign_pool& pool) const override {
    reject_schemes(spec, "lut-faults");
    validate_shuffle_design(spec.geometry, 1, "geometry.word_bits");
    const double pcell = spec.resolved_pcell("lut-faults");
    if (pcell <= 0.0) {
      throw spec_error("fault.pcell",
                       "lut-faults compares MSEs under faults and needs a "
                       "positive Pcell");
    }
    const array_geometry geometry{spec.geometry.rows_per_tile,
                                  spec.geometry.word_bits};
    const unsigned max_nfm = log2_exact(geometry.width);

    // One data-fault distribution for the point, shared by every trial.
    const binomial_distribution data_faults(geometry.cells(), pcell);
    // Trial (nFM - 1) * trials + t returns {robust, faulty} MSE.
    campaign_runner& runner = pool.runner();
    const std::vector<std::pair<double, double>> mses =
        runner.map<std::pair<double, double>>(
            max_nfm * trials, [&](std::uint64_t trial, rng& gen) {
              const auto n_fm = static_cast<unsigned>(trial / trials) + 1;
              const fault_map faults = sample_fault_map_binomial(
                  geometry, data_faults, gen, spec.fault.polarity);
              shuffle_scheme robust(geometry.rows, geometry.width, n_fm);
              robust.program(faults);
              shuffle_scheme faulty = robust;
              for (std::uint32_t r = 0; r < geometry.rows; ++r) {
                unsigned entry = faulty.lut().get(r);
                for (unsigned bit = 0; bit < n_fm; ++bit) {
                  if (gen.uniform() < pcell) entry ^= 1u << bit;
                }
                faulty.mutable_lut().set(r, entry);
              }
              sram_array array(faults);
              const auto squared_error = [&](const shuffle_scheme& scheme,
                                             std::uint32_t r, word_t data) {
                array.write(r, scheme.apply_write(r, data));
                const word_t readback = scheme.restore_read(r, array.read(r));
                const double err =
                    static_cast<double>(to_signed(readback, geometry.width)) -
                    static_cast<double>(to_signed(data, geometry.width));
                return err * err;
              };
              std::pair<double, double> total{0.0, 0.0};
              for (std::uint32_t r = 0; r < geometry.rows; ++r) {
                const word_t data = gen() & word_mask(geometry.width);
                total.first += squared_error(robust, r, data);
                total.second += squared_error(faulty, r, data);
              }
              return std::pair{total.first / geometry.rows,
                               total.second / geometry.rows};
            });

    std::ostringstream out;
    out << geometry.rows << " x " << geometry.width
        << " array, Pcell = " << format_scientific(pcell, 2)
        << " for both data cells and LUT bits, " << trials
        << " Monte-Carlo arrays per point, each read through the programmed "
           "LUT and a corrupted copy.\n\n";
    console_table table({"nFM", "mean MSE, robust LUT", "mean MSE, faulty LUT",
                         "inflation"});
    workload_output output;
    output.trials = runner.last_stats().trials;
    output.json = json_value::make_object();
    output.json.set("pcell", pcell);
    output.json.set("trials", trials);
    json_value points = json_value::make_array();
    for (unsigned n_fm = 1; n_fm <= max_nfm; ++n_fm) {
      double robust = 0.0;
      double faulty = 0.0;
      for (std::uint64_t t = 0; t < trials; ++t) {
        robust += mses[(n_fm - 1) * trials + t].first;
        faulty += mses[(n_fm - 1) * trials + t].second;
      }
      if (robust == 0.0) {
        throw spec_error("fault.pcell",
                         "no lut-faults trial at Pcell " +
                             format_scientific(pcell, 2) +
                             " read back a wrong word, so the inflation "
                             "ratio is undefined; raise the Pcell");
      }
      robust /= static_cast<double>(trials);
      faulty /= static_cast<double>(trials);
      table.add_row({std::to_string(n_fm), format_scientific(robust, 3),
                     format_scientific(faulty, 3),
                     format_double(faulty / robust, 3) + "x"});
      json_value point = json_value::make_object();
      point.set("nfm", n_fm);
      point.set("mse_robust_lut", robust);
      point.set("mse_faulty_lut", faulty);
      point.set("inflation", faulty / robust);
      points.push_back(std::move(point));
    }
    table.print(out);

    output.json.set("points", std::move(points));
    output.text = out.str();
    return output;
  }

 private:
  /// Monte-Carlo arrays per nFM point.
  static constexpr std::uint64_t trials = 200;
};

}  // namespace

namespace detail {

void register_domain_workloads(workload_registry& registry) {
  registry.add("psnr-image",
               "frame-buffer PSNR across a VDD sweep (Sec. 2 multimedia setting)",
               "repeats=4 vdds=0.8,0.73,0.7,0.66",
               [](const option_map& options) {
                 return std::make_unique<psnr_workload>(options);
               });
  registry.add("ml-quality",
               "one application through every scheme at one operating point",
               "app=knn",
               [](const option_map& options) {
                 return std::make_unique<ml_quality_workload>(options);
               });
  registry.add("bist-march",
               "march-test fault discovery + FM-LUT programming (Sec. 3 step 1)",
               "faults=16 nfm=5 model=false",
               [](const option_map& options) {
                 return std::make_unique<bist_workload>(options);
               });
  registry.add("redundancy-yield",
               "spare-row repair economics across Pcell (Sec. 2 ablation)",
               "runs=400 yield=0.99 pcells=...",
               [](const option_map& options) {
                 return std::make_unique<redundancy_yield_workload>(options);
               });
  registry.add("multifault-policy",
               "min-MSE vs first-fault FM-LUT programming ablation",
               "runs=200000 nmax=400 pcells=... nfms=2,5",
               [](const option_map& options) {
                 return std::make_unique<multifault_policy_workload>(options);
               });
  registry.add("lut-faults",
               "MSE inflation when the FM-LUT bits fail too (LUT robustness)",
               "",
               [](const option_map& /*options*/) {
                 return std::make_unique<lut_faults_workload>();
               });
}

}  // namespace detail

}  // namespace urmem
