#include "urmem/scenario/workload_registry.hpp"

#include <algorithm>
#include <cmath>
#include <iostream>
#include <stdexcept>
#include <utility>

#include "urmem/common/binomial.hpp"
#include "urmem/common/table.hpp"

namespace urmem {

campaign_runner& campaign_pool::runner() {
  if (!runner_.has_value()) {
    runner_.emplace(config_);
    // Scheduling diagnostics go to stderr: stdout stays byte-identical
    // across thread counts.
    std::cerr << "campaign threads = " << runner_->threads() << "\n";
  }
  return *runner_;
}

workload_registry& workload_registry::instance() {
  static workload_registry registry = [] {
    workload_registry r;
    detail::register_figure_workloads(r);
    detail::register_domain_workloads(r);
    detail::register_hrm_workloads(r);
    detail::register_lifecycle_workloads(r);
    return r;
  }();
  return registry;
}

void workload_registry::add(std::string name, std::string summary,
                            std::string options_help, entry_factory factory) {
  if (contains(name)) {
    throw std::invalid_argument("workload registry: name '" + name +
                                "' is already registered");
  }
  entries_.push_back(
      {{std::move(name), std::move(summary), std::move(options_help)},
       std::move(factory)});
}

bool workload_registry::contains(std::string_view name) const {
  return std::any_of(entries_.begin(), entries_.end(), [&](const entry& e) {
    return e.info.name == name;
  });
}

std::unique_ptr<workload> workload_registry::make(const workload_ref& ref) const {
  if (ref.name.empty()) {
    throw spec_error("workload", "scenario needs a workload (set workload=<name>)");
  }
  for (const entry& e : entries_) {
    if (e.info.name != ref.name) continue;
    std::unique_ptr<workload> instance = e.factory(ref.options);
    ref.options.check_consumed();
    return instance;
  }
  std::string known;
  for (const entry_info& info : list()) {
    if (!known.empty()) known += ", ";
    known += info.name;
  }
  throw spec_error("workload", "unknown workload '" + ref.name +
                                   "' (known: " + known + ")");
}

std::vector<workload_registry::entry_info> workload_registry::list() const {
  std::vector<entry_info> infos;
  infos.reserve(entries_.size());
  for (const entry& e : entries_) infos.push_back(e.info);
  std::sort(infos.begin(), infos.end(),
            [](const entry_info& a, const entry_info& b) { return a.name < b.name; });
  return infos;
}

std::vector<scheme_recipe> resolve_schemes(const scenario_spec& spec) {
  std::vector<scheme_recipe> recipes;
  recipes.reserve(spec.schemes.size() + (spec.regions.empty() ? 0 : 1));
  for (const scheme_ref& ref : spec.schemes) {
    recipes.push_back(scheme_registry::instance().make(ref, spec.geometry));
  }
  if (!spec.regions.empty()) {
    recipes.push_back(resolve_region_recipe(spec));
  }
  return recipes;
}

scheme_recipe resolve_region_recipe(const scenario_spec& spec) {
  if (spec.regions.empty()) {
    throw spec_error("regions", "this scenario needs a regions section");
  }
  return make_tiered_recipe(spec.geometry, spec.regions, "regions");
}

void reject_schemes(const scenario_spec& spec, std::string_view workload_name) {
  if (!spec.schemes.empty()) {
    throw spec_error("schemes",
                     "the '" + std::string(workload_name) +
                         "' workload does not use protection schemes; "
                         "remove the schemes list");
  }
  if (!spec.regions.empty()) {
    throw spec_error("regions",
                     "the '" + std::string(workload_name) +
                         "' workload does not use protection schemes; "
                         "remove the regions section");
  }
}

void reject_region_operating_points(const scenario_spec& spec,
                                    std::string_view workload_name) {
  for (std::size_t i = 0; i < spec.regions.size(); ++i) {
    const region_spec& region = spec.regions[i];
    if (!region.pcell.has_value() && !region.vdd.has_value()) continue;
    throw spec_error(
        "regions[" + std::to_string(i) + "]." +
            (region.pcell.has_value() ? "pcell" : "vdd"),
        "the '" + std::string(workload_name) +
            "' workload injects at one operating point and cannot honor "
            "per-region overrides (hrm-quality and ml-quality can)");
  }
}

void check_mse_nmax(const scenario_spec& spec, std::uint64_t n_max) {
  const std::uint64_t cells = static_cast<std::uint64_t>(
                                  spec.geometry.rows_per_tile) *
                              spec.geometry.word_bits;
  if (n_max > cells) {
    throw spec_error("workload.nmax",
                     "must be at most rows_per_tile x word_bits = " +
                         std::to_string(cells) +
                         ", the memory's cell count");
  }
}

void check_mse_strata(const array_geometry& storage, double pcell,
                      const mse_cdf_config& config,
                      std::string_view pcell_field) {
  if (!mse_strata(storage, pcell, config).empty()) return;
  const binomial_distribution dist(storage.cells(), pcell);
  double likeliest = 0.0;
  for (std::uint64_t n = config.n_min; n <= config.n_max; ++n) {
    likeliest = std::max(likeliest, dist.pmf(n));
  }
  // A stratum gets samples once llround(Pr(N = n) * runs) >= 1.
  const double needed = std::ceil(0.5 / likeliest);
  if (likeliest > 0.0 && needed < 0x1p64) {
    throw spec_error("workload.runs",
                     "no failure count in " + std::to_string(config.n_min) +
                         ".." + std::to_string(config.n_max) +
                         " gets a sample; the likeliest needs runs >= " +
                         format_scientific(needed, 2));
  }
  throw spec_error(std::string(pcell_field),
                   "Pcell " + format_scientific(pcell, 2) +
                       " leaves failure counts " +
                       std::to_string(config.n_min) + ".." +
                       std::to_string(config.n_max) +
                       " too unlikely for any runs count to sample");
}

std::vector<memory_region> lifecycle_tile_regions(const scenario_spec& spec,
                                                  const scheme_recipe& recipe) {
  std::vector<memory_region> regions = recipe.regions;
  if (regions.empty()) {
    regions.push_back(
        {0, spec.geometry.rows_per_tile - 1, recipe.spare_rows, 0});
  }
  if (spec.retire.reliable_region >= regions.size()) {
    throw spec_error("retire.reliable_region",
                     "tile has only " + std::to_string(regions.size()) +
                         " region(s)");
  }
  regions[spec.retire.reliable_region].spare_rows += spec.retire.spare_rows;
  return regions;
}

std::vector<scheme_recipe> resolve_word_transform_schemes(
    const scenario_spec& spec, std::string_view workload_name) {
  std::vector<scheme_recipe> recipes = resolve_schemes(spec);
  for (std::size_t i = 0; i < recipes.size(); ++i) {
    if (recipes[i].total_spare_rows() != 0) {
      const std::string context = i < spec.schemes.size()
                                      ? "schemes[" + std::to_string(i) + "]"
                                      : "regions";
      const std::string name =
          i < spec.schemes.size() ? spec.schemes[i].name : "tiered";
      throw spec_error(
          context,
          "scheme '" + name + "' needs spare rows, which the '" +
              std::string(workload_name) +
              "' workload cannot model (it evaluates per-row word transforms)");
    }
  }
  return recipes;
}

}  // namespace urmem
