// String-keyed registry of experiment workloads.
//
// A workload turns one resolved scenario point into results: it
// instantiates the spec's schemes through the scheme_registry, runs its
// experiment on the shared campaign pool, and returns both a
// human-readable text report (what `urmem-run` prints to stdout) and a
// deterministic JSON aggregate that scenario reports and CI goldens
// consume.
//
// Built-ins: `urmem-run --list-workloads` (golden: workloads.txt).
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "urmem/common/json.hpp"
#include "urmem/scenario/scheme_registry.hpp"
#include "urmem/sim/campaign_runner.hpp"

namespace urmem {

/// One workload run's results.
struct workload_output {
  std::string text;      ///< human report: the stdout body
  json_value json;       ///< deterministic aggregates (golden-diffable)
  std::uint64_t trials = 0;  ///< campaign trials executed
};

/// Lazily-spawned campaign pool: workloads that never map a trial
/// (bist-march, redundancy-yield, fig5-mse --analytic, ...) cost no
/// thread start-up. The scenario runner keeps one pool alive across
/// grid points while its parameters are unchanged.
class campaign_pool {
 public:
  explicit campaign_pool(campaign_config config) : config_(config) {}

  [[nodiscard]] const campaign_config& config() const noexcept {
    return config_;
  }

  /// The pool, spawned on first use (prints the "campaign threads"
  /// scheduling diagnostic to stderr exactly once, on spawn).
  [[nodiscard]] campaign_runner& runner();

 private:
  campaign_config config_;
  std::optional<campaign_runner> runner_;
};

/// One experiment kind, constructed with its (validated) options.
class workload {
 public:
  virtual ~workload() = default;

  /// Runs the experiment described by `spec`; campaign trials go on
  /// `pool.runner()` (seeded with spec.seeds.root by the scenario
  /// runner). Must be deterministic for a fixed spec at any thread
  /// count.
  [[nodiscard]] virtual workload_output run(const scenario_spec& spec,
                                            campaign_pool& pool) const = 0;
};

/// Registry of named workloads.
class workload_registry {
 public:
  using entry_factory =
      std::function<std::unique_ptr<workload>(const option_map&)>;

  struct entry_info {
    std::string name;
    std::string summary;
    std::string options_help;
  };

  /// The process-wide registry (built-ins registered on first call).
  [[nodiscard]] static workload_registry& instance();

  /// Registers a workload; throws std::invalid_argument on duplicates.
  void add(std::string name, std::string summary, std::string options_help,
           entry_factory factory);

  [[nodiscard]] bool contains(std::string_view name) const;

  /// Resolves the spec's workload entry; throws spec_error listing the
  /// known names when unknown, and for unknown/out-of-range options.
  [[nodiscard]] std::unique_ptr<workload> make(const workload_ref& ref) const;

  /// All entries, sorted by name (stable for --list-workloads goldens).
  [[nodiscard]] std::vector<entry_info> list() const;

 private:
  workload_registry() = default;

  struct entry {
    entry_info info;
    entry_factory factory;
  };
  std::vector<entry> entries_;
};

/// Resolves every scheme entry of `spec` through the scheme registry.
/// When the spec carries a `regions` section, the tiered recipe it
/// defines is appended as one extra comparison entry, so every
/// scheme-driven workload sees the heterogeneous design next to its
/// uniform baselines.
[[nodiscard]] std::vector<scheme_recipe> resolve_schemes(
    const scenario_spec& spec);

/// The tiered recipe of the spec's `regions` section alone (regions
/// must be non-empty) — what resolve_schemes appends.
[[nodiscard]] scheme_recipe resolve_region_recipe(const scenario_spec& spec);

/// Like resolve_schemes, but rejects recipes a pure word-transform
/// workload cannot serve (spare-row redundancy, region spare pools),
/// blaming the scheme entry and naming `workload_name` in the
/// diagnostic.
[[nodiscard]] std::vector<scheme_recipe> resolve_word_transform_schemes(
    const scenario_spec& spec, std::string_view workload_name);

/// Throws spec_error("schemes") / spec_error("regions") when the spec
/// names schemes (or reliability regions) that `workload_name` (a
/// fixture-building workload) would silently ignore.
void reject_schemes(const scenario_spec& spec, std::string_view workload_name);

/// Throws spec_error naming regions[i].pcell/vdd when any region
/// carries a fault operating-point override `workload_name` cannot
/// honor (stratified exact-N injectors, external voltage sweeps).
void reject_region_operating_points(const scenario_spec& spec,
                                    std::string_view workload_name);

/// Region table a lifecycle or serving tile of `recipe` is
/// manufactured with: the recipe's own regions (tiered entries) or one
/// homogeneous region over spec.geometry.rows_per_tile rows, with the
/// spec's `retire.spare_rows` runtime pool added to region
/// `retire.reliable_region` (a spec_error naming that field when the
/// tile has no such region).
[[nodiscard]] std::vector<memory_region> lifecycle_tile_regions(
    const scenario_spec& spec, const scheme_recipe& recipe);

namespace detail {
/// Built-in registration hooks (explicit calls, so static-library
/// linking cannot drop them).
void register_figure_workloads(workload_registry& registry);
void register_domain_workloads(workload_registry& registry);
void register_hrm_workloads(workload_registry& registry);
void register_lifecycle_workloads(workload_registry& registry);
}  // namespace detail

}  // namespace urmem
