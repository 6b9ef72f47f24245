// String-keyed registry of protection-scheme recipes.
//
// Every scheme a scenario can name — the paper's comparison set plus
// the stacked compositions and spare-row redundancy — registers here
// under a stable name. A recipe resolves (name, options, geometry) into
// a per-tile scheme_factory plus the tile-level parameters the factory
// alone cannot express (spare rows). Workloads instantiate schemes
// only through this registry, so adding a new protection technique is
// one registration away from every workload and sweep axis.
//
// Registration is explicit and fails loudly: registering a name twice
// throws, and resolving an unknown name raises a spec_error that lists
// the known names. Built-ins are registered on first use of
// instance().
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "urmem/scenario/options.hpp"
#include "urmem/scenario/scenario_spec.hpp"
#include "urmem/sim/memory_pipeline.hpp"

namespace urmem {

/// Resolved scheme entry: how to build one tile's scheme instance plus
/// the tile-level knobs that ride along.
struct scheme_recipe {
  std::string display_name;   ///< table/report label, e.g. "nFM=2"
  scheme_factory factory;     ///< new instance for a tile of `rows` rows
  std::uint32_t spare_rows = 0;  ///< redundancy spares manufactured per tile
  /// Heterogeneous-reliability region table (tiered recipes only):
  /// ordered row ranges with their own spare pools, to be installed as
  /// protected_memory regions on every tile. Empty = homogeneous.
  std::vector<memory_region> regions;

  /// Total spares a tile of this recipe manufactures (pool or regions).
  [[nodiscard]] std::uint32_t total_spare_rows() const {
    std::uint32_t total = spare_rows;
    for (const memory_region& region : regions) total += region.spare_rows;
    return total;
  }
};

/// Registry of named scheme recipes.
class scheme_registry {
 public:
  /// Builds a recipe from validated options; consumed-key checking and
  /// the display name are handled by the registry.
  using entry_factory =
      std::function<scheme_recipe(const geometry_spec&, const option_map&)>;

  struct entry_info {
    std::string name;
    std::string summary;
    std::string options_help;  ///< e.g. "nfm=1 policy=min-mse"
  };

  /// The process-wide registry (built-ins registered on first call).
  [[nodiscard]] static scheme_registry& instance();

  /// Registers a recipe; throws std::invalid_argument when `name` is
  /// already taken (duplicate registrations are always a bug).
  void add(std::string name, std::string summary, std::string options_help,
           entry_factory factory);

  [[nodiscard]] bool contains(std::string_view name) const;

  /// Resolves a spec entry; throws spec_error (naming the entry's spec
  /// context and listing known names) for unknown schemes, and
  /// spec_error for unknown or out-of-range options.
  [[nodiscard]] scheme_recipe make(const scheme_ref& ref,
                                   const geometry_spec& geometry) const;

  /// All entries, sorted by name (stable for --list-schemes goldens).
  [[nodiscard]] std::vector<entry_info> list() const;

 private:
  scheme_registry() = default;

  struct entry {
    entry_info info;
    entry_factory factory;
  };
  std::vector<entry> entries_;
};

/// Validates the (word width, nFM) pair against bit_shuffler's
/// contract — power-of-two width in [2, 64], nfm in [1, log2(width)] —
/// throwing spec_error blaming `nfm_field` (or geometry.word_bits).
/// Shared by the shuffle registry entries and every workload that
/// builds its own shuffle fixture.
void validate_shuffle_design(const geometry_spec& geometry, unsigned nfm,
                             const std::string& nfm_field);

/// Resolves an ordered, geometry-covering region table into the tiered
/// combinator recipe: every region's scheme resolves through the
/// registry, the factory routes rows to per-tier instances, and the
/// recipe's region table carries each tier's spare pool (region spares
/// plus whatever the tier scheme itself asks for, e.g. a redundancy
/// tier). `context` prefixes diagnostics ("regions" for the spec
/// section, the scheme entry context for the compact `tiered:` form).
/// Nested tiered tiers are rejected.
[[nodiscard]] scheme_recipe make_tiered_recipe(
    const geometry_spec& geometry, const std::vector<region_spec>& regions,
    const std::string& context);

}  // namespace urmem
