#include "urmem/scenario/scheme_registry.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "urmem/scheme/protection_scheme.hpp"
#include "urmem/scheme/stacked_scheme.hpp"
#include "urmem/scheme/tiered_scheme.hpp"
#include "urmem/shuffle/shift_policy.hpp"

namespace urmem {

namespace {

shift_policy parse_policy(const option_map& options) {
  const std::string name = options.get_string("policy", "min-mse");
  if (name == "min-mse") return shift_policy::min_mse;
  if (name == "first-fault") return shift_policy::first_fault;
  throw spec_error(options.field_name("policy"),
                   "unknown shift policy \"" + name +
                       "\" (valid: min-mse, first-fault)");
}

unsigned parse_nfm(const option_map& options, const geometry_spec& geometry) {
  const unsigned nfm = options.get_u32("nfm", 1);
  validate_shuffle_design(geometry, nfm, options.field_name("nfm"));
  return nfm;
}

/// "nFM=k", with the non-default policy spelled out so two entries
/// differing only in policy stay distinguishable in tables and JSON.
std::string shuffle_label(unsigned nfm, shift_policy policy) {
  std::string label = "nFM=" + std::to_string(nfm);
  if (policy == shift_policy::first_fault) label += " (first-fault)";
  return label;
}

unsigned parse_protected_bits(const option_map& options,
                              const geometry_spec& geometry) {
  const unsigned width = geometry.word_bits;
  const unsigned protected_bits =
      options.get_u32("protected-bits", width / 2);
  if (protected_bits < 1 || protected_bits >= width) {
    throw spec_error(options.field_name("protected-bits"),
                     "must be in [1, " + std::to_string(width - 1) +
                         "], got " + std::to_string(protected_bits));
  }
  // The row is narrowest with one protected bit, so blame the width
  // when even that overflows, else the protected bits.
  const unsigned storage =
      priority_ecc::storage_bits_for(width, protected_bits);
  if (storage > max_word_width) {
    throw spec_error(priority_ecc::storage_bits_for(width, 1) > max_word_width
                         ? "geometry.word_bits"
                         : options.field_name("protected-bits"),
                     "P-ECC storage row of " + std::to_string(storage) +
                         " columns exceeds the 64-bit carrier");
  }
  return protected_bits;
}

void validate_secded_width(const geometry_spec& geometry) {
  if (geometry.word_bits > hamming_secded::max_data_bits) {
    throw spec_error("geometry.word_bits",
                     "SECDED codeword exceeds the 64-bit carrier at " +
                         std::to_string(geometry.word_bits) +
                         " data bits (at most " +
                         std::to_string(hamming_secded::max_data_bits) + ")");
  }
}

/// Display label = the instance's own name() (what the paper tables
/// use). Only cheap word-transform schemes go through here; recipes
/// whose instances carry per-row state (shuffle, stacked) compute their
/// label without building a throwaway rows-sized LUT.
scheme_recipe labelled(scheme_factory factory, std::uint32_t spare_rows = 0) {
  scheme_recipe recipe;
  // Row count is irrelevant to the name; 1 keeps the probe instance tiny.
  recipe.display_name = factory(1)->name();
  recipe.factory = std::move(factory);
  recipe.spare_rows = spare_rows;
  return recipe;
}

void register_builtin_schemes(scheme_registry& registry) {
  registry.add(
      "none", "unprotected pass-through storage (the paper's baseline)", "",
      [](const geometry_spec& geometry, const option_map&) {
        const unsigned width = geometry.word_bits;
        return labelled(
            [width](std::uint32_t) { return make_scheme_none(width); });
      });

  registry.add(
      "secded", "whole-word SECDED Hamming ECC — H(39,32) at 32 bits", "",
      [](const geometry_spec& geometry, const option_map&) {
        validate_secded_width(geometry);
        const unsigned width = geometry.word_bits;
        return labelled(
            [width](std::uint32_t) { return make_scheme_secded(width); });
      });

  registry.add(
      "hsiao",
      "whole-word Hsiao SEC-DED ECC (balanced odd-weight columns) — "
      "Hsiao(39,32) at 32 bits",
      "k=0 (auto-sized check bits)",
      [](const geometry_spec& geometry, const option_map& options) {
        const unsigned width = geometry.word_bits;
        const unsigned min_k = hsiao_code::min_check_bits(width);
        const unsigned k = options.get_u32("k", 0);
        if (k != 0 && (k < min_k || k > hsiao_code::max_check_bits)) {
          throw spec_error(options.field_name("k"),
                           "must be 0 (auto) or in [" + std::to_string(min_k) +
                               ", " + std::to_string(hsiao_code::max_check_bits) +
                               "] for " + std::to_string(width) +
                               "-bit words, got " + std::to_string(k));
        }
        if (width + (k == 0 ? min_k : k) > max_word_width) {
          throw spec_error("geometry.word_bits",
                           "hsiao codeword exceeds the 64-bit carrier at " +
                               std::to_string(width) + " data bits");
        }
        // One immutable codec (and its LUTs) serves every instance the
        // recipe builds: per-trial construction stays allocation-cheap.
        const auto code = std::make_shared<const hsiao_code>(width, k);
        return labelled(
            [code](std::uint32_t) { return std::make_unique<hsiao_scheme>(code); });
      });

  registry.add(
      "bch",
      "whole-word t-error-correcting BCH ECC, parity-extended — "
      "BCH(45,32,t=2) at 32 bits",
      "t=2",
      [](const geometry_spec& geometry, const option_map& options) {
        const unsigned width = geometry.word_bits;
        const unsigned t = options.get_u32("t", 2);
        if (t < 1 || t > bch_code::max_t) {
          throw spec_error(options.field_name("t"),
                           "must be in [1, " + std::to_string(bch_code::max_t) +
                               "], got " + std::to_string(t));
        }
        if (!bch_design_for(width, t).has_value()) {
          throw spec_error(options.field_name("t"),
                           "no BCH codeword fits the 64-bit carrier at " +
                               std::to_string(width) + " data bits with t=" +
                               std::to_string(t) +
                               " (t=2 supports up to 51, t=3 up to 45)");
        }
        // The dense correction table can run to megabytes: build it once
        // and share it immutably across every instance.
        const auto code = std::make_shared<const bch_code>(width, t);
        return labelled(
            [code](std::uint32_t) { return std::make_unique<bch_scheme>(code); });
      });

  registry.add(
      "pecc",
      "priority ECC over the MSB half — H(22,16) at 32 bits (Sec. 2 baseline)",
      "protected-bits=16",
      [](const geometry_spec& geometry, const option_map& options) {
        const unsigned width = geometry.word_bits;
        const unsigned protected_bits = parse_protected_bits(options, geometry);
        return labelled([width, protected_bits](std::uint32_t) {
          return make_scheme_pecc(width, protected_bits);
        });
      });

  registry.add(
      "shuffle",
      "the paper's significance-driven bit-shuffling (Sec. 3)",
      "nfm=1 policy=min-mse",
      [](const geometry_spec& geometry, const option_map& options) {
        const unsigned width = geometry.word_bits;
        const unsigned nfm = parse_nfm(options, geometry);
        const shift_policy policy = parse_policy(options);
        scheme_recipe recipe;
        recipe.display_name = shuffle_label(nfm, policy);
        recipe.factory = [width, nfm, policy](std::uint32_t rows) {
          return make_scheme_shuffle(rows, width, nfm, policy);
        };
        return recipe;
      });

  registry.add(
      "shuffle+secded",
      "stacked: bit-shuffle the word, then SECDED-encode it",
      "nfm=1 policy=min-mse",
      [](const geometry_spec& geometry, const option_map& options) {
        const unsigned width = geometry.word_bits;
        const unsigned nfm = parse_nfm(options, geometry);
        const shift_policy policy = parse_policy(options);
        validate_secded_width(geometry);
        scheme_recipe recipe;
        recipe.display_name =
            shuffle_label(nfm, policy) + "+" + secded_scheme(width).name();
        recipe.factory = [width, nfm, policy](std::uint32_t rows) {
          return make_scheme_stacked(rows, width, nfm,
                                     stacked_scheme::ecc_stage::secded, policy);
        };
        return recipe;
      });

  registry.add(
      "shuffle+pecc",
      "stacked: bit-shuffle the word, then priority-ECC-encode it",
      "nfm=1 policy=min-mse protected-bits=16",
      [](const geometry_spec& geometry, const option_map& options) {
        const unsigned width = geometry.word_bits;
        const unsigned nfm = parse_nfm(options, geometry);
        const shift_policy policy = parse_policy(options);
        const unsigned protected_bits = parse_protected_bits(options, geometry);
        scheme_recipe recipe;
        recipe.display_name = shuffle_label(nfm, policy) + "+" +
                              pecc_scheme(width, protected_bits).name();
        recipe.factory = [width, nfm, policy, protected_bits](std::uint32_t rows) {
          return make_scheme_stacked(rows, width, nfm,
                                     stacked_scheme::ecc_stage::pecc, policy,
                                     protected_bits);
        };
        return recipe;
      });

  registry.add(
      "tiered",
      "heterogeneous-reliability tiers: one scheme per row range (HRM)",
      "<first>-<last>=<scheme>[,opt=v...][,spare_rows=k] per range",
      [](const geometry_spec& geometry, const option_map& options) {
        // Every option key is a row range; its value is the tier's
        // scheme in comma-compact form, e.g.
        //   tiered:0-1023=secded,spare_rows=8:1024-4095=shuffle,nfm=2
        std::vector<region_spec> regions;
        std::vector<std::string> range_keys;  // original keys, for blame
        for (const auto& [key, raw] : options.entries()) {
          const std::string field = options.field_name(key);
          range_keys.push_back(key);
          region_spec region;
          const auto range = parse_row_range(field, key);
          region.first_row = range.first;
          region.last_row = range.second;
          const compact_region_value tokens =
              parse_compact_region_value(field, options.get_string(key, ""));
          if (tokens.pcell.has_value() || tokens.vdd.has_value()) {
            // A scheme recipe has no fault model to honor them with;
            // accepting-and-ignoring would be silently dead config.
            throw spec_error(field,
                             "per-region operating points (pcell/vdd) live in "
                             "the spec's regions section, not the tiered "
                             "scheme form");
          }
          region.spare_rows = tokens.spare_rows.value_or(0);
          region.scheme = parse_compact_scheme(tokens.scheme, field);
          regions.push_back(std::move(region));
        }
        if (regions.empty()) {
          throw spec_error(
              options.context().empty() ? "schemes" : options.context(),
              "tiered needs at least one <first>-<last>=<scheme> tier");
        }
        const std::string context =
            options.context().empty() ? "schemes" : options.context();
        // Pre-check here so the blame lands on the user's own option
        // key (make_tiered_recipe would name a synthesized index).
        if (const auto issue =
                find_region_table_issue(regions, geometry.rows_per_tile)) {
          throw spec_error(options.field_name(range_keys[issue->index]),
                           issue->message);
        }
        return make_tiered_recipe(geometry, regions, context);
      });

  registry.add(
      "redundancy",
      "classical spare-row repair (Sec. 2's dismissed alternative)",
      "spares=16",
      [](const geometry_spec& geometry, const option_map& options) {
        const std::uint32_t spares = options.get_u32("spares", 16);
        if (spares < 1 || spares > geometry.rows_per_tile) {
          throw spec_error(
              options.field_name("spares"),
              "must be in [1, rows_per_tile], got " + std::to_string(spares));
        }
        const unsigned width = geometry.word_bits;
        scheme_recipe recipe;
        recipe.display_name = "spare-rows(" + std::to_string(spares) + ")";
        recipe.factory = [width](std::uint32_t) {
          return make_scheme_none(width);
        };
        recipe.spare_rows = spares;
        return recipe;
      });
}

}  // namespace

void validate_shuffle_design(const geometry_spec& geometry, unsigned nfm,
                             const std::string& nfm_field) {
  // bit_shuffler enforces a power-of-two width and nfm in
  // [1, log2(width)]; pre-check both so the diagnostic names a spec
  // field instead of tripping a contract mid-run.
  if (geometry.word_bits < 2 ||
      (geometry.word_bits & (geometry.word_bits - 1)) != 0) {
    throw spec_error("geometry.word_bits",
                     "shuffle-based designs need a power-of-two word width "
                     "in [2, 64], got " +
                         std::to_string(geometry.word_bits));
  }
  unsigned log2_width = 0;
  while ((2u << log2_width) <= geometry.word_bits) ++log2_width;
  if (nfm < 1 || nfm > log2_width) {
    throw spec_error(nfm_field, "must be in [1, " + std::to_string(log2_width) +
                                    "] for " +
                                    std::to_string(geometry.word_bits) +
                                    "-bit words, got " + std::to_string(nfm));
  }
}

scheme_recipe make_tiered_recipe(const geometry_spec& geometry,
                                 const std::vector<region_spec>& regions,
                                 const std::string& context) {
  if (const auto issue = find_region_table_issue(regions, geometry.rows_per_tile)) {
    throw spec_error(context + "[" + std::to_string(issue->index) + "]." +
                         issue->member,
                     issue->message);
  }
  struct tier_plan {
    std::uint32_t first_row;
    std::uint32_t last_row;
    scheme_factory factory;
  };
  std::vector<tier_plan> plan;
  plan.reserve(regions.size());
  scheme_recipe recipe;
  recipe.display_name = "tiered[";
  unsigned storage_bits = 0;
  for (std::size_t i = 0; i < regions.size(); ++i) {
    const region_spec& region = regions[i];
    const std::string field = context + "[" + std::to_string(i) + "].scheme";
    if (region.scheme.name == "tiered") {
      throw spec_error(field, "tiers cannot nest another tiered scheme");
    }
    scheme_recipe sub =
        scheme_registry::instance().make(region.scheme, geometry);
    if (!sub.regions.empty()) {
      throw spec_error(field, "tier scheme '" + region.scheme.name +
                                  "' carries its own region table");
    }
    // The tier's storage width is row-count independent; a 1-row probe
    // avoids building a rows-sized LUT just to size the array.
    const unsigned tier_bits = sub.factory(1)->storage_bits();
    storage_bits = std::max(storage_bits, tier_bits);
    if (i != 0) recipe.display_name += "|";
    recipe.display_name += region.range_label() + ":" + sub.display_name;
    // The tier keeps its own pool: region spares plus whatever the tier
    // scheme itself manufactures (a redundancy tier's `spares`). The
    // tier's own storage width rides along so repair and reporting can
    // ignore faults in a wider sibling's surplus columns.
    recipe.regions.push_back(memory_region{region.first_row, region.last_row,
                                           region.spare_rows + sub.spare_rows,
                                           tier_bits});
    plan.push_back(tier_plan{region.first_row, region.last_row,
                             std::move(sub.factory)});
  }
  recipe.display_name += "]";
  recipe.factory = [plan = std::move(plan),
                    storage_bits](std::uint32_t rows) {
    // Probe instances may ask for fewer rows than the tiered design
    // covers (display/width probes): clamp tiers to [0, rows) and pin
    // the storage width to the full design's via the hint.
    std::vector<tiered_scheme::tier> tiers;
    for (const tier_plan& t : plan) {
      if (t.first_row >= rows) break;
      const std::uint32_t last = std::min(t.last_row, rows - 1);
      tiers.push_back(tiered_scheme::tier{
          t.first_row, last, t.factory(last - t.first_row + 1)});
    }
    return std::make_unique<tiered_scheme>(std::move(tiers), storage_bits);
  };
  return recipe;
}

scheme_registry& scheme_registry::instance() {
  static scheme_registry registry = [] {
    scheme_registry r;
    register_builtin_schemes(r);
    return r;
  }();
  return registry;
}

void scheme_registry::add(std::string name, std::string summary,
                          std::string options_help, entry_factory factory) {
  if (contains(name)) {
    throw std::invalid_argument("scheme registry: name '" + name +
                                "' is already registered");
  }
  entries_.push_back(
      {{std::move(name), std::move(summary), std::move(options_help)},
       std::move(factory)});
}

bool scheme_registry::contains(std::string_view name) const {
  return std::any_of(entries_.begin(), entries_.end(), [&](const entry& e) {
    return e.info.name == name;
  });
}

scheme_recipe scheme_registry::make(const scheme_ref& ref,
                                    const geometry_spec& geometry) const {
  for (const entry& e : entries_) {
    if (e.info.name != ref.name) continue;
    scheme_recipe recipe = e.factory(geometry, ref.options);
    ref.options.check_consumed();
    return recipe;
  }
  std::string known;
  for (const entry_info& info : list()) {
    if (!known.empty()) known += ", ";
    known += info.name;
  }
  const std::string context =
      ref.options.context().empty() ? "schemes" : ref.options.context();
  throw spec_error(context,
                   "unknown scheme '" + ref.name + "' (known: " + known + ")");
}

std::vector<scheme_registry::entry_info> scheme_registry::list() const {
  std::vector<entry_info> infos;
  infos.reserve(entries_.size());
  for (const entry& e : entries_) infos.push_back(e.info);
  std::sort(infos.begin(), infos.end(),
            [](const entry_info& a, const entry_info& b) { return a.name < b.name; });
  return infos;
}

}  // namespace urmem
