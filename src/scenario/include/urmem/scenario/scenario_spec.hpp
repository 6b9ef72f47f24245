// The declarative scenario API (tentpole of the experiment stack).
//
// A scenario_spec is a plain-struct description of one experiment
// family: memory geometry, fault model operating point, seed policy,
// the protection schemes to compare (by registry name + options), the
// workload to run them through (by registry name + options), sweep
// axes, and run parameters. Specs round-trip through JSON
// (to_json/from_json) with diagnostics that name the offending field
// for unknown keys and out-of-range values, and accept dotted
// `key=value` CLI overrides — the `urmem-run` driver is just "build a
// spec, hand it to scenario_runner".
//
// JSON schema (all sections optional; defaults shown):
//
//   {
//     "name": "scenario",
//     "geometry": {"rows_per_tile": 4096, "word_bits": 32, "frac_bits": 16},
//     "fault":    {"pcell": 1e-3, "vdd": 0.73, "polarity": "flip",
//                  "vcrit_mean": 0.0, "vcrit_sigma": 0.0, "model_seed": 1,
//                  "age_hours": 0},
//     "seeds":    {"root": 42, "app": 7},
//     "run":      {"threads": 0, "batch": 0},
//     "scrub":    {"interval": 0, "rows_per_pass": 0,
//                  "retire_correctable": true},
//     "retire":   {"policy": "mark", "max_retries": 1, "spare_rows": 0,
//                  "reliable_region": 0},
//     "serve":    {"clients": 1, "requests": 4096, "requests_per_epoch": 0,
//                  "store_percent": 20, "quality_percent": 5,
//                  "initial_faults": 0, "arrivals_per_epoch": 0,
//                  "intermittent_cells": 0},
//     "schemes":  ["none", {"name": "shuffle", "nfm": 1}, "shuffle:nfm=2"],
//     "regions":  [{"rows": "0-1023", "scheme": "secded", "spare_rows": 8},
//                  {"rows": "1024-4095", "scheme": "shuffle:nfm=2",
//                   "pcell": 1e-3}],
//     "workload": {"name": "fig7-quality", "samples": 10},
//     "sweep":    [{"param": "fault.pcell", "values": [1e-4, 1e-3]}]
//   }
//
// Scheme/workload entries take either the object form ({"name": ...,
// <options>...}) or the compact string form "name:key=value:key=value"
// that the CLI uses. `fault.pcell`/`fault.vdd` are absent-by-default:
// an explicit `"pcell": 0` means "inject zero faults", not "unset".
// The optional `regions` section carves the tile into an ordered,
// gap-free list of row ranges, each with its own scheme recipe,
// optional spare-row pool, and optional fault operating-point override
// (heterogeneous-reliability tiers); it resolves into one extra
// `tiered` scheme entry appended to the comparison set.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "urmem/common/json.hpp"
#include "urmem/lifecycle/lifecycle_manager.hpp"
#include "urmem/lifecycle/scrubber.hpp"
#include "urmem/memory/cell_failure_model.hpp"
#include "urmem/memory/fault_sampler.hpp"
#include "urmem/scenario/options.hpp"
#include "urmem/sim/memory_pipeline.hpp"

namespace urmem {

/// Tile geometry and fixed-point format of the unreliable store.
struct geometry_spec {
  std::uint32_t rows_per_tile = 4096;  ///< 16 KB of 32-bit words
  unsigned word_bits = 32;
  unsigned frac_bits = 16;  ///< Q15.16

  /// Short human label, "16KB" for the default tile.
  [[nodiscard]] std::string size_label() const;
};

/// Fault-model operating point. Exactly one of pcell/vdd is usually
/// set; vdd derives Pcell through the critical-voltage model. Presence
/// is explicit (nullopt = unset), so `pcell: 0` is a legitimate
/// fault-free operating point rather than a sentinel.
struct fault_spec {
  std::optional<double> pcell;  ///< cell failure probability in [0, 1)
  std::optional<double> vdd;    ///< supply in (0, 2] V (used when pcell unset)
  fault_polarity polarity = fault_polarity::flip;
  double vcrit_mean = 0.0;   ///< 0 = cell model default
  double vcrit_sigma = 0.0;  ///< 0 = cell model default
  std::uint64_t model_seed = 1;
  /// Hours of BTI-like stress: failure_model() ages every cell by
  /// bti_vcrit_shift(age_hours) volts, so vdd-derived fault maps grow
  /// monotonically (supersets) along an age sweep. 0 = fresh part.
  double age_hours = 0.0;
};

/// Background-scrub section (`scrub`): cadence and budget of the
/// lifecycle workloads' patrol scrubber. Mirrors scrub_config; the
/// section is omitted from to_json when left at its defaults.
struct scrub_spec {
  std::uint32_t interval = 0;       ///< epochs between passes; 0 = off
  std::uint32_t rows_per_pass = 0;  ///< rows walked per pass; 0 = whole tile
  bool retire_correctable = true;   ///< CE-threshold proactive retirement

  [[nodiscard]] scrub_config config() const {
    return scrub_config{interval, rows_per_pass, retire_correctable};
  }

  friend constexpr bool operator==(const scrub_spec&,
                                   const scrub_spec&) = default;
};

/// Row-retirement section (`retire`): the degradation policy the
/// lifecycle workloads run when detection outruns the spare pools.
/// `spare_rows` adds a lifecycle pool on top of whatever the scheme
/// recipe or region table already provisions (sweepable to reproduce
/// pool-exhaustion curves). Omitted from to_json at its defaults.
struct retire_spec {
  degrade_policy policy = degrade_policy::mark;
  std::uint32_t max_retries = 1;     ///< raw read retries per UE row
  std::uint32_t spare_rows = 0;      ///< extra runtime-retirement pool
  std::uint32_t reliable_region = 0; ///< donor region of the remap policy

  [[nodiscard]] retire_config config() const {
    return retire_config{policy, max_retries, reliable_region};
  }

  friend constexpr bool operator==(const retire_spec&,
                                   const retire_spec&) = default;
};

/// Serving-mode section (`serve`): request mix and epoch pacing of the
/// urmem-serve tier. Requests are indexed globally 0..requests-1 and
/// request i belongs to lifecycle epoch i / requests_per_epoch, so the
/// request set — and every integer counter derived from it — is a pure
/// function of the spec, independent of how many client threads
/// execute it. The section is omitted from to_json at its defaults, so
/// specs that never mention serving round-trip unchanged.
struct serve_spec {
  std::uint32_t clients = 1;             ///< default driver thread count
  std::uint64_t requests = 4096;         ///< closed-loop request budget
  std::uint64_t requests_per_epoch = 0;  ///< 0 = one epoch, no aging
  std::uint32_t store_percent = 20;      ///< % of requests that store
  std::uint32_t quality_percent = 5;     ///< % that run a quality query
  std::uint64_t initial_faults = 0;      ///< exact manufactured fault count
  std::uint32_t arrivals_per_epoch = 0;  ///< persistent faults per epoch
  std::uint32_t intermittent_cells = 0;  ///< timeline intermittent pool

  friend constexpr bool operator==(const serve_spec&,
                                   const serve_spec&) = default;
};

/// Seed policy: `root` seeds the campaign pool (trial i always runs on
/// make_stream_rng(root, i)) and every auxiliary named stream; `app`
/// seeds dataset synthesis so workload data is stable under root-seed
/// sweeps.
struct seed_spec {
  std::uint64_t root = 42;
  std::uint64_t app = 7;
};

/// Campaign scheduling parameters.
struct run_spec {
  unsigned threads = 0;     ///< 0 = all hardware threads
  std::uint64_t batch = 0;  ///< 0 = auto
};

/// One protection scheme by registry name, with its options.
struct scheme_ref {
  std::string name;
  option_map options;
};

/// The workload by registry name, with its options.
struct workload_ref {
  std::string name;
  option_map options;
};

/// One sweep axis: the dotted spec path it overrides and the values it
/// takes. Axes expand into their cartesian product, first axis
/// outermost.
struct sweep_axis {
  std::string param;               ///< e.g. "fault.pcell", "workload.samples"
  std::vector<json_value> values;  ///< scalar per grid step
};

/// One heterogeneous-reliability tier: an inclusive row range of the
/// tile, the scheme protecting it, its own spare-row pool, and an
/// optional fault operating-point override.
struct region_spec {
  std::uint32_t first_row = 0;
  std::uint32_t last_row = 0;  ///< inclusive
  scheme_ref scheme;
  std::uint32_t spare_rows = 0;  ///< region-private redundancy pool
  std::optional<double> pcell;   ///< region operating point (else spec fault)
  std::optional<double> vdd;

  [[nodiscard]] std::uint32_t rows() const { return last_row - first_row + 1; }
  /// "a-b" label used in diagnostics, compact forms and display names.
  [[nodiscard]] std::string range_label() const;
};

/// Parses a compact "a-b" (or single "a") inclusive row range; throws
/// spec_error blaming `field` on malformed or descending ranges.
[[nodiscard]] std::pair<std::uint32_t, std::uint32_t> parse_row_range(
    std::string_view field, std::string_view text);

/// Parses the compact "name:key=value:key=value" scheme form into a
/// scheme_ref whose option diagnostics are prefixed with `context` —
/// the same syntax the schemes list and CLI overrides use, exposed for
/// combinators (tiered) that nest scheme entries inside option values.
[[nodiscard]] scheme_ref parse_compact_scheme(std::string_view text,
                                              const std::string& context);

/// One compact region value ("secded,nfm=2,spare_rows=4,pcell=1e-4")
/// split into its scheme compact form and the reserved, range-checked
/// region keys — the single grammar behind the `regions=` CLI override
/// and the `tiered:` scheme form.
struct compact_region_value {
  std::string scheme;  ///< re-joined "name:key=value" compact form
  std::optional<std::uint32_t> spare_rows;
  std::optional<double> pcell;
  std::optional<double> vdd;
};

/// Parses a compact region value; throws spec_error blaming `field` on
/// a missing scheme name or an out-of-range reserved key.
[[nodiscard]] compact_region_value parse_compact_region_value(
    std::string_view field, std::string_view text);

/// Structural problem of a region table (index of the offending region,
/// the member to blame, a message), for callers to wrap in their own
/// field naming.
struct region_table_issue {
  std::size_t index = 0;
  std::string member;  ///< "rows" or "spare_rows"
  std::string message;
};

/// Checks that `regions` is ordered and tiles [0, rows_per_tile)
/// exactly — no duplicates, overlaps or gaps — and that each region's
/// spare pool is sane; nullopt when valid.
[[nodiscard]] std::optional<region_table_issue> find_region_table_issue(
    const std::vector<region_spec>& regions, std::uint32_t rows_per_tile);

/// Declarative description of one experiment family.
struct scenario_spec {
  std::string name = "scenario";
  geometry_spec geometry;
  fault_spec fault;
  seed_spec seeds;
  run_spec run;
  scrub_spec scrub;
  retire_spec retire;
  serve_spec serve;
  std::vector<scheme_ref> schemes;
  std::vector<region_spec> regions;  ///< empty = homogeneous tile
  workload_ref workload;
  std::vector<sweep_axis> sweep;

  /// Parses a spec document; throws spec_error naming the offending
  /// field on unknown keys and out-of-range values. Sweep axes are
  /// validated here too: every axis value is applied to the base spec
  /// and reparsed, so a bad `sweep[i].param` path (or an out-of-range
  /// axis value) fails at parse time instead of mid-grid.
  [[nodiscard]] static scenario_spec from_json(const json_value& doc);

  /// Parses JSON text (convenience over json_value::parse + from_json).
  /// Callers that need to apply CLI overrides first (urmem-run) parse
  /// the json_value themselves and call from_json after overriding.
  [[nodiscard]] static scenario_spec parse_text(std::string_view text);

  /// Normalized JSON form; from_json(to_json()) is the identity.
  [[nodiscard]] json_value to_json() const;

  /// Stable 16-hex-digit hash of the normalized JSON form (sweep
  /// included) — the identity that ties checkpoint files to the exact
  /// spec they were computed under. Specs that normalize identically
  /// hash identically; any semantic change (seed, geometry, scheme
  /// option, sweep value, thread count) produces a different hash.
  [[nodiscard]] std::string canonical_hash() const;

  /// Critical-voltage cell model at this spec's calibration, aged by
  /// fault.age_hours of BTI-like stress when that is non-zero.
  [[nodiscard]] cell_failure_model failure_model() const;

  /// Cell failure probability: fault.pcell (0 is a valid, fault-free
  /// point), or derived from fault.vdd; throws spec_error("fault.pcell")
  /// naming `consumer` when neither is set.
  [[nodiscard]] double resolved_pcell(std::string_view consumer) const;

  /// Region operating point: the region's own pcell/vdd override when
  /// present, else the spec-level point via resolved_pcell.
  [[nodiscard]] double resolved_region_pcell(const region_spec& region,
                                             std::string_view consumer) const;

  /// storage_config matching the geometry (plus optional spare rows).
  [[nodiscard]] storage_config storage(std::uint32_t spare_rows = 0) const;
};

/// Applies one dotted `key=value` CLI override onto a spec JSON
/// document. Top-level aliases: seed -> seeds.root, threads ->
/// run.threads, batch -> run.batch, pcell -> fault.pcell, vdd ->
/// fault.vdd, polarity -> fault.polarity, workload -> the workload
/// entry (compact form), schemes -> the scheme list (comma-separated
/// compact forms). `sweep.<path>=v1,v2,...` replaces-or-appends the
/// axis for `<path>`. Region overrides: `regions=<range>=<scheme,
/// opts...>:<range>=...` replaces the whole region list (reserved
/// per-region keys: spare_rows, pcell, vdd; everything else configures
/// the region's scheme), and `regions.<range>.<key>=value` merges one
/// field into the region whose rows equal `<range>`.
void apply_spec_override(json_value& doc, std::string_view key,
                         std::string_view value);

}  // namespace urmem
