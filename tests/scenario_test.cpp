// Tests of the declarative scenario API: registries (duplicate names
// fail loudly, every built-in resolves), scenario_spec JSON round-trips
// with field-naming diagnostics, CLI overrides, sweep-grid expansion,
// and the new scheme-layer machinery (stacked shuffle+ECC, spare-row
// redundancy in protected_memory).
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

#include "urmem/common/json.hpp"
#include "urmem/common/rng.hpp"
#include "urmem/memory/fault_sampler.hpp"
#include "urmem/scenario/scenario_runner.hpp"
#include "urmem/scenario/scheme_registry.hpp"
#include "urmem/scenario/workload_registry.hpp"
#include "urmem/scheme/protected_memory.hpp"
#include "urmem/scheme/stacked_scheme.hpp"

namespace urmem {
namespace {

// ------------------------------------------------------------ registries

TEST(SchemeRegistry, DuplicateRegistrationFailsLoudly) {
  scheme_registry& registry = scheme_registry::instance();
  registry.add("test-dup-scheme", "test", "", [](const geometry_spec& geometry,
                                                 const option_map&) {
    const unsigned width = geometry.word_bits;
    scheme_recipe recipe;
    recipe.display_name = "test";
    recipe.factory = [width](std::uint32_t) { return make_scheme_none(width); };
    return recipe;
  });
  EXPECT_THROW(registry.add("test-dup-scheme", "again", "",
                            [](const geometry_spec&, const option_map&) {
                              return scheme_recipe{};
                            }),
               std::invalid_argument);
}

TEST(WorkloadRegistry, DuplicateRegistrationFailsLoudly) {
  workload_registry& registry = workload_registry::instance();
  const auto factory = [](const option_map&) -> std::unique_ptr<workload> {
    return nullptr;
  };
  registry.add("test-dup-workload", "test", "", factory);
  EXPECT_THROW(registry.add("test-dup-workload", "again", "", factory),
               std::invalid_argument);
}

TEST(SchemeRegistry, EveryBuiltinNameResolves) {
  const geometry_spec geometry;
  for (const auto& info : scheme_registry::instance().list()) {
    if (info.name.starts_with("test-")) continue;
    scheme_ref ref{info.name, option_map("schemes[0]")};
    if (info.name == "tiered") {
      // The combinator has no default tier table; give it a minimal one.
      ref.options.set("0-" + std::to_string(geometry.rows_per_tile - 1),
                      "secded");
    }
    const scheme_recipe recipe =
        scheme_registry::instance().make(ref, geometry);
    EXPECT_FALSE(recipe.display_name.empty()) << info.name;
    ASSERT_TRUE(recipe.factory != nullptr) << info.name;
    const auto scheme = recipe.factory(geometry.rows_per_tile);
    ASSERT_TRUE(scheme != nullptr) << info.name;
    EXPECT_EQ(scheme->data_bits(), geometry.word_bits) << info.name;
  }
}

TEST(WorkloadRegistry, EveryBuiltinNameResolves) {
  for (const auto& info : workload_registry::instance().list()) {
    if (info.name.starts_with("test-")) continue;
    const workload_ref ref{info.name, option_map("workload")};
    EXPECT_TRUE(workload_registry::instance().make(ref) != nullptr)
        << info.name;
  }
}

TEST(SchemeRegistry, UnknownNameListsKnownSchemes) {
  const scheme_ref ref{"no-such-scheme", option_map("schemes[0]")};
  try {
    (void)scheme_registry::instance().make(ref, geometry_spec{});
    FAIL() << "expected spec_error";
  } catch (const spec_error& error) {
    EXPECT_NE(std::string(error.what()).find("unknown scheme"),
              std::string::npos);
    EXPECT_NE(std::string(error.what()).find("shuffle"), std::string::npos);
  }
}

TEST(SchemeRegistry, UnknownOptionNamesTheField) {
  scheme_ref ref{"shuffle", option_map("schemes[2]")};
  ref.options.set("nfmx", "3");
  try {
    (void)scheme_registry::instance().make(ref, geometry_spec{});
    FAIL() << "expected spec_error";
  } catch (const spec_error& error) {
    EXPECT_EQ(error.field(), "schemes[2].nfmx");
  }
}

TEST(SchemeRegistry, OutOfRangeOptionNamesTheField) {
  struct out_of_range_case {
    std::string scheme;
    std::string key;    // option to set ("" = none)
    std::string value;
    unsigned word_bits;
    std::string field;  // the field the diagnostic must blame
  };
  const std::vector<out_of_range_case> cases{
      {"shuffle", "nfm", "9", 32, "schemes[0].nfm"},  // log2(32) = 5 is the max
      // H(71,64) and a 71-column P-ECC row overflow the 64-bit carrier.
      {"secded", "", "", 64, "geometry.word_bits"},
      {"shuffle+secded", "", "", 64, "geometry.word_bits"},
      {"pecc", "", "", 64, "geometry.word_bits"},
      {"shuffle+pecc", "", "", 64, "geometry.word_bits"},
      // 60 + 6 + 1 = 67 columns; protected-bits=4 would fit in 64.
      {"pecc", "protected-bits", "30", 60, "schemes[0].protected-bits"},
  };
  for (const out_of_range_case& c : cases) {
    SCOPED_TRACE(c.scheme + " at W=" + std::to_string(c.word_bits));
    scheme_ref ref{c.scheme, option_map("schemes[0]")};
    if (!c.key.empty()) ref.options.set(c.key, c.value);
    geometry_spec geometry;
    geometry.word_bits = c.word_bits;
    try {
      (void)scheme_registry::instance().make(ref, geometry);
      ADD_FAILURE() << "expected spec_error";
    } catch (const spec_error& error) {
      EXPECT_EQ(error.field(), c.field);
    }
  }
}

TEST(WorkloadRegistry, UnknownWorkloadOptionNamesTheField) {
  workload_ref ref{"fig7-quality", option_map("workload")};
  ref.options.set("samlpes", "3");
  try {
    (void)workload_registry::instance().make(ref);
    FAIL() << "expected spec_error";
  } catch (const spec_error& error) {
    EXPECT_EQ(error.field(), "workload.samlpes");
  }
}

// ---------------------------------------------------- spec JSON round-trip

constexpr const char* kFullSpec = R"json({
  "name": "roundtrip",
  "geometry": {"rows_per_tile": 512, "word_bits": 32, "frac_bits": 16},
  "fault": {"pcell": 1e-3, "polarity": "mixed", "model_seed": 3},
  "seeds": {"root": 11, "app": 5},
  "run": {"threads": 2, "batch": 64},
  "schemes": ["none", {"name": "shuffle", "nfm": 2}, "pecc:protected-bits=16"],
  "workload": {"name": "fig5-mse", "runs": 5000, "nmax": 20},
  "sweep": [{"param": "fault.pcell", "values": [1e-4, 1e-3]}]
})json";

TEST(ScenarioSpec, JsonRoundTripIsStable) {
  const scenario_spec spec = scenario_spec::parse_text(kFullSpec);
  const json_value first = spec.to_json();
  const scenario_spec reparsed = scenario_spec::from_json(first);
  const json_value second = reparsed.to_json();
  EXPECT_EQ(first.dump(), second.dump());
  EXPECT_TRUE(first == second);

  EXPECT_EQ(spec.geometry.rows_per_tile, 512u);
  EXPECT_EQ(spec.fault.polarity, fault_polarity::mixed);
  EXPECT_EQ(spec.schemes.size(), 3u);
  EXPECT_EQ(spec.schemes[1].name, "shuffle");
  EXPECT_EQ(spec.workload.name, "fig5-mse");
  ASSERT_EQ(spec.sweep.size(), 1u);
  EXPECT_EQ(spec.sweep[0].values.size(), 2u);
}

TEST(ScenarioSpec, UnknownKeyNamesTheField) {
  try {
    (void)scenario_spec::parse_text(R"({"fault": {"pcellx": 1e-3}})");
    FAIL() << "expected spec_error";
  } catch (const spec_error& error) {
    EXPECT_EQ(error.field(), "fault.pcellx");
  }
}

TEST(ScenarioSpec, OutOfRangeValueNamesTheField) {
  try {
    (void)scenario_spec::parse_text(R"({"fault": {"pcell": 1.5}})");
    FAIL() << "expected spec_error";
  } catch (const spec_error& error) {
    EXPECT_EQ(error.field(), "fault.pcell");
    EXPECT_NE(std::string(error.what()).find("[0, 1)"), std::string::npos);
  }
}

TEST(ScenarioSpec, BadPolarityNamesTheField) {
  try {
    (void)scenario_spec::parse_text(R"({"fault": {"polarity": "sideways"}})");
    FAIL() << "expected spec_error";
  } catch (const spec_error& error) {
    EXPECT_EQ(error.field(), "fault.polarity");
  }
}

TEST(ScenarioSpec, MissingPcellDiagnosticNamesConsumer) {
  const scenario_spec spec = scenario_spec::parse_text(R"({"name": "x"})");
  try {
    (void)spec.resolved_pcell("fig7-quality");
    FAIL() << "expected spec_error";
  } catch (const spec_error& error) {
    EXPECT_EQ(error.field(), "fault.pcell");
    EXPECT_NE(std::string(error.what()).find("fig7-quality"),
              std::string::npos);
  }
}

TEST(ScenarioSpec, VddDerivesPcellThroughTheCellModel) {
  const scenario_spec spec =
      scenario_spec::parse_text(R"({"fault": {"vdd": 0.73}})");
  const double pcell = spec.resolved_pcell("test");
  EXPECT_NEAR(pcell, 1e-4, 3e-5);  // the model's calibration anchor
}

TEST(ScenarioSpec, CliOverridesLandOnDottedPaths) {
  json_value doc = json_value::make_object();
  apply_spec_override(doc, "workload", "fig5-mse:runs=1000");
  apply_spec_override(doc, "threads", "4");
  apply_spec_override(doc, "seed", "9");
  apply_spec_override(doc, "pcell", "1e-4");
  apply_spec_override(doc, "schemes", "none,shuffle:nfm=2");
  apply_spec_override(doc, "workload.nmax", "12");
  apply_spec_override(doc, "sweep.fault.pcell", "1e-5,1e-4");

  const scenario_spec spec = scenario_spec::from_json(doc);
  EXPECT_EQ(spec.run.threads, 4u);
  EXPECT_EQ(spec.seeds.root, 9u);
  EXPECT_DOUBLE_EQ(spec.fault.pcell.value(), 1e-4);
  ASSERT_EQ(spec.schemes.size(), 2u);
  EXPECT_EQ(spec.schemes[1].name, "shuffle");
  EXPECT_EQ(spec.workload.name, "fig5-mse");
  EXPECT_EQ(spec.workload.options.get_u64("runs", 0), 1000u);
  EXPECT_EQ(spec.workload.options.get_u64("nmax", 0), 12u);
  ASSERT_EQ(spec.sweep.size(), 1u);
  EXPECT_EQ(spec.sweep[0].param, "fault.pcell");
}

// --------------------------------------------- regions (HRM tiers) layer

constexpr const char* kRegionSpec = R"json({
  "name": "tiers",
  "geometry": {"rows_per_tile": 128},
  "fault": {"pcell": 1e-3},
  "schemes": ["secded"],
  "regions": [
    {"rows": "0-31", "scheme": "secded", "spare_rows": 4, "pcell": 1e-4},
    {"rows": "32-127", "scheme": {"name": "shuffle", "nfm": 2}, "vdd": 0.7}
  ],
  "workload": {"name": "hrm-quality", "trials": 1}
})json";

TEST(ScenarioSpec, RegionsRoundTripStably) {
  const scenario_spec spec = scenario_spec::parse_text(kRegionSpec);
  ASSERT_EQ(spec.regions.size(), 2u);
  EXPECT_EQ(spec.regions[0].first_row, 0u);
  EXPECT_EQ(spec.regions[0].last_row, 31u);
  EXPECT_EQ(spec.regions[0].spare_rows, 4u);
  EXPECT_DOUBLE_EQ(spec.regions[0].pcell.value(), 1e-4);
  EXPECT_FALSE(spec.regions[0].vdd.has_value());
  EXPECT_EQ(spec.regions[1].scheme.name, "shuffle");
  EXPECT_DOUBLE_EQ(spec.regions[1].vdd.value(), 0.7);

  const json_value first = spec.to_json();
  const scenario_spec reparsed = scenario_spec::from_json(first);
  EXPECT_EQ(first.dump(), reparsed.to_json().dump());

  // The per-region operating point resolves region-first, spec second.
  EXPECT_DOUBLE_EQ(spec.resolved_region_pcell(spec.regions[0], "t"), 1e-4);
  EXPECT_NEAR(spec.resolved_region_pcell(spec.regions[1], "t"),
              spec.failure_model().pcell(0.7), 1e-12);
}

TEST(ScenarioSpec, RegionTableRejectionsNameTheRegion) {
  const auto expect_field = [](const char* text, std::string_view field) {
    try {
      (void)scenario_spec::parse_text(text);
      FAIL() << "expected spec_error for " << text;
    } catch (const spec_error& error) {
      EXPECT_EQ(error.field(), field) << error.what();
    }
  };
  // Gap between regions.
  expect_field(R"({"geometry": {"rows_per_tile": 64}, "regions": [
      {"rows": "0-15", "scheme": "none"},
      {"rows": "32-63", "scheme": "none"}]})",
               "regions[1].rows");
  // Overlapping / duplicate ranges.
  expect_field(R"({"geometry": {"rows_per_tile": 64}, "regions": [
      {"rows": "0-31", "scheme": "none"},
      {"rows": "16-63", "scheme": "none"}]})",
               "regions[1].rows");
  expect_field(R"({"geometry": {"rows_per_tile": 64}, "regions": [
      {"rows": "0-31", "scheme": "none"},
      {"rows": "0-31", "scheme": "none"}]})",
               "regions[1].rows");
  // Table must cover the whole tile.
  expect_field(R"({"geometry": {"rows_per_tile": 64}, "regions": [
      {"rows": "0-31", "scheme": "none"}]})",
               "regions[0].rows");
  // Range past the tile edge.
  expect_field(R"({"geometry": {"rows_per_tile": 64}, "regions": [
      {"rows": "0-64", "scheme": "none"}]})",
               "regions[0].rows");
  // Missing scheme and unknown members are named too.
  expect_field(R"({"geometry": {"rows_per_tile": 64}, "regions": [
      {"rows": "0-63"}]})",
               "regions[0].scheme");
  expect_field(R"({"geometry": {"rows_per_tile": 64}, "regions": [
      {"rows": "0-63", "scheme": "none", "sparse_rows": 2}]})",
               "regions[0].sparse_rows");
}

TEST(ScenarioSpec, TieredCompactFormResolvesThroughTheRegistry) {
  geometry_spec geometry;
  geometry.rows_per_tile = 64;
  scheme_ref ref{"tiered", option_map("schemes[0]")};
  ref.options.set("0-15", "secded,spare_rows=2");
  ref.options.set("16-63", "shuffle,nfm=2");
  const scheme_recipe recipe = scheme_registry::instance().make(ref, geometry);
  EXPECT_EQ(recipe.display_name, "tiered[0-15:H(39,32) ECC|16-63:nFM=2]");
  ASSERT_EQ(recipe.regions.size(), 2u);
  EXPECT_EQ(recipe.regions[0].spare_rows, 2u);
  EXPECT_EQ(recipe.total_spare_rows(), 2u);

  // Bad tier tables blame the range option of the scheme entry.
  scheme_ref gap{"tiered", option_map("schemes[1]")};
  gap.options.set("0-15", "secded");
  try {
    (void)scheme_registry::instance().make(gap, geometry);
    FAIL() << "expected spec_error";
  } catch (const spec_error& error) {
    EXPECT_EQ(error.field(), "schemes[1].0-15");
  }
}

TEST(ScenarioSpec, RegionCliOverridesBuildAndPatchTheTable) {
  json_value doc = json_value::make_object();
  apply_spec_override(doc, "rows", "128");
  apply_spec_override(doc, "regions",
                      "0-31=secded,spare_rows=4:32-127=shuffle,nfm=2");
  apply_spec_override(doc, "regions.0-31.pcell", "1e-4");
  const scenario_spec spec = scenario_spec::from_json(doc);
  ASSERT_EQ(spec.regions.size(), 2u);
  EXPECT_EQ(spec.regions[0].scheme.name, "secded");
  EXPECT_EQ(spec.regions[0].spare_rows, 4u);
  EXPECT_DOUBLE_EQ(spec.regions[0].pcell.value(), 1e-4);
  EXPECT_EQ(spec.regions[1].scheme.name, "shuffle");
  EXPECT_EQ(spec.regions[1].scheme.options.get_u32("nfm", 0), 2u);

  // regions= with an empty value clears the table again.
  apply_spec_override(doc, "regions", "");
  EXPECT_TRUE(scenario_spec::from_json(doc).regions.empty());
}

TEST(ScenarioSpec, SchemesOverrideKeepsTieredSubOptionsTogether) {
  // The schemes= list splits on commas, but a tiered entry's sub-scheme
  // options use commas too; items whose name token carries '=' re-join
  // the entry they were split from.
  json_value doc = json_value::make_object();
  apply_spec_override(
      doc, "schemes",
      "secded,tiered:0-99=secded,spare_rows=2:100-4095=shuffle,nfm=2");
  const scenario_spec spec = scenario_spec::from_json(doc);
  ASSERT_EQ(spec.schemes.size(), 2u);
  EXPECT_EQ(spec.schemes[0].name, "secded");
  EXPECT_EQ(spec.schemes[1].name, "tiered");
  const scheme_recipe recipe =
      scheme_registry::instance().make(spec.schemes[1], spec.geometry);
  ASSERT_EQ(recipe.regions.size(), 2u);
  EXPECT_EQ(recipe.regions[0].spare_rows, 2u);
  EXPECT_EQ(recipe.display_name, "tiered[0-99:H(39,32) ECC|100-4095:nFM=2]");
}

// ----------------------------------------------- fault operating point

TEST(ScenarioSpec, PcellZeroIsAFaultFreePointNotUnset) {
  // Explicit 0 round-trips as an explicit 0 ...
  const scenario_spec zero =
      scenario_spec::parse_text(R"({"fault": {"pcell": 0}})");
  ASSERT_TRUE(zero.fault.pcell.has_value());
  EXPECT_DOUBLE_EQ(zero.resolved_pcell("test"), 0.0);
  const scenario_spec reparsed = scenario_spec::from_json(zero.to_json());
  ASSERT_TRUE(reparsed.fault.pcell.has_value());
  EXPECT_DOUBLE_EQ(reparsed.resolved_pcell("test"), 0.0);

  // ... and injects exactly zero faults.
  const fault_injector inject = binomial_fault_injector(0.0);
  rng gen(5);
  EXPECT_EQ(inject(array_geometry{256, 32}, gen).fault_count(), 0u);

  // An absent pcell still means unset (and must stay absent on dump).
  const scenario_spec unset = scenario_spec::parse_text(R"({"name": "x"})");
  EXPECT_FALSE(unset.fault.pcell.has_value());
  EXPECT_EQ(unset.to_json().find("fault")->find("pcell"), nullptr);
  EXPECT_THROW((void)unset.resolved_pcell("test"), spec_error);
}

// --------------------------------------------- parse-time sweep checks

TEST(ScenarioSpec, ServeSectionRoundTripsAndValidates) {
  const scenario_spec spec = scenario_spec::parse_text(R"({
    "serve": {"clients": 4, "requests": 9000, "requests_per_epoch": 1000,
              "store_percent": 30, "quality_percent": 10,
              "initial_faults": 12, "arrivals_per_epoch": 3,
              "intermittent_cells": 2}})");
  EXPECT_EQ(spec.serve.clients, 4u);
  EXPECT_EQ(spec.serve.requests, 9000u);
  EXPECT_EQ(spec.serve.requests_per_epoch, 1000u);
  EXPECT_EQ(spec.serve.store_percent, 30u);
  EXPECT_EQ(spec.serve.quality_percent, 10u);
  EXPECT_EQ(spec.serve.initial_faults, 12u);
  const json_value first = spec.to_json();
  EXPECT_NE(first.find("serve"), nullptr);
  const json_value second = scenario_spec::from_json(first).to_json();
  EXPECT_EQ(first.dump(), second.dump());

  // A spec that never mentions serving must not grow a serve section.
  const scenario_spec plain =
      scenario_spec::parse_text(R"({"seeds": {"root": 3}})");
  EXPECT_EQ(plain.to_json().find("serve"), nullptr);
}

TEST(ScenarioSpec, ServeSectionRejectionsNameTheField) {
  try {
    (void)scenario_spec::parse_text(R"({"serve": {"clients": 0}})");
    FAIL() << "expected spec_error";
  } catch (const spec_error& error) {
    EXPECT_EQ(error.field(), "serve.clients");
  }
  try {
    (void)scenario_spec::parse_text(
        R"({"serve": {"store_percent": 70, "quality_percent": 40}})");
    FAIL() << "expected spec_error";
  } catch (const spec_error& error) {
    EXPECT_EQ(error.field(), "serve.store_percent");
  }
  try {
    (void)scenario_spec::parse_text(R"({"serve": {"reqeusts": 10}})");
    FAIL() << "expected spec_error";
  } catch (const spec_error& error) {
    EXPECT_EQ(error.field(), "serve.reqeusts");
  }
}

TEST(ScenarioSpec, SweepPathsValidateAtParseTime) {
  // A misspelled axis path fails from_json (not the first grid point).
  try {
    (void)scenario_spec::parse_text(R"({"workload": "bist-march",
        "sweep": [{"param": "fault.pcellx", "values": [1e-4]}]})");
    FAIL() << "expected spec_error";
  } catch (const spec_error& error) {
    EXPECT_EQ(error.field(), "sweep[0]");
    EXPECT_NE(std::string(error.what()).find("fault.pcellx"),
              std::string::npos);
  }
  // So does an out-of-range axis value.
  try {
    (void)scenario_spec::parse_text(R"({"workload": "bist-march",
        "sweep": [{"param": "fault.pcell", "values": [1e-4, 1.5]}]})");
    FAIL() << "expected spec_error";
  } catch (const spec_error& error) {
    EXPECT_EQ(error.field(), "sweep[0]");
    EXPECT_NE(std::string(error.what()).find("1.5"), std::string::npos);
  }
  // Valid axes still parse.
  const scenario_spec spec = scenario_spec::parse_text(R"({"workload":
      "bist-march", "sweep": [{"param": "fault.pcell",
      "values": [1e-4, 1e-3]}]})");
  EXPECT_EQ(spec.sweep.size(), 1u);
}

// ----------------------------------------------------- sweep-grid runner

TEST(ScenarioRunner, ExpandsSweepGridsInOrder) {
  scenario_spec spec = scenario_spec::parse_text(R"json({
    "name": "grid",
    "geometry": {"rows_per_tile": 64},
    "seeds": {"root": 5},
    "workload": {"name": "bist-march", "faults": 4, "nfm": 3},
    "sweep": [
      {"param": "workload.faults", "values": [2, 4]},
      {"param": "seeds.root", "values": [1, 2]}
    ]
  })json");
  const scenario_runner runner(spec);
  EXPECT_EQ(runner.grid_size(), 4u);

  std::ostringstream text;
  const scenario_report report = runner.run(text);
  ASSERT_EQ(report.points.size(), 4u);
  EXPECT_EQ(report.points[0].label, "workload.faults=2, seeds.root=1");
  EXPECT_EQ(report.points[3].label, "workload.faults=4, seeds.root=2");
  EXPECT_EQ(report.points[0].output.json.find("injected_faults")->as_u64(), 2u);
  EXPECT_EQ(report.points[3].output.json.find("injected_faults")->as_u64(), 4u);
  // The report JSON is deterministic and reparses.
  const json_value doc = report.to_json();
  EXPECT_TRUE(json_value::parse(doc.dump()) == doc);
}

TEST(ScenarioRunner, ValidatesNamesEagerly) {
  scenario_spec spec;
  spec.workload.name = "no-such-workload";
  EXPECT_THROW(scenario_runner{spec}, spec_error);

  scenario_spec bad_scheme = scenario_spec::parse_text(
      R"({"workload": "bist-march", "schemes": ["no-such-scheme"]})");
  EXPECT_THROW(scenario_runner{bad_scheme}, spec_error);
}

// lut-faults prints faulty / robust MSE: a Pcell at which no trial reads
// back a wrong word must blame fault.pcell, not print inf or nan.
TEST(ScenarioRunner, LutFaultsRejectsAPcellThatCorruptsNoRead) {
  for (const std::string pcell : {"0", "1e-9"}) {
    SCOPED_TRACE("pcell=" + pcell);
    const scenario_spec spec = scenario_spec::parse_text(
        R"({"geometry": {"rows_per_tile": 64}, "fault": {"pcell": )" + pcell +
        R"(}, "run": {"threads": 1}, "workload": "lut-faults"})");
    std::ostringstream text;
    try {
      (void)scenario_runner(spec).run(text);
      ADD_FAILURE() << "expected spec_error";
    } catch (const spec_error& error) {
      EXPECT_EQ(error.field(), "fault.pcell");
    }
  }
}

// The two stratified Fig. 5 sweeps blame a field, before any trial runs,
// for a failure-count range beyond the memory (nmax = 2^63 used to run
// forever) and for counts that leave every stratum without a sample
// (which used to trip the sweep's internal invariant).
TEST(ScenarioRunner, MseSweepsNameTheFieldOfAnUnsampleableRange) {
  struct bad_case {
    std::string pcell;     ///< fig5-mse's fault.pcell; "" for the ablation
    std::string workload;  ///< the workload section
    std::string field;
  };
  // 64 x 32 = 2048 cells; at Pcell 1e-3 the likeliest count has
  // Pr ~ 0.27, so one run samples no stratum and two would.
  const std::string nmax_2_63 =
      R"({"name": "fig5-mse", "nmax": 9223372036854775808})";
  const std::string mf = R"({"name": "multifault-policy", )";
  const std::vector<bad_case> cases = {
      {"1e-3", R"({"name": "fig5-mse", "nmax": 2049})", "workload.nmax"},
      {"1e-3", nmax_2_63, "workload.nmax"},
      {"1e-3", R"({"name": "fig5-mse", "runs": 1})", "workload.runs"},
      {"1e-300", R"({"name": "fig5-mse", "runs": 1000})", "fault.pcell"},
      {"", mf + R"("nmax": 2049})", "workload.nmax"},
      {"", mf + R"("nmax": 0})", "workload.nmax"},
      {"", mf + R"("runs": 1, "pcells": "1e-3"})", "workload.runs"},
      {"", mf + R"("pcells": "1e-300"})", "workload.pcells"},
      {"", mf + R"("pcells": "0"})", "workload.pcells"},
  };
  for (const bad_case& c : cases) {
    SCOPED_TRACE(c.workload + " pcell=" + c.pcell);
    std::string text = R"({"geometry": {"rows_per_tile": 64}, )";
    text += R"("run": {"threads": 1}, "workload": )" + c.workload;
    if (!c.pcell.empty()) {
      text += R"(, "schemes": ["none"], "fault": {"pcell": )" + c.pcell + "}";
    }
    try {
      const scenario_spec spec = scenario_spec::parse_text(text + "}");
      std::ostringstream out;
      (void)scenario_runner(spec).run(out);
      ADD_FAILURE() << "expected spec_error";
    } catch (const spec_error& error) {
      EXPECT_EQ(error.field(), c.field) << error.what();
    }
  }
}

// hrm-quality's exact mode draws the regions' summed counts into each
// baseline tile. An overfull draw used to be clamped silently to the
// tile's cells; it must blame workload.exact_faults, naming the
// baseline, before any trial runs. hrm_smoke's regions hold 2652 and
// 7488 cells (256-row tiles at the 39-bit SECDED width), so their full
// counts fit the tiered tile but not a 256 x 39 SECDED or a 256 x 32
// nFM=2 baseline.
TEST(ScenarioRunner, HrmExactFaultsBeyondABaselineTileNameTheBaseline) {
  const auto spec_with = [](const std::string& schemes,
                            const std::string& counts) {
    return scenario_spec::parse_text(
        R"({"geometry": {"rows_per_tile": 256}, "run": {"threads": 1},
            "schemes": [)" + schemes + R"(],
            "regions": [
              {"rows": "0-63", "scheme": "secded", "spare_rows": 4},
              {"rows": "64-255", "scheme": "shuffle:nfm=2"}],
            "workload": {"name": "hrm-quality", "trials": 1,
                         "exact_faults": ")" + counts + R"("}})");
  };
  struct bad_case {
    std::string schemes;
    std::string counts;
    std::string baseline;
  };
  const std::vector<bad_case> cases = {
      {R"("secded", "shuffle:nfm=2")", "2652,7488", "H(39,32) ECC"},
      {R"("shuffle:nfm=2")", "2652,7488", "nFM=2"},
      {R"("shuffle:nfm=2")", "1000,7193", "nFM=2"},
  };
  for (const bad_case& c : cases) {
    SCOPED_TRACE(c.schemes + " exact_faults=" + c.counts);
    try {
      std::ostringstream out;
      (void)scenario_runner(spec_with(c.schemes, c.counts)).run(out);
      ADD_FAILURE() << "expected spec_error";
    } catch (const spec_error& error) {
      EXPECT_EQ(error.field(), "workload.exact_faults");
      EXPECT_NE(std::string(error.what()).find("baseline " + c.baseline),
                std::string::npos)
          << error.what();
    }
  }
  // 8192 faults fill a 256 x 32 baseline tile exactly: no error.
  std::ostringstream out;
  EXPECT_NO_THROW(
      (void)scenario_runner(spec_with(R"("shuffle:nfm=2")", "1000,7192"))
          .run(out));
}

// Every spec under scenarios/ parses, and each one that names a workload
// resolves its schemes and workload eagerly (no trial runs), so a spec
// nothing else loads cannot rot unnoticed.
TEST(ScenarioRunner, EveryCheckedInSpecValidates) {
  std::vector<std::filesystem::path> specs;
  for (const auto& entry :
       std::filesystem::directory_iterator(URMEM_SCENARIO_DIR)) {
    if (entry.path().extension() == ".json") specs.push_back(entry.path());
  }
  std::sort(specs.begin(), specs.end());
  ASSERT_GE(specs.size(), 12u);
  for (const auto& path : specs) {
    SCOPED_TRACE(path.string());
    std::ifstream in(path);
    std::ostringstream text;
    text << in.rdbuf();
    try {
      const scenario_spec spec = scenario_spec::parse_text(text.str());
      if (!spec.workload.name.empty()) (void)scenario_runner(spec);
    } catch (const std::exception& error) {
      ADD_FAILURE() << error.what();
    }
  }
}

// ----------------------------------------------- stacked shuffle+ECC scheme

TEST(StackedScheme, RoundTripsAndCorrectsSingleFaults) {
  const std::uint32_t rows = 64;
  const auto scheme = make_scheme_stacked(rows, 32, 2,
                                          stacked_scheme::ecc_stage::secded);
  EXPECT_EQ(scheme->data_bits(), 32u);
  EXPECT_EQ(scheme->storage_bits(), 39u);
  EXPECT_EQ(scheme->lut_bits_per_row(), 2u);
  EXPECT_EQ(scheme->name(), "nFM=2+H(39,32) ECC");

  protected_memory memory(rows, make_scheme_stacked(
                                    rows, 32, 2,
                                    stacked_scheme::ecc_stage::secded));
  rng gen(7);
  const fault_map faults = sample_fault_map_exact(memory.storage_geometry(),
                                                  rows / 2, gen);
  memory.set_fault_map(faults);
  for (std::uint32_t row = 0; row < rows; ++row) {
    const word_t value = 0x9000'0000u + row * 2654435761u;
    memory.write(row, value & word_mask(32));
    const read_result r = memory.read(row);
    // With at most one fault per row the ECC stage corrects everything.
    if (faults.faults_in_row(row).size() <= 1) {
      EXPECT_EQ(r.data, value & word_mask(32)) << "row " << row;
    }
  }
}

TEST(StackedScheme, BlockPathsMatchReference) {
  const std::uint32_t rows = 128;
  const auto scheme = make_scheme_stacked(rows, 32, 3,
                                          stacked_scheme::ecc_stage::pecc);
  rng gen(21);
  fault_map faults(array_geometry{rows, scheme->storage_bits()});
  for (int i = 0; i < 40; ++i) {
    faults.add({static_cast<std::uint32_t>(gen.uniform_below(rows)),
                static_cast<std::uint32_t>(
                    gen.uniform_below(scheme->storage_bits())),
                fault_kind::flip});
  }
  scheme->configure(faults);

  std::vector<word_t> data(rows);
  for (auto& word : data) word = gen() & word_mask(32);

  std::vector<word_t> block(rows);
  scheme->encode_block(0, data, block);
  for (std::uint32_t row = 0; row < rows; ++row) {
    EXPECT_EQ(block[row], scheme->encode_reference(row, data[row])) << row;
  }

  std::vector<word_t> decoded(block);
  const block_decode_stats stats = scheme->decode_block(0, decoded, decoded);
  block_decode_stats reference_stats;
  for (std::uint32_t row = 0; row < rows; ++row) {
    const read_result r = scheme->decode_reference(row, block[row]);
    EXPECT_EQ(decoded[row], r.data) << row;
    EXPECT_EQ(decoded[row], data[row]) << row;  // fault-free storage here
    reference_stats.count(r.status);
  }
  EXPECT_EQ(stats.corrected, reference_stats.corrected);
  EXPECT_EQ(stats.uncorrectable, reference_stats.uncorrectable);
}

// ------------------------------------------------- spare-row redundancy

TEST(ProtectedMemory, SpareRowsRepairFaultyRows) {
  const std::uint32_t rows = 32;
  const std::uint32_t spares = 4;
  protected_memory memory(rows, make_scheme_none(), spares);
  EXPECT_EQ(memory.rows(), rows);
  EXPECT_EQ(memory.storage_geometry().rows, rows + spares);

  // Three faulty data rows, MSB flips that no pass-through read survives.
  fault_map faults(memory.storage_geometry());
  faults.add({3, 31, fault_kind::flip});
  faults.add({9, 31, fault_kind::flip});
  faults.add({20, 31, fault_kind::flip});
  memory.set_fault_map(faults);
  ASSERT_EQ(memory.row_remaps().size(), 3u);

  std::vector<word_t> data(rows);
  for (std::uint32_t row = 0; row < rows; ++row) data[row] = 0x1234'0000u + row;
  memory.write_block(0, data);
  std::vector<word_t> readback(rows);
  memory.read_block(0, readback);
  for (std::uint32_t row = 0; row < rows; ++row) {
    EXPECT_EQ(readback[row], data[row]) << "row " << row;
    EXPECT_EQ(memory.read(row).data, data[row]) << "row " << row;
  }
  // Every repaired row sits on a spare beyond the data rows.
  for (const auto& [logical, spare] : memory.row_remaps()) {
    EXPECT_LT(logical, rows);
    EXPECT_GE(spare, rows);
  }
  EXPECT_EQ(memory.analytic_mse(), 0.0);  // all faults repaired away
}

TEST(ProtectedMemory, ExhaustedSparesLeaveResidualFaults) {
  const std::uint32_t rows = 16;
  protected_memory memory(rows, make_scheme_none(), /*spare_rows=*/1);
  fault_map faults(memory.storage_geometry());
  faults.add({0, 31, fault_kind::flip});
  faults.add({1, 31, fault_kind::flip});
  memory.set_fault_map(faults);
  ASSERT_EQ(memory.row_remaps().size(), 1u);  // one spare, one repair

  memory.write(0, 0);
  memory.write(1, 0);
  const bool row0_clean = memory.read(0).data == 0;
  const bool row1_clean = memory.read(1).data == 0;
  EXPECT_TRUE(row0_clean != row1_clean);  // exactly one row still faulty
  EXPECT_GT(memory.analytic_mse(), 0.0);
}

TEST(MemoryPipeline, RedundancySchemeRecipePlumbsSpares) {
  // The registry's "redundancy" recipe must improve on "none" under the
  // exact same fault stream when spares cover the faulty rows.
  const geometry_spec geometry{64, 32, 16};
  scheme_ref redundancy_ref{"redundancy", option_map("schemes[0]")};
  redundancy_ref.options.set("spares", "16");
  const scheme_recipe redundancy =
      scheme_registry::instance().make(redundancy_ref, geometry);
  EXPECT_EQ(redundancy.spare_rows, 16u);
  EXPECT_EQ(redundancy.display_name, "spare-rows(16)");
}

// --------------------------------------------------- named seed streams

TEST(SeedPolicy, NamedStreamsAreStableAndDistinct) {
  static_assert(stream_tag("quality.baseline") != stream_tag("bist.faults"));
  rng a = named_stream_rng(42, "quality.baseline");
  rng b = named_stream_rng(42, "quality.baseline");
  rng c = named_stream_rng(42, "bist.faults");
  const std::uint64_t first = a();
  EXPECT_EQ(first, b());
  EXPECT_NE(first, c());
  // Named streams coincide with the generic stream-seed policy.
  rng d = make_stream_rng(42, stream_tag("quality.baseline"));
  EXPECT_EQ(a(), (d(), d()));
}

}  // namespace
}  // namespace urmem
