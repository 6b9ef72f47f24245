// Tests for the fault-lifecycle subsystem: the deterministic fault
// timeline, the background scrubber, the row-retirement policies of
// the lifecycle manager, the scrub/retire spec sections, and the
// determinism contracts (thread count, compiled-vs-reference) of the
// lifecycle-quality workload.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <vector>

#include "urmem/lifecycle/fault_timeline.hpp"
#include "urmem/lifecycle/lifecycle_manager.hpp"
#include "urmem/lifecycle/scrubber.hpp"
#include "urmem/memory/fault_plane.hpp"
#include "urmem/memory/fault_sampler.hpp"
#include "urmem/scenario/scenario_runner.hpp"
#include "urmem/scenario/scenario_spec.hpp"
#include "urmem/scheme/protected_memory.hpp"
#include "urmem/scheme/protection_scheme.hpp"

namespace urmem {
namespace {

// ------------------------------------------------------ fault timeline

TEST(FaultTimelineTest, ArrivalsAreExactAndPersistent) {
  timeline_config config;
  config.arrivals_per_epoch = 3;
  config.seed = 99;
  fault_timeline timeline(fault_map({32, 16}), config);
  EXPECT_EQ(timeline.epoch(), 0u);
  EXPECT_EQ(timeline.persistent_faults(), 0u);
  for (std::uint32_t epoch = 1; epoch <= 5; ++epoch) {
    EXPECT_EQ(timeline.advance(), 3u);
    EXPECT_EQ(timeline.epoch(), epoch);
    EXPECT_EQ(timeline.persistent_faults(), 3u * epoch);
    // No intermittents: the installed map IS the persistent population.
    EXPECT_EQ(timeline.current().fault_count(), 3u * epoch);
  }
}

TEST(FaultTimelineTest, ManufacturedFaultsSeedTheTimeline) {
  fault_map initial({16, 8});
  initial.add({4, 2, fault_kind::stuck_at_one});
  initial.add({9, 7, fault_kind::flip});
  fault_timeline timeline(std::move(initial), timeline_config{});
  EXPECT_EQ(timeline.persistent_faults(), 2u);
  EXPECT_TRUE(timeline.current().row_has_faults(4));
  EXPECT_TRUE(timeline.current().row_has_faults(9));
  const timeline_fault_set exported = timeline.export_faults();
  for (const timeline_fault& record : exported.faults) {
    EXPECT_EQ(record.birth_epoch, 0u);
    EXPECT_FALSE(record.intermittent);
  }
}

TEST(FaultTimelineTest, IntermittentsFlipAcrossEpochs) {
  timeline_config config;
  config.intermittent_cells = 6;
  config.polarity = fault_polarity::flip;
  config.seed = 7;
  fault_timeline timeline(fault_map({32, 16}), config);
  EXPECT_EQ(timeline.persistent_faults(), 0u);

  std::uint64_t min_active = 6;
  std::uint64_t max_active = 0;
  for (int epoch = 0; epoch < 12; ++epoch) {
    const std::uint64_t active = timeline.current().fault_count();
    EXPECT_LE(active, 6u);  // only the drawn intermittents can appear
    min_active = std::min(min_active, active);
    max_active = std::max(max_active, active);
    timeline.advance();
  }
  // Across 12 epochs the active subset must actually vary; a constant
  // count would mean the activity hash ignores the epoch.
  EXPECT_LT(min_active, max_active);
}

TEST(FaultTimelineTest, CorruptReadAttemptZeroMatchesInstalledMap) {
  timeline_config config;
  config.arrivals_per_epoch = 4;
  config.intermittent_cells = 5;
  config.polarity = fault_polarity::mixed;
  config.seed = 21;
  fault_timeline timeline(fault_map({24, 16}), config);
  for (int epoch = 0; epoch < 4; ++epoch) {
    for (std::uint32_t row = 0; row < 24; ++row) {
      for (const word_t stored : {word_t{0}, word_t{0xA5C3}, word_t{0xFFFF}}) {
        EXPECT_EQ(timeline.corrupt_read(row, stored, 0),
                  timeline.current().corrupt(row, stored))
            << "epoch " << epoch << " row " << row;
      }
    }
    timeline.advance();
  }
}

TEST(FaultTimelineTest, CurrentMapIsThePersistentPlusActiveIntermittents) {
  // Oracle: the sorting constructor over the exported population, with
  // each intermittent kept when an attempt-0 read shows it active (a
  // stuck-at cell reads against the bit probed for it; persistent and
  // intermittent cells are disjoint, so no other fault touches that
  // bit).
  fault_map initial({40, 16});
  initial.add({3, 5, fault_kind::stuck_at_one});
  initial.add({17, 0, fault_kind::stuck_at_zero});
  initial.add({39, 15, fault_kind::stuck_at_one});
  timeline_config config;
  config.arrivals_per_epoch = 7;
  config.intermittent_cells = 24;
  config.polarity = fault_polarity::random_stuck;
  config.seed = 8;
  fault_timeline timeline(std::move(initial), config);
  std::uint64_t active = 0;
  std::uint64_t quiescent = 0;
  for (int k = 0; k <= 12; ++k) {
    std::vector<fault> oracle;
    for (const timeline_fault& record : timeline.export_faults().faults) {
      if (record.intermittent) {
        const word_t bit = word_t{1} << record.f.col;
        const word_t probe =
            record.f.kind == fault_kind::stuck_at_zero ? bit : word_t{0};
        const word_t read = timeline.corrupt_read(record.f.row, probe, 0);
        if (((read ^ probe) & bit) == 0) {
          ++quiescent;
          continue;
        }
        ++active;
      }
      oracle.push_back(record.f);
    }
    std::reverse(oracle.begin(), oracle.end());  // make the constructor sort
    const fault_map expected(timeline.geometry(), std::move(oracle));
    EXPECT_TRUE(std::ranges::equal(timeline.current().all_faults(),
                                   expected.all_faults()))
        << "after " << k << " advances";
    timeline.advance();
  }
  EXPECT_GT(active, 0u);
  EXPECT_GT(quiescent, 0u);
}

TEST(FaultTimelineTest, RetriesRerollOnlyIntermittents) {
  timeline_config config;
  config.intermittent_cells = 4;
  config.polarity = fault_polarity::flip;
  config.seed = 17;
  fault_map initial({16, 8});
  initial.add({1, 3, fault_kind::flip});  // persistent
  fault_timeline timeline(std::move(initial), config);

  // Partition rows: those hosting any intermittent cell re-roll between
  // attempts; purely persistent rows must corrupt identically forever.
  std::vector<bool> has_intermittent(16, false);
  for (const timeline_fault& record : timeline.export_faults().faults) {
    if (record.intermittent) has_intermittent[record.f.row] = true;
  }

  bool intermittent_varied = false;
  for (std::uint32_t row = 0; row < 16; ++row) {
    const word_t first = timeline.corrupt_read(row, 0, 0);
    bool varied = false;
    for (std::uint32_t attempt = 1; attempt < 16; ++attempt) {
      varied = varied || timeline.corrupt_read(row, 0, attempt) != first;
    }
    if (!has_intermittent[row]) {
      EXPECT_FALSE(varied) << "persistent-only row " << row
                           << " changed across retries";
    } else {
      intermittent_varied = intermittent_varied || varied;
    }
  }
  // The persistent flip always shows, whatever the intermittents do.
  EXPECT_EQ(timeline.corrupt_read(1, 0, 0) & (word_t{1} << 3), word_t{1} << 3);
  // At least one intermittent cell must toggle across 16 retries.
  EXPECT_TRUE(intermittent_varied);
}

TEST(FaultTimelineTest, ExportRestoreRoundTrip) {
  timeline_config config;
  config.arrivals_per_epoch = 5;
  config.intermittent_cells = 3;
  config.polarity = fault_polarity::mixed;
  config.seed = 33;
  fault_timeline timeline(fault_map({32, 16}), config);
  timeline.advance();
  timeline.advance();
  timeline.advance();

  const timeline_fault_set exported = timeline.export_faults();
  // The exported set also survives the v2 text format.
  std::stringstream buffer;
  write_timeline_faults(buffer, exported);
  const timeline_fault_set reloaded = read_timeline_faults(buffer);

  const fault_timeline restored = fault_timeline::restore(reloaded, config);
  EXPECT_EQ(restored.epoch(), timeline.epoch());
  EXPECT_EQ(restored.persistent_faults(), timeline.persistent_faults());
  EXPECT_EQ(restored.current().fault_count(), timeline.current().fault_count());
  for (std::uint32_t row = 0; row < 32; ++row) {
    for (std::uint32_t attempt = 0; attempt < 4; ++attempt) {
      EXPECT_EQ(restored.corrupt_read(row, 0xF0F0, attempt),
                timeline.corrupt_read(row, 0xF0F0, attempt))
          << "row " << row << " attempt " << attempt;
    }
  }
}

// ------------------------------------------------------------ scrubber

TEST(ScrubberTest, ClassifiesAndRewritesRows) {
  protected_memory memory(8, make_scheme_secded());
  for (std::uint32_t row = 0; row < 8; ++row) memory.write(row, 0x1000u + row);

  fault_map faults(memory.storage_geometry());
  faults.add({2, 4, fault_kind::flip});  // single bit: correctable
  faults.add({5, 1, fault_kind::flip});  // double bit: detected-UE
  faults.add({5, 9, fault_kind::flip});
  memory.update_fault_map(std::move(faults));

  scrubber scrub(scrub_config{1, 0, true});
  EXPECT_TRUE(scrub.due(0));
  EXPECT_TRUE(scrub.due(3));
  std::vector<scrub_finding> findings;
  const scrub_pass_stats stats = scrub.pass(memory, findings);
  EXPECT_EQ(stats.rows_scanned, 8u);
  EXPECT_EQ(stats.clean_rows, 6u);
  EXPECT_EQ(stats.corrected_rewrites, 1u);
  EXPECT_EQ(stats.uncorrectable_rows, 1u);
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_EQ(findings[0].row, 2u);
  EXPECT_TRUE(findings[0].correctable);
  EXPECT_EQ(findings[0].result.data, 0x1002u);
  EXPECT_EQ(findings[1].row, 5u);
  EXPECT_FALSE(findings[1].correctable);
  // The rewrite preserved row 2's data through decode -> re-encode.
  EXPECT_EQ(memory.read(2).data, 0x1002u);
}

TEST(ScrubberTest, RowBudgetWrapsAcrossPasses) {
  protected_memory memory(8, make_scheme_secded());
  for (std::uint32_t row = 0; row < 8; ++row) memory.write(row, row);
  fault_map faults(memory.storage_geometry());
  faults.add({7, 0, fault_kind::flip});
  memory.update_fault_map(std::move(faults));

  scrubber scrub(scrub_config{1, 3, true});
  std::vector<scrub_finding> findings;
  // Pass 1 covers rows 0-2, pass 2 rows 3-5: nothing flagged yet.
  EXPECT_EQ(scrub.pass(memory, findings).rows_scanned, 3u);
  EXPECT_EQ(scrub.pass(memory, findings).rows_scanned, 3u);
  EXPECT_TRUE(findings.empty());
  // Pass 3 wraps: rows 6, 7, 0 — row 7's fault is finally seen.
  const scrub_pass_stats stats = scrub.pass(memory, findings);
  EXPECT_EQ(stats.rows_scanned, 3u);
  EXPECT_EQ(stats.corrected_rewrites, 1u);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].row, 7u);
}

TEST(ScrubberTest, IntervalZeroNeverRuns) {
  const scrubber scrub{scrub_config{0, 0, true}};
  for (std::uint32_t epoch = 0; epoch < 10; ++epoch) {
    EXPECT_FALSE(scrub.due(epoch));
  }
}

// --------------------------------------------------- lifecycle manager

timeline_config quiet_timeline() {
  timeline_config config;
  config.seed = 5;
  return config;
}

TEST(LifecycleManagerTest, ProactiveCERetirementPreservesData) {
  protected_memory memory(8, make_scheme_secded(), 2);
  for (std::uint32_t row = 0; row < 8; ++row) memory.write(row, 0x2000u + row);

  fault_map initial(memory.storage_geometry());
  initial.add({2, 4, fault_kind::flip});
  lifecycle_manager manager(memory,
                            fault_timeline(std::move(initial), quiet_timeline()),
                            scrub_config{1, 0, true}, retire_config{});
  EXPECT_TRUE(manager.step());

  const lifecycle_counters& counters = manager.counters();
  EXPECT_EQ(counters.epochs, 1u);
  EXPECT_EQ(counters.scrub_passes, 1u);
  EXPECT_EQ(counters.rows_scrubbed, 8u);
  EXPECT_EQ(counters.corrected_rewrites, 1u);
  EXPECT_EQ(counters.ce_retirements, 1u);
  EXPECT_EQ(counters.ue_detected, 0u);
  // The row now lives on a clean spare with its data intact.
  EXPECT_GE(memory.physical_row_of(2), 8u);
  const read_result after = memory.read(2);
  EXPECT_EQ(after.status, ecc_status::clean);
  EXPECT_EQ(after.data, 0x2002u);
  EXPECT_EQ(memory.unused_spares(0), 1u);
}

TEST(LifecycleManagerTest, CEThresholdPolicyCanBeDisabled) {
  protected_memory memory(8, make_scheme_secded(), 2);
  for (std::uint32_t row = 0; row < 8; ++row) memory.write(row, row);
  fault_map initial(memory.storage_geometry());
  initial.add({2, 4, fault_kind::flip});
  lifecycle_manager manager(memory,
                            fault_timeline(std::move(initial), quiet_timeline()),
                            scrub_config{1, 0, false}, retire_config{});
  EXPECT_TRUE(manager.step());
  // Rewritten in place, but no spare was spent.
  EXPECT_EQ(manager.counters().corrected_rewrites, 1u);
  EXPECT_EQ(manager.counters().ce_retirements, 0u);
  EXPECT_EQ(memory.unused_spares(0), 2u);
}

TEST(LifecycleManagerTest, HardUERetiresAfterFailedRetries) {
  protected_memory memory(8, make_scheme_secded(), 2);
  for (std::uint32_t row = 0; row < 8; ++row) memory.write(row, row);
  fault_map initial(memory.storage_geometry());
  initial.add({3, 0, fault_kind::flip});
  initial.add({3, 10, fault_kind::flip});
  retire_config retire;
  retire.max_retries = 2;
  lifecycle_manager manager(memory,
                            fault_timeline(std::move(initial), quiet_timeline()),
                            scrub_config{1, 0, true}, retire);
  EXPECT_TRUE(manager.step());

  const lifecycle_counters& counters = manager.counters();
  EXPECT_EQ(counters.ue_detected, 1u);
  // Persistent faults corrupt every retry identically: both retries
  // run, none succeeds.
  EXPECT_EQ(counters.read_retries, 2u);
  EXPECT_EQ(counters.retry_successes, 0u);
  EXPECT_EQ(counters.ue_retirements, 1u);
  EXPECT_EQ(counters.pool_exhausted, 0u);
  EXPECT_GE(memory.physical_row_of(3), 8u);
  // Stable again (the data itself was already lost to the double flip).
  EXPECT_EQ(memory.read(3).status, ecc_status::clean);
}

TEST(LifecycleManagerTest, MarkPolicyServesCorruptRowsOnce) {
  protected_memory memory(8, make_scheme_secded());  // no spares at all
  for (std::uint32_t row = 0; row < 8; ++row) memory.write(row, row);
  fault_map initial(memory.storage_geometry());
  initial.add({3, 0, fault_kind::flip});
  initial.add({3, 10, fault_kind::flip});
  lifecycle_manager manager(memory,
                            fault_timeline(std::move(initial), quiet_timeline()),
                            scrub_config{1, 0, true}, retire_config{});
  EXPECT_TRUE(manager.step());
  EXPECT_EQ(manager.counters().ue_detected, 1u);
  EXPECT_EQ(manager.counters().pool_exhausted, 1u);
  EXPECT_EQ(manager.counters().marked_rows, 1u);
  EXPECT_EQ(manager.counters().ue_retirements, 0u);
  EXPECT_TRUE(manager.marked(3));
  EXPECT_FALSE(manager.marked(2));
  EXPECT_FALSE(manager.failed());

  // A marked row is not re-processed: the next scrub sees it again but
  // the counters stay put.
  EXPECT_TRUE(manager.step());
  EXPECT_EQ(manager.counters().ue_detected, 1u);
  EXPECT_EQ(manager.counters().marked_rows, 1u);
  // Still served (corrupt), still addressable.
  EXPECT_EQ(memory.read(3).status, ecc_status::detected_uncorrectable);
}

TEST(LifecycleManagerTest, FailstopPolicyHaltsStepping) {
  protected_memory memory(8, make_scheme_secded());
  for (std::uint32_t row = 0; row < 8; ++row) memory.write(row, row);
  fault_map initial(memory.storage_geometry());
  initial.add({3, 0, fault_kind::flip});
  initial.add({3, 10, fault_kind::flip});
  retire_config retire;
  retire.policy = degrade_policy::failstop;
  lifecycle_manager manager(memory,
                            fault_timeline(std::move(initial), quiet_timeline()),
                            scrub_config{1, 0, true}, retire);
  EXPECT_FALSE(manager.step());
  EXPECT_TRUE(manager.failed());
  ASSERT_TRUE(manager.failstop_epoch().has_value());
  EXPECT_EQ(*manager.failstop_epoch(), 1u);
  EXPECT_EQ(manager.counters().failstops, 1u);
  EXPECT_EQ(manager.counters().epochs, 1u);
  // Dead is dead: further steps refuse and change nothing.
  EXPECT_FALSE(manager.step());
  EXPECT_EQ(manager.counters().epochs, 1u);
}

TEST(LifecycleManagerTest, RemapPolicyBorrowsTheReliablePool) {
  std::vector<memory_region> regions;
  regions.push_back({0, 3, 2, 0});  // reliable tier: its own 2 spares
  regions.push_back({4, 7, 0, 0});  // tolerant tier: no spares
  protected_memory memory(8, make_scheme_secded(), std::move(regions));
  for (std::uint32_t row = 0; row < 8; ++row) memory.write(row, row);
  fault_map initial(memory.storage_geometry());
  initial.add({5, 0, fault_kind::flip});
  initial.add({5, 10, fault_kind::flip});
  retire_config retire;
  retire.policy = degrade_policy::remap;
  retire.reliable_region = 0;
  lifecycle_manager manager(memory,
                            fault_timeline(std::move(initial), quiet_timeline()),
                            scrub_config{1, 0, true}, retire);
  EXPECT_TRUE(manager.step());
  const lifecycle_counters& counters = manager.counters();
  EXPECT_EQ(counters.ue_detected, 1u);
  EXPECT_EQ(counters.pool_exhausted, 1u);  // region 1's own pool is dry
  EXPECT_EQ(counters.cross_region_remaps, 1u);
  EXPECT_EQ(counters.ue_retirements, 1u);
  EXPECT_EQ(counters.marked_rows, 0u);
  // The row landed in region 0's spare pool.
  EXPECT_GE(memory.physical_row_of(5), memory.region_spare_base(0));
  EXPECT_EQ(memory.unused_spares(0), 1u);
  EXPECT_EQ(memory.read(5).status, ecc_status::clean);
}

TEST(LifecycleManagerTest, CompiledAndReferencePathsAgree) {
  const auto build = [](protected_memory& memory) {
    for (std::uint32_t row = 0; row < 16; ++row) {
      memory.write(row, 0x5A5A0000u + row);
    }
    timeline_config config;
    config.arrivals_per_epoch = 3;
    config.intermittent_cells = 2;
    config.polarity = fault_polarity::mixed;
    config.seed = 71;
    return fault_timeline(fault_map(memory.storage_geometry()), config);
  };

  protected_memory compiled(16, make_scheme_secded(), 4);
  protected_memory reference(16, make_scheme_secded(), 4);
  reference.set_fault_path(fault_path::reference);
  fault_timeline compiled_timeline = build(compiled);
  fault_timeline reference_timeline = build(reference);

  lifecycle_manager a(compiled, std::move(compiled_timeline),
                      scrub_config{1, 0, true}, retire_config{});
  lifecycle_manager b(reference, std::move(reference_timeline),
                      scrub_config{1, 0, true}, retire_config{});
  for (int epoch = 0; epoch < 6; ++epoch) {
    EXPECT_EQ(a.step(), b.step());
  }
  const lifecycle_counters& ca = a.counters();
  const lifecycle_counters& cb = b.counters();
  EXPECT_EQ(ca.injected_faults, cb.injected_faults);
  EXPECT_EQ(ca.corrected_rewrites, cb.corrected_rewrites);
  EXPECT_EQ(ca.ce_retirements, cb.ce_retirements);
  EXPECT_EQ(ca.ue_detected, cb.ue_detected);
  EXPECT_EQ(ca.read_retries, cb.read_retries);
  EXPECT_EQ(ca.retry_successes, cb.retry_successes);
  EXPECT_EQ(ca.ue_retirements, cb.ue_retirements);
  EXPECT_EQ(ca.pool_exhausted, cb.pool_exhausted);
  EXPECT_EQ(ca.marked_rows, cb.marked_rows);
  for (std::uint32_t row = 0; row < 16; ++row) {
    const read_result ra = compiled.read(row);
    const read_result rb = reference.read(row);
    EXPECT_EQ(ra.data, rb.data) << "row " << row;
    EXPECT_EQ(ra.status, rb.status) << "row " << row;
  }
}

TEST(LifecycleManagerTest, EpochDeltasMatchAFullInstall) {
  // Each boundary after the first patches the memory with the epoch's
  // fault delta. After every one of 200 boundaries the memory must hold
  // exactly the timeline's map, a plane equal to a fresh compile of it,
  // and a kept residual count equal to the full walk — across spares,
  // intermittents, both write-idempotent polarities and all three
  // degradation policies (whose retirements also move the count). A
  // fail-stopped memory stops aging, and the checks still hold after.
  for (const fault_polarity polarity :
       {fault_polarity::flip, fault_polarity::random_stuck}) {
    for (const degrade_policy policy :
         {degrade_policy::remap, degrade_policy::mark,
          degrade_policy::failstop}) {
      SCOPED_TRACE(std::string(to_string(polarity)) + " / " +
                   std::string(to_string(policy)));
      std::vector<memory_region> regions;
      regions.push_back({0, 255, 24, 0});
      regions.push_back({256, 511, 2, 0});
      protected_memory memory(512, make_scheme_pecc(), std::move(regions));
      rng gen(make_stream_rng(23, stream_tag("delta-test")));
      fault_map initial = sample_fault_map_exact(memory.storage_geometry(), 12,
                                                 gen, polarity);
      memory.set_fault_map(initial);
      for (std::uint32_t row = 0; row < 512; ++row) {
        memory.write(row, row * 0x9E3779B1u);
      }
      timeline_config config;
      config.arrivals_per_epoch = 8;
      config.intermittent_cells = 6;
      config.polarity = polarity;
      config.seed = 91;
      retire_config retire;
      retire.policy = policy;
      // Proactive retirement drains the pools before any row goes hard,
      // so only the mark run spends spares on correctable rows.
      const bool retire_correctable = policy == degrade_policy::mark;
      lifecycle_manager manager(memory,
                                fault_timeline(std::move(initial), config),
                                scrub_config{1, 0, retire_correctable}, retire);
      ASSERT_EQ(memory.kept_residual_rows(), memory.residual_rows());
      for (int boundary = 1; boundary <= 200; ++boundary) {
        SCOPED_TRACE(boundary);
        manager.step();
        const fault_map& expected = manager.timeline().current();
        ASSERT_TRUE(std::ranges::equal(memory.array().faults().all_faults(),
                                       expected.all_faults()));
        ASSERT_TRUE(memory.array().plane() == fault_plane(expected));
        ASSERT_EQ(memory.kept_residual_rows(), memory.residual_rows());
      }
      const lifecycle_counters& counters = manager.counters();
      switch (policy) {
        case degrade_policy::remap:
          EXPECT_GT(counters.ue_retirements, 0u);
          EXPECT_GT(counters.cross_region_remaps, 0u);
          EXPECT_EQ(counters.epochs, 200u);
          break;
        case degrade_policy::mark:
          EXPECT_GT(counters.ce_retirements, 0u);
          EXPECT_GT(counters.marked_rows, 0u);
          EXPECT_EQ(counters.epochs, 200u);
          break;
        case degrade_policy::failstop:
          EXPECT_GT(counters.ue_retirements, 0u);
          EXPECT_TRUE(manager.failed());
          break;
      }
    }
  }
}

// -------------------------------------------------- scrub/retire specs

TEST(LifecycleSpecTest, ScrubRetireSectionsRoundTrip) {
  const scenario_spec spec = scenario_spec::parse_text(R"json({
    "name": "life",
    "scrub": {"interval": 4, "rows_per_pass": 128, "retire_correctable": false},
    "retire": {"policy": "remap", "max_retries": 3, "spare_rows": 16,
               "reliable_region": 1},
    "workload": {"name": "lifecycle-quality"}
  })json");
  EXPECT_EQ(spec.scrub.interval, 4u);
  EXPECT_EQ(spec.scrub.rows_per_pass, 128u);
  EXPECT_FALSE(spec.scrub.retire_correctable);
  EXPECT_EQ(spec.retire.policy, degrade_policy::remap);
  EXPECT_EQ(spec.retire.max_retries, 3u);
  EXPECT_EQ(spec.retire.spare_rows, 16u);
  EXPECT_EQ(spec.retire.reliable_region, 1u);
  // The sections map onto the lifecycle configs verbatim.
  EXPECT_EQ(spec.scrub.config(), (scrub_config{4, 128, false}));
  EXPECT_EQ(spec.retire.config(),
            (retire_config{degrade_policy::remap, 3, 1}));
  // JSON round trip is the identity.
  const json_value first = spec.to_json();
  EXPECT_EQ(first.dump(), scenario_spec::from_json(first).to_json().dump());
}

TEST(LifecycleSpecTest, DefaultSectionsAreOmittedFromJson) {
  const scenario_spec spec = scenario_spec::parse_text(R"json({
    "name": "plain", "workload": {"name": "bist-march"}
  })json");
  const json_value doc = spec.to_json();
  EXPECT_EQ(doc.find("scrub"), nullptr);
  EXPECT_EQ(doc.find("retire"), nullptr);
  EXPECT_EQ(doc.find("fault")->find("age_hours"), nullptr);
}

TEST(LifecycleSpecTest, RejectsBadLifecycleFields) {
  try {
    (void)scenario_spec::parse_text(
        R"({"retire": {"policy": "explode"}, "workload": {"name": "x"}})");
    FAIL() << "expected spec_error";
  } catch (const spec_error& error) {
    EXPECT_EQ(error.field(), "retire.policy");
  }
  EXPECT_THROW((void)scenario_spec::parse_text(
                   R"({"retire": {"max_retries": 101},
                       "workload": {"name": "x"}})"),
               spec_error);
  EXPECT_THROW((void)scenario_spec::parse_text(
                   R"({"scrub": {"interval": 8388609},
                       "workload": {"name": "x"}})"),
               spec_error);
  EXPECT_THROW((void)scenario_spec::parse_text(
                   R"({"retire": {"reliable_region": 256},
                       "workload": {"name": "x"}})"),
               spec_error);
  EXPECT_THROW((void)scenario_spec::parse_text(
                   R"({"fault": {"age_hours": -1.0},
                       "workload": {"name": "x"}})"),
               spec_error);
}

TEST(LifecycleSpecTest, DegradePolicyNamesRoundTrip) {
  for (const degrade_policy policy :
       {degrade_policy::mark, degrade_policy::remap, degrade_policy::failstop}) {
    const auto parsed = parse_degrade_policy(to_string(policy));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, policy);
  }
  EXPECT_FALSE(parse_degrade_policy("panic").has_value());
}

// ------------------------------------------- lifecycle-quality workload

constexpr std::string_view kLifecycleSpec = R"json({
  "name": "life-smoke",
  "geometry": {"rows_per_tile": 64},
  "fault": {"polarity": "mixed"},
  "seeds": {"root": 13, "app": 7},
  "scrub": {"interval": 1},
  "retire": {"policy": "mark", "spare_rows": 8},
  "schemes": ["secded"],
  "workload": {"name": "lifecycle-quality", "epochs": 4, "arrivals": 6,
               "intermittent": 2, "initial_faults": 0, "trials": 2}
})json";

TEST(LifecycleWorkloadTest, OutputIsThreadCountInvariant) {
  scenario_spec one = scenario_spec::parse_text(kLifecycleSpec);
  scenario_spec four = scenario_spec::parse_text(kLifecycleSpec);
  one.run.threads = 1;
  four.run.threads = 4;
  std::ostringstream text_one;
  std::ostringstream text_four;
  const scenario_report a = scenario_runner(one).run(text_one);
  const scenario_report b = scenario_runner(four).run(text_four);
  EXPECT_EQ(text_one.str(), text_four.str());
  ASSERT_EQ(a.points.size(), b.points.size());
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    EXPECT_EQ(a.points[i].output.json.dump(), b.points[i].output.json.dump());
  }
}

TEST(LifecycleWorkloadTest, QualityDegradesWithScrubInterval) {
  scenario_spec spec = scenario_spec::parse_text(R"json({
    "name": "interval-sweep",
    "geometry": {"rows_per_tile": 256},
    "fault": {"polarity": "mixed"},
    "seeds": {"root": 13, "app": 7},
    "scrub": {"interval": 1},
    "retire": {"policy": "mark", "spare_rows": 32},
    "schemes": ["secded"],
    "workload": {"name": "lifecycle-quality", "epochs": 8, "arrivals": 16,
                 "intermittent": 8, "initial_faults": 0, "trials": 2},
    "sweep": [{"param": "scrub.interval", "values": [1, 8]}]
  })json");
  spec.run.threads = 1;
  std::ostringstream text;
  const scenario_report report = scenario_runner(spec).run(text);
  ASSERT_EQ(report.points.size(), 2u);
  const auto word_errors = [](const scenario_report& r, std::size_t point) {
    return r.points[point]
        .output.json.find("schemes")
        ->as_array()[0]
        .find("word_errors")
        ->as_u64();
  };
  const auto ce_retired = [](const scenario_report& r, std::size_t point) {
    return r.points[point]
        .output.json.find("schemes")
        ->as_array()[0]
        .find("ce_retirements")
        ->as_u64();
  };
  // Scrubbing every epoch retires more correctable rows before they go
  // uncorrectable, so quality strictly improves over the lazy patrol.
  EXPECT_LT(word_errors(report, 0), word_errors(report, 1));
  EXPECT_GT(ce_retired(report, 0), ce_retired(report, 1));
}

}  // namespace
}  // namespace urmem
