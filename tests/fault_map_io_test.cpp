// Tests for fault-map serialization (test-equipment export / POST
// reload) and the system-level energy model.
#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>
#include <stdexcept>

#include "urmem/common/rng.hpp"
#include "urmem/hwmodel/system_energy.hpp"
#include "urmem/memory/fault_map_io.hpp"
#include "urmem/memory/fault_sampler.hpp"

namespace urmem {
namespace {

TEST(FaultMapIoTest, RoundTripPreservesEverything) {
  rng gen(1);
  const fault_map original =
      sample_fault_map_exact({512, 32}, 100, gen, fault_polarity::mixed);
  std::stringstream buffer;
  write_fault_map(buffer, original);
  const fault_map parsed = read_fault_map(buffer);

  EXPECT_EQ(parsed.geometry(), original.geometry());
  EXPECT_EQ(parsed.fault_count(), original.fault_count());
  const auto a = original.all_faults();
  const auto b = parsed.all_faults();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]) << "fault " << i;
  }
}

TEST(FaultMapIoTest, EmptyMapRoundTrips) {
  std::stringstream buffer;
  write_fault_map(buffer, fault_map({8, 16}));
  const fault_map parsed = read_fault_map(buffer);
  EXPECT_EQ(parsed.fault_count(), 0u);
  EXPECT_EQ(parsed.geometry(), (array_geometry{8, 16}));
}

TEST(FaultMapIoTest, FormatIsHumanReadable) {
  fault_map map({4, 8});
  map.add({2, 5, fault_kind::stuck_at_one});
  std::stringstream buffer;
  write_fault_map(buffer, map);
  const std::string text = buffer.str();
  EXPECT_NE(text.find("urmem-faultmap v1"), std::string::npos);
  EXPECT_NE(text.find("geometry 4 8"), std::string::npos);
  EXPECT_NE(text.find("fault 2 5 sa1"), std::string::npos);
}

TEST(FaultMapIoTest, CommentsAndBlankLinesIgnored) {
  std::istringstream in(
      "urmem-faultmap v1\n"
      "geometry 4 8\n"
      "# exported by tester 7\n"
      "\n"
      "fault 1 3 tfup\n");
  const fault_map map = read_fault_map(in);
  EXPECT_EQ(map.fault_count(), 1u);
  EXPECT_EQ(map.faults_in_row(1)[0].kind, fault_kind::transition_up_fail);
}

TEST(FaultMapIoTest, RejectsMalformedInput) {
  std::istringstream bad_header("not-a-faultmap\n");
  EXPECT_THROW((void)read_fault_map(bad_header), std::invalid_argument);
  std::istringstream bad_kind(
      "urmem-faultmap v1\ngeometry 2 8\nfault 0 0 wiggly\n");
  EXPECT_THROW((void)read_fault_map(bad_kind), std::invalid_argument);
  std::istringstream out_of_range(
      "urmem-faultmap v1\ngeometry 2 8\nfault 5 0 sa0\n");
  EXPECT_THROW((void)read_fault_map(out_of_range), std::invalid_argument);
  std::istringstream missing_geometry("urmem-faultmap v1\n");
  EXPECT_THROW((void)read_fault_map(missing_geometry), std::invalid_argument);
}

TEST(FaultMapIoTest, V1ReaderAgreesWithTimelineReader) {
  // A v1 record carrying a v2 birth epoch is rejected by both readers
  // (the v1 reader used to drop the epoch silently).
  const std::string v1_with_epoch =
      "urmem-faultmap v1\ngeometry 4 8\nfault 1 3 sa0 2\n";
  std::istringstream as_v1(v1_with_epoch);
  EXPECT_THROW((void)read_fault_map(as_v1), std::invalid_argument);
  std::istringstream as_timeline(v1_with_epoch);
  EXPECT_THROW((void)read_timeline_faults(as_timeline), std::invalid_argument);
  // The v1 reader still refuses the v2 header outright.
  std::istringstream v2("urmem-faultmap v2\ngeometry 4 8\nfault 1 3 sa0 2\n");
  EXPECT_THROW((void)read_fault_map(v2), std::invalid_argument);
}

TEST(FaultMapIoTest, HeaderGeometryDoesNotSizeTheMap) {
  // The map holds only the listed faults, so a huge declared geometry
  // costs nothing (it used to allocate per row and throw bad_alloc).
  std::istringstream in(
      "urmem-faultmap v1\ngeometry 4000000000 32\nfault 3999999999 31 flip\n");
  const fault_map map = read_fault_map(in);
  EXPECT_EQ(map.geometry(), (array_geometry{4000000000u, 32}));
  EXPECT_EQ(map.fault_count(), 1u);
  EXPECT_EQ(map.corrupt(3999999999u, 0), word_t{1} << 31);
}

TEST(FaultMapIoTest, KindNamesRoundTrip) {
  for (const fault_kind kind :
       {fault_kind::stuck_at_zero, fault_kind::stuck_at_one, fault_kind::flip,
        fault_kind::transition_up_fail, fault_kind::transition_down_fail}) {
    EXPECT_EQ(fault_kind_from_name(fault_kind_name(kind)), kind);
  }
  EXPECT_THROW((void)fault_kind_from_name("nope"), std::invalid_argument);
}

TEST(FaultMapIoTest, FileRoundTrip) {
  rng gen(2);
  const fault_map original = sample_fault_map_exact({64, 32}, 10, gen);
  const std::string path = "/tmp/urmem_faultmap_test.txt";
  save_fault_map(path, original);
  const fault_map loaded = load_fault_map(path);
  EXPECT_EQ(loaded.fault_count(), original.fault_count());
  EXPECT_THROW((void)load_fault_map("/nonexistent/map.txt"),
               std::invalid_argument);
}

TEST(FaultMapIoTest, SaveToFullDeviceThrows) {
  // /dev/full opens fine and fails the write itself.
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  rng gen(3);
  const fault_map map = sample_fault_map_exact({16, 8}, 4, gen);
  EXPECT_THROW(save_fault_map("/dev/full", map), std::runtime_error);
}

// ------------------------------------------------- v2 timeline format

TEST(FaultMapIoTest, TimelineRoundTripPreservesAnnotations) {
  timeline_fault_set set;
  set.geometry = {16, 8};
  set.faults = {
      {{0, 1, fault_kind::stuck_at_zero}, 0, false},
      {{2, 7, fault_kind::flip}, 0, true},
      {{5, 3, fault_kind::stuck_at_one}, 4, false},
      {{9, 0, fault_kind::transition_down_fail}, 7, true},
  };
  std::stringstream buffer;
  write_timeline_faults(buffer, set);
  EXPECT_NE(buffer.str().find("urmem-faultmap v2"), std::string::npos);
  EXPECT_NE(buffer.str().find("fault 5 3 sa1 4"), std::string::npos);
  EXPECT_NE(buffer.str().find("fault 9 0 tfdown 7 intermittent"),
            std::string::npos);

  const timeline_fault_set parsed = read_timeline_faults(buffer);
  EXPECT_EQ(parsed.geometry, set.geometry);
  ASSERT_EQ(parsed.faults.size(), set.faults.size());
  for (std::size_t i = 0; i < set.faults.size(); ++i) {
    EXPECT_EQ(parsed.faults[i], set.faults[i]) << "record " << i;
  }
}

TEST(FaultMapIoTest, TimelineReaderAcceptsV1AsPersistentEpochZero) {
  std::istringstream in(
      "urmem-faultmap v1\n"
      "geometry 4 8\n"
      "fault 1 3 sa0\n"
      "fault 2 5 flip\n");
  const timeline_fault_set set = read_timeline_faults(in);
  ASSERT_EQ(set.faults.size(), 2u);
  for (const timeline_fault& record : set.faults) {
    EXPECT_EQ(record.birth_epoch, 0u);
    EXPECT_FALSE(record.intermittent);
  }
  EXPECT_EQ(set.faults[0].f.kind, fault_kind::stuck_at_zero);
  EXPECT_EQ(set.faults[1].f.kind, fault_kind::flip);
}

TEST(FaultMapIoTest, TimelineReaderRejectsMalformedV2) {
  // v2 requires the birth epoch.
  std::istringstream missing_epoch(
      "urmem-faultmap v2\ngeometry 4 8\nfault 1 3 sa0\n");
  EXPECT_THROW((void)read_timeline_faults(missing_epoch),
               std::invalid_argument);
  // The only legal annotation after the epoch is "intermittent".
  std::istringstream bad_annotation(
      "urmem-faultmap v2\ngeometry 4 8\nfault 1 3 sa0 2 sometimes\n");
  EXPECT_THROW((void)read_timeline_faults(bad_annotation),
               std::invalid_argument);
  // Trailing junk after the annotation.
  std::istringstream trailing(
      "urmem-faultmap v2\ngeometry 4 8\nfault 1 3 sa0 2 intermittent x\n");
  EXPECT_THROW((void)read_timeline_faults(trailing), std::invalid_argument);
  // Out-of-geometry cells are still rejected in v2.
  std::istringstream out_of_range(
      "urmem-faultmap v2\ngeometry 4 8\nfault 9 0 sa0 0\n");
  EXPECT_THROW((void)read_timeline_faults(out_of_range),
               std::invalid_argument);
  // v1 records must NOT carry v2 annotations.
  std::istringstream v1_with_epoch(
      "urmem-faultmap v1\ngeometry 4 8\nfault 1 3 sa0 2\n");
  EXPECT_THROW((void)read_timeline_faults(v1_with_epoch),
               std::invalid_argument);
}

// ------------------------------------------------------- system energy

TEST(SystemEnergyTest, QuadraticVoltageScaling) {
  const system_energy_model model(1000.0, 1.0);
  EXPECT_DOUBLE_EQ(model.array_read_energy_fj(1.0), 1000.0);
  EXPECT_DOUBLE_EQ(model.array_read_energy_fj(0.5), 250.0);
  EXPECT_NEAR(model.net_saving(0.7, 0.0), 1.0 - 0.49, 1e-12);
}

TEST(SystemEnergyTest, SchemeOverheadScalesToo) {
  const system_energy_model model(1000.0, 1.0);
  // 10% overhead at nominal stays 10% of the scaled array energy.
  EXPECT_DOUBLE_EQ(model.protected_read_energy_fj(0.5, 100.0), 250.0 + 25.0);
  EXPECT_NEAR(model.net_saving(0.5, 100.0), 1.0 - 0.275, 1e-12);
}

TEST(SystemEnergyTest, OverheadCanEraseTheGain) {
  const system_energy_model model(100.0, 1.0);
  // A scheme costing 30% of the array at a mild 0.95 V scaling: net
  // saving goes negative territory is avoided but small.
  EXPECT_LT(model.net_saving(0.98, 30.0), 0.0);
  EXPECT_GT(model.net_saving(0.60, 30.0), 0.5);
}

TEST(SystemEnergyTest, FromMacroMatchesHandComputation) {
  const sram_macro_model sram = sram_macro_model::fdsoi_28nm();
  const auto model = system_energy_model::from_macro(sram, 32, 1.0, 1.35);
  EXPECT_DOUBLE_EQ(model.array_read_energy_fj(1.0),
                   32 * sram.col_read_energy_fj * 1.35);
}

TEST(SystemEnergyTest, RejectsBadParameters) {
  EXPECT_THROW(system_energy_model(0.0), std::invalid_argument);
  EXPECT_THROW(system_energy_model(10.0, 0.0), std::invalid_argument);
  const system_energy_model model(10.0);
  EXPECT_THROW((void)model.array_read_energy_fj(0.0), std::invalid_argument);
  EXPECT_THROW((void)model.protected_read_energy_fj(1.0, -1.0),
               std::invalid_argument);
}

}  // namespace
}  // namespace urmem
