// Tests for the serving tier (src/serve): construction validation, the
// concurrent determinism contract (integer counters bit-identical at
// any client count and through the reference fault path), canonical-
// store idempotence, live epoch stepping with deferred retirement,
// fail-stop inside a boundary, the closed-loop driver's accounting, and
// the reader-sharded epoch gate (ts_shared_mutex) the service runs on.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "urmem/common/rng.hpp"
#include "urmem/common/thread_safety.hpp"
#include "urmem/scenario/scenario_spec.hpp"
#include "urmem/serve/memory_service.hpp"
#include "urmem/serve/service_driver.hpp"

namespace urmem {
namespace {

// Small but non-trivial: two tiles, live arrivals + intermittents,
// scrub every epoch, remap retirement with a tiny pool.
scenario_spec serve_spec_text() {
  return scenario_spec::parse_text(R"({
    "name": "serve-test",
    "geometry": {"rows_per_tile": 256},
    "fault": {"polarity": "flip"},
    "seeds": {"root": 21, "app": 7},
    "scrub": {"interval": 1},
    "retire": {"policy": "remap", "spare_rows": 2},
    "serve": {"clients": 2, "requests": 3000, "requests_per_epoch": 600,
              "initial_faults": 32, "arrivals_per_epoch": 6,
              "intermittent_cells": 4},
    "schemes": ["none", "pecc"]})");
}

TEST(MemoryService, RejectsNonDeterministicConfigurations) {
  // Transition faults latch write history: outcomes would depend on the
  // store interleaving, so the service refuses them up front.
  try {
    memory_service service(
        scenario_spec::parse_text(R"({"fault": {"polarity": "mixed"}})"));
    FAIL() << "expected spec_error";
  } catch (const spec_error& error) {
    EXPECT_EQ(error.field(), "fault.polarity");
  }
  // The fault population is drawn exactly from serve.initial_faults;
  // an operating point on the fault section has nothing to control.
  try {
    memory_service service(
        scenario_spec::parse_text(R"({"fault": {"pcell": 1e-3}})"));
    FAIL() << "expected spec_error";
  } catch (const spec_error& error) {
    EXPECT_EQ(error.field(), "fault");
  }
}

TEST(MemoryService, StoresAreCanonicalAndIdempotent) {
  memory_service service(serve_spec_text());
  ASSERT_EQ(service.tile_count(), 2u);
  const word_t before = service.canonical_word(17);
  service.store(17);
  service.store(17);
  service.readback(17);
  EXPECT_EQ(service.canonical_word(17), before);

  const service_snapshot snap = service.stats_snapshot();
  EXPECT_EQ(snap.stores, 2u);
  EXPECT_EQ(snap.readbacks, 1u);
  EXPECT_EQ(snap.requests, 3u);
  EXPECT_EQ(snap.snapshots, 1u);
  for (const auto& tile : snap.tiles) {
    EXPECT_EQ(tile.traffic.stores, 2u);
    EXPECT_EQ(tile.traffic.readbacks, 1u);
  }
}

TEST(MemoryService, EpochSteppingAgesTilesAndDefersRetirement) {
  memory_service service(serve_spec_text());
  EXPECT_EQ(service.epoch(), 0u);
  for (int i = 0; i < 4; ++i) service.step_epoch();
  service.drain();
  EXPECT_EQ(service.epoch(), 4u);

  const service_snapshot snap = service.stats_snapshot();
  EXPECT_EQ(snap.epoch_steps, 4u);
  for (const auto& tile : snap.tiles) {
    EXPECT_EQ(tile.life.epochs, 4u);
    EXPECT_EQ(tile.life.scrub_passes, 4u);  // interval 1
    EXPECT_EQ(tile.life.injected_faults, 4u * 6u);
    EXPECT_EQ(tile.life.rows_scrubbed, 4u * 256u);
  }
}

// Residual rows one quality query adds to each tile's
// degraded_rows_seen.
std::vector<std::uint64_t> residual_per_query(memory_service& service) {
  const service_snapshot before = service.stats_snapshot();
  service.quality_query();
  const service_snapshot after = service.stats_snapshot();
  std::vector<std::uint64_t> residual;
  for (std::size_t t = 0; t < after.tiles.size(); ++t) {
    residual.push_back(after.tiles[t].traffic.degraded_rows_seen -
                       before.tiles[t].traffic.degraded_rows_seen);
  }
  return residual;
}

TEST(MemoryService, QualityQueryIsAPureFunctionOfTheEpoch) {
  // Per-query residual counts of the (none, pecc) tiles, pinned to what
  // a full residual walk per query gives. Repeated queries in one epoch
  // must agree, and the count must follow the fault map across
  // boundaries.
  using counts = std::vector<std::uint64_t>;
  memory_service service(serve_spec_text());
  EXPECT_EQ(residual_per_query(service), (counts{26, 15}));
  EXPECT_EQ(residual_per_query(service), (counts{26, 15}));
  service.step_epoch();
  EXPECT_EQ(residual_per_query(service), (counts{33, 18}));
  for (int i = 0; i < 3; ++i) service.step_epoch();
  EXPECT_EQ(residual_per_query(service), (counts{44, 26}));
  EXPECT_EQ(residual_per_query(service), (counts{44, 26}));
  service.drain();
  EXPECT_EQ(residual_per_query(service), (counts{44, 26}));
}

TEST(ServiceDriver, FailStopInsideABoundaryIsClientCountInvariant) {
  // Dense arrivals on a tiny tile with a four-row pool: in the second
  // boundary the pecc tile retires its correctable rows into the pool,
  // then meets an uncorrectable row it cannot retire and fail-stops.
  // Traffic, and quality queries of the dead tile, continue. The rows
  // remapped just before the fail-stop change the tile's residual, so
  // degraded_rows_seen (pinned to what a full residual walk per query
  // gives) also checks that the failing boundary still refreshes it.
  const scenario_spec spec = scenario_spec::parse_text(R"({
    "name": "serve-failstop",
    "geometry": {"rows_per_tile": 128},
    "fault": {"polarity": "flip"},
    "seeds": {"root": 7, "app": 7},
    "scrub": {"interval": 1},
    "retire": {"policy": "failstop", "spare_rows": 4},
    "serve": {"requests": 4000, "requests_per_epoch": 400,
              "quality_percent": 20, "initial_faults": 0,
              "arrivals_per_epoch": 24, "intermittent_cells": 4},
    "schemes": ["none", "pecc"]})");
  for (const std::uint32_t clients : {1u, 2u, 5u}) {
    memory_service service(spec);
    driver_config config = driver_config_from(spec);
    config.clients = clients;
    const drive_report report = drive(service, config);
    ASSERT_EQ(report.counters.tiles.size(), 2u);
    const auto& none = report.counters.tiles[0];
    const auto& pecc = report.counters.tiles[1];
    EXPECT_EQ(report.counters.epoch_steps, 9u);
    EXPECT_EQ(report.counters.quality_queries, 806u);
    EXPECT_FALSE(none.failed);
    EXPECT_EQ(none.traffic.degraded_rows_seen, 50824u)
        << "clients=" << clients;
    EXPECT_TRUE(pecc.failed) << "clients=" << clients;
    EXPECT_EQ(pecc.life.failstops, 1u) << "clients=" << clients;
    EXPECT_EQ(pecc.life.epochs, 1u) << "clients=" << clients;
    EXPECT_EQ(pecc.life.ce_retirements, 4u) << "clients=" << clients;
    EXPECT_EQ(pecc.traffic.degraded_rows_seen, 5929u)
        << "clients=" << clients;
  }
}

TEST(ServiceDriver, CountersAreClientCountInvariant) {
  const scenario_spec spec = serve_spec_text();
  std::string baseline;
  for (const std::uint32_t clients : {1u, 2u, 5u}) {
    memory_service service(spec);
    driver_config config = driver_config_from(spec);
    config.clients = clients;
    const drive_report report = drive(service, config);
    const std::string dump = report.counters.to_json().dump();
    if (baseline.empty()) {
      baseline = dump;
    } else {
      EXPECT_EQ(dump, baseline) << "clients=" << clients;
    }
    EXPECT_EQ(report.executed, spec.serve.requests);
    EXPECT_EQ(report.latency.count(), report.executed);
    EXPECT_EQ(report.counters.requests, report.executed);
    // Boundaries strictly inside the budget: 3000/600 - 1 = 4 steps.
    EXPECT_EQ(report.counters.epoch_steps, 4u);
    EXPECT_GT(report.requests_per_second, 0.0);
  }
  EXPECT_FALSE(baseline.empty());
}

/// The serial oracle of drive(): request indices in order on this
/// thread, drawn from drive()'s traffic streams, with a whole
/// step_epoch() (window, then scrub) before each later epoch's first
/// request, so no scrub pass overlaps any request.
service_snapshot serial_oracle(const scenario_spec& spec) {
  memory_service service(spec);
  const driver_config config = driver_config_from(spec);
  const std::uint64_t traffic_seed =
      stream_seed(config.seed_root, stream_tag("serve.traffic"));
  for (std::uint64_t index = 0; index < config.requests; ++index) {
    if (index > 0 && index % config.requests_per_epoch == 0) {
      service.step_epoch();
    }
    rng gen = make_stream_rng(traffic_seed, index);
    const std::uint64_t draw = gen.uniform_below(100);
    const auto row =
        static_cast<std::uint32_t>(gen.uniform_below(service.rows()));
    if (draw < config.store_percent) {
      service.store(row);
    } else if (draw < config.store_percent + config.quality_percent) {
      service.quality_query();
    } else {
      service.readback(row);
    }
  }
  service.drain();
  return service.stats_snapshot();
}

TEST(ServiceDriver, ScrubBesideTrafficMatchesTheSerialOracle) {
  // drive() publishes each epoch before its scrub pass, so the pass
  // runs beside the epoch's requests; its findings must still land in
  // the next boundary, as when the pass runs alone before the traffic.
  // Dense arrivals on a small tile and a tiny pool, so that passes find
  // rows every epoch and the boundaries retire and mark them.
  const scenario_spec spec = scenario_spec::parse_text(R"({
    "name": "serve-scrub-beside-traffic",
    "geometry": {"rows_per_tile": 128},
    "fault": {"polarity": "flip"},
    "seeds": {"root": 5, "app": 7},
    "scrub": {"interval": 1},
    "retire": {"policy": "remap", "spare_rows": 3},
    "serve": {"requests": 4000, "requests_per_epoch": 500,
              "quality_percent": 10, "initial_faults": 2,
              "arrivals_per_epoch": 12, "intermittent_cells": 6},
    "schemes": ["none", "secded", "pecc"]})");
  const service_snapshot oracle = serial_oracle(spec);
  std::uint64_t boundary_actions = 0;
  for (const auto& tile : oracle.tiles) {
    boundary_actions += tile.life.ce_retirements + tile.life.ue_retirements +
                        tile.life.marked_rows;
  }
  EXPECT_GT(boundary_actions, 0u);  // the findings reach a boundary
  for (const std::uint32_t clients : {1u, 2u, 5u}) {
    memory_service service(spec);
    driver_config config = driver_config_from(spec);
    config.clients = clients;
    const drive_report report = drive(service, config);
    EXPECT_EQ(report.counters.to_json().dump(), oracle.to_json().dump())
        << "clients=" << clients;
  }
}

TEST(ServiceDriver, ReferenceFaultPathIsBitIdentical) {
  const scenario_spec spec = serve_spec_text();
  driver_config config = driver_config_from(spec);
  config.clients = 3;

  memory_service fast(spec);
  const drive_report fast_report = drive(fast, config);

  memory_service oracle(spec);
  oracle.set_fault_path(fault_path::reference);
  const drive_report oracle_report = drive(oracle, config);

  EXPECT_EQ(fast_report.counters.to_json().dump(),
            oracle_report.counters.to_json().dump());
}

TEST(ServiceDriver, LifecycleRunsAndDecodersFireUnderTraffic) {
  // The scrubber must actually patrol during the run and the fault
  // population must be dense enough that decode outcomes beyond
  // "clean" show up — the serving tier is not a no-op shell around the
  // batch workloads.
  const scenario_spec spec = serve_spec_text();
  memory_service service(spec);
  const drive_report report = drive(service, driver_config_from(spec));

  std::uint64_t scrub_passes = 0;
  std::uint64_t decode_outcomes = 0;
  for (const auto& tile : report.counters.tiles) {
    scrub_passes += tile.life.scrub_passes;
    decode_outcomes +=
        tile.traffic.corrected_reads + tile.traffic.uncorrectable_reads +
        tile.traffic.word_errors;
    EXPECT_EQ(tile.traffic.clean_reads + tile.traffic.corrected_reads +
                  tile.traffic.uncorrectable_reads,
              tile.traffic.readbacks);
  }
  EXPECT_GT(scrub_passes, 0u);
  EXPECT_GT(decode_outcomes, 0u);
}

// --- the epoch gate ----------------------------------------------

/// Spins until `done` returns true or ten seconds pass; returns whether
/// it came true (a hang would otherwise stall the suite).
template <typename Predicate>
bool eventually(Predicate done) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!done()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::yield();
  }
  return true;
}

/// A plain (non-atomic) pair that writers keep equal under the
/// exclusive gate.
struct guarded_pair {
  ts_shared_mutex gate;
  std::uint64_t first URMEM_GUARDED_BY(gate) = 0;
  std::uint64_t second URMEM_GUARDED_BY(gate) = 0;
};

TEST(TsSharedMutex, WriterExcludesAllReaders) {
  guarded_pair pair;
  std::atomic<bool> writing{true};
  std::atomic<std::uint64_t> torn{0};
  std::atomic<std::uint64_t> reads{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      // Keep reading until the writer is done and this reader has seen
      // the gate a few times, so each one overlaps the writes.
      std::uint64_t own_reads = 0;
      while (writing.load(std::memory_order_acquire) || own_reads < 100) {
        ts_shared_lock gate(pair.gate);
        const std::uint64_t first = pair.first;
        std::this_thread::yield();  // widen the window a writer could hit
        if (pair.second != first) torn.fetch_add(1);
        ++own_reads;
      }
      reads.fetch_add(own_reads);
    });
  }
  for (std::uint64_t i = 1; i <= 2000; ++i) {
    ts_unique_lock gate(pair.gate);
    pair.first = i;
    std::this_thread::yield();
    pair.second = i;
  }
  writing.store(false, std::memory_order_release);
  for (std::thread& reader : readers) reader.join();
  EXPECT_EQ(torn.load(), 0u);
  EXPECT_GE(reads.load(), 300u);
  ts_shared_lock gate(pair.gate);
  EXPECT_EQ(pair.first, 2000u);
  EXPECT_EQ(pair.second, 2000u);
}

TEST(TsSharedMutex, ReadersHoldTheGateTogether) {
  // Two readers on different slots, and two on the same slot: each
  // holder waits (bounded) until the other holds the gate too, which
  // only succeeds if shared holds overlap.
  for (const bool same_slot : {false, true}) {
    ts_shared_mutex gate;
    std::atomic<int> holders{0};
    std::array<bool, 2> overlapped{};
    std::vector<std::thread> readers;
    for (std::size_t r = 0; r < 2; ++r) {
      readers.emplace_back([&, r] {
        const std::size_t slot = same_slot ? 3 : r;
        ts_shared_lock hold(gate, slot);
        holders.fetch_add(1);
        overlapped[r] = eventually([&] { return holders.load() == 2; });
      });
    }
    for (std::thread& reader : readers) reader.join();
    EXPECT_TRUE(overlapped[0]) << "same_slot=" << same_slot;
    EXPECT_TRUE(overlapped[1]) << "same_slot=" << same_slot;
  }
}

TEST(TsSharedMutex, WriterWaitingOnReadersCompletes) {
  ts_shared_mutex gate;
  std::atomic<bool> writer_in{false};
  gate.lock_shared(this_thread_slot());
  std::thread writer([&] {
    ts_unique_lock hold(gate);
    writer_in.store(true);
  });
  // The writer cannot get in while the reader holds the gate ...
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(writer_in.load());
  // ... and completes once it lets go.
  gate.unlock_shared(this_thread_slot());
  EXPECT_TRUE(eventually([&] { return writer_in.load(); }));
  writer.join();
  // The gate is free again for readers.
  ts_shared_lock again(gate);
}

}  // namespace
}  // namespace urmem
