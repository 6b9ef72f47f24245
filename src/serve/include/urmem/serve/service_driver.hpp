// Closed-loop concurrent driver for memory_service — the load generator
// behind tools/urmem-serve and the serve bench.
//
// Requests are indexed globally 0..requests-1; request i draws its kind
// and target row from its own stream engine
// make_stream_rng(stream_seed(seeds.root, stream_tag("serve.traffic")), i),
// and client c of N executes exactly the indices congruent to c mod N.
// The executed request *set* is therefore identical at any client
// count; only the interleaving differs, and memory_service guarantees
// integer counters are interleaving-independent.
//
// Epoch pacing: request i belongs to lifecycle epoch
// i / requests_per_epoch. Boundary e (stepping the service to epoch e)
// fires once all e*requests_per_epoch earlier requests completed. The
// admin loop, on drive()'s calling thread, runs each boundary in two
// halves: memory_service::advance_epoch(), the exclusive window, then
// it publishes epoch e, then memory_service::scrub_epoch() under the
// shared gate beside epoch e's traffic. Clients therefore wait only for
// the window. The admin runs the next window after the scrub returns,
// so each pass's findings still land in the next boundary, exactly as
// when step_epoch() runs both halves before the epoch's traffic.
//
// Completion is counted per client: each client bumps a counter on its
// own cache line, and the client that finishes its share of an epoch
// sums all of them and, once the epoch is complete, releases the
// boundary to the admin. A client whose epoch is already published
// reads it from an atomic copy without the pacing mutex, and both
// sides yield briefly before blocking, so a hand-over rarely sleeps.
// Clients
// in the same epoch run fully concurrently: the barrier is per epoch,
// not per request. Latency is measured around the service call only
// (gate and stripe contention included, pacing waits excluded: the
// barrier is a determinism artifact, not service time).
#pragma once

#include <cstdint>

#include "urmem/common/json.hpp"
#include "urmem/common/stats.hpp"
#include "urmem/scenario/scenario_spec.hpp"
#include "urmem/serve/memory_service.hpp"

namespace urmem {

/// Driver knobs; defaults mirror serve_spec.
struct driver_config {
  std::uint32_t clients = 1;
  std::uint64_t requests = 4096;
  std::uint64_t requests_per_epoch = 0;  ///< 0 = single epoch, no stepping
  std::uint32_t store_percent = 20;
  std::uint32_t quality_percent = 5;
  std::uint64_t seed_root = 42;
  /// >0: stop issuing new requests once this deadline passes, even with
  /// budget left. Counters stay exact (they count what ran) but are no
  /// longer spec-deterministic — use for wall-clock-bounded soak runs.
  double duration_seconds = 0.0;
};

/// The spec's serve section + seed policy as a driver_config.
[[nodiscard]] driver_config driver_config_from(const scenario_spec& spec);

/// Count, summed and longest wall time of one kind of admin step.
struct step_timing {
  std::uint64_t count = 0;
  double total_seconds = 0.0;
  double max_seconds = 0.0;

  void record(double seconds);
  [[nodiscard]] json_value to_json() const;
};

/// What one drive() run measured.
struct drive_report {
  service_snapshot counters;   ///< deterministic at any client count
  latency_histogram latency;   ///< per-request service latency, ns
  std::uint64_t executed = 0;  ///< requests actually issued
  double wall_seconds = 0.0;
  double requests_per_second = 0.0;
  /// The epoch boundaries' exclusive windows
  /// (memory_service::advance_epoch), which every client waits for.
  step_timing windows;
  /// The scrubs run beside each epoch's traffic
  /// (memory_service::scrub_epoch), one per boundary.
  step_timing scrubs;

  /// Counters (golden-stable) plus a latency/throughput section (wall
  /// clock, never golden-diffed) that also holds the window and scrub
  /// timings.
  [[nodiscard]] json_value to_json() const;
};

/// Runs the closed loop to completion (budget or deadline), drains the
/// service, and snapshots it. Spawns config.clients worker threads and
/// steps the epochs (when requests_per_epoch > 0) on the calling
/// thread, so boundary maintenance allocates from the caller's malloc
/// arena.
[[nodiscard]] drive_report drive(memory_service& service,
                                 const driver_config& config);

}  // namespace urmem
