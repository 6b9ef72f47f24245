#include "urmem/serve/service_driver.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "urmem/common/rng.hpp"
#include "urmem/common/thread_safety.hpp"

namespace urmem {

namespace {

/// Shared pacing state: completed-request count (atomic, bumped outside
/// any lock) and the admin loop's published epoch. The cv is only
/// signalled at epoch-boundary crossings, and clients take the mutex
/// only when they must wait, so the hot path is one fetch_add and two
/// loads of lines written once per epoch.
struct pacing {
  ts_mutex mutex;
  ts_condition_variable cv;
  std::uint64_t epoch_done URMEM_GUARDED_BY(mutex) = 0;
  bool stop URMEM_GUARDED_BY(mutex) = false;  ///< deadline reached
  /// Lock-free copies of epoch_done and stop, stored under `mutex`
  /// together with the originals. A client that finds them current
  /// skips the lock; one that does not re-checks the originals under
  /// the lock, so no wake-up is lost.
  alignas(cache_line_bytes) std::atomic<std::uint64_t> epoch_ready{0};
  std::atomic<bool> stopped{false};
  /// On its own line: every request writes it.
  alignas(cache_line_bytes) std::atomic<std::uint64_t> completed{0};
};

/// A client's latency histogram, padded so that recording a sample
/// writes no line another client writes.
struct alignas(cache_line_bytes) client_latency {
  latency_histogram histogram;
};

}  // namespace

driver_config driver_config_from(const scenario_spec& spec) {
  driver_config config;
  config.clients = spec.serve.clients;
  config.requests = spec.serve.requests;
  config.requests_per_epoch = spec.serve.requests_per_epoch;
  config.store_percent = spec.serve.store_percent;
  config.quality_percent = spec.serve.quality_percent;
  config.seed_root = spec.seeds.root;
  return config;
}

drive_report drive(memory_service& service, const driver_config& config) {
  const std::uint64_t total = config.requests;
  const std::uint64_t per_epoch = config.requests_per_epoch;
  const std::uint32_t clients = std::max<std::uint32_t>(1, config.clients);
  const std::uint64_t traffic_seed =
      stream_seed(config.seed_root, stream_tag("serve.traffic"));
  const std::uint32_t rows = service.rows();
  const bool timed = config.duration_seconds > 0.0;

  pacing pace;
  const auto start = std::chrono::steady_clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                  std::chrono::duration<double>(
                      timed ? config.duration_seconds : 0.0));

  std::vector<client_latency> latencies(clients);

  auto client_loop = [&](std::uint32_t client) {
    latency_histogram& histogram = latencies[client].histogram;
    for (std::uint64_t index = client; index < total; index += clients) {
      if (pace.stopped.load(std::memory_order_acquire)) return;
      const std::uint64_t target = per_epoch > 0 ? index / per_epoch : 0;
      if (pace.epoch_ready.load(std::memory_order_acquire) < target) {
        // Wait for the service to reach this request's epoch. Manual
        // predicate loop so the guarded reads sit in this function,
        // where the analysis can see the held capability.
        ts_lock_guard lock(pace.mutex);
        while (!pace.stop && pace.epoch_done < target) {
          pace.cv.wait(pace.mutex);
        }
        if (pace.stop) return;
      }

      rng gen = make_stream_rng(traffic_seed, index);
      const std::uint64_t draw = gen.uniform_below(100);
      const auto row = static_cast<std::uint32_t>(gen.uniform_below(rows));

      const auto issued = std::chrono::steady_clock::now();
      if (draw < config.store_percent) {
        service.store(row);
      } else if (draw < config.store_percent + config.quality_percent) {
        service.quality_query();
      } else {
        service.readback(row);
      }
      const auto finished = std::chrono::steady_clock::now();
      histogram.record(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(finished -
                                                               issued)
              .count()));

      const std::uint64_t done =
          pace.completed.fetch_add(1, std::memory_order_acq_rel) + 1;
      const bool deadline_hit = timed && finished >= deadline;
      if (deadline_hit || done == total ||
          (per_epoch > 0 && done % per_epoch == 0)) {
        {
          ts_lock_guard lock(pace.mutex);
          if (deadline_hit) {
            pace.stop = true;
            pace.stopped.store(true, std::memory_order_release);
          }
        }
        pace.cv.notify_all();
      }
    }
  };

  // Epoch boundaries strictly inside the budget: boundary e (stepping
  // the service to epoch e) fires once the first e*per_epoch requests
  // completed, for every e with e*per_epoch < total.
  auto admin_loop = [&] {
    const std::uint64_t boundaries =
        (per_epoch == 0 || total == 0) ? 0 : (total - 1) / per_epoch;
    for (std::uint64_t epoch = 1; epoch <= boundaries; ++epoch) {
      {
        ts_lock_guard lock(pace.mutex);
        while (!pace.stop &&
               pace.completed.load(std::memory_order_acquire) <
                   epoch * per_epoch) {
          pace.cv.wait(pace.mutex);
        }
        if (pace.stop) return;
      }
      service.step_epoch();
      {
        ts_lock_guard lock(pace.mutex);
        pace.epoch_done = epoch;
        pace.epoch_ready.store(epoch, std::memory_order_release);
      }
      pace.cv.notify_all();
    }
  };

  std::vector<std::thread> workers;
  workers.reserve(clients);
  for (std::uint32_t client = 0; client < clients; ++client) {
    workers.emplace_back(client_loop, client);
  }
  const auto join_all = [&] {
    for (std::thread& worker : workers) worker.join();
  };
  // The admin loop runs here, on the calling thread, so the boundary
  // maintenance allocates from the caller's malloc arena rather than a
  // fresh thread's. If a boundary throws, release the clients before
  // joining them.
  try {
    admin_loop();
  } catch (...) {
    {
      ts_lock_guard lock(pace.mutex);
      pace.stop = true;
      pace.stopped.store(true, std::memory_order_release);
    }
    pace.cv.notify_all();
    join_all();
    throw;
  }
  join_all();

  service.drain();

  drive_report report;
  report.counters = service.stats_snapshot();
  for (const client_latency& client : latencies) {
    report.latency.merge(client.histogram);
  }
  report.executed = pace.completed.load(std::memory_order_acquire);
  const auto end = std::chrono::steady_clock::now();
  report.wall_seconds =
      std::chrono::duration<double>(end - start).count();
  report.requests_per_second =
      report.wall_seconds > 0.0
          ? static_cast<double>(report.executed) / report.wall_seconds
          : 0.0;
  return report;
}

json_value drive_report::to_json() const {
  json_value doc = json_value::make_object();
  doc.set("counters", counters.to_json());

  json_value latency_json = json_value::make_object();
  latency_json.set("samples", latency.count());
  latency_json.set("wall_seconds", wall_seconds);
  latency_json.set("requests_per_second", requests_per_second);
  latency_json.set("mean_ns", latency.mean());
  latency_json.set("p50_ns", latency.quantile(0.5));
  latency_json.set("p99_ns", latency.quantile(0.99));
  latency_json.set("p999_ns", latency.quantile(0.999));
  latency_json.set("min_ns", latency.min());
  latency_json.set("max_ns", latency.max());
  doc.set("latency", std::move(latency_json));
  return doc;
}

}  // namespace urmem
