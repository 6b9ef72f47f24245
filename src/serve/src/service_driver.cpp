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

/// Shared pacing state: the epoch the admin loop has published and the
/// boundaries the clients have released. Each side takes the mutex only
/// to wait or to hand over, and reads the lock-free copies otherwise,
/// so the hot path writes no line another thread writes.
struct pacing {
  ts_mutex mutex;
  /// Admin -> clients: an epoch is published (or the run stopped).
  ts_condition_variable published;
  /// Clients -> admin: an epoch's requests all completed (or stopped).
  ts_condition_variable released;
  std::uint64_t epoch_done URMEM_GUARDED_BY(mutex) = 0;
  /// Highest boundary e whose first e*per_epoch requests completed.
  std::uint64_t boundary_ready URMEM_GUARDED_BY(mutex) = 0;
  bool stop URMEM_GUARDED_BY(mutex) = false;  ///< deadline reached
  /// Lock-free copies of epoch_done, boundary_ready and stop, stored
  /// under `mutex` together with the originals. A thread that finds
  /// them current skips the lock; one that does not re-checks the
  /// originals under the lock, so no wake-up is lost.
  alignas(cache_line_bytes) std::atomic<std::uint64_t> epoch_ready{0};
  std::atomic<std::uint64_t> boundary_released{0};
  std::atomic<bool> stopped{false};
};

/// Times a waiter yields for a hand-over (an epoch published, a
/// boundary released) before it blocks on the condition variable. The
/// exclusive window takes tens of microseconds, less than a futex
/// sleep and wake-up, so a waiter usually sees the hand-over while it
/// is still yielding.
constexpr int handover_yields = 200;

/// Yields until `ready()` holds or the budget runs out; returns ready().
template <typename Ready>
bool yield_until(Ready ready) {
  for (int i = 0; i < handover_yields; ++i) {
    if (ready()) return true;
    std::this_thread::yield();
  }
  return ready();
}

/// One client's own state, padded so that recording a request writes
/// no line another client writes: its latency histogram and its count
/// of completed requests, which only it writes and the others sum when
/// they finish a share of an epoch.
struct alignas(cache_line_bytes) client_state {
  latency_histogram histogram;
  alignas(cache_line_bytes) std::atomic<std::uint64_t> completed{0};
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

  std::vector<client_state> states(clients);
  const auto completed_total = [&] {
    std::uint64_t sum = 0;
    for (const client_state& state : states) sum += state.completed.load();
    return sum;
  };
  const auto stop_all = [&] {
    {
      ts_lock_guard lock(pace.mutex);
      pace.stop = true;
      pace.stopped.store(true, std::memory_order_release);
    }
    pace.published.notify_all();
    pace.released.notify_all();
  };

  auto client_loop = [&](std::uint32_t client) {
    client_state& self = states[client];
    std::uint64_t done = 0;
    for (std::uint64_t index = client; index < total; index += clients) {
      if (pace.stopped.load(std::memory_order_acquire)) return;
      const std::uint64_t epoch = per_epoch > 0 ? index / per_epoch : 0;
      const auto epoch_is_ready = [&] {
        return pace.epoch_ready.load(std::memory_order_acquire) >= epoch;
      };
      if (!yield_until(epoch_is_ready)) {
        // Wait for the service to reach this request's epoch. Manual
        // predicate loop so the guarded reads sit in this function,
        // where the analysis can see the held capability.
        ts_lock_guard lock(pace.mutex);
        while (!pace.stop && pace.epoch_done < epoch) {
          pace.published.wait(pace.mutex);
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
      self.histogram.record(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(finished -
                                                               issued)
              .count()));

      // The client whose share of the epoch ends here sums every
      // client's count. Its store and the loads of the sum are
      // sequentially consistent, so of the clients finishing their
      // shares the last one to store sees all the others' counts, and
      // it releases the boundary. Until that boundary fires no request
      // of a later epoch can run, so reaching the epoch's end count
      // means exactly that the epoch's requests all completed.
      const std::uint64_t next = index + clients;
      const bool share_end =
          per_epoch > 0 && (next >= total || next / per_epoch != epoch);
      ++done;
      if (share_end) {
        self.completed.store(done, std::memory_order_seq_cst);
      } else {
        self.completed.store(done, std::memory_order_relaxed);
      }
      if (timed && finished >= deadline) {
        stop_all();
        return;
      }
      if (!share_end) continue;
      const std::uint64_t boundary = epoch + 1;
      if (completed_total() < boundary * per_epoch) continue;
      {
        ts_lock_guard lock(pace.mutex);
        if (pace.boundary_ready < boundary) {
          pace.boundary_ready = boundary;
          pace.boundary_released.store(boundary, std::memory_order_release);
        }
      }
      pace.released.notify_one();
    }
  };

  // Epoch boundaries strictly inside the budget: boundary e (stepping
  // the service to epoch e) fires once the first e*per_epoch requests
  // completed, for every e with e*per_epoch < total. Epoch e is
  // published right after the exclusive window, and its scrub runs
  // beside its traffic; the next window follows the scrub on this
  // thread, so the scrub's findings still land in the next boundary.
  auto admin_loop = [&] {
    const std::uint64_t boundaries =
        (per_epoch == 0 || total == 0) ? 0 : (total - 1) / per_epoch;
    for (std::uint64_t epoch = 1; epoch <= boundaries; ++epoch) {
      const auto boundary_is_released = [&] {
        return pace.boundary_released.load(std::memory_order_acquire) >=
               epoch;
      };
      if (!yield_until(boundary_is_released) ||
          pace.stopped.load(std::memory_order_acquire)) {
        ts_lock_guard lock(pace.mutex);
        while (!pace.stop && pace.boundary_ready < epoch) {
          pace.released.wait(pace.mutex);
        }
        if (pace.stop) return;
      }
      service.advance_epoch();
      {
        ts_lock_guard lock(pace.mutex);
        pace.epoch_done = epoch;
        pace.epoch_ready.store(epoch, std::memory_order_release);
      }
      pace.published.notify_all();
      service.scrub_epoch();
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
    stop_all();
    join_all();
    throw;
  }
  join_all();

  service.drain();

  drive_report report;
  report.counters = service.stats_snapshot();
  for (const client_state& state : states) {
    report.latency.merge(state.histogram);
  }
  report.executed = completed_total();
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
