// micro_serve — serving-tier throughput and tail latency.
//
// Builds a memory_service from override-style defaults (two tiles, live
// fault lifecycle, background scrub) and drives it with the closed-loop
// concurrent client pool, reporting requests/sec and p50/p99/p99.9
// service latency. Emits BENCH_serve.json; the deterministic counter
// totals ride along so telemetry diffs catch behavioral drift, not just
// perf drift.
#include <cstdlib>
#include <iostream>

#include "bench_util.hpp"
#include "urmem/scenario/scenario_spec.hpp"
#include "urmem/serve/memory_service.hpp"
#include "urmem/serve/service_driver.hpp"

int main(int argc, char** argv) {
  using namespace urmem;
  const bench::cli_flags args(argc, argv);

  const std::uint64_t rows = args.get_u64("rows", 4096);
  const std::uint64_t requests = args.get_u64("requests", 200000);
  const std::uint64_t per_epoch = args.get_u64("requests-per-epoch", 20000);
  const std::uint64_t clients = args.get_u64("clients", 4);
  const std::uint64_t seed = args.get_u64("seed", 1);
  args.check_consumed();

  bench::banner("micro_serve: concurrent serving tier, live fault lifecycle",
                "serving-mode subsystem (urmem-serve)");

  json_value doc = json_value::make_object();
  doc.set_path("geometry.rows_per_tile", json_value(rows));
  doc.set_path("schemes", [] {
    json_value schemes = json_value::make_array();
    schemes.push_back(json_value("none"));
    schemes.push_back(json_value("pecc"));
    return schemes;
  }());
  doc.set_path("serve.requests", json_value(requests));
  doc.set_path("serve.requests_per_epoch", json_value(per_epoch));
  doc.set_path("serve.clients", json_value(clients));
  doc.set_path("serve.initial_faults", json_value(std::uint64_t{64}));
  doc.set_path("serve.arrivals_per_epoch", json_value(std::uint64_t{8}));
  doc.set_path("scrub.interval", json_value(std::uint64_t{1}));
  doc.set_path("seeds.root", json_value(seed));
  const scenario_spec spec = scenario_spec::from_json(doc);

  memory_service service(spec);
  const driver_config config = driver_config_from(spec);
  const drive_report report = drive(service, config);

  std::cout << "clients " << clients << ", requests " << report.executed
            << ", epochs " << report.counters.epoch_steps << "\n"
            << "throughput " << report.requests_per_second << " req/s\n"
            << "latency p50/p99/p99.9 " << report.latency.quantile(0.5) << "/"
            << report.latency.quantile(0.99) << "/"
            << report.latency.quantile(0.999) << " ns\n";

  bench::json_object payload = bench::bench_envelope("serve");
  payload.add("rows", rows)
      .add("clients", clients)
      .add("requests", report.executed)
      .add("epoch_steps", report.counters.epoch_steps)
      .add("requests_per_second", report.requests_per_second)
      .add("wall_seconds", report.wall_seconds)
      .add("p50_ns", report.latency.quantile(0.5))
      .add("p99_ns", report.latency.quantile(0.99))
      .add("p999_ns", report.latency.quantile(0.999))
      .add("max_ns", report.latency.max())
      .add("stores", report.counters.stores)
      .add("readbacks", report.counters.readbacks)
      .add("quality_queries", report.counters.quality_queries);
  bench::write_bench_json("serve", payload);
  return 0;
}
