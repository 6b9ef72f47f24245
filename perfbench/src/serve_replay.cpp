// Traced, sequential replay of a serve run.
//
// drive() spreads request indices over its clients and paces them by
// epoch; the service guarantees the integer counters do not depend on
// the interleaving. Issuing the same indices in order on one thread,
// with step_epoch at every boundary, must therefore reproduce drive()'s
// counters exactly, and it times each request kind without gate or
// stripe contention.
#include <chrono>
#include <string>
#include <utility>

#include "perfbench.hpp"
#include "urmem/common/bitops.hpp"
#include "urmem/common/rng.hpp"
#include "urmem/memory/fault_sampler.hpp"
#include "urmem/scenario/workload_registry.hpp"
#include "urmem/serve/service_driver.hpp"

namespace perfbench {

using namespace urmem;

namespace {

/// The memory_service constructor's tile set-up, call by call, on tiles
/// of its own: regions as tile_regions() lays them out, the tile's named
/// fault stream, install, and the first full write.
recorder replay_service_setup(const scenario_spec& spec) {
  recorder rec;
  const std::uint32_t rows = spec.geometry.rows_per_tile;
  std::vector<word_t> words(rows);
  rng data_gen = named_stream_rng(spec.seeds.app, "serve.data");
  for (word_t& word : words) word = data_gen() & word_mask(spec.geometry.word_bits);

  const std::vector<scheme_recipe> recipes = resolve_schemes(spec);
  for (std::size_t index = 0; index < recipes.size(); ++index) {
    const scheme_recipe& recipe = recipes[index];
    std::vector<memory_region> regions = recipe.regions;
    if (regions.empty()) regions.push_back({0, rows - 1, recipe.spare_rows, 0});
    regions.at(spec.retire.reliable_region).spare_rows += spec.retire.spare_rows;

    protected_memory memory = timed(rec, span::scheme_tile_build, [&] {
      return protected_memory(rows, recipe.factory(rows), regions);
    });
    rng gen = named_stream_rng(spec.seeds.root, "serve.tile." + std::to_string(index));
    fault_map initial = timed(rec, span::memory_sample, [&] {
      return spec.serve.initial_faults > 0
                 ? sample_fault_map_exact(memory.storage_geometry(),
                                          spec.serve.initial_faults, gen,
                                          spec.fault.polarity)
                 : fault_map(memory.storage_geometry());
    });
    rec.count(counter::faults_sampled, initial.fault_count());
    timed(rec, span::scheme_install,
          [&] { memory.set_fault_map(std::move(initial)); });
    timed(rec, span::scheme_write_block, [&] { memory.write_block(0, words); });
  }
  return rec;
}

double nanoseconds_since(clock_type::time_point start) {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(clock_type::now() - start)
          .count());
}

}  // namespace

serve_trace replay_serve(const scenario_spec& spec) {
  serve_trace trace;
  trace.setup = replay_service_setup(spec);
  const auto build_start = clock_type::now();
  memory_service service(spec);
  trace.setup_seconds = seconds_since(build_start);

  const driver_config config = driver_config_from(spec);
  const std::uint64_t traffic_seed =
      stream_seed(config.seed_root, stream_tag("serve.traffic"));
  const std::uint64_t per_epoch = config.requests_per_epoch;
  trace.readback_ns.reserve(config.requests);

  const auto start = clock_type::now();
  for (std::uint64_t index = 0; index < config.requests; ++index) {
    if (per_epoch > 0 && index > 0 && index % per_epoch == 0) {
      const auto step_start = clock_type::now();
      service.step_epoch();
      trace.step_epoch_seconds.push_back(seconds_since(step_start));
    }
    rng gen = make_stream_rng(traffic_seed, index);
    const std::uint64_t draw = gen.uniform_below(100);
    const auto row = static_cast<std::uint32_t>(gen.uniform_below(service.rows()));
    const auto issued = clock_type::now();
    if (draw < config.store_percent) {
      service.store(row);
      trace.store_ns.push_back(nanoseconds_since(issued));
    } else if (draw < config.store_percent + config.quality_percent) {
      service.quality_query();
      trace.quality_ns.push_back(nanoseconds_since(issued));
    } else {
      service.readback(row);
      trace.readback_ns.push_back(nanoseconds_since(issued));
    }
  }
  const auto drain_start = clock_type::now();
  service.drain();
  trace.drain_seconds = seconds_since(drain_start);
  trace.wall_seconds = seconds_since(start);
  trace.counters = service.stats_snapshot();
  return trace;
}

}  // namespace perfbench
