#include "urmem/serve/memory_service.hpp"

#include <array>
#include <optional>
#include <string>
#include <utility>

#include "urmem/common/bitops.hpp"
#include "urmem/common/rng.hpp"
#include "urmem/lifecycle/fault_timeline.hpp"
#include "urmem/memory/fault_sampler.hpp"
#include "urmem/scenario/workload_registry.hpp"

namespace urmem {

/// One hot tile: the protected memory, its lifecycle manager, the
/// deferred scrub findings of the in-flight epoch, the cached residual
/// count, and the traffic counters sharded by client slot.
///
/// `memory`, `manager` and `alive` follow the service's gate
/// discipline — mutated only inside the exclusive boundary window
/// (apply_boundary), read under at least the shared gate. That is
/// expressed on the service's helpers (URMEM_REQUIRES(gate_)) rather
/// than here, because a nested struct cannot name the owning service's
/// gate in a member attribute. `findings` is the one member written
/// under only the *shared* gate (the concurrent scrub pass appends),
/// so it carries its own capability.
struct memory_service::tile {
  std::string name;
  protected_memory memory;
  std::optional<lifecycle_manager> manager;  // built after the fault map
  ts_mutex findings_mutex;
  /// Deferred until the boundary: appended by the scrub pass (shared
  /// gate, admin thread), spent and cleared by apply_boundary
  /// (exclusive gate).
  std::vector<scrub_finding> findings URMEM_GUARDED_BY(findings_mutex);
  scrub_hooks hooks;
  bool alive = true;  ///< false after fail-stop: no more aging or scrubbing
  /// memory.residual_rows() for the current epoch, or `uncounted`:
  /// filled by the epoch's first quality query, reset at the end of
  /// every boundary. Between boundaries the fault map and the remaps are
  /// frozen (the concurrent scrub pass only reads and rewrites words, and
  /// residual_fault_bits reads no data), so every query of the epoch —
  /// including several racing to fill the cache — sees the same exact
  /// count. Counting lazily keeps the walk off the boundary, which
  /// traffic waits for, when no quality query comes.
  static constexpr std::uint64_t uncounted = ~std::uint64_t{0};
  std::atomic<std::uint64_t> residual_rows{uncounted};

  /// One client slot's traffic counters, exactly one cache line, so
  /// clients on distinct slots never write a common line. Relaxed
  /// atomics: threads beyond thread_slots share a slot, and the totals
  /// are commutative integer sums either way.
  struct alignas(cache_line_bytes) traffic_shard {
    std::atomic<std::uint64_t> stores{0};
    std::atomic<std::uint64_t> readbacks{0};
    std::atomic<std::uint64_t> clean_reads{0};
    std::atomic<std::uint64_t> corrected_reads{0};
    std::atomic<std::uint64_t> uncorrectable_reads{0};
    std::atomic<std::uint64_t> word_errors{0};
    std::atomic<std::uint64_t> quality_queries{0};
    std::atomic<std::uint64_t> degraded_rows_seen{0};
  };
  static_assert(sizeof(traffic_shard) == cache_line_bytes);
  std::array<traffic_shard, thread_slots> shards;

  tile(std::string name_, std::uint32_t rows,
       std::unique_ptr<protection_scheme> scheme,
       std::vector<memory_region> regions)
      : name(std::move(name_)),
        memory(rows, std::move(scheme), std::move(regions)) {}

  /// The epoch's residual row count (shared gate held).
  [[nodiscard]] std::uint64_t residual() {
    std::uint64_t count = residual_rows.load(std::memory_order_relaxed);
    if (count == uncounted) {
      count = memory.residual_rows();
      residual_rows.store(count, std::memory_order_relaxed);
    }
    return count;
  }

  [[nodiscard]] tile_traffic_counters traffic() const {
    constexpr auto relaxed = std::memory_order_relaxed;
    tile_traffic_counters t;
    for (const traffic_shard& shard : shards) {
      t.stores += shard.stores.load(relaxed);
      t.readbacks += shard.readbacks.load(relaxed);
      t.clean_reads += shard.clean_reads.load(relaxed);
      t.corrected_reads += shard.corrected_reads.load(relaxed);
      t.uncorrectable_reads += shard.uncorrectable_reads.load(relaxed);
      t.word_errors += shard.word_errors.load(relaxed);
      t.quality_queries += shard.quality_queries.load(relaxed);
      t.degraded_rows_seen += shard.degraded_rows_seen.load(relaxed);
    }
    return t;
  }
};

memory_service::memory_service(const scenario_spec& spec) {
  if (spec.fault.pcell.has_value() || spec.fault.vdd.has_value()) {
    throw spec_error("fault",
                     "serve draws serve.initial_faults exactly; remove the "
                     "pcell/vdd operating point");
  }
  reject_region_operating_points(spec, "serve");
  if (spec.fault.polarity == fault_polarity::mixed) {
    throw spec_error("fault.polarity",
                     "serve requires write-idempotent faults (flip or "
                     "random-stuck); transition faults latch write history "
                     "and break the concurrent determinism contract");
  }

  rows_ = spec.geometry.rows_per_tile;
  words_.resize(rows_);
  rng data_gen = named_stream_rng(spec.seeds.app, "serve.data");
  const word_t mask = word_mask(spec.geometry.word_bits);
  for (word_t& word : words_) word = data_gen() & mask;

  const std::vector<scheme_recipe> recipes = resolve_schemes(spec);
  tiles_.reserve(recipes.size());
  for (std::size_t index = 0; index < recipes.size(); ++index) {
    const scheme_recipe& recipe = recipes[index];
    auto entry = std::make_unique<tile>(recipe.display_name, rows_,
                                        recipe.factory(rows_),
                                        lifecycle_tile_regions(spec, recipe));

    // Per-tile fault stream: the manufactured map and the timeline seed
    // both derive from seeds.root through one named stream, so the
    // fault history is a pure function of (spec, tile index).
    rng gen = named_stream_rng(spec.seeds.root,
                               "serve.tile." + std::to_string(index));
    fault_map initial =
        spec.serve.initial_faults > 0
            ? sample_fault_map_exact(entry->memory.storage_geometry(),
                                     spec.serve.initial_faults, gen,
                                     spec.fault.polarity)
            : fault_map(entry->memory.storage_geometry());
    entry->memory.set_fault_map(initial);

    timeline_config config;
    config.arrivals_per_epoch = spec.serve.arrivals_per_epoch;
    config.intermittent_cells = spec.serve.intermittent_cells;
    config.polarity = spec.fault.polarity;
    config.seed = gen();
    entry->manager.emplace(entry->memory,
                           fault_timeline(std::move(initial), config),
                           spec.scrub.config(), spec.retire.config());
    entry->manager->set_data_source(
        [this](std::uint32_t row) { return words_[row]; });
    entry->hooks.lock_row = [this](std::uint32_t row) { lock_row(row); };
    entry->hooks.unlock_row = [this](std::uint32_t row) { unlock_row(row); };
    entry->hooks.rewrite_word = [this](std::uint32_t row, word_t) {
      return words_[row];
    };

    entry->memory.write_block(0, words_);
    tiles_.push_back(std::move(entry));
  }
}

memory_service::~memory_service() = default;

// Each request looks up its client slot once and hands it to the gate
// and the counter shards, so it writes only lines that slot owns (plus
// the row's stripe and the tile words themselves).

void memory_service::store(std::uint32_t row) {
  const std::size_t slot = this_thread_slot();
  ts_shared_lock gate(gate_, slot);
  ts_lock_guard stripe(stripes_[row & stripe_mask_].mutex);
  for (const auto& entry : tiles_) {
    entry->memory.write(row, words_[row]);
    entry->shards[slot].stores.fetch_add(1, std::memory_order_relaxed);
  }
}

void memory_service::readback(std::uint32_t row) {
  const std::size_t slot = this_thread_slot();
  ts_shared_lock gate(gate_, slot);
  ts_lock_guard stripe(stripes_[row & stripe_mask_].mutex);
  for (const auto& entry : tiles_) {
    const read_result result = entry->memory.read(row);
    tile::traffic_shard& shard = entry->shards[slot];
    shard.readbacks.fetch_add(1, std::memory_order_relaxed);
    switch (result.status) {
      case ecc_status::clean:
        shard.clean_reads.fetch_add(1, std::memory_order_relaxed);
        break;
      case ecc_status::corrected:
        shard.corrected_reads.fetch_add(1, std::memory_order_relaxed);
        break;
      case ecc_status::detected_uncorrectable:
        shard.uncorrectable_reads.fetch_add(1, std::memory_order_relaxed);
        break;
    }
    if (result.data != words_[row]) {
      shard.word_errors.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

void memory_service::quality_query() {
  const std::size_t slot = this_thread_slot();
  ts_shared_lock gate(gate_, slot);
  for (const auto& entry : tiles_) {
    tile::traffic_shard& shard = entry->shards[slot];
    shard.quality_queries.fetch_add(1, std::memory_order_relaxed);
    shard.degraded_rows_seen.fetch_add(entry->residual(),
                                       std::memory_order_relaxed);
  }
}

void memory_service::apply_boundary(bool advance) {
  for (const auto& entry : tiles_) {
    if (!entry->alive) continue;
    {
      ts_lock_guard findings(entry->findings_mutex);
      if (!entry->manager->apply_findings(entry->findings)) {
        entry->alive = false;
      }
      entry->findings.clear();
    }
    if (advance && entry->alive && !entry->manager->advance_epoch()) {
      entry->alive = false;
    }
    // Reset even after a fail-stop: findings applied before it may
    // already have remapped rows.
    entry->residual_rows.store(tile::uncounted, std::memory_order_relaxed);
  }
}

void memory_service::advance_epoch() {
  ts_unique_lock gate(gate_);
  apply_boundary(/*advance=*/true);
  epoch_steps_.fetch_add(1, std::memory_order_release);
}

void memory_service::scrub_epoch() {
  // The passes run under the shared gate, so they may overlap the
  // epoch's traffic; their retirements stay deferred in `findings`
  // until the next boundary (or drain()).
  ts_shared_lock gate(gate_);
  for (const auto& entry : tiles_) {
    if (!entry->alive || !entry->manager->scrub_due()) continue;
    // Lock order gate -> findings_mutex -> stripe (the pass takes row
    // stripes through the hooks); traffic takes gate -> stripe only, so
    // there is no cycle.
    ts_lock_guard findings(entry->findings_mutex);
    entry->manager->run_scrub_pass(entry->findings, &entry->hooks);
  }
}

void memory_service::step_epoch() {
  advance_epoch();
  scrub_epoch();
}

void memory_service::drain() {
  ts_unique_lock gate(gate_);
  apply_boundary(/*advance=*/false);
}

service_snapshot memory_service::stats_snapshot() {
  // Exclusive: lifecycle_counters are plain integers written by the
  // concurrent scrub pass, so a snapshot must not overlap one.
  ts_unique_lock gate(gate_);
  service_snapshot snap;
  snap.epoch_steps = epoch_steps_.load(std::memory_order_relaxed);
  snap.snapshots = snapshots_.fetch_add(1, std::memory_order_relaxed) + 1;
  for (const auto& entry : tiles_) {
    service_snapshot::tile_entry out;
    out.scheme = entry->name;
    out.traffic = entry->traffic();
    out.life = entry->manager->counters();
    for (std::size_t r = 0; r < entry->memory.regions().size(); ++r) {
      out.spares_left += entry->memory.unused_spares(r);
    }
    out.failed = entry->manager->failed();
    snap.stores += out.traffic.stores;
    snap.readbacks += out.traffic.readbacks;
    snap.quality_queries += out.traffic.quality_queries;
    snap.tiles.push_back(std::move(out));
  }
  // Per-tile counts are per-request *per tile*; the service-level view
  // counts each request once.
  if (!tiles_.empty()) {
    snap.stores /= tiles_.size();
    snap.readbacks /= tiles_.size();
    snap.quality_queries /= tiles_.size();
  }
  snap.requests = snap.stores + snap.readbacks + snap.quality_queries;
  return snap;
}

void memory_service::set_fault_path(fault_path path) {
  ts_unique_lock gate(gate_);
  for (const auto& entry : tiles_) entry->memory.set_fault_path(path);
}

json_value service_snapshot::to_json() const {
  json_value doc = json_value::make_object();
  json_value requests_json = json_value::make_object();
  requests_json.set("total", requests);
  requests_json.set("stores", stores);
  requests_json.set("readbacks", readbacks);
  requests_json.set("quality_queries", quality_queries);
  requests_json.set("epoch_steps", epoch_steps);
  requests_json.set("snapshots", snapshots);
  doc.set("requests", std::move(requests_json));

  json_value tiles_json = json_value::make_array();
  for (const tile_entry& entry : tiles) {
    json_value tile_json = json_value::make_object();
    tile_json.set("scheme", entry.scheme);

    json_value traffic_json = json_value::make_object();
    traffic_json.set("stores", entry.traffic.stores);
    traffic_json.set("readbacks", entry.traffic.readbacks);
    traffic_json.set("clean_reads", entry.traffic.clean_reads);
    traffic_json.set("corrected_reads", entry.traffic.corrected_reads);
    traffic_json.set("uncorrectable_reads", entry.traffic.uncorrectable_reads);
    traffic_json.set("word_errors", entry.traffic.word_errors);
    traffic_json.set("quality_queries", entry.traffic.quality_queries);
    traffic_json.set("degraded_rows_seen", entry.traffic.degraded_rows_seen);
    tile_json.set("traffic", std::move(traffic_json));

    tile_json.set("lifecycle", entry.life.to_json());

    tile_json.set("spares_left", entry.spares_left);
    tile_json.set("failed", entry.failed);
    tiles_json.push_back(std::move(tile_json));
  }
  doc.set("tiles", std::move(tiles_json));
  return doc;
}

}  // namespace urmem
