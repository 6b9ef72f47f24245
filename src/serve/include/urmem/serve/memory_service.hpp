// memory_service — the resident serving tier over protected-memory
// tiles (the "millions of users" half of the roadmap's north star).
//
// A service is built from an ordinary scenario_spec: every resolved
// scheme recipe (tiered/HRM region tables included) becomes one hot
// tile — compiled fault planes, LUT codecs, spare pools and a PR 8
// lifecycle_manager — and every request is applied to all tiles, so a
// serving run compares protection schemes under identical traffic the
// same way the batch workloads do.
//
// Thread-safety and the determinism contract
// ------------------------------------------
// The service is designed so that every *integer* counter it reports
// is bit-identical at any client count, while stores, readbacks,
// quality queries and the background scrub genuinely overlap:
//
//  * An epoch gate (ts_shared_mutex, a reader-sharded lock) orders
//    traffic against maintenance. An epoch boundary has two halves.
//    advance_epoch() is the exclusive window: it applies the previous
//    epoch's deferred retirements/degradation, ages the timeline and
//    installs the new fault map, holding the gate exclusive. Traffic
//    waits only for this. scrub_epoch() then runs the epoch's due
//    scrub passes under the *shared* gate, so they may overlap the
//    epoch's requests (service_driver's drive() runs them that way;
//    step_epoch() runs both halves back to back). The
//    logical->physical mapping and the fault map are therefore
//    constant within an epoch, and any request's outcome is a pure
//    function of (row, epoch). So is a quality query's residual row
//    count: each tile's memory keeps it per row
//    (protected_memory::keep_residual_count), and the window updates
//    it only for the rows the epoch's fault delta or a retirement
//    touched, so the window costs what changed, not what has
//    accumulated. A query reads the count and walks no rows.
//
//  * Stores always write the service's canonical word for the row (the
//    authoritative copy a real serving tier refreshes from), and the
//    scrubber/lifecycle write-backs are routed through the same copy
//    (scrub_hooks::rewrite_word, lifecycle_manager::set_data_source).
//    With a write-idempotent fault population — stuck-at and flip
//    faults corrupt reads, not stores — every write of a row stores
//    the same bits, so concurrent stores, readbacks and scrub rewrites
//    commute: a scrub pass finds the same rows whether it runs before,
//    between or beside the epoch's requests, and no request sees
//    whether the pass has run. Transition-fault populations (polarity
//    "mixed") are rejected at construction: they latch write history
//    and would make outcomes interleaving-dependent.
//
//  * Per-row stripe locks (512 stripes, one per cache line) serialize
//    touching the *same* row from two threads (a data race even when
//    idempotent); the scrub pass takes the same stripes row by row.
//    With 512 stripes a pass beside traffic rarely meets a request on
//    its stripe. The outcome counters are sharded by the same thread
//    slot as the gate, one cache line per slot per tile, and summed at
//    snapshot time; they are commutative integer sums, so the totals do
//    not depend on which slot counted what. A request therefore writes
//    the gate and counter lines of its own slot, its row's stripe and
//    the row's words, and no line every client writes.
//
// Retirement is deliberately deferred maintenance: a scrub pass only
// records findings, and spares are spent (and rows marked /
// fail-stopped) inside the next epoch boundary's exclusive window —
// the way a deployed fleet schedules page-retirement at a quiesce
// point instead of yanking a mapping mid-request. The admin thread
// runs the next window only after the pass returns, so every pass's
// findings land in the boundary right after it whether or not it
// overlapped traffic.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "urmem/common/json.hpp"
#include "urmem/common/thread_safety.hpp"
#include "urmem/lifecycle/lifecycle_manager.hpp"
#include "urmem/scenario/scenario_spec.hpp"
#include "urmem/scheme/protected_memory.hpp"

namespace urmem {

/// Exact integer outcomes of one tile's request traffic. Plain struct
/// (snapshot form); the service accumulates the live values in relaxed
/// atomics.
struct tile_traffic_counters {
  std::uint64_t stores = 0;
  std::uint64_t readbacks = 0;
  std::uint64_t clean_reads = 0;
  std::uint64_t corrected_reads = 0;
  std::uint64_t uncorrectable_reads = 0;
  std::uint64_t word_errors = 0;        ///< readback != canonical word
  std::uint64_t quality_queries = 0;
  /// Sum of kept_residual_rows() per query.
  std::uint64_t degraded_rows_seen = 0;
};

/// Deterministic integer snapshot of the whole service — the golden
/// counter section of the serve report. Latency and wall-clock live in
/// the driver's report, never here.
struct service_snapshot {
  std::uint64_t requests = 0;  ///< stores + readbacks + quality queries
  std::uint64_t stores = 0;
  std::uint64_t readbacks = 0;
  std::uint64_t quality_queries = 0;
  std::uint64_t epoch_steps = 0;
  std::uint64_t snapshots = 0;  ///< stats_snapshot calls (this one included)

  struct tile_entry {
    std::string scheme;
    tile_traffic_counters traffic;
    lifecycle_counters life;
    std::uint64_t spares_left = 0;
    bool failed = false;  ///< fail-stopped (failstop degrade policy)
  };
  std::vector<tile_entry> tiles;

  /// Stable JSON form (ordered keys, exact integers) for goldens.
  [[nodiscard]] json_value to_json() const;
};

/// The serving tier; see the header comment for the concurrency and
/// determinism design.
class memory_service {
 public:
  /// Builds one tile per resolved scheme recipe. Throws spec_error for
  /// configurations that cannot serve deterministically (operating
  /// points on the fault section, transition-fault polarity) — the
  /// exact fault population comes from serve.initial_faults /
  /// serve.arrivals_per_epoch instead, seeded by named streams of
  /// seeds.root.
  explicit memory_service(const scenario_spec& spec);
  ~memory_service();

  memory_service(const memory_service&) = delete;
  memory_service& operator=(const memory_service&) = delete;

  /// Logical rows every tile serves.
  [[nodiscard]] std::uint32_t rows() const { return rows_; }
  [[nodiscard]] std::size_t tile_count() const { return tiles_.size(); }
  /// Epochs stepped so far (0 until the first step_epoch).
  [[nodiscard]] std::uint64_t epoch() const {
    return epoch_steps_.load(std::memory_order_acquire);
  }

  /// Request ops (thread-safe, shared on the epoch gate). Each looks up
  /// its thread's slot once and counts in that slot's gate and counter
  /// lines.
  void store(std::uint32_t row) URMEM_EXCLUDES(gate_);
  void readback(std::uint32_t row) URMEM_EXCLUDES(gate_);
  void quality_query() URMEM_EXCLUDES(gate_);

  /// Admin op, the exclusive window of an epoch boundary: applies the
  /// previous epoch's deferred scrub findings and ages every live tile
  /// one epoch (new fault arrivals installed). Traffic waits for it.
  /// Call from one maintenance thread only.
  void advance_epoch() URMEM_EXCLUDES(gate_);

  /// Admin op: runs the current epoch's due scrub passes under the
  /// shared gate, so they may overlap the epoch's traffic, and records
  /// their findings for the next advance_epoch() (or drain()). Call
  /// once per epoch, after advance_epoch(), from the same maintenance
  /// thread.
  void scrub_epoch() URMEM_EXCLUDES(gate_);

  /// Admin op: one whole boundary, advance_epoch() then scrub_epoch().
  /// Only requests that other threads issue meanwhile overlap the
  /// scrub; drive() calls the two halves itself so that it can publish
  /// the epoch to its clients in between.
  void step_epoch() URMEM_EXCLUDES(gate_);

  /// Admin op: applies any still-deferred scrub findings (call once
  /// after traffic stops so the final snapshot includes the last
  /// pass's retirements).
  void drain() URMEM_EXCLUDES(gate_);

  /// Admin op: exact counter snapshot. Counts itself. Only a snapshot
  /// taken while no request is in flight (e.g. after drain) is
  /// deterministic; mid-run snapshots are exact sums of whatever
  /// completed, which is timing-dependent.
  [[nodiscard]] service_snapshot stats_snapshot() URMEM_EXCLUDES(gate_);

  /// Forwards to every tile (test hook: compiled vs reference oracle).
  void set_fault_path(fault_path path) URMEM_EXCLUDES(gate_);

  /// Canonical word the service stores for `row` (test oracle).
  [[nodiscard]] word_t canonical_word(std::uint32_t row) const {
    return words_[row];
  }

 private:
  struct tile;  // protected_memory + lifecycle_manager + counters

  // Stripe hooks handed to the scrubber. The stripe index is computed
  // at runtime and the matching unlock arrives through a different
  // callback, so the capability analysis cannot pair the acquire with
  // its release — opted out, with the pairing enforced by the scrubber's
  // RAII row guard and the TSan lane.
  void lock_row(std::uint32_t row) URMEM_NO_THREAD_SAFETY_ANALYSIS {
    stripes_[row & stripe_mask_].mutex.lock();
  }
  void unlock_row(std::uint32_t row) URMEM_NO_THREAD_SAFETY_ANALYSIS {
    stripes_[row & stripe_mask_].mutex.unlock();
  }

  /// Boundary maintenance: spend each live tile's deferred findings and
  /// (when `advance` is set) age it one epoch. Tile lifecycle state
  /// (`alive`, the manager's fault map) mutates here, so the caller
  /// holds the gate exclusively.
  void apply_boundary(bool advance) URMEM_REQUIRES(gate_);

  std::uint32_t rows_ = 0;
  std::vector<word_t> words_;  ///< canonical per-row data (seeds.app)
  std::vector<std::unique_ptr<tile>> tiles_;

  ts_shared_mutex gate_;  ///< shared = traffic/scrub, exclusive = boundary
  /// One row-stripe lock per cache line, so two clients locking
  /// different stripes write different lines. 512 stripes (32 KB): a
  /// scrub pass walking the rows beside traffic then rarely holds the
  /// stripe a request needs.
  struct alignas(cache_line_bytes) stripe {
    ts_mutex mutex;
  };
  static constexpr std::uint32_t stripe_mask_ = 511;
  std::array<stripe, stripe_mask_ + 1> stripes_;

  std::atomic<std::uint64_t> epoch_steps_{0};
  std::atomic<std::uint64_t> snapshots_{0};
};

}  // namespace urmem
