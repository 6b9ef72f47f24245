// scenario_runner: the execution engine of the declarative scenario
// API. It expands a scenario_spec's sweep axes into their cartesian
// grid, runs the named workload at every grid point on a campaign pool
// seeded by the spec's seed policy, streams each point's human report
// to an output stream, and reduces the per-point JSON aggregates into
// one deterministic scenario report (what `urmem-run --out` writes and
// CI diffs against goldens).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "urmem/common/json.hpp"
#include "urmem/scenario/scenario_spec.hpp"
#include "urmem/scenario/workload_registry.hpp"

namespace urmem {

/// One grid point's results.
struct scenario_point_result {
  std::string label;       ///< "pcell=0.001, nfm=2"; empty for the base point
  json_value assignments;  ///< object of the axis values this point took
  workload_output output;
};

/// One shard of a sweep grid. Grid points keep their sequential
/// expansion order (first axis outermost, exactly as an unsharded run
/// walks them) and shard `index`/`count` owns every point whose
/// expansion index i satisfies i % count == index — so shard 0/1 is the
/// whole grid and N shards partition it without coordination.
struct shard_spec {
  std::uint64_t index = 0;
  std::uint64_t count = 1;

  /// Parses the CLI form "i/N" (0 <= i < N, N >= 1); throws
  /// spec_error("shard", ...) on malformed text or an out-of-range
  /// index, so `urmem-run --shard=5/3` fails before any work spawns.
  [[nodiscard]] static shard_spec parse(std::string_view text);

  [[nodiscard]] bool owns(std::uint64_t grid_index) const noexcept {
    return grid_index % count == index;
  }
  /// "i/N" display form.
  [[nodiscard]] std::string label() const;
};

/// Execution options of one scenario run (defaults reproduce the
/// historical single-process behavior exactly).
struct run_options {
  shard_spec shard;  ///< 0/1 = the whole grid

  /// When non-empty, one atomic JSON checkpoint file per completed grid
  /// point is written under this directory (plus a manifest tying the
  /// directory to the spec's canonical hash), and points with a valid
  /// checkpoint are loaded instead of re-run — a killed shard re-runs
  /// only missing or corrupt points on relaunch.
  std::string checkpoint_dir;

  /// When non-zero, stop after this many points have been *executed*
  /// (checkpoint-loaded points are free) — the controlled stand-in for
  /// a mid-sweep kill in crash-resume tests. The returned report covers
  /// only the points reached before the budget ran out.
  std::uint64_t max_points = 0;
};

/// All grid points of one scenario run.
struct scenario_report {
  json_value spec;  ///< normalized base spec (echoed for provenance)
  std::vector<scenario_point_result> points;
  std::uint64_t total_trials = 0;
  /// Points actually executed this run vs. loaded from checkpoint
  /// files (not serialized; run logs and resume tests read these).
  std::uint64_t executed_points = 0;
  std::uint64_t cached_points = 0;

  /// Deterministic JSON form: {"name", "spec", "results": [...]}.
  [[nodiscard]] json_value to_json() const;
};

/// Expands and executes one scenario.
class scenario_runner {
 public:
  /// Validates the spec eagerly: the workload and every scheme resolve
  /// (with their options) before any experiment runs, so spec typos
  /// fail in milliseconds, not after a sweep.
  explicit scenario_runner(scenario_spec spec);

  [[nodiscard]] const scenario_spec& spec() const noexcept { return spec_; }

  /// Number of grid points the sweep expands into.
  [[nodiscard]] std::uint64_t grid_size() const noexcept;

  /// Runs every grid point in order, streaming each point's text report
  /// to `text_out` (single-point runs print the bare workload text, with
  /// no point header).
  [[nodiscard]] scenario_report run(std::ostream& text_out) const;

  /// Same, restricted to `options.shard`'s grid points, with optional
  /// per-point checkpointing and an executed-point budget. The default
  /// options are byte-identical to run(text_out).
  [[nodiscard]] scenario_report run(std::ostream& text_out,
                                    const run_options& options) const;

 private:
  scenario_spec spec_;
};

}  // namespace urmem
