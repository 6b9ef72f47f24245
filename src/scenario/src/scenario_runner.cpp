#include "urmem/scenario/scenario_runner.hpp"

#include <iostream>
#include <memory>
#include <optional>
#include <ostream>
#include <utility>

#include "urmem/scenario/checkpoint.hpp"

namespace urmem {

namespace {

/// Applies one grid combination onto a copy of the base document.
json_value point_document(const json_value& base,
                          const std::vector<sweep_axis>& axes,
                          const std::vector<std::size_t>& combo) {
  json_value doc = base;
  for (std::size_t i = 0; i < axes.size(); ++i) {
    try {
      doc.set_path(axes[i].param, axes[i].values[combo[i]]);
    } catch (const json_type_error& error) {
      throw spec_error("sweep", "axis '" + axes[i].param +
                                    "' does not address a settable field (" +
                                    error.what() + ")");
    }
  }
  return doc;
}

}  // namespace

shard_spec shard_spec::parse(std::string_view text) {
  const std::size_t slash = text.find('/');
  if (slash == std::string_view::npos || text.find('/', slash + 1) !=
                                             std::string_view::npos) {
    throw spec_error("shard", "expected INDEX/COUNT (e.g. 0/4), got '" +
                                  std::string(text) + "'");
  }
  shard_spec shard;
  shard.index = parse_spec_u64("shard", text.substr(0, slash));
  shard.count = parse_spec_u64("shard", text.substr(slash + 1));
  if (shard.count == 0) {
    throw spec_error("shard", "count must be at least 1, got '" +
                                  std::string(text) + "'");
  }
  if (shard.index >= shard.count) {
    throw spec_error("shard", "index must be below the count, got '" +
                                  std::string(text) + "'");
  }
  return shard;
}

std::string shard_spec::label() const {
  return std::to_string(index) + "/" + std::to_string(count);
}

scenario_runner::scenario_runner(scenario_spec spec) : spec_(std::move(spec)) {
  // Fail fast on unresolvable names/options: instantiate the workload
  // and resolve every scheme once before any trial runs. (Workload
  // construction also consumes its options, so unknown workload keys
  // surface here too.)
  (void)workload_registry::instance().make(spec_.workload);
  (void)resolve_schemes(spec_);
}

std::uint64_t scenario_runner::grid_size() const noexcept {
  std::uint64_t points = 1;
  for (const sweep_axis& axis : spec_.sweep) points *= axis.values.size();
  return points;
}

scenario_report scenario_runner::run(std::ostream& text_out) const {
  return run(text_out, run_options{});
}

scenario_report scenario_runner::run(std::ostream& text_out,
                                     const run_options& options) const {
  if (options.shard.count == 0 || options.shard.index >= options.shard.count) {
    throw spec_error("shard", "index must be below the count, got '" +
                                  options.shard.label() + "'");
  }

  // The base document carries everything but the sweep; each grid point
  // re-parses its overridden copy so axis paths get exactly the same
  // validation (and field-naming diagnostics) as hand-written specs.
  json_value base = spec_.to_json();
  if (base.find("sweep") != nullptr) {
    auto& members = base.as_object();
    for (std::size_t i = 0; i < members.size(); ++i) {
      if (members[i].first == "sweep") {
        members.erase(members.begin() + static_cast<std::ptrdiff_t>(i));
        break;
      }
    }
  }

  scenario_report report;
  report.spec = spec_.to_json();

  // Checkpointing keys every file to the canonical spec hash, so a
  // relaunched shard resumes exactly this campaign or fails loudly.
  std::optional<checkpoint_store> store;
  if (!options.checkpoint_dir.empty()) {
    store.emplace(options.checkpoint_dir, spec_.canonical_hash());
    store->write_manifest(report.spec, grid_size());
  }

  const std::vector<sweep_axis>& axes = spec_.sweep;
  const std::uint64_t total_points = grid_size();
  const bool multi_point = total_points > 1;
  // unique_ptr rather than optional: GCC 12's -Wmaybe-uninitialized
  // misfires on optional<campaign_pool> (it nests another optional).
  std::unique_ptr<campaign_pool> pool;

  for (std::uint64_t grid_index = 0; grid_index < total_points; ++grid_index) {
    if (!options.shard.owns(grid_index)) continue;

    if (store.has_value()) {
      if (std::optional<scenario_point_result> cached =
              store->load_point(grid_index)) {
        std::cerr << "point cached: "
                  << (cached->label.empty() ? std::to_string(grid_index)
                                            : cached->label)
                  << "\n";
        report.total_trials += cached->output.trials;
        ++report.cached_points;
        report.points.push_back(std::move(*cached));
        continue;
      }
    }

    // Mixed-radix digits of grid_index (last axis fastest) — the same
    // expansion order the sequential walk has always used, so shard 0/1
    // is byte-identical to an unsharded run.
    std::vector<std::size_t> combo(axes.size(), 0);
    std::uint64_t rest = grid_index;
    for (std::size_t axis = axes.size(); axis > 0;) {
      --axis;
      const std::uint64_t size = axes[axis].values.size();
      combo[axis] = static_cast<std::size_t>(rest % size);
      rest /= size;
    }

    const json_value doc = point_document(base, axes, combo);
    const scenario_spec point_spec = scenario_spec::from_json(doc);

    scenario_point_result point;
    point.assignments = json_value::make_object();
    for (std::size_t i = 0; i < axes.size(); ++i) {
      point.assignments.set(axes[i].param, axes[i].values[combo[i]]);
      if (!point.label.empty()) point.label += ", ";
      point.label += axes[i].param + "=" + axes[i].values[combo[i]].dump(0);
    }

    const std::unique_ptr<workload> job =
        workload_registry::instance().make(point_spec.workload);
    // One persistent (lazily-spawned) pool serves the whole grid; it is
    // only rebuilt when a sweep axis changes the pool's own parameters
    // (seed, threads, batch) — spawning threads per point would waste
    // start-up on every grid step, and workloads that never map a trial
    // never spawn it at all.
    const campaign_config wanted{.threads = point_spec.run.threads,
                                 .batch_size = point_spec.run.batch,
                                 .seed = point_spec.seeds.root};
    if (pool == nullptr || pool->config().threads != wanted.threads ||
        pool->config().batch_size != wanted.batch_size ||
        pool->config().seed != wanted.seed) {
      pool = std::make_unique<campaign_pool>(wanted);
    }
    if (multi_point) std::cerr << "point: " << point.label << "\n";

    point.output = job->run(point_spec, *pool);
    report.total_trials += point.output.trials;
    ++report.executed_points;
    // Publish before the budget check: a killed-or-budgeted shard keeps
    // every point it finished.
    if (store.has_value()) store->store_point(grid_index, total_points, point);

    if (multi_point) text_out << "== " << point.label << " ==\n";
    text_out << point.output.text;
    if (multi_point) text_out << "\n";
    text_out.flush();
    report.points.push_back(std::move(point));

    // Owned points are exactly the indices congruent to shard.index, so
    // the next one is `count` steps away.
    if (options.max_points != 0 &&
        report.executed_points >= options.max_points &&
        grid_index + options.shard.count < total_points) {
      std::cerr << "point budget reached: stopping after "
                << report.executed_points << " executed point(s)\n";
      break;
    }
  }
  return report;
}

json_value scenario_report::to_json() const {
  json_value doc = json_value::make_object();
  const json_value* name = spec.find("name");
  doc.set("name", name != nullptr ? *name : json_value("scenario"));
  doc.set("spec", spec);
  doc.set("total_trials", total_trials);
  json_value results = json_value::make_array();
  for (const scenario_point_result& point : points) {
    json_value entry = json_value::make_object();
    if (!point.label.empty()) entry.set("point", point.label);
    entry.set("assignments", point.assignments);
    entry.set("trials", point.output.trials);
    entry.set("data", point.output.json);
    results.push_back(std::move(entry));
  }
  doc.set("results", std::move(results));
  return doc;
}

}  // namespace urmem
