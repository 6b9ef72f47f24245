// The fault-lifecycle workload (`lifecycle-quality`): each scheme's
// tile lives through `epochs` epochs of deployed life — per-epoch fault
// arrivals (plus intermittent cells flipping between epochs) from the
// fault timeline, a background scrubber at the spec's `scrub` cadence,
// and the row-retirement / degradation policy of the `retire` section —
// then reads its data back and reports exact lifecycle accounting next
// to end-of-life quality. Sweeping scrub.interval at a fixed arrival
// rate reproduces the scrubbing-is-load-bearing regime: the longer the
// patrol period, the more rows collect a second fault while still
// carrying the first, and word errors grow monotonically.
//
// Determinism: every count is an integer; trials shard over the
// campaign pool on per-trial streams and every scheme column replays
// the same trial streams (same initial map, same timeline), so columns
// are comparable and reports are bit-identical at any thread count and
// on the reference fault path.
#include <algorithm>
#include <iostream>
#include <memory>
#include <sstream>

#include "urmem/common/table.hpp"
#include "urmem/lifecycle/lifecycle_manager.hpp"
#include "urmem/memory/fault_sampler.hpp"
#include "urmem/scenario/workload_registry.hpp"

namespace urmem {
namespace {

/// One trial's (or the summed) outputs; integer throughout.
struct trial_counts {
  lifecycle_counters life;
  std::uint64_t corrected_words = 0;
  std::uint64_t uncorrectable_words = 0;
  std::uint64_t word_errors = 0;
  std::uint64_t error_lsb_sum = 0;
  std::uint64_t spares_left = 0;

  void operator+=(const trial_counts& other) {
    life += other.life;
    corrected_words += other.corrected_words;
    uncorrectable_words += other.uncorrectable_words;
    word_errors += other.word_errors;
    error_lsb_sum += other.error_lsb_sum;
    spares_left += other.spares_left;
  }
};

class lifecycle_workload final : public workload {
 public:
  explicit lifecycle_workload(const option_map& options)
      : epochs_(options.get_u32("epochs", 8)),
        arrivals_(options.get_u32("arrivals", 4)),
        intermittent_(options.get_u32("intermittent", 0)),
        initial_faults_(options.get_u64("initial_faults", 0)),
        trials_(options.get_u32("trials", 1)) {
    if (epochs_ < 1 || epochs_ > (1u << 20)) {
      throw spec_error(options.field_name("epochs"),
                       "must be in [1, 2^20]");
    }
    if (trials_ < 1) {
      throw spec_error(options.field_name("trials"), "must be at least 1");
    }
  }

  workload_output run(const scenario_spec& spec,
                      campaign_pool& pool) const override {
    // The lifecycle injects integer-exact fault populations of its own;
    // a spec-level operating point would be silently dead configuration.
    if (spec.fault.pcell.has_value() || spec.fault.vdd.has_value()) {
      throw spec_error(spec.fault.pcell.has_value() ? "fault.pcell"
                                                    : "fault.vdd",
                       "lifecycle-quality draws initial_faults exactly; "
                       "remove the operating point (or use another workload)");
    }
    reject_region_operating_points(spec, "lifecycle-quality");

    const std::vector<scheme_recipe> recipes = resolve_schemes(spec);
    const std::uint32_t rows = spec.geometry.rows_per_tile;

    // The stored data: one seed-derived integer pattern shared by every
    // scheme column and trial (spec.seeds.app, so root-seed sweeps keep
    // the data fixed).
    std::vector<word_t> words(rows);
    rng data_gen = named_stream_rng(spec.seeds.app, "lifecycle.data");
    for (word_t& word : words) {
      word = data_gen() & word_mask(spec.geometry.word_bits);
    }

    campaign_runner& runner = pool.runner();
    std::vector<trial_counts> totals;
    totals.reserve(recipes.size());
    for (const scheme_recipe& recipe : recipes) {
      validate_budget(spec, recipe);
      // Every scheme replays the same trial streams: same initial map,
      // same timeline seed — the columns differ only in protection.
      const std::vector<trial_counts> results = runner.map<trial_counts>(
          trials_, [&](std::uint64_t /*trial*/, rng& gen) {
            return run_trial(spec, recipe, words, gen);
          });
      trial_counts total;
      for (const trial_counts& r : results) total += r;
      totals.push_back(total);
    }
    return render(spec, recipes, totals);
  }

 private:
  /// Fails fast (naming the workload option) when the configured
  /// arrivals would run the array out of healthy cells mid-run.
  void validate_budget(const scenario_spec& spec,
                       const scheme_recipe& recipe) const {
    const std::uint32_t rows = spec.geometry.rows_per_tile;
    const auto regions = lifecycle_tile_regions(spec, recipe);
    std::uint32_t spares = 0;
    for (const memory_region& region : regions) spares += region.spare_rows;
    const std::uint64_t cells =
        std::uint64_t{rows + spares} * recipe.factory(1)->storage_bits();
    const std::uint64_t demand = initial_faults_ + intermittent_ +
                                 std::uint64_t{arrivals_} * epochs_;
    if (demand > cells) {
      throw spec_error("workload.arrivals",
                       "lifetime fault demand (" + std::to_string(demand) +
                           " cells) exceeds the " + std::to_string(cells) +
                           "-cell tile of scheme " + recipe.display_name);
    }
  }

  trial_counts run_trial(const scenario_spec& spec,
                         const scheme_recipe& recipe,
                         const std::vector<word_t>& words, rng& gen) const {
    const std::uint32_t rows = spec.geometry.rows_per_tile;
    protected_memory memory(rows, recipe.factory(rows),
                            lifecycle_tile_regions(spec, recipe));

    fault_map initial(memory.storage_geometry());
    if (initial_faults_ > 0) {
      initial = sample_fault_map_exact(memory.storage_geometry(),
                                       initial_faults_, gen,
                                       spec.fault.polarity);
    }
    // Manufacture: BIST + fuse repair + scheme configuration — the one
    // time the part sees a tester. Epoch steps later swap maps in place.
    memory.set_fault_map(initial);

    timeline_config config;
    config.arrivals_per_epoch = arrivals_;
    config.intermittent_cells = intermittent_;
    config.polarity = spec.fault.polarity;
    config.seed = gen();  // per-trial stream -> per-trial timeline
    fault_timeline timeline(std::move(initial), config);

    lifecycle_manager manager(memory, std::move(timeline),
                              spec.scrub.config(), spec.retire.config());

    memory.write_block(0, words);
    for (std::uint32_t epoch = 0; epoch < epochs_; ++epoch) {
      if (!manager.step()) break;  // fail-stop: end of life
    }

    trial_counts counts;
    counts.life = manager.counters();
    std::vector<word_t> restored(words.size());
    protected_memory::block_stats stats;
    memory.read_block(0, restored, &stats);
    counts.corrected_words = stats.corrected;
    counts.uncorrectable_words = stats.uncorrectable;
    for (std::size_t i = 0; i < words.size(); ++i) {
      if (words[i] == restored[i]) continue;
      ++counts.word_errors;
      counts.error_lsb_sum += words[i] > restored[i] ? words[i] - restored[i]
                                                     : restored[i] - words[i];
    }
    for (std::size_t r = 0; r < memory.regions().size(); ++r) {
      counts.spares_left += memory.unused_spares(r);
    }
    return counts;
  }

  workload_output render(const scenario_spec& spec,
                         const std::vector<scheme_recipe>& recipes,
                         const std::vector<trial_counts>& totals) const {
    std::ostringstream out;
    out << spec.geometry.size_label() << " tile ("
        << spec.geometry.rows_per_tile << " x " << spec.geometry.word_bits
        << "), " << epochs_ << " epoch(s) x " << trials_ << " trial(s), "
        << arrivals_ << " arrival(s)/epoch, " << intermittent_
        << " intermittent cell(s), scrub interval "
        << spec.scrub.interval << ", policy "
        << to_string(spec.retire.policy) << ".\n\n";

    console_table table({"scheme", "injected", "scrubbed", "rewrites",
                         "CE-retired", "UE", "retries", "UE-retired",
                         "pool dry", "marked", "failstops", "word errors"});
    json_value scheme_results = json_value::make_array();
    for (std::size_t s = 0; s < recipes.size(); ++s) {
      const trial_counts& t = totals[s];
      table.add_row({recipes[s].display_name,
                     std::to_string(t.life.injected_faults),
                     std::to_string(t.life.rows_scrubbed),
                     std::to_string(t.life.corrected_rewrites),
                     std::to_string(t.life.ce_retirements),
                     std::to_string(t.life.ue_detected),
                     std::to_string(t.life.read_retries),
                     std::to_string(t.life.ue_retirements),
                     std::to_string(t.life.pool_exhausted),
                     std::to_string(t.life.marked_rows),
                     std::to_string(t.life.failstops),
                     std::to_string(t.word_errors)});
      json_value entry = json_value::make_object();
      entry.set("name", recipes[s].display_name);
      json_value life = t.life.to_json();
      for (auto& [key, value] : life.as_object()) {
        entry.set(key, std::move(value));
      }
      entry.set("spares_left", t.spares_left);
      entry.set("corrected_words", t.corrected_words);
      entry.set("uncorrectable_words", t.uncorrectable_words);
      entry.set("word_errors", t.word_errors);
      entry.set("error_lsb_sum", t.error_lsb_sum);
      scheme_results.push_back(std::move(entry));
    }
    table.print(out);
    out << "\nRetirement needs detection: schemes without ECC detection "
           "(none, shuffle) ride along as unscrubbed baselines.\n";

    workload_output output;
    output.trials = trials_ * recipes.size();
    output.text = out.str();
    output.json = json_value::make_object();
    output.json.set("epochs", std::uint64_t{epochs_});
    output.json.set("arrivals", std::uint64_t{arrivals_});
    output.json.set("intermittent", std::uint64_t{intermittent_});
    output.json.set("initial_faults", initial_faults_);
    output.json.set("trials", std::uint64_t{trials_});
    json_value scrub = json_value::make_object();
    scrub.set("interval", spec.scrub.interval);
    scrub.set("rows_per_pass", spec.scrub.rows_per_pass);
    scrub.set("retire_correctable", spec.scrub.retire_correctable);
    output.json.set("scrub", std::move(scrub));
    json_value retire = json_value::make_object();
    retire.set("policy", std::string(to_string(spec.retire.policy)));
    retire.set("max_retries", spec.retire.max_retries);
    retire.set("spare_rows", spec.retire.spare_rows);
    retire.set("reliable_region", spec.retire.reliable_region);
    output.json.set("retire", std::move(retire));
    output.json.set("schemes", std::move(scheme_results));
    return output;
  }

  std::uint32_t epochs_;
  std::uint32_t arrivals_;
  std::uint32_t intermittent_;
  std::uint64_t initial_faults_;
  std::uint32_t trials_;
};

}  // namespace

namespace detail {

void register_lifecycle_workloads(workload_registry& registry) {
  registry.add(
      "lifecycle-quality",
      "fault-timeline + scrub + row-retirement accounting and end-of-life "
      "quality per scheme",
      "epochs=8 arrivals=4 intermittent=0 initial_faults=0 trials=1",
      [](const option_map& options) {
        return std::make_unique<lifecycle_workload>(options);
      });
}

}  // namespace detail

}  // namespace urmem
