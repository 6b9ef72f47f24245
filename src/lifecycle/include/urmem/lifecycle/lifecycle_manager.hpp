// Lifecycle manager: timeline + scrubber + row-retirement policy over
// one protected memory.
//
// Each step() is one epoch of deployed life: the timeline ages the
// fault population and installs the new map (no re-repair, no scheme
// reconfiguration — fuses blow once, there is no POST in the field),
// then, when due, the scrubber patrols and the manager acts on what it
// flags. Correctable rows may be proactively retired to a spare (data
// preserved through decode -> re-encode). Detected-uncorrectable rows
// are retried raw through the timeline's intermittent model — a retry
// succeeds exactly when the offending intermittent is quiescent on that
// attempt — and rows that stay uncorrectable are retired to the spare
// pool. When the pool is dry the configured degradation policy runs:
// mark-and-serve-corrupt, remap into a reliable region's pool, or
// fail-stop. Every decision increments an integer counter, so
// accounting is exact and thread-count independent.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string_view>
#include <utility>
#include <vector>

#include "urmem/common/json.hpp"
#include "urmem/lifecycle/fault_timeline.hpp"
#include "urmem/lifecycle/scrubber.hpp"
#include "urmem/scheme/protected_memory.hpp"

namespace urmem {

/// What to do with an uncorrectable row once the spare pool is dry.
enum class degrade_policy : std::uint8_t {
  mark,      ///< mark the row, keep serving its (corrupt) contents
  remap,     ///< retire into the reliable region's pool; mark if that is dry too
  failstop,  ///< halt the memory — no further epochs
};

/// Spec-file name of a policy ("mark", "remap", "failstop").
[[nodiscard]] std::string_view to_string(degrade_policy policy);

/// Inverse of to_string; nullopt for unknown names.
[[nodiscard]] std::optional<degrade_policy> parse_degrade_policy(
    std::string_view name);

/// Retirement knobs.
struct retire_config {
  degrade_policy policy = degrade_policy::mark;
  /// Raw read retries before declaring an uncorrectable row hard.
  std::uint32_t max_retries = 1;
  /// Donor region of the `remap` policy.
  std::size_t reliable_region = 0;

  friend constexpr bool operator==(const retire_config&,
                                   const retire_config&) = default;
};

/// Exact integer accounting of a lifecycle run; summable across trials.
struct lifecycle_counters {
  std::uint64_t epochs = 0;
  std::uint64_t injected_faults = 0;  ///< persistent arrivals installed
  std::uint64_t scrub_passes = 0;
  std::uint64_t rows_scrubbed = 0;
  std::uint64_t corrected_rewrites = 0;
  std::uint64_t ce_retirements = 0;  ///< proactive correctable retirements
  std::uint64_t ue_detected = 0;
  std::uint64_t read_retries = 0;
  std::uint64_t retry_successes = 0;
  std::uint64_t ue_retirements = 0;  ///< hard rows moved to a spare
  std::uint64_t pool_exhausted = 0;  ///< hard rows that found no home spare
  std::uint64_t cross_region_remaps = 0;
  std::uint64_t marked_rows = 0;
  std::uint64_t failstops = 0;  ///< 0 or 1 per run

  lifecycle_counters& operator+=(const lifecycle_counters& other);

  /// The 14 counters as one JSON object, in declaration order: the form
  /// both the lifecycle workload report and the serve counters print.
  [[nodiscard]] json_value to_json() const;
};

/// Runs the lifecycle loop; see the header comment. Borrows `memory`
/// (the caller keeps reading/writing through it between steps) and owns
/// the timeline.
class lifecycle_manager {
 public:
  /// Also turns on the memory's kept residual count
  /// (protected_memory::keep_residual_count), which the epoch steps and
  /// retirements then maintain.
  lifecycle_manager(protected_memory& memory, fault_timeline timeline,
                    scrub_config scrub, retire_config retire);

  /// One epoch; returns false once the memory has fail-stopped (further
  /// calls stay false and change nothing). Composed exactly from the
  /// sub-steps below: advance_epoch, then (when due) run_scrub_pass
  /// followed immediately by apply_findings.
  bool step();

  /// --- composable sub-steps ---------------------------------------
  /// The serving tier drives these directly so the scrub pass can run
  /// concurrently with request traffic while retirement/degradation
  /// (which rewires the logical->physical mapping) is deferred to an
  /// exclusive epoch boundary. step() composes them back-to-back and is
  /// byte-identical to the pre-split behavior.

  /// Ages the timeline one epoch and installs the new fault map (no
  /// re-repair — see the header comment): the whole map at the first
  /// call, the timeline's last_delta() after that. Returns false when
  /// the memory already fail-stopped.
  bool advance_epoch();

  /// True when the scrubber schedules a pass for the current epoch.
  [[nodiscard]] bool scrub_due() const;

  /// Runs one scrub pass (with optional concurrency hooks), appending
  /// flagged rows to `findings` and updating the pass counters.
  /// Corrected rows are rewritten in place; retirement decisions are
  /// the caller's to apply via apply_findings.
  scrub_pass_stats run_scrub_pass(std::vector<scrub_finding>& findings,
                                  const scrub_hooks* hooks = nullptr);

  /// Applies the retirement/degradation policy to scrub findings;
  /// returns false once the memory fail-stops (remaining findings are
  /// not processed, matching step()).
  bool apply_findings(const std::vector<scrub_finding>& findings);

  /// Authoritative data source for write-backs (retry restores and
  /// retirement payloads). A serving deployment installs its canonical
  /// copy so a multi-fault miscorrection can never poison the stored
  /// bits; unset, the decoder's best estimate is written (the
  /// standalone study's behavior).
  void set_data_source(std::function<word_t(std::uint32_t)> source) {
    data_source_ = std::move(source);
  }

  [[nodiscard]] const lifecycle_counters& counters() const { return counters_; }
  [[nodiscard]] const fault_timeline& timeline() const { return timeline_; }
  [[nodiscard]] bool failed() const { return failed_; }
  /// Epoch of the fail-stop, when one happened.
  [[nodiscard]] std::optional<std::uint32_t> failstop_epoch() const {
    return failstop_epoch_;
  }
  /// True when `row` was marked corrupt-but-served by the mark policy.
  [[nodiscard]] bool marked(std::uint32_t row) const { return marked_[row]; }

 private:
  void retire_correctable(std::uint32_t row, word_t data);
  void handle_uncorrectable(std::uint32_t row, word_t data);

  protected_memory& memory_;
  fault_timeline timeline_;
  scrubber scrubber_;
  retire_config retire_;
  std::function<word_t(std::uint32_t)> data_source_;
  lifecycle_counters counters_;
  std::vector<bool> marked_;
  std::optional<std::uint32_t> failstop_epoch_;
  bool failed_ = false;
  /// True once memory_ holds timeline_.current() (after the first
  /// advance_epoch); from then on each epoch installs only its delta.
  bool map_installed_ = false;
  std::vector<scrub_finding> findings_;  ///< per-pass scratch
};

}  // namespace urmem
