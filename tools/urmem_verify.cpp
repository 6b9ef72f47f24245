// urmem-verify — exhaustive nCr fault-pattern verification driver.
//
// For every requested scheme x width it enumerates ALL k-bit error
// patterns over the data+check columns (k up to the scheme's
// correction guarantee plus one, or --max-bits) and proves:
//
//   * block == reference bit-identity on encode and decode;
//   * every <= t-bit pattern is corrected, every (t+1)-bit pattern is
//     flagged detected_uncorrectable (t = guaranteed_correctable_bits);
//   * the analytic residual model (residual_fault_bits, per row) equals
//     the enumerated truth exactly, for every enumerated data word.
//
// Schemes are resolved through the scenario scheme registry, so the
// compact "name:key=value" spec strings verify the very recipes
// scenarios run. The sweep parallelizes over the campaign pool and is
// deterministic for a fixed seed at any thread count.
//
// Usage:
//   urmem-verify [--schemes=a,b,...] [--widths=4,8,16] [--threads=N]
//                [--seed=S] [--max-bits=K] [--rows=N] [--max-seconds=F]
//
// Exit status: 0 all properties proven (and within the wall-clock
// budget when --max-seconds is given), 2 on malformed flags or values,
// 1 on verification failure or unexpected runtime error.
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "urmem/common/cli.hpp"
#include "urmem/scenario/options.hpp"
#include "urmem/scenario/scenario_spec.hpp"
#include "urmem/scenario/scheme_registry.hpp"
#include "urmem/sim/campaign_runner.hpp"
#include "urmem/verify/exhaustive.hpp"

namespace {

constexpr std::string_view usage =
    "usage: urmem-verify [flags]\n"
    "\n"
    "  Exhaustively enumerates all k-bit fault patterns (k up to the\n"
    "  scheme's correction guarantee + 1) for every scheme x width and\n"
    "  proves correction/detection classification, block==reference\n"
    "  bit-identity, and exactness of the analytic residual model\n"
    "  against the enumerated truth.\n"
    "\n"
    "flags:\n"
    "  --schemes=a,b,...  compact scheme specs (registry grammar);\n"
    "                     default: none,secded,hsiao,bch:t=1,bch:t=2,\n"
    "                     pecc,shuffle:nfm=1,shuffle:nfm=2,shuffle+secded,\n"
    "                     shuffle+pecc,tiered:0-3=secded:4-7=shuffle\n"
    "  --widths=4,8,16    data widths to verify (default 4,8,16)\n"
    "  --max-bits=K       override pattern weight ceiling (default 0 =\n"
    "                     per-scheme guarantee + 1, floored at 2)\n"
    "  --rows=N           rows per scheme instance (default 8)\n"
    "  --threads=N        worker threads (default 0 = all cores)\n"
    "  --seed=S           root seed for sampled data words (default 42)\n"
    "  --max-seconds=F    fail if the whole sweep exceeds F seconds\n"
    "  --help             this text\n";

}  // namespace

int main(int argc, char** argv) {
  using urmem::campaign_config;
  using urmem::campaign_runner;
  using urmem::exhaustive_config;
  using urmem::exhaustive_report;
  using urmem::geometry_spec;
  using urmem::scheme_recipe;
  using urmem::scheme_registry;

  std::vector<std::string> schemes = {
      "none",           "secded",        "hsiao",        "bch:t=1",
      "bch:t=2",        "pecc",          "shuffle:nfm=1", "shuffle:nfm=2",
      "shuffle+secded", "shuffle+pecc",  "tiered:0-3=secded:4-7=shuffle"};
  std::vector<unsigned> widths = {4, 8, 16};
  exhaustive_config config;
  campaign_config pool_config;
  double max_seconds = 0.0;

  const urmem::cli_spec cli{.tool = "urmem-verify",
                            .usage = usage,
                            .flags = {{"--schemes", true},
                                      {"--widths", true},
                                      {"--max-bits", true},
                                      {"--rows", true},
                                      {"--threads", true},
                                      {"--seed", true},
                                      {"--max-seconds", true}},
                            .accept_overrides = false,
                            .accept_positionals = false};
  const std::optional<urmem::cli_args> parsed =
      urmem::parse_cli(cli, argc, argv, std::cout, std::cerr);
  if (!parsed) return 2;
  if (parsed->help) return 0;
  try {
    if (parsed->has("--schemes")) {
      schemes = urmem::split_csv(parsed->value_or("--schemes"));
    }
    if (parsed->has("--widths")) {
      widths.clear();
      for (const std::string& w :
           urmem::split_csv(parsed->value_or("--widths"))) {
        widths.push_back(
            static_cast<unsigned>(urmem::parse_spec_u64("widths", w)));
      }
    }
    if (parsed->has("--max-bits")) {
      config.max_pattern_bits = static_cast<unsigned>(
          urmem::parse_spec_u64("max-bits", parsed->value_or("--max-bits")));
    }
    if (parsed->has("--rows")) {
      config.rows = static_cast<std::uint32_t>(
          urmem::parse_spec_u64("rows", parsed->value_or("--rows")));
    }
    if (parsed->has("--threads")) {
      pool_config.threads = static_cast<unsigned>(
          urmem::parse_spec_u64("threads", parsed->value_or("--threads")));
    }
    if (parsed->has("--seed")) {
      pool_config.seed = urmem::parse_spec_u64("seed", parsed->value_or("--seed"));
    }
    if (parsed->has("--max-seconds")) {
      max_seconds = urmem::parse_spec_double("max-seconds",
                                             parsed->value_or("--max-seconds"));
    }
  } catch (const urmem::spec_error& error) {
    std::cerr << "urmem-verify: " << error.what() << "\n";
    return 2;
  }
  if (schemes.empty() || widths.empty()) {
    std::cerr << "urmem-verify: nothing to verify\n";
    return 2;
  }

  const auto start = std::chrono::steady_clock::now();
  const auto elapsed_seconds = [&start] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };
  campaign_runner pool(pool_config);
  bool all_ok = true;
  std::uint64_t total_patterns = 0;
  std::uint64_t total_decodes = 0;
  const std::size_t total_combos = widths.size() * schemes.size();
  std::size_t combos_done = 0;
  bool budget_hit = false;

  for (const unsigned width : widths) {
    for (const std::string& spec : schemes) {
      // Mid-sweep budget check: a blown budget stops BEFORE the next
      // combo and reports partial progress, instead of grinding through
      // the rest of the grid just to fail at the end.
      if (max_seconds > 0.0 && elapsed_seconds() > max_seconds) {
        budget_hit = true;
        break;
      }
      const std::string label = spec + " @ w=" + std::to_string(width);
      try {
        const urmem::scheme_ref ref =
            urmem::parse_compact_scheme(spec, "schemes");
        geometry_spec geometry;
        geometry.word_bits = width;
        geometry.rows_per_tile = config.rows;
        const scheme_recipe recipe =
            scheme_registry::instance().make(ref, geometry);
        const exhaustive_report report = urmem::verify_scheme_exhaustive(
            label, recipe.factory, pool, config);
        total_patterns += report.patterns;
        total_decodes += report.decodes;
        std::cout << report.summary() << "\n";
        for (const std::string& failure : report.failures) {
          std::cout << "  " << failure << "\n";
        }
        all_ok = all_ok && report.ok();
      } catch (const std::exception& error) {
        std::cout << label << ": ERROR " << error.what() << "\n";
        all_ok = false;
      }
      ++combos_done;
    }
    if (budget_hit) break;
  }

  const double elapsed = elapsed_seconds();
  std::cout << "total: " << total_patterns << " patterns, " << total_decodes
            << " decodes in " << elapsed << " s\n";
  if (!all_ok) {
    std::cout << "urmem-verify: FAILED\n";
    return 1;
  }
  if (max_seconds > 0.0 && (budget_hit || elapsed > max_seconds)) {
    std::cout << "urmem-verify: wall-clock budget exceeded (" << elapsed
              << " s > " << max_seconds << " s) after " << combos_done
              << " of " << total_combos << " scheme x width combos\n"
              << "partial progress: " << total_patterns << " patterns, "
              << total_decodes << " decodes verified\n";
    return 1;
  }
  std::cout << "urmem-verify: all properties proven\n";
  return 0;
}
