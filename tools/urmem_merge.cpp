// urmem-merge — folds sharded campaign checkpoints back into one report.
//
// `urmem-run --shard=I/N --checkpoint-dir=DIR` publishes one atomic
// JSON file per completed grid point. This tool reads those files from
// one shared directory (or one directory per shard), verifies they all
// belong to the same campaign (spec hash + grid size), and writes the
// exact JSON report an unsharded `urmem-run --out` would have produced
// — byte-identical at fixed seeds. It fails loudly on missing grid
// points, truncated/corrupt files, checkpoints from a different spec,
// and duplicate points whose payloads conflict.
//
// Usage:
//   urmem-merge [--out=FILE] DIR [DIR...]
//
// Exit codes: 0 success, 2 usage/validation error (missing points,
// conflicting or stale checkpoints), 1 runtime error, a report that
// cannot be written included.
#include <iostream>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "urmem/common/cli.hpp"
#include "urmem/common/fs.hpp"
#include "urmem/scenario/checkpoint.hpp"

namespace {

constexpr std::string_view usage =
    "usage: urmem-merge [--out=FILE] DIR [DIR...]\n"
    "\n"
    "  Merges the per-point checkpoint files that sharded `urmem-run\n"
    "  --checkpoint-dir` runs wrote under the given directories into the\n"
    "  JSON report an unsharded run would have produced (byte-identical\n"
    "  at fixed seeds). All directories must belong to the same campaign\n"
    "  (same spec hash); every grid point must be present in exactly one\n"
    "  consistent copy.\n"
    "\n"
    "flags:\n"
    "  --out=FILE   write the merged report to FILE (default: stdout);\n"
    "               parent directories are created on demand\n"
    "  --help       this text\n";

}  // namespace

int main(int argc, char** argv) {
  using namespace urmem;

  const cli_spec cli{.tool = "urmem-merge",
                     .usage = usage,
                     .flags = {{"--out", true}},
                     .accept_overrides = false,
                     .accept_positionals = true};
  const std::optional<cli_args> parsed =
      parse_cli(cli, argc, argv, std::cout, std::cerr);
  if (!parsed) return 2;
  if (parsed->help) return 0;
  const std::string out_path = parsed->value_or("--out");
  const std::vector<std::string>& dirs = parsed->positionals;
  if (dirs.empty()) {
    std::cerr << "urmem-merge: no checkpoint directories given\n" << usage;
    return 2;
  }

  try {
    const scenario_report report = merge_checkpoints(dirs);
    std::cerr << "merged " << report.points.size() << " point(s), "
              << report.total_trials << " trials from " << dirs.size()
              << " director" << (dirs.size() == 1 ? "y" : "ies") << "\n";
    const std::string text = report.to_json().dump() + "\n";
    if (out_path.empty()) {
      std::cout << text;
    } else {
      write_file(out_path, text);
      std::cerr << "report: " << out_path << "\n";
    }
    return 0;
  } catch (const spec_error& error) {
    std::cerr << "urmem-merge: " << error.what() << "\n";
    return 2;
  } catch (const std::exception& error) {
    std::cerr << "urmem-merge: error: " << error.what() << "\n";
    return 1;
  }
}
