// Shared bench infrastructure:
//  * cli_flags — validated `--flag=value` parsing; a bad flag exits 2
//    with a message naming it;
//  * json_object / write_bench_json — machine-readable BENCH_<name>.json
//    telemetry (wall time, throughput, config, git sha) that CI uploads
//    as artifacts and gates perf regressions on;
//  * run_micro — a tiny timing harness for the micro_* hot-path benches
//    (warmup + repeat-until-min-wall-time, ns/item and items/sec).
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "urmem/scenario/options.hpp"

// Short git revision baked in at configure time (see bench/CMakeLists.txt).
#ifndef URMEM_GIT_SHA
#define URMEM_GIT_SHA "unknown"
#endif

namespace urmem::bench {

/// Validated `--key=value` flags over an option_map. A malformed value
/// (`--runs=2e5` reads as 200000, `--runs=abc` fails) or, at
/// check_consumed(), a misspelled flag prints `error: <message>` naming
/// the flag and exits 2, like urmem-run, instead of silently running
/// the default.
class cli_flags {
 public:
  cli_flags(int argc, char** argv) {
    checked([&] {
      for (int i = 1; i < argc; ++i) {
        const std::string_view arg(argv[i]);
        const std::size_t eq = arg.find('=');
        if (!arg.starts_with("--") || eq == std::string_view::npos) {
          throw spec_error(std::string(arg), "expected --flag=value");
        }
        map_.set(arg.substr(2, eq - 2), arg.substr(eq + 1));
      }
      return 0;
    });
  }

  [[nodiscard]] std::uint64_t get_u64(std::string_view key,
                                      std::uint64_t fallback) const {
    return checked([&] { return map_.get_u64(key, fallback); });
  }
  [[nodiscard]] double get_double(std::string_view key, double fallback) const {
    return checked([&] { return map_.get_double(key, fallback); });
  }
  /// Call after the last read: fails on the first flag nothing read.
  void check_consumed() const {
    checked([&] {
      map_.check_consumed();
      return 0;
    });
  }

 private:
  template <typename Fn>
  static auto checked(Fn&& read) -> decltype(read()) {
    try {
      return read();
    } catch (const spec_error& error) {
      std::cerr << "error: " << error.what() << "\n";
      // NOLINTNEXTLINE(concurrency-mt-unsafe): flags are read on the main
      // thread before a bench starts any worker.
      std::exit(2);
    }
  }

  option_map map_;
};

/// Prints the standard bench banner.
inline void banner(std::string_view title, std::string_view paper_ref) {
  std::cout << "=====================================================================\n"
            << title << "\n"
            << "Reproduces: " << paper_ref << "\n"
            << "=====================================================================\n\n";
}

// ------------------------------------------------------------- telemetry

/// Incrementally built JSON object; values are escaped/formatted on add.
class json_object {
 public:
  json_object& add(std::string_view key, std::string_view value) {
    std::string quoted = "\"";
    quoted += escape(value);
    quoted += "\"";
    return add_raw(key, quoted);
  }
  json_object& add(std::string_view key, const char* value) {
    return add(key, std::string_view(value));
  }
  json_object& add(std::string_view key, double value) {
    if (!std::isfinite(value)) return add_raw(key, "null");
    std::ostringstream out;
    out << std::setprecision(17) << value;
    return add_raw(key, out.str());
  }
  json_object& add(std::string_view key, std::uint64_t value) {
    return add_raw(key, std::to_string(value));
  }
  json_object& add(std::string_view key, bool value) {
    return add_raw(key, value ? "true" : "false");
  }
  /// Nested object / array: `raw` must already be valid JSON.
  /// (Built with append rather than operator+ chains: GCC 12's
  /// -Wrestrict misfires on temporary-string concatenation.)
  json_object& add_raw(std::string_view key, std::string_view raw) {
    std::string field = "\"";
    field += escape(key);
    field += "\": ";
    field += raw;
    fields_.push_back(std::move(field));
    return *this;
  }

  [[nodiscard]] std::string str() const {
    std::string out = "{";
    for (std::size_t i = 0; i < fields_.size(); ++i) {
      out += i == 0 ? "\n  " : ",\n  ";
      out += fields_[i];
    }
    out += "\n}";
    return out;
  }

  static std::string escape(std::string_view text) {
    std::string out;
    out.reserve(text.size());
    for (const char c : text) {
      switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) {
            std::ostringstream hex;
            hex << "\\u" << std::hex << std::setw(4) << std::setfill('0')
                << static_cast<int>(c);
            out += hex.str();
          } else {
            out += c;
          }
      }
    }
    return out;
  }

 private:
  std::vector<std::string> fields_;
};

/// JSON array from a range of already-serialized objects.
inline std::string json_array(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i != 0) out += ", ";
    out += items[i];
  }
  out += "]";
  return out;
}

/// Standard envelope every BENCH_*.json starts from: bench name, schema
/// version, git revision and compiler (see README "Bench telemetry").
inline json_object bench_envelope(std::string_view bench_name) {
  json_object envelope;
  envelope.add("bench", bench_name)
      .add("schema_version", std::uint64_t{1})
      .add("git_sha", URMEM_GIT_SHA)
      .add("compiler", __VERSION__);
  return envelope;
}

/// Directory BENCH_*.json files land in: $URMEM_BENCH_JSON_DIR or cwd.
inline std::string bench_json_dir() {
  // NOLINTNEXTLINE(concurrency-mt-unsafe): benches read the environment
  // once from their single reporting thread; nothing calls setenv.
  const char* dir = std::getenv("URMEM_BENCH_JSON_DIR");
  return dir != nullptr && *dir != '\0' ? dir : ".";
}

/// Writes `payload` to <dir>/BENCH_<name>.json (note goes to stderr so
/// bench stdout stays byte-identical across runs).
inline void write_bench_json(std::string_view bench_name,
                             const json_object& payload) {
  std::string path = bench_json_dir();
  path += "/BENCH_";
  path += bench_name;
  path += ".json";
  std::ofstream out(path);
  if (!out) {
    std::cerr << "warning: cannot write " << path << "\n";
    return;
  }
  out << payload.str() << "\n";
  std::cerr << "bench telemetry: " << path << "\n";
}

// ---------------------------------------------------------- micro timing

/// One timed micro-bench: `items` items processed in `wall_ms` total.
struct micro_result {
  std::string name;
  std::uint64_t items = 0;
  double wall_ms = 0.0;
  double ns_per_item = 0.0;
  double items_per_sec = 0.0;
};

/// Times `body` (one rep = `items_per_rep` items): one warmup rep, then
/// reps until `min_wall_ms` of measured time accumulates.
template <typename Fn>
micro_result run_micro(std::string name, std::uint64_t items_per_rep, Fn&& body,
                       double min_wall_ms = 200.0) {
  using clock = std::chrono::steady_clock;
  body();  // warmup
  std::uint64_t reps = 0;
  const auto start = clock::now();
  double elapsed_ms = 0.0;
  do {
    body();
    ++reps;
    elapsed_ms = std::chrono::duration<double, std::milli>(clock::now() - start)
                     .count();
  } while (elapsed_ms < min_wall_ms);
  micro_result result;
  result.name = std::move(name);
  result.items = items_per_rep * reps;
  result.wall_ms = elapsed_ms;
  result.ns_per_item =
      elapsed_ms * 1e6 / static_cast<double>(std::max<std::uint64_t>(1, result.items));
  result.items_per_sec =
      static_cast<double>(result.items) / (elapsed_ms / 1e3);
  return result;
}

/// JSON form of one micro_result.
inline std::string micro_json(const micro_result& r) {
  json_object o;
  o.add("name", r.name)
      .add("items", r.items)
      .add("wall_ms", r.wall_ms)
      .add("ns_per_item", r.ns_per_item)
      .add("items_per_sec", r.items_per_sec);
  return o.str();
}

/// Prints micro results as an aligned table (cout format state is
/// restored afterwards).
inline void print_micro_table(const std::vector<micro_result>& results) {
  const std::ios::fmtflags flags = std::cout.flags();
  const std::streamsize precision = std::cout.precision();
  std::size_t width = 4;
  for (const auto& r : results) width = std::max(width, r.name.size());
  std::cout << std::left << std::setw(static_cast<int>(width)) << "name"
            << std::right << std::setw(14) << "ns/item" << std::setw(16)
            << "Mitems/s" << std::setw(12) << "wall ms" << "\n";
  for (const auto& r : results) {
    std::cout << std::left << std::setw(static_cast<int>(width)) << r.name
              << std::right << std::fixed << std::setprecision(2)
              << std::setw(14) << r.ns_per_item << std::setw(16)
              << r.items_per_sec / 1e6 << std::setw(12) << r.wall_ms << "\n";
  }
  std::cout.flags(flags);
  std::cout.precision(precision);
}

/// Defeats dead-code elimination of a bench loop's result.
inline void keep(std::uint64_t value) {
#if defined(__GNUC__) || defined(__clang__)
  asm volatile("" : : "r"(value) : "memory");
#else
  static volatile std::uint64_t sink = 0;
  sink = value;
  (void)sink;
#endif
}

}  // namespace urmem::bench
