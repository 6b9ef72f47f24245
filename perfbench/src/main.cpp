// urmem_perfbench — the benchmark binary behind perfbench/run.py.
//
// One process runs one workload at one seed:
//
//   --trace 0  end to end, tracing off. Set-up (spec parse + runner or
//              memory_service construction) is repeated, then
//              scenario_runner::run (campaigns) or drive() (serve) is
//              repeated until --seconds have passed. Prints wall_s,
//              setup_s, peak_rss_mb, throughput_rps, latency_p50_us and
//              latency_p99_us.
//   --trace 1  one untraced end-to-end run, then the traced replay of
//              the same workload. Prints every per-layer metric, the
//              layer-share report and the tracing overhead.
//
// Every end-to-end run hashes its output: the scenario_report JSON for
// campaigns, the service_snapshot counters for serve. The hash must
// equal the digest recorded for this workload, seed and host; where
// none is recorded, the runs must agree with each other, the traced
// replay must equal the untraced run, and 1 thread (or client) must
// equal 2. The last line on stdout is the JSON result object.
#include <malloc.h>
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <streambuf>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "perfbench.hpp"
#include "urmem/common/hash.hpp"
#include "urmem/common/json.hpp"
#include "urmem/common/stats.hpp"
#include "urmem/scenario/scenario_runner.hpp"
#include "urmem/serve/memory_service.hpp"
#include "urmem/serve/service_driver.hpp"

namespace perfbench {
namespace {

using urmem::json_value;

constexpr int setup_repeats_per_cpu = 15;

struct options {
  std::string workload;
  std::string spec_path;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  int trace = 0;
  std::vector<std::pair<std::string, std::string>> sets;  ///< extra overrides
  std::string digests_path;
  std::string source = "unknown";
  bool digest_only = false;
  bool host_only = false;
};

options parse_args(int argc, char** argv) {
  options opts;
  bool seed_given = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string value;
    const std::size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg.resize(eq);
    }
    const auto next = [&]() -> std::string {
      if (eq != std::string::npos) return value;
      if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--workload") {
      opts.workload = next();
    } else if (arg == "--spec") {
      opts.spec_path = next();
    } else if (arg == "--seed") {
      opts.seed = std::stoull(next());
      seed_given = true;
    } else if (arg == "--seconds") {
      opts.seconds = std::stod(next());
    } else if (arg == "--trace") {
      opts.trace = std::stoi(next());
    } else if (arg == "--set") {
      const std::string pair = next();
      const std::size_t split = pair.find('=');
      if (split == std::string::npos) {
        throw std::invalid_argument("--set expects KEY=VALUE, got " + pair);
      }
      opts.sets.emplace_back(pair.substr(0, split), pair.substr(split + 1));
    } else if (arg == "--digests") {
      opts.digests_path = next();
    } else if (arg == "--source") {
      opts.source = next();
    } else if (arg == "--digest-only") {
      opts.digest_only = true;
    } else if (arg == "--host-only") {
      opts.host_only = true;
    } else {
      throw std::invalid_argument("unknown argument " + arg);
    }
  }
  if (opts.host_only) return opts;
  if (opts.workload.empty() || opts.spec_path.empty() || !seed_given) {
    throw std::invalid_argument("need --workload, --spec and --seed");
  }
  if (opts.trace != 0 && opts.trace != 1) {
    throw std::invalid_argument("--trace must be 0 or 1");
  }
  if (!(opts.seconds > 0.0)) throw std::invalid_argument("--seconds must be positive");
  return opts;
}

std::string read_text(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

// ------------------------------------------------------------ host

std::string cpuinfo_field(const std::string& cpuinfo, std::string_view key) {
  std::istringstream lines(cpuinfo);
  for (std::string line; std::getline(lines, line);) {
    if (!line.starts_with(key)) continue;
    const std::size_t colon = line.find(':');
    if (colon == std::string::npos) continue;
    const std::size_t begin = line.find_first_not_of(' ', colon + 1);
    return begin == std::string::npos ? "" : line.substr(begin);
  }
  return "unknown";
}

/// What a result depends on beyond the sources: the CPU (and the
/// vector-ISA flags libm dispatches on), the compiler and build type.
json_value host_fingerprint(const std::string& source) {
  std::string cpuinfo;
  try {
    cpuinfo = read_text("/proc/cpuinfo");
  } catch (const std::exception&) {
  }
  std::string flags;
  std::string listed = " ";
  listed += cpuinfo_field(cpuinfo, "flags");
  listed += ' ';
  for (const std::string_view flag : {"sse4_2", "avx", "avx2", "fma", "avx512f"}) {
    std::string needle = " ";
    needle += flag;
    needle += ' ';
    if (listed.find(needle) == std::string::npos) continue;
    if (!flags.empty()) flags += ' ';
    flags += flag;
  }
#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = std::string("gcc ") + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  json_value host = json_value::make_object();
  host.set("nproc", std::uint64_t{std::thread::hardware_concurrency()});
  host.set("cpu", cpuinfo_field(cpuinfo, "model name"));
  host.set("cpu_flags", flags);
  host.set("compiler", compiler);
  host.set("build_type", std::string(PERFBENCH_BUILD_TYPE));
  host.set("source", source);
  return host;
}

// --------------------------------------------------------- digests

std::string digest_of(const json_value& doc) {
  return urmem::to_hex16(urmem::fnv1a64(doc.dump(0)));
}

/// Digest of a scenario report without its spec echo, which carries
/// run.threads: the results must not depend on the thread count.
std::string report_digest(const urmem::scenario_report& report) {
  json_value doc = report.to_json();
  std::erase_if(doc.as_object(),
                [](const auto& member) { return member.first == "spec"; });
  return digest_of(doc);
}

/// The digest recorded for this workload and seed, when the recording
/// host matches this one and the workload runs at its recorded size.
std::optional<std::string> recorded_digest(const options& opts,
                                           const json_value& host) {
  if (opts.digests_path.empty() || !opts.sets.empty() ||
      !std::filesystem::exists(opts.digests_path)) {
    return std::nullopt;
  }
  const json_value doc = json_value::parse(read_text(opts.digests_path));
  const json_value* recorded_host = doc.find("host");
  for (const char* key : {"cpu", "cpu_flags", "compiler", "build_type"}) {
    const json_value* want = recorded_host != nullptr ? recorded_host->find(key) : nullptr;
    if (want == nullptr || want->as_string() != host.find(key)->as_string()) {
      std::cout << "digests: recorded on another host (" << key
                << " differs); checking self-consistency\n";
      return std::nullopt;
    }
  }
  const json_value* table = doc.find("digests");
  const json_value* per_seed = table != nullptr ? table->find(opts.workload) : nullptr;
  const json_value* digest =
      per_seed != nullptr ? per_seed->find(std::to_string(opts.seed)) : nullptr;
  if (digest == nullptr) return std::nullopt;
  return digest->as_string();
}

/// Counts runs and the ones whose output digest differs from the
/// reference: the recorded digest, else the first digest seen.
struct digest_check {
  std::string reference;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void check(const std::string& digest, std::string_view what) {
    ++attempted;
    if (reference.empty()) reference = digest;
    if (digest == reference) return;
    ++failed;
    std::cout << "digest mismatch: " << what << " produced " << digest
              << ", expected " << reference << "\n";
  }
};

// ------------------------------------------------------ statistics

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = static_cast<std::size_t>(std::ceil(pos));
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double median(const std::vector<double>& values) { return percentile(values, 0.5); }

/// latency_histogram::quantile returns bucket upper bounds, which moves
/// in ~3% steps; interpolate the rank uniformly within its bucket.
double interpolated_quantile(const urmem::latency_histogram& histogram, double q) {
  const std::uint64_t n = histogram.count();
  if (n == 0) return 0.0;
  const auto bucket_value = [&](std::uint64_t rank) {
    return histogram.quantile((static_cast<double>(rank) - 0.5) /
                              static_cast<double>(n));
  };
  const std::uint64_t target = std::clamp<std::uint64_t>(
      static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(n))), 1, n);
  const std::uint64_t value = bucket_value(target);
  std::uint64_t lo = 1;  // first rank in the target's bucket
  for (std::uint64_t hi = target; lo < hi;) {
    const std::uint64_t mid = lo + (hi - lo) / 2;
    if (bucket_value(mid) < value) lo = mid + 1; else hi = mid;
  }
  std::uint64_t hi = n;  // last rank in the target's bucket
  for (std::uint64_t low = target; low < hi;) {
    const std::uint64_t mid = low + (hi - low + 1) / 2;
    if (bucket_value(mid) > value) hi = mid - 1; else low = mid;
  }
  const std::size_t index = urmem::latency_histogram::bucket_index(value);
  const double lower = static_cast<double>(std::max(
      index == 0 ? 0 : urmem::latency_histogram::bucket_upper(index - 1) + 1,
      histogram.min()));
  const double upper = static_cast<double>(
      std::min(urmem::latency_histogram::bucket_upper(index), histogram.max()));
  const double fraction = (static_cast<double>(target - lo) + 0.5) /
                          static_cast<double>(hi - lo + 1);
  return lower + (upper - lower) * fraction;
}

/// Peak resident set of this process image, from VmHWM (getrusage's
/// ru_maxrss would also count the image that exec'd this one).
double peak_rss_mb() {
  std::istringstream status(read_text("/proc/self/status"));
  for (std::string line; std::getline(status, line);) {
    if (line.starts_with("VmHWM:")) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

/// CPUs this process may run on.
std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
    }
  }
  return cpus;
}

/// `width` consecutive allowed CPUs starting at the `index`-th, wrapping.
cpu_set_t cpu_window(const std::vector<int>& cpus, std::size_t index,
                     std::size_t width) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (std::size_t j = 0; j < width; ++j) CPU_SET(cpus[(index + j) % cpus.size()], &set);
  return set;
}

/// Restricts the calling thread to `set` for its lifetime, then restores
/// the previous affinity. Threads it spawns meanwhile inherit `set`.
class cpu_pin {
 public:
  explicit cpu_pin(const cpu_set_t& set) {
    CPU_ZERO(&saved_);
    pinned_ = sched_getaffinity(0, sizeof saved_, &saved_) == 0 &&
              sched_setaffinity(0, sizeof set, &set) == 0;
  }
  ~cpu_pin() {
    if (pinned_) sched_setaffinity(0, sizeof saved_, &saved_);
  }
  cpu_pin(const cpu_pin&) = delete;
  cpu_pin& operator=(const cpu_pin&) = delete;

 private:
  cpu_set_t saved_;
  bool pinned_ = false;
};

// -------------------------------------------------------- runs

/// Silences the library's stderr progress lines for its lifetime.
class quiet_stderr {
 public:
  quiet_stderr() : saved_(std::cerr.rdbuf(&null_)) {}
  ~quiet_stderr() { std::cerr.rdbuf(saved_); }
  quiet_stderr(const quiet_stderr&) = delete;
  quiet_stderr& operator=(const quiet_stderr&) = delete;

 private:
  struct null_buffer : std::streambuf {
    int overflow(int c) override { return traits_type::not_eof(c); }
  } null_;
  std::streambuf* saved_;
};

struct run_result {
  double wall = 0.0;
  std::string digest;
  std::uint64_t work = 0;  ///< campaign trials or served requests
};

/// Parses the spec text with the seed and the extra overrides applied.
urmem::scenario_spec load_spec(
    const std::string& text, const options& opts,
    const std::vector<std::pair<std::string, std::string>>& extra = {}) {
  json_value doc = json_value::parse(text);
  urmem::apply_spec_override(doc, "seeds.root", std::to_string(opts.seed));
  for (const auto& [key, value] : opts.sets) urmem::apply_spec_override(doc, key, value);
  for (const auto& [key, value] : extra) urmem::apply_spec_override(doc, key, value);
  return urmem::scenario_spec::from_json(doc);
}

run_result campaign_run(const urmem::scenario_runner& runner) {
  std::ostringstream text;
  const quiet_stderr quiet;
  const auto start = clock_type::now();
  const urmem::scenario_report report = runner.run(text);
  run_result result;
  result.wall = seconds_since(start);
  result.digest = report_digest(report);
  result.work = report.total_trials;
  return result;
}

run_result serve_run(const urmem::scenario_spec& spec, std::uint32_t clients,
                     urmem::latency_histogram* latency) {
  urmem::memory_service service(spec);
  urmem::driver_config config = urmem::driver_config_from(spec);
  config.clients = clients;
  const auto start = clock_type::now();
  const urmem::drive_report report = urmem::drive(service, config);
  run_result result;
  result.wall = seconds_since(start);
  result.digest = digest_of(report.counters.to_json());
  result.work = report.executed;
  if (latency != nullptr) latency->merge(report.latency);
  return result;
}

// ------------------------------------------------------ metrics

struct metric {
  std::string name;
  double value;
  std::string unit;
};

/// Every per-layer metric, zero where the workload does not exercise
/// the layer; the traced replays fill in what they measured.
std::vector<metric> per_layer_metrics() {
  std::vector<metric> metrics;
  for (const char* name : {"ml.evaluate_s.knn", "ml.evaluate_s.pca",
                           "ml.evaluate_s.elasticnet"}) {
    metrics.push_back({name, 0.0, "s"});
  }
  metrics.push_back({"ml.evaluate_calls", 0.0, "count"});
  metrics.push_back({"memory.sample_s", 0.0, "s"});
  metrics.push_back({"memory.faults_sampled", 0.0, "count"});
  for (const char* name : {"scheme.tile_build_s", "scheme.install_s",
                           "scheme.write_block_s", "scheme.read_block_s",
                           "scheme.analytic_mse_s"}) {
    metrics.push_back({name, 0.0, "s"});
  }
  for (const char* name :
       {"scheme.words", "scheme.corrected_words", "scheme.uncorrectable_words"}) {
    metrics.push_back({name, 0.0, "count"});
  }
  metrics.push_back({"sim.quantize_s", 0.0, "s"});
  metrics.push_back({"sim.reduce_s", 0.0, "s"});
  metrics.push_back({"sim.trials", 0.0, "count"});
  metrics.push_back({"sim.trial_busy_s", 0.0, "s"});
  metrics.push_back({"sim.pool_idle_fraction", 0.0, "fraction"});
  metrics.push_back({"yield.sample_mse_s", 0.0, "s"});
  metrics.push_back({"yield.trials", 0.0, "count"});
  for (const char* name :
       {"serve.store_ns.p50", "serve.store_ns.p99", "serve.readback_ns.p50",
        "serve.readback_ns.p99", "serve.quality_ns.p50", "serve.quality_ns.p99"}) {
    metrics.push_back({name, 0.0, "ns"});
  }
  for (const char* name : {"serve.stores", "serve.readbacks", "serve.quality_queries"}) {
    metrics.push_back({name, 0.0, "count"});
  }
  for (const char* name :
       {"serve.step_epoch_ms.p50", "serve.step_epoch_ms.max", "serve.drain_ms"}) {
    metrics.push_back({name, 0.0, "ms"});
  }
  for (const char* name : {"lifecycle.scrub_passes", "lifecycle.rows_scrubbed",
                           "lifecycle.retirements"}) {
    metrics.push_back({name, 0.0, "count"});
  }
  return metrics;
}

void set_metric(std::vector<metric>& metrics, std::string_view name, double value) {
  for (metric& m : metrics) {
    if (m.name == name) {
      m.value = value;
      return;
    }
  }
  throw std::logic_error("unknown metric " + std::string(name));
}

void print_share(std::string_view label, double seconds, double capacity) {
  std::ostringstream line;
  line << "  " << std::left << std::setw(40) << label << std::right << std::fixed
       << std::setprecision(4) << std::setw(10) << seconds << " s " << std::setprecision(1)
       << std::setw(6) << 100.0 * seconds / capacity << "%\n";
  std::cout << line.str();
}

/// Per-layer metrics and the layer-share report of a campaign replay.
void report_campaign_trace(const campaign_trace& trace, double untraced_wall,
                           std::vector<metric>& metrics) {
  recorder all = trace.main;
  all.merge(trace.workers);
  const auto t = [&](span s) { return all.time(s); };
  const double ml = t(span::ml_evaluate_knn) + t(span::ml_evaluate_pca) +
                    t(span::ml_evaluate_elasticnet);
  const double scheme = t(span::scheme_tile_build) + t(span::scheme_install) +
                        t(span::scheme_write_block) + t(span::scheme_read_block) +
                        t(span::scheme_analytic_mse);
  set_metric(metrics, "ml.evaluate_s.knn", t(span::ml_evaluate_knn));
  set_metric(metrics, "ml.evaluate_s.pca", t(span::ml_evaluate_pca));
  set_metric(metrics, "ml.evaluate_s.elasticnet", t(span::ml_evaluate_elasticnet));
  set_metric(metrics, "ml.evaluate_calls",
             static_cast<double>(all.calls_of(span::ml_evaluate_knn) +
                                 all.calls_of(span::ml_evaluate_pca) +
                                 all.calls_of(span::ml_evaluate_elasticnet)));
  set_metric(metrics, "memory.sample_s", t(span::memory_sample));
  set_metric(metrics, "memory.faults_sampled",
             static_cast<double>(all.total(counter::faults_sampled)));
  set_metric(metrics, "scheme.tile_build_s", t(span::scheme_tile_build));
  set_metric(metrics, "scheme.install_s", t(span::scheme_install));
  set_metric(metrics, "scheme.write_block_s", t(span::scheme_write_block));
  set_metric(metrics, "scheme.read_block_s", t(span::scheme_read_block));
  set_metric(metrics, "scheme.analytic_mse_s", t(span::scheme_analytic_mse));
  set_metric(metrics, "scheme.words", static_cast<double>(all.total(counter::words)));
  set_metric(metrics, "scheme.corrected_words",
             static_cast<double>(all.total(counter::corrected_words)));
  set_metric(metrics, "scheme.uncorrectable_words",
             static_cast<double>(all.total(counter::uncorrectable_words)));
  set_metric(metrics, "sim.quantize_s", t(span::sim_quantize));
  set_metric(metrics, "sim.reduce_s", t(span::sim_reduce));
  set_metric(metrics, "sim.trials", static_cast<double>(all.total(counter::trials)));
  const double busy = trace.workers.time(span::sim_trial);
  set_metric(metrics, "sim.trial_busy_s", busy);
  const double pool_capacity = trace.threads * trace.campaign_seconds;
  set_metric(metrics, "sim.pool_idle_fraction",
             pool_capacity > 0.0 ? 1.0 - busy / pool_capacity : 0.0);
  set_metric(metrics, "yield.sample_mse_s", t(span::yield_sample_mse));
  set_metric(metrics, "yield.trials",
             static_cast<double>(all.calls_of(span::yield_sample_mse)));

  // Trial time no layer span covers: the workload's own bookkeeping
  // (fault tallies, word compares, stratum lookup) as the replay runs it.
  double in_trial_spans = 0.0;
  for (std::size_t i = 0; i < span_count; ++i) {
    if (static_cast<span>(i) != span::sim_trial) in_trial_spans += trace.workers.seconds[i];
  }
  const double bookkeeping = busy - in_trial_spans;
  const double capacity = trace.threads * trace.wall_seconds;
  std::cout << "layer self time as a share of traced worker time (" << trace.threads
            << " threads x " << trace.wall_seconds << " s traced wall):\n";
  print_share("memory (fault sampling)", t(span::memory_sample), capacity);
  print_share("scheme (build/install/codec/mse)", scheme, capacity);
  print_share("sim (quantizer)", t(span::sim_quantize), capacity);
  print_share("sim (sample reduction)", t(span::sim_reduce), capacity);
  print_share("ml (application evaluate)", ml, capacity);
  print_share("yield (sample_mse)", t(span::yield_sample_mse), capacity);
  print_share("scenario (per-trial bookkeeping)", bookkeeping, capacity);
  print_share("unaccounted (idle workers, scheduling)",
              capacity - t(span::memory_sample) - scheme - t(span::sim_quantize) -
                  t(span::sim_reduce) - ml - t(span::yield_sample_mse) - bookkeeping,
              capacity);
  std::cout << "tracing overhead: traced wall " << trace.wall_seconds
            << " s - untraced wall " << untraced_wall << " s = "
            << trace.wall_seconds - untraced_wall << " s\n";
}

/// Per-layer metrics and the layer-share report of a serve replay.
void report_serve_trace(const serve_trace& trace, double untraced_wall,
                        std::vector<metric>& metrics) {
  const auto sum = [](const std::vector<double>& v) {
    double total = 0.0;
    for (const double x : v) total += x;
    return total;
  };
  set_metric(metrics, "serve.store_ns.p50", median(trace.store_ns));
  set_metric(metrics, "serve.store_ns.p99", percentile(trace.store_ns, 0.99));
  set_metric(metrics, "serve.readback_ns.p50", median(trace.readback_ns));
  set_metric(metrics, "serve.readback_ns.p99", percentile(trace.readback_ns, 0.99));
  set_metric(metrics, "serve.quality_ns.p50", median(trace.quality_ns));
  set_metric(metrics, "serve.quality_ns.p99", percentile(trace.quality_ns, 0.99));
  set_metric(metrics, "serve.stores", static_cast<double>(trace.store_ns.size()));
  set_metric(metrics, "serve.readbacks", static_cast<double>(trace.readback_ns.size()));
  set_metric(metrics, "serve.quality_queries",
             static_cast<double>(trace.quality_ns.size()));
  set_metric(metrics, "serve.step_epoch_ms.p50", 1e3 * median(trace.step_epoch_seconds));
  set_metric(metrics, "serve.step_epoch_ms.max",
             1e3 * percentile(trace.step_epoch_seconds, 1.0));
  set_metric(metrics, "serve.drain_ms", 1e3 * trace.drain_seconds);
  double scrub_passes = 0.0;
  double rows_scrubbed = 0.0;
  double retirements = 0.0;
  for (const auto& tile : trace.counters.tiles) {
    scrub_passes += static_cast<double>(tile.life.scrub_passes);
    rows_scrubbed += static_cast<double>(tile.life.rows_scrubbed);
    retirements += static_cast<double>(tile.life.ce_retirements + tile.life.ue_retirements);
  }
  set_metric(metrics, "lifecycle.scrub_passes", scrub_passes);
  set_metric(metrics, "lifecycle.rows_scrubbed", rows_scrubbed);
  set_metric(metrics, "lifecycle.retirements", retirements);
  const recorder& setup = trace.setup;
  set_metric(metrics, "memory.sample_s", setup.time(span::memory_sample));
  set_metric(metrics, "memory.faults_sampled",
             static_cast<double>(setup.total(counter::faults_sampled)));
  set_metric(metrics, "scheme.tile_build_s", setup.time(span::scheme_tile_build));
  set_metric(metrics, "scheme.install_s", setup.time(span::scheme_install));
  set_metric(metrics, "scheme.write_block_s", setup.time(span::scheme_write_block));

  const double store = 1e-9 * sum(trace.store_ns);
  const double readback = 1e-9 * sum(trace.readback_ns);
  const double quality = 1e-9 * sum(trace.quality_ns);
  const double lifecycle = sum(trace.step_epoch_seconds) + trace.drain_seconds;
  std::cout << "service construction " << trace.setup_seconds
            << " s; replayed per call: tile build "
            << setup.time(span::scheme_tile_build) << " s, fault sample "
            << setup.time(span::memory_sample) << " s, install "
            << setup.time(span::scheme_install) << " s, first write "
            << setup.time(span::scheme_write_block) << " s\n";
  std::cout << "layer self time as a share of traced wall (1 thread x "
            << trace.wall_seconds << " s):\n";
  print_share("serve store", store, trace.wall_seconds);
  print_share("serve readback", readback, trace.wall_seconds);
  print_share("serve quality_query", quality, trace.wall_seconds);
  print_share("lifecycle (step_epoch + drain)", lifecycle, trace.wall_seconds);
  print_share("unaccounted (request loop)",
              trace.wall_seconds - store - readback - quality - lifecycle,
              trace.wall_seconds);
  std::cout << "tracing overhead: traced wall " << trace.wall_seconds
            << " s - untraced 1-client wall " << untraced_wall << " s = "
            << trace.wall_seconds - untraced_wall << " s\n";
}

// --------------------------------------------------------- main

int run(const options& opts) {
  const json_value host = host_fingerprint(opts.source);
  if (opts.host_only) {
    std::cout << host.dump(0) << "\n";
    return 0;
  }
  const std::string text = read_text(opts.spec_path);
  const bool serve = json_value::parse(text).find("serve") != nullptr;

  // Set-up, repeated on every allowed CPU: how fast one CPU runs it
  // depends on what shares that core, so setup_s is the mean over CPUs
  // of each CPU's median. The last runner/spec is the one measured.
  std::optional<urmem::scenario_runner> runner;
  std::optional<urmem::scenario_spec> spec;
  const auto set_up = [&] {
    const auto start = clock_type::now();
    spec.emplace(load_spec(text, opts));
    if (serve) {
      const urmem::memory_service service(*spec);
      return seconds_since(start);
    }
    runner.emplace(*spec);
    return seconds_since(start);
  };
  const std::vector<int> cpus = allowed_cpus();
  double setup_seconds = set_up();
  if (!opts.digest_only) {
    double sum = 0.0;
    for (std::size_t i = 0; i < cpus.size(); ++i) {
      const cpu_pin pin(cpu_window(cpus, i, 1));
      std::vector<double> samples;
      for (int repeat = 0; repeat < setup_repeats_per_cpu; ++repeat) {
        samples.push_back(set_up());
      }
      sum += median(samples);
    }
    if (!cpus.empty()) setup_seconds = sum / static_cast<double>(cpus.size());
  }
  const std::uint32_t clients = serve ? spec->serve.clients : 0;

  if (opts.digest_only) {
    const run_result result =
        serve ? serve_run(*spec, clients, nullptr) : campaign_run(*runner);
    std::cout << "digest " << result.digest << "\n";
    return 0;
  }

  std::cout << std::setprecision(10);
  std::cout << "perfbench " << opts.workload << " seed=" << opts.seed
            << " seconds=" << opts.seconds << " trace=" << opts.trace << "\n";
  std::cout << "host: " << host.dump(0) << "\n";
  digest_check digests;
  const std::optional<std::string> recorded = recorded_digest(opts, host);
  if (recorded.has_value()) {
    digests.reference = *recorded;
    std::cout << "digest: checking against recorded " << *recorded << "\n";
  } else {
    std::cout << "digest: no recorded digest for this seed/host/size; "
                 "checking self-consistency\n";
  }

  std::vector<metric> metrics;
  if (opts.trace == 0) {
    std::vector<double> walls;
    std::vector<double> rates;
    std::uint64_t work = 0;
    urmem::latency_histogram latency;
    // One untimed warm-up run: the first run of a process pays page
    // faults and allocator growth that later runs do not.
    const run_result warm_up =
        serve ? serve_run(*spec, clients, nullptr) : campaign_run(*runner);
    digests.check(warm_up.digest, "warm-up run");

    // Timed runs are sized from the warm-up to fill --seconds. Campaign
    // run i is confined to the i-th window of `threads` consecutive CPUs,
    // in whole rotations: how fast a campaign goes depends on which vCPUs
    // its workers land on, and rotating gives every process the same mix
    // instead of the scheduler's pick. Serve runs unconfined; its clients
    // and admin thread meet at every epoch boundary, and confining them
    // made runs slower and no steadier.
    const std::size_t width = serve ? 0 : spec->run.threads;
    const std::size_t windows = width > 0 && width < cpus.size() ? cpus.size() : 1;
    const auto rotations = static_cast<std::size_t>(std::max<long long>(
        1, std::llround(opts.seconds / (warm_up.wall * static_cast<double>(windows)))));
    for (std::size_t i = 0; i < rotations * windows; ++i) {
      const std::optional<cpu_pin> pin =
          windows > 1 ? std::optional<cpu_pin>(std::in_place, cpu_window(cpus, i, width))
                      : std::nullopt;
      const run_result result =
          serve ? serve_run(*spec, clients, &latency) : campaign_run(*runner);
      digests.check(result.digest, "end-to-end run " + std::to_string(i));
      walls.push_back(result.wall);
      rates.push_back(static_cast<double>(result.work) / result.wall);
      work = result.work;
    }

    const double wall = median(walls);
    std::cout << "runs " << walls.size() << ", " << work
              << (serve ? " requests" : " trials") << " each; digest "
              << digests.reference << "\nrun walls (s):";
    for (const double w : walls) std::cout << ' ' << w;
    std::cout << "\n";
    metrics.push_back({"wall_s", wall, "s"});
    metrics.push_back({"setup_s", setup_seconds, "s"});
    metrics.push_back({"peak_rss_mb", peak_rss_mb(), "MB"});
    metrics.push_back({"throughput_rps", median(rates), "1/s"});
    if (serve) {
      std::cout << "latency samples " << latency.count() << " (" << walls.size()
                << " runs merged)\n";
      metrics.push_back({"latency_p50_us", 1e-3 * interpolated_quantile(latency, 0.50), "us"});
      metrics.push_back({"latency_p99_us", 1e-3 * interpolated_quantile(latency, 0.99), "us"});
    } else {
      // A campaign run is one request, and a run makes 4-40 of them: no
      // percentile above the median has ten samples beyond it, so the
      // tail metric repeats the median instead of reporting the slowest run.
      std::cout << "latency samples " << walls.size()
                << " (one per scenario run; p99 repeats the median)\n";
      metrics.push_back({"latency_p50_us", 1e6 * wall, "us"});
      metrics.push_back({"latency_p99_us", 1e6 * wall, "us"});
    }
  } else {
    metrics = per_layer_metrics();
    if (serve) {
      // The first run warms the process up; the 1-client run is the
      // untraced baseline of the single-threaded replay.
      const run_result two = serve_run(*spec, clients, nullptr);
      digests.check(two.digest, std::to_string(clients) + "-client run");
      const run_result one = serve_run(*spec, 1, nullptr);
      digests.check(one.digest, "1-client run");
      const serve_trace trace = replay_serve(*spec);
      digests.check(digest_of(trace.counters.to_json()), "traced replay");
      report_serve_trace(trace, one.wall, metrics);
    } else {
      // A warm-up run, then (without a recorded digest) the thread-count
      // check, then the untraced baseline of the tracing overhead.
      digests.check(campaign_run(*runner).digest, "warm-up run");
      if (!recorded.has_value()) {
        const urmem::scenario_runner single(load_spec(text, opts, {{"run.threads", "1"}}));
        digests.check(campaign_run(single).digest, "1-thread run");
      }
      const run_result untraced = campaign_run(*runner);
      digests.check(untraced.digest, "untraced run");
      const campaign_trace trace = [&] {
        const quiet_stderr quiet;
        return replay_campaign(*spec);
      }();
      digests.check(report_digest(trace.report), "traced replay");
      report_campaign_trace(trace, untraced.wall, metrics);
    }
  }

  const bool correct = digests.failed == 0;
  json_value values = json_value::make_object();
  for (const metric& m : metrics) {
    if (!std::isfinite(m.value)) throw std::runtime_error("non-finite metric " + m.name);
    std::cout << "metric " << m.name << " = " << m.value << " " << m.unit << "\n";
    json_value entry = json_value::make_object();
    entry.set("value", m.value);
    entry.set("unit", m.unit);
    values.set(m.name, std::move(entry));
  }
  json_value result = json_value::make_object();
  result.set("correct", correct);
  result.set("attempted", digests.attempted);
  result.set("failed", digests.failed);
  result.set("metrics", std::move(values));
  std::cout << result.dump(0) << std::endl;
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  // Keep freed heap memory mapped. By default glibc trims the heap and
  // the campaigns re-fault their tile buffers on every trial; on a
  // virtual machine that page-fault cost swings by up to 2x from run
  // to run and drowns every other change (README.md, "Host noise").
  if (mallopt(M_MMAP_THRESHOLD, 32 << 20) == 0 || mallopt(M_TRIM_THRESHOLD, 512 << 20) == 0) {
    std::cerr << "urmem_perfbench: mallopt failed; timings will be noisier\n";
  }
  try {
    return perfbench::run(perfbench::parse_args(argc, argv));
  } catch (const std::exception& error) {
    std::cerr << "urmem_perfbench: " << error.what() << "\n";
    return 2;
  }
}
