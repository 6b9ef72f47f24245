// Micro-benchmarks of the ML layer at its Fig. 7 problem sizes: one
// trial of the quality experiment costs one evaluate() (fit on the
// stored training features, score on the clean holdout) of its Table 1
// application, so these are the per-trial kernels of the figure.
//
// Timed:
//   * evaluate() of each Table 1 application on its clean features;
//   * the PCA pieces: covariance of the 400 x 60 madelon-like training
//     features, jacobi_eigen of that 60 x 60 covariance, and eight of
//     them through the lane-batched jacobi_top_vectors (top 5 vectors,
//     as the Fig. 7 PCA fits them), reported per matrix;
//   * kNN (k = 5) score of the 300-row HAR-like holdout against the
//     1200 training rows, reported per query.
// Emits BENCH_micro_ml.json (see README "Bench telemetry").
//
// Flags:
//   --seed=S         application data seed         (default 7, as Fig. 7)
//   --min-time-ms=T  min wall time per timed bench (default 200)
#include <bit>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "urmem/datasets/generators.hpp"
#include "urmem/ml/knn.hpp"
#include "urmem/ml/pca.hpp"
#include "urmem/ml/preprocessing.hpp"
#include "urmem/sim/applications.hpp"

namespace {

using namespace urmem;

std::uint64_t bits_of(double value) {
  return std::bit_cast<std::uint64_t>(value);
}

std::string shape(const matrix& m) {
  return std::to_string(m.rows()) + "x" + std::to_string(m.cols());
}

}  // namespace

int main(int argc, char** argv) {
  const bench::cli_flags args(argc, argv);
  bench::banner("micro_ml — ML kernels at Fig. 7 sizes",
                "per-trial retraining cost behind Fig. 7 / Table 1");

  const std::uint64_t seed = args.get_u64("seed", 7);
  const double min_ms = args.get_double("min-time-ms", 200.0);
  args.check_consumed();

  std::vector<bench::micro_result> results;

  for (const auto& app : make_all_applications(seed)) {
    const matrix& features = app->train_features();
    std::cout << app->name() << " clean metric: " << app->evaluate(features)
              << "\n";
    results.push_back(bench::run_micro(
        app->name() + " evaluate " + shape(features), 1,
        [&] { bench::keep(bits_of(app->evaluate(features))); }, min_ms));
  }

  {
    const auto pca_app = make_pca_app(seed);
    const matrix& features = pca_app->train_features();
    results.push_back(bench::run_micro(
        "covariance " + shape(features), 1,
        [&] { bench::keep(bits_of(covariance(features)(0, 0))); }, min_ms));
    const matrix cov = covariance(features);
    results.push_back(bench::run_micro(
        "jacobi_eigen " + shape(cov), 1,
        [&] { bench::keep(bits_of(jacobi_eigen(cov).values[0])); }, min_ms));
    results.push_back(bench::run_micro(
        "8 x jacobi " + shape(cov) + " (lanes)", 8,
        [&] {
          const std::vector<matrix> top = jacobi_top_vectors(
              8, 5, [&](std::size_t) { return cov; });
          bench::keep(bits_of(top[7](0, 0)));
        },
        min_ms));
  }

  {
    // The knn application's split and scaling, rebuilt here because the
    // application does not expose its labels or holdout.
    const dataset har = make_har_like({.seed = seed ^ 0x686172ULL});
    rng gen(splitmix64(seed ^ 0x73706c6974ULL));
    const split_indices split = train_test_split(har.size(), 0.2, gen);
    standard_scaler scaler;
    const matrix train =
        scaler.fit_transform(take_rows(har.features, split.train));
    const matrix test = scaler.transform(take_rows(har.features, split.test));
    const std::vector<int> test_labels = take(har.labels, split.test);
    knn_classifier model(5);
    model.fit(train, take(har.labels, split.train));
    results.push_back(bench::run_micro(
        "knn score per query (k=5, " + std::to_string(split.train.size()) +
            " train rows)",
        test.rows(),
        [&] { bench::keep(bits_of(model.score(test, test_labels))); }, min_ms));
  }

  std::cout << "\n";
  bench::print_micro_table(results);

  bench::json_object payload = bench::bench_envelope("micro_ml");
  bench::json_object config;
  config.add("seed", seed).add("min_time_ms", min_ms);
  payload.add_raw("config", config.str());
  std::vector<std::string> entries;
  entries.reserve(results.size());
  for (const auto& r : results) entries.push_back(bench::micro_json(r));
  payload.add_raw("results", bench::json_array(entries));
  bench::write_bench_json("micro_ml", payload);
  return 0;
}
