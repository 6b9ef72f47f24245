// Parameterized end-to-end sweeps of the storage pipeline: every
// protection scheme x every fault polarity x several fault densities,
// checking the invariants that must survive the full
// quantize -> encode -> corrupt -> decode -> dequantize path.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <tuple>

#include "urmem/sim/applications.hpp"
#include "urmem/sim/memory_pipeline.hpp"
#include "urmem/sim/quantizer.hpp"

namespace urmem {
namespace {

enum class scheme_id { none, secded, pecc, nfm1, nfm3, nfm5 };

scheme_factory factory_of(scheme_id id) {
  switch (id) {
    case scheme_id::none: return [](std::uint32_t) { return make_scheme_none(); };
    case scheme_id::secded:
      return [](std::uint32_t) { return make_scheme_secded(); };
    case scheme_id::pecc: return [](std::uint32_t) { return make_scheme_pecc(); };
    case scheme_id::nfm1:
      return [](std::uint32_t rows) { return make_scheme_shuffle(rows, 32, 1); };
    case scheme_id::nfm3:
      return [](std::uint32_t rows) { return make_scheme_shuffle(rows, 32, 3); };
    case scheme_id::nfm5:
      return [](std::uint32_t rows) { return make_scheme_shuffle(rows, 32, 5); };
  }
  return {};
}

std::string name_of(scheme_id id) {
  switch (id) {
    case scheme_id::none: return "none";
    case scheme_id::secded: return "secded";
    case scheme_id::pecc: return "pecc";
    case scheme_id::nfm1: return "nfm1";
    case scheme_id::nfm3: return "nfm3";
    case scheme_id::nfm5: return "nfm5";
  }
  return "?";
}

std::string name_of(fault_polarity polarity) {
  switch (polarity) {
    case fault_polarity::flip: return "flip";
    case fault_polarity::random_stuck: return "stuck";
    case fault_polarity::mixed: return "mixed";
  }
  return "?";
}

using sweep_param = std::tuple<scheme_id, fault_polarity, std::uint64_t>;

class PipelineSweep : public ::testing::TestWithParam<sweep_param> {};

/// Invariant: the pipeline never crashes, preserves the matrix shape,
/// and every restored value stays inside the codec's representable
/// range, for any scheme, polarity, and fault density.
TEST_P(PipelineSweep, RestoredValuesStayRepresentable) {
  const auto [id, polarity, faults] = GetParam();
  rng gen(11 + static_cast<std::uint64_t>(id) * 7 + faults);
  matrix m(96, 8);
  for (std::size_t r = 0; r < m.rows(); ++r) {
    for (std::size_t c = 0; c < m.cols(); ++c) m(r, c) = 3.0 * gen.normal();
  }
  storage_config config;
  config.rows_per_tile = 1024;
  store_tile tile(config, factory_of(id));
  pipeline_stats stats;
  const matrix back =
      store_and_readback(quantize(m, config), tile,
                         exact_fault_injector(faults, polarity), gen, &stats)
          .values;
  ASSERT_EQ(back.rows(), m.rows());
  ASSERT_EQ(back.cols(), m.cols());
  EXPECT_EQ(stats.injected_faults, faults);
  const fixed_point_codec codec(config.word_bits, config.frac_bits);
  for (const double v : back.data()) {
    EXPECT_GE(v, codec.min_value());
    EXPECT_LE(v, codec.max_value());
    EXPECT_TRUE(std::isfinite(v));
  }
}

/// Invariant: stuck-at and mixed populations can only be *milder* than
/// always-flip faults in aggregate (a stuck cell agreeing with the data
/// is invisible); compare mean absolute error under matched fault maps.
TEST_P(PipelineSweep, PolarityNeverWorseThanFlipOnAverage) {
  const auto [id, polarity, faults] = GetParam();
  if (polarity == fault_polarity::flip || faults == 0) GTEST_SKIP();
  matrix m(96, 8);
  rng data_gen(5);
  for (std::size_t r = 0; r < m.rows(); ++r) {
    for (std::size_t c = 0; c < m.cols(); ++c) m(r, c) = 3.0 * data_gen.normal();
  }
  storage_config config;
  config.rows_per_tile = 1024;
  const quantized_matrix clean = quantize(m, config);
  store_tile tile(config, factory_of(id));

  const auto mean_abs_error = [&](fault_polarity p, std::uint64_t seed) {
    rng gen(seed);
    const matrix back =
        store_and_readback(clean, tile, exact_fault_injector(faults, p), gen)
            .values;
    double acc = 0.0;
    for (std::size_t i = 0; i < m.rows() * m.cols(); ++i) {
      acc += std::abs(back.data()[i] - m.data()[i]);
    }
    return acc / static_cast<double>(m.rows() * m.cols());
  };

  // Average both polarities over a few seeds (positions differ per
  // draw; the aggregate ordering is what the invariant promises).
  double flip_total = 0.0;
  double other_total = 0.0;
  for (std::uint64_t s = 1; s <= 5; ++s) {
    flip_total += mean_abs_error(fault_polarity::flip, s);
    other_total += mean_abs_error(polarity, s);
  }
  EXPECT_LE(other_total, flip_total * 1.35 + 1e-9)
      << name_of(id) << "/" << name_of(polarity);
}

INSTANTIATE_TEST_SUITE_P(
    AllCombos, PipelineSweep,
    ::testing::Combine(::testing::Values(scheme_id::none, scheme_id::secded,
                                         scheme_id::pecc, scheme_id::nfm1,
                                         scheme_id::nfm3, scheme_id::nfm5),
                       ::testing::Values(fault_polarity::flip,
                                         fault_polarity::random_stuck,
                                         fault_polarity::mixed),
                       ::testing::Values(std::uint64_t{1}, std::uint64_t{16},
                                         std::uint64_t{128})),
    [](const ::testing::TestParamInfo<sweep_param>& info) {
      return name_of(std::get<0>(info.param)) + "_" +
             name_of(std::get<1>(info.param)) + "_" +
             std::to_string(std::get<2>(info.param));
    });

}  // namespace
}  // namespace urmem
