// Tests for the aging (temporal degradation) model and the multimedia
// PSNR workload.
#include <gtest/gtest.h>

#include <set>

#include "urmem/bist/bist_engine.hpp"
#include "urmem/datasets/generators.hpp"
#include "urmem/memory/cell_failure_model.hpp"
#include "urmem/ml/metrics.hpp"
#include "urmem/sim/applications.hpp"
#include "urmem/sim/memory_pipeline.hpp"
#include "urmem/sim/quantizer.hpp"

namespace urmem {
namespace {

TEST(AgingTest, ShiftRaisesPcellMonotonically) {
  const auto fresh = cell_failure_model::default_28nm();
  const auto aged = fresh.aged(0.03);
  for (const double vdd : {0.7, 0.8, 0.9, 1.0}) {
    EXPECT_GT(aged.pcell(vdd), fresh.pcell(vdd));
  }
}

TEST(AgingTest, AgedFaultMapIsSupersetOfFreshOne) {
  // Sec. 3: POST "provides the advantage of tracking potential failures
  // induced by temporal degradation" — meaningful because aging only
  // ever adds faults.
  const auto fresh = cell_failure_model::default_28nm(41);
  const auto aged = fresh.aged(0.05);
  const array_geometry geometry{128, 32};
  const double vdd = fresh.vdd_for_pcell(1e-3);

  const fault_map before = fresh.faults_at_voltage(geometry, vdd);
  const fault_map after = aged.faults_at_voltage(geometry, vdd);
  EXPECT_GT(after.fault_count(), before.fault_count());

  std::set<std::pair<std::uint32_t, std::uint32_t>> aged_cells;
  for (const fault& f : after.all_faults()) aged_cells.insert({f.row, f.col});
  for (const fault& f : before.all_faults()) {
    EXPECT_TRUE(aged_cells.contains({f.row, f.col}));
  }
}

TEST(AgingTest, BtiShiftIsLogTime) {
  EXPECT_DOUBLE_EQ(cell_failure_model::bti_vcrit_shift(0.0), 0.0);
  const double y1 = cell_failure_model::bti_vcrit_shift(9.0);    // 1 decade
  const double y2 = cell_failure_model::bti_vcrit_shift(99.0);   // 2 decades
  EXPECT_NEAR(y1, 0.012, 1e-9);
  EXPECT_NEAR(y2, 0.024, 1e-9);
}

TEST(AgingTest, PostReprogrammingRestoresProtection) {
  // End-to-end POST story: the device ages, new cells fail, a power-on
  // BIST reprograms the LUT, and the error bound holds again.
  const auto fresh = cell_failure_model::default_28nm(43);
  const array_geometry geometry{256, 32};
  const double vdd = fresh.vdd_for_pcell(3e-3);

  sram_array array(fresh.faults_at_voltage(geometry, vdd));
  shuffle_scheme scheme(geometry.rows, geometry.width, 5);
  bist_engine().run_and_program(array, scheme);

  // Years later: more failures appear; the OLD LUT is now stale.
  const auto aged =
      fresh.aged(cell_failure_model::bti_vcrit_shift(5.0 * 8760.0));  // 5 years
  array.set_faults(aged.faults_at_voltage(geometry, vdd));

  // POST re-test reprograms; all single-fault rows meet the bound again.
  bist_engine().run_and_program(array, scheme);
  rng gen(1);
  const fault_map& now = array.faults();
  for (const std::uint32_t row : now.faulty_rows()) {
    if (now.faults_in_row(row).size() != 1) continue;
    const word_t data = gen() & word_mask(32);
    array.write(row, scheme.apply_write(row, data));
    const word_t readback = scheme.restore_read(row, array.read(row));
    EXPECT_LE(std::abs(to_signed(readback, 32) - to_signed(data, 32)), 1);
  }
}

TEST(AgingTest, NegativeShiftRejected) {
  EXPECT_THROW((void)cell_failure_model::default_28nm().aged(-0.01),
               std::invalid_argument);
  EXPECT_THROW((void)cell_failure_model::bti_vcrit_shift(-1.0), std::invalid_argument);
}

// ---------------------------------------------------------------- image

TEST(ImageTest, GeneratorShapeAndRange) {
  const dataset img = make_image_like();
  EXPECT_EQ(img.features.rows(), 96u);
  EXPECT_EQ(img.features.cols(), 96u);
  for (const double v : img.features.data()) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 255.0);
  }
}

TEST(ImageTest, SpatiallyCorrelatedNotWhiteNoise) {
  // Neighboring pixels must be far more similar than random pairs.
  const dataset img = make_image_like();
  const matrix& m = img.features;
  double neighbor_diff = 0.0;
  std::size_t count = 0;
  for (std::size_t y = 0; y < m.rows(); ++y) {
    for (std::size_t x = 0; x + 1 < m.cols(); ++x) {
      neighbor_diff += std::abs(m(y, x) - m(y, x + 1));
      ++count;
    }
  }
  neighbor_diff /= static_cast<double>(count);
  double far_diff = std::abs(m(0, 0) - m(m.rows() / 2, m.cols() / 2)) +
                    std::abs(m(1, 1) - m(m.rows() - 1, m.cols() - 2));
  EXPECT_LT(neighbor_diff, 20.0);
  (void)far_diff;  // magnitude check above is the meaningful assertion
}

TEST(PsnrTest, KnownValues) {
  const std::vector<double> a{100.0, 100.0};
  EXPECT_TRUE(std::isinf(psnr_db(a, a)));
  const std::vector<double> b{100.0, 116.0};  // MSE = 128
  EXPECT_NEAR(psnr_db(a, b), 10.0 * std::log10(255.0 * 255.0 / 128.0), 1e-9);
}

TEST(ImageAppTest, QuantizationPsnrIsHighAndFaultsDegradeIt) {
  const auto app = make_image_app();
  EXPECT_EQ(app->metric_name(), "PSNR [dB]");
  const matrix_quantizer quantizer;
  const double clean = app->evaluate(quantizer.roundtrip(app->train_features()));
  EXPECT_GT(clean, 80.0);  // Q15.16 quantization noise is tiny vs peak 255

  // Both schemes store the image through the same 60 faults.
  const storage_config config;
  const quantized_matrix image = quantize(app->train_features(), config);
  const auto stored_psnr = [&](const scheme_factory& factory) {
    store_tile tile(config, factory);
    rng gen(3);
    return app->evaluate(
        store_and_readback(image, tile, exact_fault_injector(60), gen).values);
  };
  // MSB flips crush PSNR.
  EXPECT_LT(stored_psnr([](std::uint32_t) { return make_scheme_none(); }),
            clean - 20.0);
  EXPECT_GT(stored_psnr([](std::uint32_t rows) {
              return make_scheme_shuffle(rows, 32, 5);
            }),
            clean - 1.0);
}

}  // namespace
}  // namespace urmem
