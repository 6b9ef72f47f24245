// End-to-end integration tests: the full paper flow from supply voltage
// to application quality — cell model -> fault map -> BIST -> FM-LUT ->
// protected storage -> benchmark metric — plus the redefined yield
// criterion of Sec. 4.
#include <gtest/gtest.h>

#include <cmath>

#include "urmem/bist/bist_engine.hpp"
#include "urmem/memory/cell_failure_model.hpp"
#include "urmem/scheme/protected_memory.hpp"
#include "urmem/sim/applications.hpp"
#include "urmem/sim/campaign_runner.hpp"
#include "urmem/sim/memory_pipeline.hpp"
#include "urmem/yield/mse_distribution.hpp"

namespace urmem {
namespace {

TEST(IntegrationTest, VoltageToBistToShuffleFlow) {
  // 1. Scale the supply until the 2048x32 array has real failures.
  const auto model = cell_failure_model::default_28nm(2024);
  const array_geometry geometry{2048, 32};
  const double vdd = model.vdd_for_pcell(5e-4);
  const fault_map physical = model.faults_at_voltage(geometry, vdd);
  ASSERT_GT(physical.fault_count(), 5u);

  // 2. BIST discovers the faults and programs the FM-LUT.
  sram_array array(physical);
  shuffle_scheme scheme(2048, 32, 5);
  const bist_result bist = bist_engine().run_and_program(array, scheme);
  EXPECT_EQ(bist.faults.fault_count(), physical.fault_count());
  EXPECT_FALSE(bist.traditional_accept());  // zero-failure criterion fails

  // 3. The shuffled memory now bounds every single-fault row's error to
  // the LSB (nFM = 5).
  rng gen(1);
  for (const std::uint32_t row : physical.faulty_rows()) {
    if (physical.faults_in_row(row).size() != 1) continue;
    const word_t data = gen() & word_mask(32);
    array.write(row, scheme.apply_write(row, data));
    const word_t readback = scheme.restore_read(row, array.read(row));
    EXPECT_LE(std::abs(to_signed(readback, 32) - to_signed(data, 32)), 1);
  }
}

TEST(IntegrationTest, RelaxedYieldCriterionAcceptsWhatEccYieldRejects) {
  // Sec. 2/4: the traditional zero-failure criterion rejects virtually
  // every die at scaled voltage, while the MSE criterion with
  // bit-shuffling accepts almost all of them.
  const double pcell = 5e-6;
  const std::uint64_t cells = geometry_16kb_x32().cells();
  const double traditional = cell_failure_model::array_yield(cells, pcell);
  EXPECT_LT(traditional, 0.6);  // ~52% even at this mild Pcell

  mse_cdf_config config;
  config.total_runs = 100'000;
  config.n_max = 40;
  config.include_fault_free = true;
  const auto scheme = make_scheme_shuffle(4096, 32, 1);
  campaign_runner runner({.threads = 2, .seed = config.seed});
  const empirical_cdf cdf = compute_mse_cdf(runner, *scheme, 4096, pcell, config);
  // Quality-aware yield at the paper's MSE target of 1e6.
  EXPECT_GT(yield_at_mse(cdf, 1e6), 0.999);
}

TEST(IntegrationTest, SchemeOrderingOnRealApplication) {
  // Heavy fault pressure on the KNN app: quality(none) <= quality(pecc)
  // <= quality(shuffle nFM>=2), evaluated on identical fault streams.
  const auto app = make_knn_app(3);
  const double clean = app->evaluate(app->train_features());

  const auto run = [&](const scheme_factory& factory, std::uint64_t seed) {
    rng gen(seed);
    double total = 0.0;
    const int repeats = 6;
    for (int i = 0; i < repeats; ++i) {
      const matrix stored =
          store_and_readback(app->train_features(), storage_config{}, factory,
                             exact_fault_injector(220), gen);
      total += app->evaluate(stored);
    }
    return total / repeats / clean;
  };

  const double none = run([](std::uint32_t) { return make_scheme_none(); }, 11);
  const double pecc = run([](std::uint32_t) { return make_scheme_pecc(); }, 11);
  const double shuffled =
      run([](std::uint32_t rows) { return make_scheme_shuffle(rows, 32, 2); }, 11);

  EXPECT_LT(none, pecc);
  EXPECT_LT(pecc, shuffled + 0.01);
  EXPECT_GT(shuffled, 0.97);  // Fig. 7c: nFM=2 hugs the clean metric
}

TEST(IntegrationTest, EccDiscardConventionMatchesFig7) {
  // The paper discards samples with more than one error per word so
  // H(39,32) is exact. Verify: rows with <= 1 fault always decode
  // cleanly through the full pipeline.
  rng gen(9);
  protected_memory memory(1024, make_scheme_secded());
  fault_map faults(memory.storage_geometry());
  for (std::uint32_t r = 0; r < 1024; r += 2) {
    faults.add({r, static_cast<std::uint32_t>(gen.uniform_below(39)),
                fault_kind::flip});
  }
  memory.set_fault_map(std::move(faults));
  for (std::uint32_t r = 0; r < 1024; ++r) {
    const word_t data = gen() & word_mask(32);
    memory.write(r, data);
    EXPECT_EQ(memory.read(r).data, data);
  }
}

TEST(IntegrationTest, VoltageScalingEnergyQualityNarrative) {
  // The paper's motivation: scaling VDD raises Pcell by orders of
  // magnitude; bit-shuffling keeps the achievable MSE budget flat while
  // the unprotected memory deteriorates.
  const auto model = cell_failure_model::default_28nm();
  mse_cdf_config config;
  config.total_runs = 50'000;
  config.n_max = 60;
  const auto none = make_scheme_none();
  const auto shuffled = make_scheme_shuffle(4096, 32, 1);
  campaign_runner runner({.threads = 2, .seed = config.seed});

  double prev_gap = 0.0;
  for (const double pcell : {1e-6, 1e-5, 5e-5}) {
    const double q_none = mse_for_yield(
        compute_mse_cdf(runner, *none, 4096, pcell, config), 0.95);
    const double q_shuffle = mse_for_yield(
        compute_mse_cdf(runner, *shuffled, 4096, pcell, config), 0.95);
    const double gap = q_none / q_shuffle;
    EXPECT_GT(gap, 30.0) << "pcell=" << pcell;
    EXPECT_GE(gap, prev_gap * 0.5);  // the advantage persists as VDD drops
    prev_gap = gap;
    (void)model;
  }
}

}  // namespace
}  // namespace urmem
