// Tests for the hardware cost model behind Fig. 6: structural gate
// counts, the ~13-gate-delay SECDED decode of ref. [17], and the
// relative overhead ordering the paper reports.
#include <gtest/gtest.h>

#include "urmem/hwmodel/blocks.hpp"
#include "urmem/hwmodel/overhead_model.hpp"

namespace urmem {
namespace {

overhead_model paper_model() {
  return overhead_model(gate_library::fdsoi_28nm(), sram_macro_model::fdsoi_28nm(),
                        geometry_16kb_x32());
}

TEST(BlocksTest, XorTreeGateCountAndDepth) {
  const hw_blocks blocks(gate_library::fdsoi_28nm());
  const logic_cost tree = blocks.xor_tree(32, 0);
  EXPECT_DOUBLE_EQ(tree.gate_count, 31.0);
  // depth ceil(log2 32) = 5 XOR levels.
  EXPECT_DOUBLE_EQ(tree.delay_ps, 5.0 * gate_library::fdsoi_28nm().xor2.delay_ps);
  EXPECT_DOUBLE_EQ(blocks.xor_tree(1, 0).gate_count, 0.0);
}

TEST(BlocksTest, RotatorScalesWithStages) {
  const hw_blocks blocks(gate_library::fdsoi_28nm());
  for (unsigned stages = 1; stages <= 5; ++stages) {
    const logic_cost rot = blocks.barrel_rotator(32, stages);
    EXPECT_DOUBLE_EQ(rot.gate_count, 32.0 * stages);
  }
  EXPECT_THROW((void)blocks.barrel_rotator(32, 6), std::invalid_argument);
}

TEST(BlocksTest, EncoderSmallerThanDecoder) {
  const hw_blocks blocks(gate_library::fdsoi_28nm());
  const hamming_secded code(32);
  EXPECT_LT(blocks.secded_encoder(code).gate_count,
            blocks.secded_decoder(code).gate_count);
}

TEST(OverheadTest, SecdedDecodeIsAboutThirteenGateDelays) {
  // Ref. [17]: SECDED decode adds ~13 gate delays to the read path.
  const auto model = paper_model();
  const double delays = model.decoder_gate_delays(hamming_secded(32));
  EXPECT_GT(delays, 9.0);
  EXPECT_LT(delays, 18.0);
}

TEST(OverheadTest, SmallerCodeIsCheaper) {
  const auto model = paper_model();
  const overhead_metrics h39 = model.secded(hamming_secded(32));
  const overhead_metrics h22_as_full = model.pecc(priority_ecc(32, 16));
  EXPECT_LT(h22_as_full.read_energy_fj, h39.read_energy_fj);
  EXPECT_LT(h22_as_full.read_delay_ps, h39.read_delay_ps);
  EXPECT_LT(h22_as_full.area_um2, h39.area_um2);
}

TEST(OverheadTest, ShuffleOverheadMonotoneInNfm) {
  const auto model = paper_model();
  overhead_metrics prev{};
  for (unsigned n_fm = 1; n_fm <= 5; ++n_fm) {
    const overhead_metrics m = model.shuffle(n_fm);
    EXPECT_GT(m.read_energy_fj, prev.read_energy_fj) << "nFM=" << n_fm;
    EXPECT_GT(m.read_delay_ps, prev.read_delay_ps) << "nFM=" << n_fm;
    EXPECT_GT(m.area_um2, prev.area_um2) << "nFM=" << n_fm;
    prev = m;
  }
}

TEST(OverheadTest, ShuffleBeatsEccAcrossTheBoard) {
  // Fig. 6: every nFM option costs less than H(39,32) SECDED in read
  // power, read delay, and area.
  const auto model = paper_model();
  const overhead_metrics base = model.secded(hamming_secded(32));
  for (unsigned n_fm = 1; n_fm <= 5; ++n_fm) {
    const relative_overhead rel =
        overhead_model::relative(model.shuffle(n_fm), base);
    EXPECT_LT(rel.read_power, 1.0) << "nFM=" << n_fm;
    EXPECT_LT(rel.read_delay, 1.0) << "nFM=" << n_fm;
    EXPECT_LT(rel.area, 1.0) << "nFM=" << n_fm;
  }
}

TEST(OverheadTest, PaperBandsForBestCaseSavings) {
  // Paper: up to 83% read power, 77% read delay, 89% area savings vs
  // SECDED (nFM = 1). The structural model must land in generous bands
  // around those best-case numbers (the exact values are printed by
  // `urmem-run scenarios/fig6_overhead.json`).
  const auto model = paper_model();
  const overhead_metrics base = model.secded(hamming_secded(32));
  const relative_overhead best = overhead_model::relative(model.shuffle(1), base);
  EXPECT_LT(best.read_power, 0.35);  // paper 0.17
  EXPECT_LT(best.read_delay, 0.45);  // paper 0.23
  EXPECT_LT(best.area, 0.30);        // paper 0.11
}

TEST(OverheadTest, WorstCaseShuffleStillSaves) {
  // Paper: at least 20% power / 41% delay / 32% area savings (nFM = 5).
  const auto model = paper_model();
  const overhead_metrics base = model.secded(hamming_secded(32));
  const relative_overhead worst = overhead_model::relative(model.shuffle(5), base);
  EXPECT_LT(worst.read_power, 0.95);
  EXPECT_LT(worst.read_delay, 0.80);
  EXPECT_LT(worst.area, 0.85);
}

TEST(OverheadTest, ShuffleBeatsPeccAtLowNfm) {
  // Paper: up to 59/64/57% savings vs P-ECC.
  const auto model = paper_model();
  const overhead_metrics pecc = model.pecc(priority_ecc(32, 16));
  const overhead_metrics nfm1 = model.shuffle(1);
  EXPECT_LT(nfm1.read_energy_fj, pecc.read_energy_fj * 0.8);
  EXPECT_LT(nfm1.read_delay_ps, pecc.read_delay_ps * 0.7);
  EXPECT_LT(nfm1.area_um2, pecc.area_um2 * 0.6);
}

TEST(OverheadTest, RegisterFileLutTradesAreaForEnergy) {
  const auto model = paper_model();
  const overhead_metrics cols = model.shuffle(3, lut_realization::sram_columns);
  const overhead_metrics rf = model.shuffle(3, lut_realization::register_file);
  EXPECT_LT(rf.read_energy_fj, cols.read_energy_fj);
  EXPECT_GT(rf.area_um2, cols.area_um2);
}

TEST(OverheadTest, RelativeToSelfIsUnity) {
  const auto model = paper_model();
  const overhead_metrics base = model.secded(hamming_secded(32));
  const relative_overhead rel = overhead_model::relative(base, base);
  EXPECT_DOUBLE_EQ(rel.read_power, 1.0);
  EXPECT_DOUBLE_EQ(rel.read_delay, 1.0);
  EXPECT_DOUBLE_EQ(rel.area, 1.0);
}

TEST(WritePathTest, ShuffleWritePaysSerialLutRead) {
  // Sec. 5.1: the bit-shuffling write "requires a read prior to a
  // write", so its write latency overhead exceeds its read overhead and
  // also exceeds the (pipelined) ECC encoder's.
  const auto model = paper_model();
  const write_overhead_metrics shuffle_w = model.shuffle_write(1);
  const overhead_metrics shuffle_r = model.shuffle(1);
  EXPECT_GT(shuffle_w.write_delay_ps, shuffle_r.read_delay_ps);
  const write_overhead_metrics ecc_w = model.secded_write(hamming_secded(32));
  EXPECT_GT(shuffle_w.write_delay_ps, ecc_w.write_delay_ps);
}

TEST(WritePathTest, RegisterFileLutShrinksWriteLatency) {
  // The paper's proposed remedy: a CAM/register-file LUT gives "much
  // less overhead, especially in terms of write latency".
  const auto model = paper_model();
  for (unsigned n_fm = 1; n_fm <= 5; ++n_fm) {
    const auto cols = model.shuffle_write(n_fm, lut_realization::sram_columns);
    const auto rf = model.shuffle_write(n_fm, lut_realization::register_file);
    // The serial LUT-read component drops from 240 ps to 60 ps; the
    // rotator share is common to both.
    EXPECT_LT(rf.write_delay_ps, cols.write_delay_ps - 150.0) << "nFM=" << n_fm;
    EXPECT_LT(rf.write_energy_fj, cols.write_energy_fj) << "nFM=" << n_fm;
  }
}

TEST(WritePathTest, EncoderWriteEnergyScalesWithCode) {
  const auto model = paper_model();
  EXPECT_LT(model.pecc_write(priority_ecc(32, 16)).write_energy_fj,
            model.secded_write(hamming_secded(32)).write_energy_fj);
}

TEST(OverheadTest, ColumnAreaScalesWithRows) {
  const sram_macro_model sram = sram_macro_model::fdsoi_28nm();
  EXPECT_DOUBLE_EQ(sram.column_area_um2(4096), 4096 * 0.120 / 0.70);
  EXPECT_GT(sram.column_area_um2(8192), sram.column_area_um2(4096));
}

TEST(OverheadTest, MismatchedGeometryRejected) {
  const auto model = paper_model();
  EXPECT_THROW((void)model.secded(hamming_secded(16)), std::invalid_argument);
  EXPECT_THROW((void)model.pecc(priority_ecc(16, 8)), std::invalid_argument);
}

}  // namespace
}  // namespace urmem
