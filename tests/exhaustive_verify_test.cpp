// Exhaustive nCr fault-pattern verification (src/verify) as a ctest
// suite: the combinatorial unranking primitives, the full
// scheme x width sweep the `verify-exhaustive` CI job runs, and a
// sabotaged scheme proving the harness actually detects violations.
#include <gtest/gtest.h>

#include <bit>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "urmem/scenario/scenario_spec.hpp"
#include "urmem/scenario/scheme_registry.hpp"
#include "urmem/sim/campaign_runner.hpp"
#include "urmem/verify/exhaustive.hpp"

namespace urmem {
namespace {

TEST(PatternUnrank, ChooseNkMatchesPascal) {
  EXPECT_EQ(choose_nk(0, 0), 1u);
  EXPECT_EQ(choose_nk(5, 0), 1u);
  EXPECT_EQ(choose_nk(5, 6), 0u);
  EXPECT_EQ(choose_nk(39, 2), 741u);
  EXPECT_EQ(choose_nk(45, 3), 14190u);
  for (unsigned n = 1; n <= 40; ++n) {
    for (unsigned k = 1; k <= 4; ++k) {
      EXPECT_EQ(choose_nk(n, k), choose_nk(n - 1, k - 1) + choose_nk(n - 1, k))
          << "n=" << n << " k=" << k;
    }
  }
}

TEST(PatternUnrank, CountsIncludeEmptyPattern) {
  EXPECT_EQ(pattern_count(10, 0), 1u);
  EXPECT_EQ(pattern_count(10, 1), 11u);
  EXPECT_EQ(pattern_count(10, 2), 11u + 45u);
  EXPECT_EQ(pattern_count(10, 3), 11u + 45u + 120u);
}

TEST(PatternUnrank, EnumeratesEveryPatternExactlyOnce) {
  constexpr unsigned columns = 12;
  constexpr unsigned max_bits = 3;
  const std::uint64_t total = pattern_count(columns, max_bits);
  std::set<std::uint64_t> seen;
  std::vector<std::uint32_t> cols;
  std::size_t previous_weight = 0;
  for (std::uint64_t index = 0; index < total; ++index) {
    unrank_pattern(index, columns, max_bits, cols);
    ASSERT_LE(cols.size(), max_bits);
    // Weight classes come out in order, ascending columns inside each.
    ASSERT_GE(cols.size(), previous_weight);
    previous_weight = cols.size();
    std::uint64_t mask = 0;
    for (const std::uint32_t c : cols) {
      ASSERT_LT(c, columns);
      mask |= std::uint64_t{1} << c;
    }
    ASSERT_EQ(static_cast<std::size_t>(std::popcount(mask)), cols.size())
        << "duplicate column at index " << index;
    ASSERT_TRUE(seen.insert(mask).second) << "repeated pattern " << index;
  }
  EXPECT_EQ(seen.size(), total);
  EXPECT_THROW(unrank_pattern(total, columns, max_bits, cols),
               std::logic_error);
}

scheme_factory registry_factory(const std::string& spec, unsigned width,
                                std::uint32_t rows) {
  const scheme_ref ref = parse_compact_scheme(spec, "schemes");
  geometry_spec geometry;
  geometry.word_bits = width;
  geometry.rows_per_tile = rows;
  return scheme_registry::instance().make(ref, geometry).factory;
}

/// The full CI matrix: every built-in leaf scheme plus the stacked and
/// tiered compositions at every narrow width, each enumerated to one
/// bit past its correction guarantee.
TEST(ExhaustiveVerify, AllSchemesAllNarrowWidths) {
  campaign_runner pool({.threads = 4, .seed = 42});
  const std::vector<std::string> schemes = {
      "none",           "secded",       "hsiao",         "bch:t=1",
      "bch:t=2",        "pecc",         "shuffle:nfm=1", "shuffle:nfm=2",
      "shuffle+secded", "shuffle+pecc", "tiered:0-3=secded:4-7=shuffle"};
  for (const unsigned width : {4u, 8u, 16u}) {
    for (const std::string& spec : schemes) {
      const std::string label = spec + " @ w=" + std::to_string(width);
      const exhaustive_report report = verify_scheme_exhaustive(
          label, registry_factory(spec, width, 8), pool, {});
      EXPECT_TRUE(report.ok()) << report.summary()
                               << (report.failures.empty()
                                       ? ""
                                       : "\n  " + report.failures.front());
      EXPECT_GT(report.decodes, 0u);
      // A guarantee means guaranteed-weight patterns exist and were all
      // corrected; one past it means detections were exercised too.
      if (report.guaranteed_bits >= 1) {
        EXPECT_GT(report.corrected, 0u) << label;
        EXPECT_GT(report.uncorrectable, 0u) << label;
      }
    }
  }
}

/// Deterministic at any thread count: same seed, same report counters.
TEST(ExhaustiveVerify, ThreadCountInvariant) {
  campaign_runner serial({.threads = 1, .seed = 9});
  campaign_runner wide({.threads = 8, .seed = 9});
  const exhaustive_report a = verify_scheme_exhaustive(
      "bch", registry_factory("bch:t=2", 16, 8), serial, {});
  const exhaustive_report b = verify_scheme_exhaustive(
      "bch", registry_factory("bch:t=2", 16, 8), wide, {});
  EXPECT_TRUE(a.ok());
  EXPECT_EQ(a.patterns, b.patterns);
  EXPECT_EQ(a.decodes, b.decodes);
  EXPECT_EQ(a.clean, b.clean);
  EXPECT_EQ(a.corrected, b.corrected);
  EXPECT_EQ(a.uncorrectable, b.uncorrectable);
}

/// Delegating wrapper whose block decode diverges from its reference
/// decode: the harness must flag it, otherwise the suite proves nothing.
class sabotaged_scheme final : public protection_scheme {
 public:
  explicit sabotaged_scheme(std::unique_ptr<protection_scheme> inner)
      : inner_(std::move(inner)) {}

  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] unsigned data_bits() const override {
    return inner_->data_bits();
  }
  [[nodiscard]] unsigned storage_bits() const override {
    return inner_->storage_bits();
  }
  [[nodiscard]] unsigned guaranteed_correctable_bits() const override {
    return inner_->guaranteed_correctable_bits();
  }
  void configure(const fault_map& faults) override {
    inner_->configure(faults);
  }
  void encode_block(std::uint32_t first_row, std::span<const word_t> data,
                    std::span<word_t> out) const override {
    inner_->encode_block(first_row, data, out);
  }
  block_decode_stats decode_block(std::uint32_t first_row,
                                  std::span<const word_t> stored,
                                  std::span<word_t> out) const override {
    const block_decode_stats stats =
        inner_->decode_block(first_row, stored, out);
    if (!out.empty()) out[0] ^= 1;  // the sabotage
    return stats;
  }
  [[nodiscard]] word_t encode_reference(std::uint32_t row,
                                        word_t data) const override {
    return inner_->encode_reference(row, data);
  }
  [[nodiscard]] read_result decode_reference(std::uint32_t row,
                                             word_t stored) const override {
    return inner_->decode_reference(row, stored);
  }
  void residual_fault_bits(std::uint32_t row,
                           std::span<const std::uint32_t> fault_cols,
                           std::vector<std::uint32_t>& out) const override {
    inner_->residual_fault_bits(row, fault_cols, out);
  }

 private:
  std::unique_ptr<protection_scheme> inner_;
};

TEST(ExhaustiveVerify, CatchesASabotagedDecodePath) {
  campaign_runner pool({.threads = 2, .seed = 3});
  const scheme_factory inner = registry_factory("hsiao", 8, 8);
  const scheme_factory factory = [&inner](std::uint32_t rows) {
    return std::make_unique<sabotaged_scheme>(inner(rows));
  };
  const exhaustive_report report =
      verify_scheme_exhaustive("sabotaged", factory, pool, {});
  EXPECT_FALSE(report.ok());
  EXPECT_GT(report.failure_count, 0u);
  ASSERT_FALSE(report.failures.empty());
  EXPECT_NE(report.failures.front().find("decode paths disagree"),
            std::string::npos)
      << report.failures.front();
}

}  // namespace
}  // namespace urmem
