// Registry-driven differential codec fuzzer.
//
// Random-walks valid scenario_spec scheme points — compact recipe
// strings (leaf, stacked, tiered) x word width x fault density — and
// for each point runs the compiled block codec against the reference
// walks on a randomly sampled fault map and random data, asserting
// bit-identity of data and status on every row.
//
// The walk is seeded (named_stream_rng), so a failing iteration
// reproduces from its index alone. The default budget keeps the suite
// in tier-1 time; CI's deep run raises it via URMEM_FUZZ_ITERS.
#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "urmem/common/rng.hpp"
#include "urmem/memory/fault_map.hpp"
#include "urmem/scenario/scenario_spec.hpp"
#include "urmem/scenario/scheme_registry.hpp"

namespace urmem {
namespace {

/// One fuzzable recipe family: the compact spec and the widths it
/// admits (shuffle designs need power-of-two words; BCH caps d by t).
struct fuzz_family {
  std::string spec;
  std::vector<unsigned> widths;
};

const std::vector<fuzz_family>& families() {
  static const std::vector<fuzz_family> table = {
      {"none", {8, 16, 32, 57}},
      {"secded", {8, 16, 32, 57}},
      {"hsiao", {8, 16, 32, 57}},
      {"bch:t=1", {8, 16, 32, 57}},
      {"bch:t=2", {8, 16, 32, 48}},
      {"bch:t=3", {8, 16, 32}},
      {"pecc", {8, 16, 32}},
      {"shuffle:nfm=1", {8, 16, 32}},
      {"shuffle:nfm=2", {8, 16, 32}},
      {"shuffle+secded:nfm=1", {8, 16, 32}},
      {"shuffle+pecc:nfm=2", {16, 32}},
  };
  return table;
}

/// Tiered recipes are synthesized per draw so tier boundaries, tier
/// schemes and spare pools all vary; ranges always cover the tile.
std::string random_tiered_spec(std::uint32_t rows, rng& gen) {
  const std::vector<std::string> tiers = {"secded", "hsiao", "bch,t=2",
                                          "shuffle,nfm=2", "none"};
  const std::uint32_t split = 1 + static_cast<std::uint32_t>(
                                      gen.uniform_below(rows - 1));
  const std::string low = tiers[gen.uniform_below(tiers.size())];
  std::string high = tiers[gen.uniform_below(tiers.size())];
  if (high == low) high = (low == "hsiao") ? "bch,t=1" : "hsiao";
  // Streamed (not operator+ chained) to dodge a GCC 12 -Wrestrict
  // false positive under -Werror.
  std::ostringstream spec;
  spec << "tiered:0-" << (split - 1) << '=' << low;
  if (split > 2 && gen.uniform_below(2) == 0) spec << ",spare_rows=2";
  spec << ':' << split << '-' << (rows - 1) << '=' << high;
  return spec.str();
}

std::uint64_t fuzz_iterations() {
  // NOLINTNEXTLINE(concurrency-mt-unsafe): single-threaded test setup;
  // gtest runs the body after main() and nothing calls setenv.
  if (const char* env = std::getenv("URMEM_FUZZ_ITERS")) {
    return std::strtoull(env, nullptr, 10);
  }
  return 150;  // tier-1 budget; CI's deep job raises it
}

TEST(CodecFuzz, BlockMatchesReferenceOnRandomScenarioPoints) {
  const std::uint64_t iterations = fuzz_iterations();
  const std::uint64_t seed = 20260808;
  for (std::uint64_t iter = 0; iter < iterations; ++iter) {
    rng gen = make_stream_rng(seed, iter);

    // -- draw one valid scenario point ------------------------------
    const std::uint32_t rows = 8u << gen.uniform_below(3);  // 8/16/32
    std::string spec;
    unsigned width = 0;
    if (gen.uniform_below(5) == 0) {  // every ~5th point is tiered
      spec = random_tiered_spec(rows, gen);
      width = 32;
    } else {
      const fuzz_family& family =
          families()[gen.uniform_below(families().size())];
      spec = family.spec;
      width = family.widths[gen.uniform_below(family.widths.size())];
    }
    const double density = 0.002 * static_cast<double>(1 + gen.uniform_below(25));
    const std::string point = "iter " + std::to_string(iter) + ": " + spec +
                              " w=" + std::to_string(width) +
                              " rows=" + std::to_string(rows) +
                              " density=" + std::to_string(density);

    // -- resolve it through the scheme registry ---------------------
    const scheme_ref ref = parse_compact_scheme(spec, "schemes");
    geometry_spec geometry;
    geometry.word_bits = width;
    geometry.rows_per_tile = rows;
    const scheme_recipe recipe =
        scheme_registry::instance().make(ref, geometry);
    const auto scheme = recipe.factory(rows);
    const unsigned storage = scheme->storage_bits();
    ASSERT_EQ(scheme->data_bits(), width) << point;

    // -- sample a fault map and program the scheme with it ----------
    fault_map faults(array_geometry{rows, storage});
    std::vector<word_t> row_fault_mask(rows, 0);
    for (std::uint32_t row = 0; row < rows; ++row) {
      for (std::uint32_t col = 0; col < storage; ++col) {
        if (gen.uniform() < density) {
          faults.add({row, col, fault_kind::flip});
          row_fault_mask[row] |= word_t{1} << col;
        }
      }
    }
    scheme->configure(faults);

    // -- differential run: block vs reference -----------------------
    std::vector<word_t> data(rows);
    for (word_t& value : data) value = gen() & word_mask(width);
    std::vector<word_t> encoded(rows);
    scheme->encode_block(0, data, encoded);
    std::vector<word_t> corrupted(rows);
    for (std::uint32_t row = 0; row < rows; ++row) {
      ASSERT_EQ(encoded[row], scheme->encode_reference(row, data[row]))
          << point;
      corrupted[row] = encoded[row] ^ row_fault_mask[row];
    }
    std::vector<word_t> decoded(rows);
    const block_decode_stats stats =
        scheme->decode_block(0, corrupted, decoded);
    block_decode_stats expected_stats;
    for (std::uint32_t row = 0; row < rows; ++row) {
      const read_result reference =
          scheme->decode_reference(row, corrupted[row]);
      expected_stats.count(reference.status);
      ASSERT_EQ(decoded[row], reference.data) << point << " row " << row;
      // A one-word block call exposes the per-word status.
      ASSERT_EQ(scheme->decode(row, corrupted[row]).status, reference.status)
          << point << " row " << row;
    }
    EXPECT_EQ(stats.corrected, expected_stats.corrected) << point;
    EXPECT_EQ(stats.uncorrectable, expected_stats.uncorrectable) << point;
  }
}

/// In-place block decode (out aliasing in) through every family once.
TEST(CodecFuzz, InPlaceDecodeMatchesOutOfPlace) {
  const std::uint64_t seed = 77;
  std::uint64_t iter = 0;
  for (const fuzz_family& family : families()) {
    rng gen = make_stream_rng(seed, iter++);
    const unsigned width = family.widths.back();
    const std::uint32_t rows = 16;
    const scheme_ref ref = parse_compact_scheme(family.spec, "schemes");
    geometry_spec geometry;
    geometry.word_bits = width;
    geometry.rows_per_tile = rows;
    const auto scheme =
        scheme_registry::instance().make(ref, geometry).factory(rows);

    fault_map faults(array_geometry{rows, scheme->storage_bits()});
    for (std::uint32_t row = 0; row < rows; row += 3) {
      faults.add({row, static_cast<std::uint32_t>(
                           gen.uniform_below(scheme->storage_bits())),
                  fault_kind::flip});
    }
    scheme->configure(faults);

    std::vector<word_t> data(rows);
    for (word_t& value : data) value = gen() & word_mask(width);
    std::vector<word_t> stored(rows);
    scheme->encode_block(0, data, stored);
    std::vector<word_t> out(rows);
    scheme->decode_block(0, stored, out);
    std::vector<word_t> in_place = stored;
    scheme->decode_block(0, in_place, in_place);
    EXPECT_EQ(in_place, out) << family.spec;
  }
}

}  // namespace
}  // namespace urmem
