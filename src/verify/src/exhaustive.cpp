#include "urmem/verify/exhaustive.hpp"

#include <bit>

#include "urmem/common/contracts.hpp"
#include "urmem/memory/fault_map.hpp"
#include "urmem/sim/campaign_runner.hpp"

namespace urmem {

std::uint64_t choose_nk(unsigned n, unsigned k) {
  if (k > n) return 0;
  if (k > n - k) k = n - k;
  std::uint64_t result = 1;
  for (unsigned i = 1; i <= k; ++i) {
    // Multiply-then-divide stays exact: the running value is C(n-k+i, i).
    result = result * (n - k + i) / i;
  }
  return result;
}

std::uint64_t pattern_count(unsigned columns, unsigned max_bits) {
  std::uint64_t total = 1;  // the empty pattern
  for (unsigned k = 1; k <= max_bits; ++k) total += choose_nk(columns, k);
  return total;
}

void unrank_pattern(std::uint64_t index, unsigned columns, unsigned max_bits,
                    std::vector<std::uint32_t>& cols) {
  cols.clear();
  // Locate the weight class, then unrank lexicographically within it:
  // the combinations starting with column c number C(columns-c-1, k-1).
  unsigned weight = 0;
  while (index >= choose_nk(columns, weight)) {
    index -= choose_nk(columns, weight);
    ++weight;
    ensures(weight <= max_bits, "pattern index out of range");
  }
  unsigned next = 0;
  for (unsigned left = weight; left > 0; --left) {
    for (unsigned c = next;; ++c) {
      ensures(c + left <= columns, "combination unranking overran");
      const std::uint64_t with_c = choose_nk(columns - c - 1, left - 1);
      if (index < with_c) {
        cols.push_back(c);
        next = c + 1;
        break;
      }
      index -= with_c;
    }
  }
}

namespace {

/// Per-pattern result slot merged in trial order by the report.
struct trial_outcome {
  std::uint64_t decodes = 0;
  std::uint64_t clean = 0;
  std::uint64_t corrected = 0;
  std::uint64_t uncorrectable = 0;
  std::uint64_t failures = 0;
  std::string first_failure;
};

std::string join_cols(const std::vector<std::uint32_t>& cols) {
  std::string out = "[";
  for (std::size_t i = 0; i < cols.size(); ++i) {
    if (i) out += ",";
    out += std::to_string(cols[i]);
  }
  return out + "]";
}

}  // namespace

std::string exhaustive_report::summary() const {
  std::string line = label + ": " + std::to_string(data_bits) + "->" +
                     std::to_string(storage_bits) + " bits, k<=" +
                     std::to_string(max_pattern_bits) + ", " +
                     std::to_string(patterns) + " patterns, " +
                     std::to_string(decodes) + " decodes (" +
                     std::to_string(corrected) + " corrected, " +
                     std::to_string(uncorrectable) + " detected): ";
  line += ok() ? "OK" : ("FAIL (" + std::to_string(failure_count) + ")");
  return line;
}

exhaustive_report verify_scheme_exhaustive(const std::string& label,
                                           const scheme_factory& factory,
                                           campaign_runner& pool,
                                           const exhaustive_config& config) {
  expects(config.rows >= 1, "exhaustive verification needs at least one row");
  const std::uint32_t rows = config.rows;
  const std::unique_ptr<protection_scheme> probe = factory(rows);
  exhaustive_report report;
  report.label = label;
  report.data_bits = probe->data_bits();
  report.storage_bits = probe->storage_bits();
  report.guaranteed_bits = probe->guaranteed_correctable_bits();

  // Model-exactness holds up to one past the guarantee (and to two bits
  // for no-guarantee schemes, whose residual models are exact there);
  // deeper sweeps still get path bit-identity checks.
  const unsigned exact_bits = std::max(2u, report.guaranteed_bits + 1);
  const unsigned max_bits =
      std::min(config.max_pattern_bits == 0 ? exact_bits
                                            : config.max_pattern_bits,
               report.storage_bits);
  report.max_pattern_bits = max_bits;
  report.patterns = pattern_count(report.storage_bits, max_bits);

  const unsigned data_bits = report.data_bits;
  const bool full_data = data_bits <= config.full_data_width_limit;
  const std::size_t words_per_pattern =
      full_data ? (std::size_t{1} << data_bits) : config.data_words;
  expects(words_per_pattern >= 1, "data_words must be at least 1");

  const std::vector<trial_outcome> outcomes = pool.map<trial_outcome>(
      report.patterns, [&](std::uint64_t trial, rng& gen) {
        trial_outcome outcome;
        const auto fail = [&](const std::vector<std::uint32_t>& cols,
                              const std::string& what) {
          ++outcome.failures;
          if (outcome.first_failure.empty()) {
            outcome.first_failure = label + " pattern #" +
                                    std::to_string(trial) + " cols=" +
                                    join_cols(cols) + ": " + what;
          }
        };

        std::vector<std::uint32_t> cols;
        unrank_pattern(trial, report.storage_bits, max_bits, cols);
        const unsigned k = static_cast<unsigned>(cols.size());
        word_t pattern_mask = 0;
        for (const std::uint32_t c : cols) pattern_mask |= word_t{1} << c;

        // Build and program the scheme with this very pattern on every
        // row, so BIST-driven schemes (shuffle) are measured under the
        // configuration the analytic model assumes.
        const std::unique_ptr<protection_scheme> scheme = factory(rows);
        fault_map faults(array_geometry{rows, report.storage_bits});
        for (std::uint32_t row = 0; row < rows; ++row) {
          for (const std::uint32_t c : cols) {
            faults.add({row, c, fault_kind::flip});
          }
        }
        scheme->configure(faults);

        // The analytic residual model of every row (tiered schemes route
        // rows to different tiers), checked for well-formedness.
        std::vector<word_t> residual_mask(rows, 0);
        std::vector<std::uint32_t> residual;
        for (std::uint32_t row = 0; row < rows; ++row) {
          residual.clear();
          scheme->residual_fault_bits(row, cols, residual);
          for (const std::uint32_t b : residual) {
            if (b >= data_bits) {
              fail(cols, "residual bit " + std::to_string(b) +
                             " outside the data word at row " +
                             std::to_string(row));
              return outcome;
            }
            residual_mask[row] |= word_t{1} << b;
          }
          if (std::popcount(residual_mask[row]) !=
              static_cast<int>(residual.size())) {
            fail(cols,
                 "residual bits not distinct at row " + std::to_string(row));
          }
        }
        const bool model_exact = k <= exact_bits;

        // Data words under test: exhaustive at narrow widths, else the
        // corner words plus deterministic per-trial draws.
        std::vector<word_t> data(words_per_pattern);
        if (full_data) {
          for (std::size_t i = 0; i < data.size(); ++i) {
            data[i] = static_cast<word_t>(i);
          }
        } else {
          const word_t corners[] = {0, word_mask(data_bits),
                                    word_t{0xAAAAAAAAAAAAAAAA},
                                    word_t{0x5555555555555555}};
          for (std::size_t i = 0; i < data.size(); ++i) {
            data[i] = (i < 4 ? corners[i] : gen()) & word_mask(data_bits);
          }
        }

        std::vector<word_t> encoded(rows);
        std::vector<word_t> corrupted(rows);
        std::vector<word_t> decoded(rows);
        for (std::size_t first = 0; first < data.size(); first += rows) {
          const std::size_t count = std::min<std::size_t>(rows, data.size() - first);
          const std::span<const word_t> chunk(data.data() + first, count);
          encoded.resize(count);
          corrupted.resize(count);
          decoded.resize(count);

          scheme->encode_block(0, chunk, encoded);
          for (std::size_t i = 0; i < count; ++i) {
            const auto row = static_cast<std::uint32_t>(i);
            if (encoded[i] != scheme->encode_reference(row, chunk[i])) {
              fail(cols, "encode paths disagree at data=" +
                             std::to_string(chunk[i]));
            }
            corrupted[i] = encoded[i] ^ pattern_mask;
          }

          const block_decode_stats stats =
              scheme->decode_block(0, corrupted, decoded);
          block_decode_stats expected_stats;
          for (std::size_t i = 0; i < count; ++i) {
            const auto row = static_cast<std::uint32_t>(i);
            const read_result reference =
                scheme->decode_reference(row, corrupted[i]);
            expected_stats.count(reference.status);
            ++outcome.decodes;
            switch (reference.status) {
              case ecc_status::clean: ++outcome.clean; break;
              case ecc_status::corrected: ++outcome.corrected; break;
              case ecc_status::detected_uncorrectable:
                ++outcome.uncorrectable;
                break;
            }
            // A one-word decode is the block path too; it exposes the
            // per-word status the tile counters aggregate away.
            if (decoded[i] != reference.data ||
                scheme->decode(row, corrupted[i]).status != reference.status) {
              fail(cols, "decode paths disagree at data=" +
                             std::to_string(chunk[i]));
              continue;
            }
            if (model_exact && decoded[i] != (chunk[i] ^ residual_mask[row])) {
              fail(cols, "decoded word disagrees with the residual model at "
                         "data=" +
                             std::to_string(chunk[i]));
            }
            if (k == 0 && reference.status != ecc_status::clean) {
              fail(cols, "clean stored word not reported clean");
            }
            if (report.guaranteed_bits >= 1 && k >= 1) {
              if (k <= report.guaranteed_bits &&
                  reference.status != ecc_status::corrected) {
                fail(cols, "pattern within the correction guarantee not "
                           "reported corrected");
              }
              if (k == report.guaranteed_bits + 1 &&
                  reference.status != ecc_status::detected_uncorrectable) {
                fail(cols, "pattern one past the guarantee not reported "
                           "detected_uncorrectable");
              }
            }
          }
          if (stats.corrected != expected_stats.corrected ||
              stats.uncorrectable != expected_stats.uncorrectable) {
            fail(cols,
                 "decode_block counters disagree with reference statuses");
          }
        }
        return outcome;
      });

  for (const trial_outcome& outcome : outcomes) {
    report.decodes += outcome.decodes;
    report.clean += outcome.clean;
    report.corrected += outcome.corrected;
    report.uncorrectable += outcome.uncorrectable;
    report.failure_count += outcome.failures;
    if (!outcome.first_failure.empty() &&
        report.failures.size() < config.max_failures) {
      report.failures.push_back(outcome.first_failure);
    }
  }
  return report;
}

}  // namespace urmem
