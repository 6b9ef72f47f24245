// Heterogeneous-reliability tiers: one tile, several protection
// schemes, routed by row range — the Luo-et-al. HRM design point where
// only the error-critical part of an application's footprint pays for
// strong protection and the tolerant tail runs on a cheap scheme.
//
// A tiered_scheme owns an ordered, gap-free list of tiers over the
// tile's rows; every protection_scheme hook routes to the tier owning
// the row (rows are rebased so each tier scheme sees a 0-based range of
// its own size). The stored width is the maximum tier storage width:
// narrower tiers simply never drive the surplus columns, exactly like a
// heterogeneous array whose strong-ECC region is the one that dictates
// the manufactured column count. Block encode/decode segment the span
// per tier and delegate to each tier's compiled fast path, so the
// one-virtual-call-per-tile batching survives heterogeneity; the
// reference oracle composes per-word through the tiers' own reference
// codecs.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "urmem/scheme/protection_scheme.hpp"

namespace urmem {

/// Row-range-routed composition of per-tier protection schemes.
class tiered_scheme final : public protection_scheme {
 public:
  /// One tier: an inclusive row range and the scheme protecting it.
  /// `scheme` must be built for exactly last_row - first_row + 1 rows.
  struct tier {
    std::uint32_t first_row = 0;
    std::uint32_t last_row = 0;  ///< inclusive
    std::unique_ptr<protection_scheme> scheme;
  };

  /// Tiers must be ordered, contiguous from row 0, and agree on
  /// data_bits(). `storage_bits_hint` pins the stored width when the
  /// widest tier of the full design is not instantiated here (probe
  /// instances clamped to a smaller row count); 0 = max over `tiers`.
  explicit tiered_scheme(std::vector<tier> tiers,
                         unsigned storage_bits_hint = 0);

  [[nodiscard]] std::string name() const override;
  [[nodiscard]] unsigned data_bits() const override { return data_bits_; }
  [[nodiscard]] unsigned storage_bits() const override { return storage_bits_; }
  /// Max over tiers: the side-table column count the tile manufactures.
  [[nodiscard]] unsigned lut_bits_per_row() const override;

  /// Index of the tier owning `row`.
  [[nodiscard]] std::size_t tier_of(std::uint32_t row) const;

  /// Min over tiers: the guarantee every row of the tile keeps.
  [[nodiscard]] unsigned guaranteed_correctable_bits() const override;

  void configure(const fault_map& faults) override;
  void encode_block(std::uint32_t first_row, std::span<const word_t> data,
                    std::span<word_t> out) const override;
  block_decode_stats decode_block(std::uint32_t first_row,
                                  std::span<const word_t> stored,
                                  std::span<word_t> out) const override;
  [[nodiscard]] word_t encode_reference(std::uint32_t row,
                                        word_t data) const override;
  [[nodiscard]] read_result decode_reference(std::uint32_t row,
                                             word_t stored) const override;
  /// The residual of `row`'s own tier, over the columns it stores.
  void residual_fault_bits(std::uint32_t row,
                           std::span<const std::uint32_t> fault_cols,
                           std::vector<std::uint32_t>& out) const override;

 private:
  std::vector<tier> tiers_;
  unsigned data_bits_ = 0;
  unsigned storage_bits_ = 0;
};

}  // namespace urmem
