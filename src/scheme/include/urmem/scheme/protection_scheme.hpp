// Uniform interface over the fault-handling techniques the paper
// compares (Sec. 5): no protection, H(39,32) SECDED ECC, H(22,16)
// priority-ECC, and the proposed bit-shuffling scheme.
//
// A protection scheme maps a W-bit data word to a stored row of
// storage_bits() columns and back. Schemes that rely on BIST-discovered
// fault locations (bit-shuffling) are (re)configured through
// configure(); ECC-based schemes ignore it.
//
// A new scheme implements five hooks besides its geometry:
//   * encode_block / decode_block   — the compiled fast path, one
//     virtual call per tile; single-word encode()/decode() are
//     one-word block calls;
//   * encode_reference / decode_reference — the per-word oracle the
//     fast path is proven bit-identical against (tests, urmem-verify,
//     URMEM_FAULT_PATH=reference);
//   * residual_fault_bits(row, cols) — the logical bits a row's faulty
//     columns leave corrupted after correction. The Eq. (6) row cost
//     worst_case_row_cost(row, cols) is derived from it as sum 4^b, so
//     the yield machinery (Fig. 5) evaluates millions of fault maps
//     through this one hook without touching stored data.
//
// Fault-free row contract: whatever fault map configured the scheme, a
// row whose stored word suffers no fault decodes to exactly the word
// written, with ecc_status::clean, on both the block and the reference
// path. Configuration may change how a row is stored (a shuffle shift,
// a tier's code), never whether a clean row round-trips. The sparse
// store/readback pipeline relies on this to skip every row outside
// protected_memory::at_risk_rows(); property_test checks it for every
// registered scheme recipe.
#pragma once

#include <concepts>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "urmem/common/bitops.hpp"
#include "urmem/ecc/bch.hpp"
#include "urmem/ecc/hamming_secded.hpp"
#include "urmem/ecc/hsiao.hpp"
#include "urmem/ecc/priority_ecc.hpp"
#include "urmem/memory/fault_map.hpp"
#include "urmem/shuffle/shuffle_scheme.hpp"

namespace urmem {

/// Result of reading one word through a protection scheme.
struct read_result {
  word_t data = 0;
  ecc_status status = ecc_status::clean;
};

/// Decode outcome counters accumulated over one decode_block call.
struct block_decode_stats {
  std::uint64_t corrected = 0;        ///< words with a corrected single error
  std::uint64_t uncorrectable = 0;    ///< words flagged detected_uncorrectable

  void count(ecc_status status) {
    if (status == ecc_status::corrected) ++corrected;
    else if (status == ecc_status::detected_uncorrectable) ++uncorrectable;
  }
};

/// Abstract fault-mitigation technique for a fixed-geometry memory.
class protection_scheme {
 public:
  virtual ~protection_scheme() = default;

  /// Human-readable name used in benchmark tables, e.g. "nFM=2".
  [[nodiscard]] virtual std::string name() const = 0;

  /// Width of the logical data word W.
  [[nodiscard]] virtual unsigned data_bits() const = 0;

  /// Stored row width (data + parity columns); LUT columns of the
  /// shuffling scheme are tracked separately (see lut_bits_per_row).
  [[nodiscard]] virtual unsigned storage_bits() const = 0;

  /// Extra side-table bits per row (nFM for bit-shuffling, 0 otherwise).
  [[nodiscard]] virtual unsigned lut_bits_per_row() const { return 0; }

  /// Number of per-row bit errors the scheme is guaranteed to correct
  /// at any positions (the t of a t-error-correcting code): 1 for
  /// SEC-DED-class schemes, t for BCH, 0 for schemes with no such
  /// guarantee (none, shuffle, P-ECC). The exhaustive verification
  /// harness derives its enumeration depth (t+1) from this.
  [[nodiscard]] virtual unsigned guaranteed_correctable_bits() const {
    return 0;
  }

  /// Re-programs the scheme from a BIST-discovered fault map. The map's
  /// geometry must cover storage_bits() columns. Default: no-op.
  virtual void configure(const fault_map& faults);

  /// Batched encode of rows [first_row, first_row + data.size()): a
  /// devirtualized loop over the scheme's compiled codec tables, one
  /// virtual call per tile. `out` may alias `data` and must match its
  /// length. Bit-identical to encode_reference on every row.
  virtual void encode_block(std::uint32_t first_row,
                            std::span<const word_t> data,
                            std::span<word_t> out) const = 0;

  /// Batched decode of rows [first_row, first_row + stored.size()),
  /// with the per-word statuses accumulated into the returned counters.
  /// `out` may alias `stored`. Bit-identical (data and statuses) to
  /// decode_reference on every row.
  virtual block_decode_stats decode_block(std::uint32_t first_row,
                                          std::span<const word_t> stored,
                                          std::span<word_t> out) const = 0;

  /// Reference (oracle) per-word encode/decode: the per-bit codec walks
  /// the compiled fast paths were derived from. protected_memory routes
  /// through these when URMEM_FAULT_PATH=reference so the figure workloads
  /// differentially test the compiled layer end to end.
  [[nodiscard]] virtual word_t encode_reference(std::uint32_t row,
                                                word_t data) const = 0;
  [[nodiscard]] virtual read_result decode_reference(std::uint32_t row,
                                                     word_t stored) const = 0;

  /// Single-word encode: encode_block over a span of one.
  [[nodiscard]] word_t encode(std::uint32_t row, word_t data) const;

  /// Single-word decode: decode_block over a span of one, the status
  /// rebuilt from the block counters.
  [[nodiscard]] read_result decode(std::uint32_t row, word_t stored) const;

  /// Appends the logical bit significances b_i that remain corrupted
  /// after the scheme's correction, for `row` when its faulty storage
  /// columns are `fault_cols` — the worst-case residual behind Eq. (6),
  /// assuming two's-complement integer data and BIST-optimal
  /// configuration. Homogeneous schemes ignore `row`; tiered_scheme
  /// charges each row at its own tier. Composition layers
  /// (stacked_scheme) feed one stage's residual into the next stage as
  /// that stage's fault columns.
  virtual void residual_fault_bits(std::uint32_t row,
                                   std::span<const std::uint32_t> fault_cols,
                                   std::vector<std::uint32_t>& out) const = 0;

  /// Worst-case squared error magnitude sum_i (2^{b_i})^2 of `row` —
  /// sum 4^b over exactly residual_fault_bits(row, fault_cols) (Eq. 6).
  [[nodiscard]] double worst_case_row_cost(
      std::uint32_t row, std::span<const std::uint32_t> fault_cols) const;
};

/// Pass-through scheme: the unprotected memory of the paper's baselines.
class none_scheme final : public protection_scheme {
 public:
  explicit none_scheme(unsigned width = 32);

  [[nodiscard]] std::string name() const override { return "no-correction"; }
  [[nodiscard]] unsigned data_bits() const override { return width_; }
  [[nodiscard]] unsigned storage_bits() const override { return width_; }
  void encode_block(std::uint32_t first_row, std::span<const word_t> data,
                    std::span<word_t> out) const override;
  block_decode_stats decode_block(std::uint32_t first_row,
                                  std::span<const word_t> stored,
                                  std::span<word_t> out) const override;
  [[nodiscard]] word_t encode_reference(std::uint32_t row,
                                        word_t data) const override;
  [[nodiscard]] read_result decode_reference(std::uint32_t row,
                                             word_t stored) const override;
  void residual_fault_bits(std::uint32_t row,
                           std::span<const std::uint32_t> fault_cols,
                           std::vector<std::uint32_t>& out) const override;

 private:
  unsigned width_;
};

/// Whole-word t-error-correcting ECC over one code type: SECDED
/// H(39,32), Hsiao(39,32) or BCH(45,32,t=2) for 32-bit data. The codec
/// (whose dense correction table can run to megabytes) is shared
/// immutably between instances, so building a scheme (campaigns build
/// one per worker tile, the serving tier one per tile) never rebuilds
/// the LUTs.
template <class Code>
class ecc_scheme final : public protection_scheme {
 public:
  explicit ecc_scheme(std::shared_ptr<const Code> code);
  /// Builds a private codec from the Code constructor's arguments.
  template <class... Args>
    requires std::constructible_from<Code, Args...>
  explicit ecc_scheme(Args... args)
      : ecc_scheme(std::make_shared<const Code>(args...)) {}

  [[nodiscard]] std::string name() const override;
  [[nodiscard]] unsigned data_bits() const override { return code_->data_bits(); }
  [[nodiscard]] unsigned storage_bits() const override { return code_->codeword_bits(); }
  [[nodiscard]] unsigned guaranteed_correctable_bits() const override {
    return code_->t();
  }
  [[nodiscard]] const Code& code() const { return *code_; }
  void encode_block(std::uint32_t first_row, std::span<const word_t> data,
                    std::span<word_t> out) const override;
  block_decode_stats decode_block(std::uint32_t first_row,
                                  std::span<const word_t> stored,
                                  std::span<word_t> out) const override;
  [[nodiscard]] word_t encode_reference(std::uint32_t row,
                                        word_t data) const override;
  [[nodiscard]] read_result decode_reference(std::uint32_t row,
                                             word_t stored) const override;
  void residual_fault_bits(std::uint32_t row,
                           std::span<const std::uint32_t> fault_cols,
                           std::vector<std::uint32_t>& out) const override;

 private:
  std::shared_ptr<const Code> code_;
};

extern template class ecc_scheme<hamming_secded>;
extern template class ecc_scheme<hsiao_code>;
extern template class ecc_scheme<bch_code>;

/// Classical SECDED ECC on the whole word — H(39,32) for 32-bit data.
using secded_scheme = ecc_scheme<hamming_secded>;
/// Hsiao SEC-DED ECC — the balanced odd-weight-column construction real
/// SRAM macros use; Hsiao(39,32) for 32-bit data.
using hsiao_scheme = ecc_scheme<hsiao_code>;
/// Parity-extended t-error-correcting BCH ECC — BCH(45,32,t=2) at 32 bits.
using bch_scheme = ecc_scheme<bch_code>;

/// Priority-based ECC — H(22,16) over the 16 MSBs for 32-bit data.
class pecc_scheme final : public protection_scheme {
 public:
  explicit pecc_scheme(unsigned width = 32, unsigned protected_bits = 16);

  [[nodiscard]] std::string name() const override;
  [[nodiscard]] unsigned data_bits() const override { return codec_.word_bits(); }
  [[nodiscard]] unsigned storage_bits() const override { return codec_.storage_bits(); }
  [[nodiscard]] const priority_ecc& codec() const { return codec_; }
  void encode_block(std::uint32_t first_row, std::span<const word_t> data,
                    std::span<word_t> out) const override;
  block_decode_stats decode_block(std::uint32_t first_row,
                                  std::span<const word_t> stored,
                                  std::span<word_t> out) const override;
  [[nodiscard]] word_t encode_reference(std::uint32_t row,
                                        word_t data) const override;
  [[nodiscard]] read_result decode_reference(std::uint32_t row,
                                             word_t stored) const override;
  void residual_fault_bits(std::uint32_t row,
                           std::span<const std::uint32_t> fault_cols,
                           std::vector<std::uint32_t>& out) const override;

 private:
  priority_ecc codec_;
};

/// The proposed significance-driven bit-shuffling scheme.
class shuffle_protection final : public protection_scheme {
 public:
  shuffle_protection(std::uint32_t rows, unsigned width, unsigned n_fm,
                     shift_policy policy = shift_policy::min_mse);

  [[nodiscard]] std::string name() const override;
  [[nodiscard]] unsigned data_bits() const override { return impl_.shuffler().width(); }
  [[nodiscard]] unsigned storage_bits() const override { return impl_.shuffler().width(); }
  [[nodiscard]] unsigned lut_bits_per_row() const override { return impl_.shuffler().n_fm(); }
  [[nodiscard]] const shuffle_scheme& impl() const { return impl_; }
  [[nodiscard]] shuffle_scheme& impl() { return impl_; }
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
  void residual_fault_bits(std::uint32_t row,
                           std::span<const std::uint32_t> fault_cols,
                           std::vector<std::uint32_t>& out) const override;

 private:
  shuffle_scheme impl_;
  shift_policy policy_;
};

/// Factory helpers covering the paper's comparison set for a 4096-row,
/// 32-bit memory: no-correction, H(39,32), H(22,16) P-ECC, nFM=1..5.
[[nodiscard]] std::unique_ptr<protection_scheme> make_scheme_none(unsigned width = 32);
[[nodiscard]] std::unique_ptr<protection_scheme> make_scheme_secded(unsigned width = 32);
[[nodiscard]] std::unique_ptr<protection_scheme> make_scheme_pecc(
    unsigned width = 32, unsigned protected_bits = 16);
[[nodiscard]] std::unique_ptr<protection_scheme> make_scheme_shuffle(
    std::uint32_t rows, unsigned width, unsigned n_fm,
    shift_policy policy = shift_policy::min_mse);
[[nodiscard]] std::unique_ptr<protection_scheme> make_scheme_hsiao(
    unsigned width = 32, unsigned check_bits = 0);
[[nodiscard]] std::unique_ptr<protection_scheme> make_scheme_bch(
    unsigned width = 32, unsigned t = 2);

}  // namespace urmem
