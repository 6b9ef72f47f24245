#include "urmem/scheme/protection_scheme.hpp"

#include <cmath>

#include "urmem/common/contracts.hpp"

namespace urmem {

namespace {

/// One length check per block call; the per-word loops below stay
/// contract-free.
void check_block_spans(std::size_t in, std::size_t out) {
  expects(in == out, "block output span must match the input length");
}

read_result to_read_result(const ecc_decode_result& r) {
  return {r.data, r.status};
}

std::string code_label(const hamming_secded& code) {
  return "H(" + std::to_string(code.codeword_bits()) + "," +
         std::to_string(code.data_bits()) + ")";
}

std::string code_label(const hsiao_code& code) {
  return "Hsiao(" + std::to_string(code.codeword_bits()) + "," +
         std::to_string(code.data_bits()) + ")";
}

std::string code_label(const bch_code& code) {
  return "BCH(" + std::to_string(code.codeword_bits()) + "," +
         std::to_string(code.data_bits()) + ",t=" + std::to_string(code.t()) +
         ")";
}

}  // namespace

void protection_scheme::configure(const fault_map& /*faults*/) {}

word_t protection_scheme::encode(std::uint32_t row, word_t data) const {
  word_t stored = 0;
  encode_block(row, {&data, 1}, {&stored, 1});
  return stored;
}

read_result protection_scheme::decode(std::uint32_t row, word_t stored) const {
  read_result r;
  const block_decode_stats stats =
      decode_block(row, {&stored, 1}, {&r.data, 1});
  if (stats.uncorrectable != 0) {
    r.status = ecc_status::detected_uncorrectable;
  } else if (stats.corrected != 0) {
    r.status = ecc_status::corrected;
  }
  return r;
}

double protection_scheme::worst_case_row_cost(
    std::uint32_t row, std::span<const std::uint32_t> fault_cols) const {
  // Thread-local scratch: the yield sweep calls this for every
  // multi-fault row of millions of sampled trials, from every campaign
  // worker at once.
  static thread_local std::vector<std::uint32_t> bits;
  bits.clear();
  residual_fault_bits(row, fault_cols, bits);
  double cost = 0.0;
  for (const std::uint32_t bit : bits) {
    // (2^b)^2: Eq. 6 uses 2^b regardless of sign; the sign bit's
    // magnitude is 2^(W-1) by the same convention.
    cost += std::ldexp(1.0, 2 * static_cast<int>(bit));
  }
  return cost;
}

// ---------------------------------------------------------------- none

none_scheme::none_scheme(unsigned width) : width_(width) {
  expects(is_valid_width(width), "word width must be 1..64");
}

void none_scheme::encode_block(std::uint32_t /*first_row*/,
                               std::span<const word_t> data,
                               std::span<word_t> out) const {
  check_block_spans(data.size(), out.size());
  const word_t mask = word_mask(width_);
  for (std::size_t i = 0; i < data.size(); ++i) out[i] = data[i] & mask;
}

block_decode_stats none_scheme::decode_block(std::uint32_t /*first_row*/,
                                             std::span<const word_t> stored,
                                             std::span<word_t> out) const {
  check_block_spans(stored.size(), out.size());
  const word_t mask = word_mask(width_);
  for (std::size_t i = 0; i < stored.size(); ++i) out[i] = stored[i] & mask;
  return {};
}

word_t none_scheme::encode_reference(std::uint32_t /*row*/, word_t data) const {
  return data & word_mask(width_);
}

read_result none_scheme::decode_reference(std::uint32_t /*row*/,
                                          word_t stored) const {
  return {stored & word_mask(width_), ecc_status::clean};
}

void none_scheme::residual_fault_bits(std::uint32_t /*row*/,
                                      std::span<const std::uint32_t> fault_cols,
                                      std::vector<std::uint32_t>& out) const {
  out.insert(out.end(), fault_cols.begin(), fault_cols.end());
}

// ----------------------------------------------- secded / hsiao / bch

template <class Code>
ecc_scheme<Code>::ecc_scheme(std::shared_ptr<const Code> code)
    : code_(std::move(code)) {
  expects(code_ != nullptr, "ecc_scheme needs a codec");
}

template <class Code>
std::string ecc_scheme<Code>::name() const {
  return code_label(*code_) + " ECC";
}

template <class Code>
void ecc_scheme<Code>::encode_block(std::uint32_t /*first_row*/,
                                    std::span<const word_t> data,
                                    std::span<word_t> out) const {
  check_block_spans(data.size(), out.size());
  // code.encode inlines to a few table lookups + XORs per word — the
  // whole tile encodes without a call, branch, or per-bit loop.
  const Code& code = *code_;
  for (std::size_t i = 0; i < data.size(); ++i) out[i] = code.encode(data[i]);
}

template <class Code>
block_decode_stats ecc_scheme<Code>::decode_block(
    std::uint32_t /*first_row*/, std::span<const word_t> stored,
    std::span<word_t> out) const {
  check_block_spans(stored.size(), out.size());
  const Code& code = *code_;
  block_decode_stats stats;
  for (std::size_t i = 0; i < stored.size(); ++i) {
    const ecc_decode_result r = code.decode(stored[i]);
    out[i] = r.data;
    stats.count(r.status);
  }
  return stats;
}

template <class Code>
word_t ecc_scheme<Code>::encode_reference(std::uint32_t /*row*/,
                                          word_t data) const {
  return code_->encode_reference(data);
}

template <class Code>
read_result ecc_scheme<Code>::decode_reference(std::uint32_t /*row*/,
                                               word_t stored) const {
  return to_read_result(code_->decode_reference(stored));
}

template <class Code>
void ecc_scheme<Code>::residual_fault_bits(
    std::uint32_t /*row*/, std::span<const std::uint32_t> fault_cols,
    std::vector<std::uint32_t>& out) const {
  // Up to t faults are corrected wherever they land. Beyond that the
  // decoder hands the raw data bits through, so every faulty *data*
  // column corrupts its logical bit; check-column faults touch none.
  // Each code has distance 2t+2, so t+1 faults are always detected,
  // never miscorrected: the model is *exact* there — urmem-verify
  // proves this by enumeration.
  if (fault_cols.size() <= code_->t()) return;
  for (const std::uint32_t col : fault_cols) {
    const int bit = code_->data_bit_at_column(col);
    if (bit >= 0) out.push_back(static_cast<std::uint32_t>(bit));
  }
}

template class ecc_scheme<hamming_secded>;
template class ecc_scheme<hsiao_code>;
template class ecc_scheme<bch_code>;

// ---------------------------------------------------------------- pecc

pecc_scheme::pecc_scheme(unsigned width, unsigned protected_bits)
    : codec_(width, protected_bits) {}

std::string pecc_scheme::name() const {
  return code_label(codec_.inner_code()) + " P-ECC";
}

void pecc_scheme::encode_block(std::uint32_t /*first_row*/,
                               std::span<const word_t> data,
                               std::span<word_t> out) const {
  check_block_spans(data.size(), out.size());
  for (std::size_t i = 0; i < data.size(); ++i) out[i] = codec_.encode(data[i]);
}

block_decode_stats pecc_scheme::decode_block(std::uint32_t /*first_row*/,
                                             std::span<const word_t> stored,
                                             std::span<word_t> out) const {
  check_block_spans(stored.size(), out.size());
  block_decode_stats stats;
  for (std::size_t i = 0; i < stored.size(); ++i) {
    const ecc_decode_result r = codec_.decode(stored[i]);
    out[i] = r.data;
    stats.count(r.status);
  }
  return stats;
}

word_t pecc_scheme::encode_reference(std::uint32_t /*row*/, word_t data) const {
  return codec_.encode_reference(data);
}

read_result pecc_scheme::decode_reference(std::uint32_t /*row*/,
                                          word_t stored) const {
  return to_read_result(codec_.decode_reference(stored));
}

void pecc_scheme::residual_fault_bits(std::uint32_t /*row*/,
                                      std::span<const std::uint32_t> fault_cols,
                                      std::vector<std::uint32_t>& out) const {
  std::size_t protected_faults = 0;
  for (const std::uint32_t col : fault_cols) {
    if (codec_.is_protected_column(col)) ++protected_faults;
  }
  for (const std::uint32_t col : fault_cols) {
    if (codec_.is_protected_column(col)) {
      if (protected_faults <= 1) continue;  // corrected by the inner code
      const int bit = codec_.data_bit_at_column(col);
      if (bit >= 0) out.push_back(static_cast<std::uint32_t>(bit));
    } else {
      out.push_back(col);  // unprotected low-order bit: col < u
    }
  }
}

// ------------------------------------------------------------- shuffle

shuffle_protection::shuffle_protection(std::uint32_t rows, unsigned width,
                                       unsigned n_fm, shift_policy policy)
    : impl_(rows, width, n_fm, policy), policy_(policy) {}

std::string shuffle_protection::name() const {
  return "nFM=" + std::to_string(impl_.shuffler().n_fm());
}

void shuffle_protection::configure(const fault_map& faults) { impl_.program(faults); }

void shuffle_protection::encode_block(std::uint32_t first_row,
                                      std::span<const word_t> data,
                                      std::span<word_t> out) const {
  impl_.apply_write_block(first_row, data, out);
}

block_decode_stats shuffle_protection::decode_block(std::uint32_t first_row,
                                                    std::span<const word_t> stored,
                                                    std::span<word_t> out) const {
  impl_.restore_read_block(first_row, stored, out);
  return {};  // shuffling neither corrects nor detects — always clean
}

word_t shuffle_protection::encode_reference(std::uint32_t row,
                                            word_t data) const {
  return impl_.apply_write(row, data);
}

read_result shuffle_protection::decode_reference(std::uint32_t row,
                                                 word_t stored) const {
  return {impl_.restore_read(row, stored), ecc_status::clean};
}

void shuffle_protection::residual_fault_bits(
    std::uint32_t /*row*/, std::span<const std::uint32_t> fault_cols,
    std::vector<std::uint32_t>& out) const {
  if (fault_cols.empty()) return;
  const unsigned xfm = choose_xfm(impl_.shuffler(), fault_cols, policy_);
  for (const std::uint32_t col : fault_cols) {
    out.push_back(impl_.shuffler().logical_position(col, xfm));
  }
}

// ------------------------------------------------------------ factories

std::unique_ptr<protection_scheme> make_scheme_none(unsigned width) {
  return std::make_unique<none_scheme>(width);
}

std::unique_ptr<protection_scheme> make_scheme_secded(unsigned width) {
  return std::make_unique<secded_scheme>(width);
}

std::unique_ptr<protection_scheme> make_scheme_pecc(unsigned width,
                                                    unsigned protected_bits) {
  return std::make_unique<pecc_scheme>(width, protected_bits);
}

std::unique_ptr<protection_scheme> make_scheme_shuffle(std::uint32_t rows,
                                                       unsigned width, unsigned n_fm,
                                                       shift_policy policy) {
  return std::make_unique<shuffle_protection>(rows, width, n_fm, policy);
}

std::unique_ptr<protection_scheme> make_scheme_hsiao(unsigned width,
                                                     unsigned check_bits) {
  return std::make_unique<hsiao_scheme>(width, check_bits);
}

std::unique_ptr<protection_scheme> make_scheme_bch(unsigned width, unsigned t) {
  return std::make_unique<bch_scheme>(width, t);
}

}  // namespace urmem
