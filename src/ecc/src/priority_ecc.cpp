#include "urmem/ecc/priority_ecc.hpp"

#include "urmem/common/contracts.hpp"

namespace urmem {

priority_ecc::priority_ecc(unsigned word_bits, unsigned protected_bits)
    : word_bits_(word_bits),
      protected_bits_(protected_bits),
      code_(protected_bits) {
  expects(is_valid_width(word_bits), "word width must be 1..64");
  expects(protected_bits >= 1 && protected_bits < word_bits,
          "protected_bits must be in [1, word_bits)");
  expects(storage_bits_for(word_bits, protected_bits) <= max_word_width,
          "P-ECC storage row must fit in 64 columns");
}

word_t priority_ecc::encode_reference(word_t data) const {
  data &= word_mask(word_bits_);
  const unsigned u = unprotected_bits();
  const word_t low = data & word_mask(u);
  const word_t high = data >> u;
  return low | (code_.encode_reference(high) << u);
}

ecc_decode_result priority_ecc::decode_reference(word_t stored) const {
  const unsigned u = unprotected_bits();
  const word_t low = stored & word_mask(u);
  const ecc_decode_result inner = code_.decode_reference(stored >> u);
  return {low | (inner.data << u), inner.status};
}

int priority_ecc::data_bit_at_column(unsigned column) const {
  expects(column < storage_bits(), "storage column out of range");
  const unsigned u = unprotected_bits();
  if (column < u) return static_cast<int>(column);
  const int inner_bit = code_.data_bit_at_column(column - u);
  return inner_bit < 0 ? -1 : inner_bit + static_cast<int>(u);
}

}  // namespace urmem
