#include "urmem/ecc/bch.hpp"

#include <algorithm>
#include <bit>

#include "urmem/common/contracts.hpp"

namespace urmem {

namespace {

/// Primitive polynomials of GF(2^m) for m = 2..8 (bit i = coeff x^i).
constexpr std::uint32_t primitive_poly[] = {
    0, 0, 0b111, 0b1011, 0b10011, 0b100101, 0b1000011, 0b10001001,
    0b100011101};
constexpr unsigned max_field_bits = 8;

/// GF(2^m) arithmetic via log/antilog tables over a primitive element.
struct gf_field {
  unsigned m;
  unsigned n;  // multiplicative order 2^m - 1
  std::vector<unsigned> exp;
  std::vector<unsigned> log;

  explicit gf_field(unsigned m_) : m(m_), n((1u << m_) - 1) {
    exp.assign(2 * n, 0);
    log.assign(n + 1, 0);
    unsigned x = 1;
    for (unsigned i = 0; i < n; ++i) {
      ensures(i == 0 || x != 1, "primitive polynomial has short period");
      exp[i] = x;
      exp[i + n] = x;
      log[x] = i;
      x <<= 1;
      if (x > n) x ^= primitive_poly[m];
    }
    ensures(x == 1, "primitive polynomial does not generate the field");
  }

  [[nodiscard]] unsigned mul(unsigned a, unsigned b) const {
    if (a == 0 || b == 0) return 0;
    return exp[log[a] + log[b]];
  }

  [[nodiscard]] unsigned alpha_pow(unsigned e) const { return exp[e % n]; }
};

/// Conjugacy class of exponent i under squaring: {i*2^j mod n}.
std::vector<unsigned> conjugacy_class(unsigned i, unsigned n) {
  std::vector<unsigned> cls;
  unsigned c = i % n;
  do {
    cls.push_back(c);
    c = (2 * c) % n;
  } while (c != i % n);
  return cls;
}

/// The distinct conjugacy-class representatives (smallest member) of
/// the 2t consecutive root exponents 1..2t, mod n.
std::vector<std::vector<unsigned>> root_classes(unsigned t, unsigned n) {
  std::vector<std::vector<unsigned>> classes;
  std::vector<unsigned> seen;
  for (unsigned i = 1; i <= 2 * t; ++i) {
    std::vector<unsigned> cls = conjugacy_class(i, n);
    unsigned rep = cls[0];
    for (const unsigned c : cls) rep = std::min(rep, c);
    bool duplicate = false;
    for (const unsigned s : seen) duplicate |= (s == rep);
    if (duplicate) continue;
    seen.push_back(rep);
    classes.push_back(std::move(cls));
  }
  return classes;
}

/// Minimal polynomial of {alpha^c : c in cls} as a GF(2) bitmask: the
/// product of (x + alpha^c) over the class, whose coefficients provably
/// collapse into the prime field.
std::uint64_t minimal_poly(const gf_field& field,
                           const std::vector<unsigned>& cls) {
  std::vector<unsigned> coeffs{1};  // the constant polynomial 1
  for (const unsigned c : cls) {
    const unsigned root = field.alpha_pow(c);
    std::vector<unsigned> next(coeffs.size() + 1, 0);
    for (std::size_t i = 0; i < coeffs.size(); ++i) {
      next[i + 1] ^= coeffs[i];                  // * x
      next[i] ^= field.mul(root, coeffs[i]);     // * alpha^c
    }
    coeffs = std::move(next);
  }
  std::uint64_t poly = 0;
  for (std::size_t i = 0; i < coeffs.size(); ++i) {
    ensures(coeffs[i] <= 1, "minimal polynomial left GF(2)");
    if (coeffs[i]) poly |= std::uint64_t{1} << i;
  }
  return poly;
}

/// GF(2) polynomial product (bitmask representation).
std::uint64_t poly_mul(std::uint64_t a, std::uint64_t b) {
  std::uint64_t out = 0;
  for (unsigned i = 0; b >> i; ++i) {
    if ((b >> i) & 1) out ^= a << i;
  }
  return out;
}

/// GF(2) polynomial remainder of `value` modulo `divisor`.
std::uint64_t poly_mod(std::uint64_t value, std::uint64_t divisor) {
  const int divisor_degree = 63 - std::countl_zero(divisor);
  while (value != 0) {
    const int degree = 63 - std::countl_zero(value);
    if (degree < divisor_degree) break;
    value ^= divisor << (degree - divisor_degree);
  }
  return value;
}

unsigned poly_degree(std::uint64_t poly) {
  return static_cast<unsigned>(63 - std::countl_zero(poly));
}

}  // namespace

std::optional<bch_design> bch_design_for(unsigned data_bits, unsigned t) {
  if (data_bits < 1 || t < 1 || t > bch_code::max_t) return std::nullopt;
  for (unsigned m = 2; m <= max_field_bits; ++m) {
    const unsigned n = (1u << m) - 1;
    unsigned parity = 0;
    for (const auto& cls : root_classes(t, n)) {
      parity += static_cast<unsigned>(cls.size());
    }
    // The shortened code must fit the unshortened length n, and the
    // extended codeword the 64-bit carrier.
    if (data_bits + parity > n) continue;
    if (data_bits + parity + 1 > max_word_width) continue;
    return bch_design{data_bits, t, m, parity, data_bits + parity + 1};
  }
  return std::nullopt;
}

bch_code::bch_code(unsigned data_bits, unsigned t) {
  const std::optional<bch_design> design = bch_design_for(data_bits, t);
  expects(design.has_value(),
          "no BCH code for this data width and t fits the 64-bit carrier "
          "(t=2 supports up to 51 data bits, t=3 up to 45)");
  design_ = *design;
  data_bits_ = design_.data_bits;
  codeword_bits_ = design_.codeword_bits;

  const gf_field field(design_.field_bits);
  generator_ = 1;
  for (const auto& cls : root_classes(design_.t, field.n)) {
    generator_ = poly_mul(generator_, minimal_poly(field, cls));
  }
  ensures(poly_degree(generator_) == design_.parity_bits,
          "generator degree disagrees with the sizing pass");

  // Column syndromes: every stored column contributes its polynomial
  // remainder (data column j carries exponent p+j, check column d+i
  // exponent i) and flips the overall parity at bit p; the parity
  // column contributes parity only.
  const unsigned p = design_.parity_bits;
  const std::uint32_t parity_flag = std::uint32_t{1} << p;
  column_syndromes_.reserve(design_.codeword_bits);
  for (unsigned bit = 0; bit < design_.data_bits; ++bit) {
    const std::uint64_t rem =
        poly_mod(std::uint64_t{1} << (p + bit), generator_);
    column_syndromes_.push_back(static_cast<std::uint32_t>(rem) | parity_flag);
  }
  for (unsigned i = 0; i < p; ++i) {
    column_syndromes_.push_back((std::uint32_t{1} << i) | parity_flag);
  }
  column_syndromes_.push_back(parity_flag);

  std::vector<word_t> units;
  for (unsigned bit = 0; bit < data_bits_; ++bit) {
    data_columns_.push_back(bit);  // identity layout
    units.push_back(encode_reference(word_t{1} << bit));
  }
  compile(design_.t, units);
}

word_t bch_code::encode_reference(word_t data) const {
  data &= word_mask(design_.data_bits);
  // Systematic encoding: check(x) = data(x) * x^p mod g(x); the
  // codeword polynomial data*x^p + check is then divisible by g.
  const std::uint64_t rem =
      poly_mod(data << design_.parity_bits, generator_);
  word_t cw = data | (rem << design_.data_bits);
  if (parity(cw)) {
    cw |= word_t{1} << (design_.data_bits + design_.parity_bits);
  }
  return cw;
}

ecc_decode_result bch_code::decode_reference(word_t stored) const {
  stored &= word_mask(design_.codeword_bits);
  std::uint32_t syndrome = 0;
  for (unsigned column = 0; column < design_.codeword_bits; ++column) {
    if (get_bit(stored, column)) syndrome ^= column_syndromes_[column];
  }
  if (syndrome == 0) return {extract_data(stored), ecc_status::clean};
  // Brute-force search for a <= t-bit pattern explaining the syndrome,
  // lightest first; syndromes of such patterns are unique, so whatever
  // the search finds is what the dense table holds.
  const unsigned n = design_.codeword_bits;
  word_t found = 0;
  const auto search = [&](auto&& self, unsigned first, unsigned left,
                          std::uint32_t acc, word_t mask) -> bool {
    if (left == 0) {
      if (acc != syndrome) return false;
      found = mask;
      return true;
    }
    for (unsigned c = first; c + left <= n; ++c) {
      if (self(self, c + 1, left - 1, acc ^ column_syndromes_[c],
               mask | (word_t{1} << c))) {
        return true;
      }
    }
    return false;
  };
  for (unsigned weight = 1; weight <= design_.t; ++weight) {
    if (search(search, 0, weight, 0, 0)) {
      return {extract_data(stored ^ found), ecc_status::corrected};
    }
  }
  return {extract_data(stored), ecc_status::detected_uncorrectable};
}

}  // namespace urmem
