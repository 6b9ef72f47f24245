// Fig. 4 reproduction: worst-case error magnitude per faulty bit
// position for every FM-LUT size option (nFM = 1..5) on a 32-bit
// two's-complement word. The envelope per option is 2^(S-1), S = W/2^nFM.
#include <cmath>
#include <iostream>

#include "bench_util.hpp"
#include "urmem/common/table.hpp"
#include "urmem/shuffle/bit_shuffler.hpp"

int main(int argc, char** argv) {
  using namespace urmem;
  const auto args = bench::parse_args(argc, argv);
  const auto width = static_cast<unsigned>(args.get_u64("width", 32));
  args.check_consumed();
  bench::banner("Fig. 4 — error magnitude per faulty bit position",
                "Ganapathy et al., DAC'15, Fig. 4");

  const unsigned max_nfm = log2_exact(width);
  std::vector<std::string> headers{"fault bit b", "no-correction log2|e|"};
  for (unsigned n_fm = 1; n_fm <= max_nfm; ++n_fm) {
    headers.push_back("nFM=" + std::to_string(n_fm) + " log2|e|");
  }
  console_table table(headers);

  std::vector<bit_shuffler> shufflers;
  for (unsigned n_fm = 1; n_fm <= max_nfm; ++n_fm) shufflers.emplace_back(width, n_fm);

  for (unsigned b = 0; b < width; ++b) {
    std::vector<std::string> row{std::to_string(b), std::to_string(b)};
    for (const bit_shuffler& s : shufflers) {
      // BIST programs xFM = segment_of(b); the residual logical position
      // of the fault is b mod S, so the error magnitude is 2^(b mod S).
      const unsigned logical = s.logical_position(b, s.segment_of(b));
      row.push_back(std::to_string(logical));
    }
    table.add_row(std::move(row));
  }
  table.print(std::cout);

  std::cout << "\nWorst-case envelope (Sec. 3: bounded by 2^(S-1)):\n";
  console_table bounds({"nFM", "segment size S", "max |error|", "paper bound 2^(S-1)"});
  for (const bit_shuffler& s : shufflers) {
    double max_err = 0.0;
    for (unsigned b = 0; b < width; ++b) {
      max_err = std::max(max_err,
                         std::ldexp(1.0, static_cast<int>(
                                             s.logical_position(b, s.segment_of(b)))));
    }
    bounds.add_row({std::to_string(s.n_fm()), std::to_string(s.segment_size()),
                    format_double(max_err, 10),
                    format_double(s.max_error_magnitude(), 10)});
  }
  bounds.print(std::cout);
  return 0;
}
