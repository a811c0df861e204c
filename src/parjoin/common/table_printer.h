// Console table rendering for benchmark reports.
//
// Benches print paper-bound vs. measured rows in aligned ASCII tables:
//
//   TablePrinter t({"N", "OUT", "L_yann", "L_ours", "ratio"});
//   t.AddRow({Fmt(n), Fmt(out), ...});
//   t.Print(std::cout);

#ifndef PARJOIN_COMMON_TABLE_PRINTER_H_
#define PARJOIN_COMMON_TABLE_PRINTER_H_

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace parjoin {

// Formats a number compactly (integers as-is, doubles with 3 significant
// decimals, large values with thousands separators).
std::string Fmt(std::int64_t v);
std::string Fmt(double v);

class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> headers);

  void AddRow(std::vector<std::string> cells);

  void Print(std::ostream& os) const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace parjoin

#endif  // PARJOIN_COMMON_TABLE_PRINTER_H_
