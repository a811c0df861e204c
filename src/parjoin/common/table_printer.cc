#include "parjoin/common/table_printer.h"

#include <cmath>
#include <cstdio>
#include <utility>

#include "parjoin/common/logging.h"

namespace parjoin {

std::string Fmt(std::int64_t v) {
  std::string digits = std::to_string(v < 0 ? -v : v);
  std::string out;
  const int n = static_cast<int>(digits.size());
  for (int i = 0; i < n; ++i) {
    if (i > 0 && (n - i) % 3 == 0) out.push_back(',');
    out.push_back(digits[static_cast<size_t>(i)]);
  }
  if (v < 0) out.insert(out.begin(), '-');
  return out;
}

std::string Fmt(double v) {
  char buf[64];
  if (std::fabs(v) >= 1000 && std::fabs(v - std::round(v)) < 1e-9) {
    return Fmt(static_cast<std::int64_t>(std::llround(v)));
  }
  std::snprintf(buf, sizeof(buf), "%.3g", v);
  return buf;
}

TablePrinter::TablePrinter(std::vector<std::string> headers)
    : headers_(std::move(headers)) {}

void TablePrinter::AddRow(std::vector<std::string> cells) {
  CHECK_EQ(cells.size(), headers_.size());
  rows_.push_back(std::move(cells));
}

void TablePrinter::Print(std::ostream& os) const {
  std::vector<size_t> widths(headers_.size());
  for (size_t i = 0; i < headers_.size(); ++i) widths[i] = headers_[i].size();
  for (const auto& row : rows_) {
    for (size_t i = 0; i < row.size(); ++i) {
      widths[i] = std::max(widths[i], row[i].size());
    }
  }

  auto print_separator = [&] {
    os << "+";
    for (size_t w : widths) {
      for (size_t i = 0; i < w + 2; ++i) os << "-";
      os << "+";
    }
    os << "\n";
  };
  auto print_cells = [&](const std::vector<std::string>& cells) {
    os << "|";
    for (size_t i = 0; i < cells.size(); ++i) {
      os << " " << cells[i];
      for (size_t j = cells[i].size(); j < widths[i]; ++j) os << " ";
      os << " |";
    }
    os << "\n";
  };

  print_separator();
  print_cells(headers_);
  print_separator();
  for (const auto& row : rows_) print_cells(row);
  print_separator();
}

}  // namespace parjoin
