#pragma once
// Aligned plain-text table rendering used by the benchmark harness to print
// the paper's tables and figure series.

#include <ostream>
#include <string>
#include <vector>

namespace asmcap {

/// Column-aligned table builder. Cells are strings; numeric convenience
/// overloads format with a chosen precision. Rendering pads columns to the
/// widest cell and emits a header separator.
class Table {
 public:
  explicit Table(std::vector<std::string> header);

  /// Starts a new row; subsequent add_cell calls append to it.
  Table& new_row();
  Table& add_cell(std::string value);
  Table& add_cell(const char* value);
  Table& add_cell(double value, int precision = 3);
  Table& add_cell(std::size_t value);
  Table& add_cell(int value);

  /// Adds a full row at once (must match header width).
  Table& add_row(std::vector<std::string> cells);

  std::size_t rows() const { return rows_.size(); }
  std::size_t columns() const { return header_.size(); }
  const std::string& cell(std::size_t row, std::size_t col) const;

  /// Renders the aligned plain-text form with a `|`-separated header rule.
  std::string to_text() const;

  void print(std::ostream& os) const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Formats a double like "1.4x" / "8.7e3x" in the compact style the paper
/// uses for speedup and energy-efficiency ratios.
std::string format_ratio(double ratio);

/// Formats a value with an SI suffix (n, µ, m, '', k, M, G) plus unit.
std::string format_si(double value, const std::string& unit, int precision = 3);

}  // namespace asmcap
