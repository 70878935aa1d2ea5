#include "util/table.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <stdexcept>

namespace asmcap {

Table::Table(std::vector<std::string> header) : header_(std::move(header)) {
  if (header_.empty())
    throw std::invalid_argument("Table: header must not be empty");
}

Table& Table::new_row() {
  rows_.emplace_back();
  return *this;
}

Table& Table::add_cell(std::string value) {
  if (rows_.empty()) new_row();
  if (rows_.back().size() >= header_.size())
    throw std::logic_error("Table: row already full");
  rows_.back().push_back(std::move(value));
  return *this;
}

Table& Table::add_cell(const char* value) { return add_cell(std::string(value)); }

Table& Table::add_cell(double value, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*g", precision, value);
  return add_cell(std::string(buf));
}

Table& Table::add_cell(std::size_t value) { return add_cell(std::to_string(value)); }

Table& Table::add_cell(int value) { return add_cell(std::to_string(value)); }

Table& Table::add_row(std::vector<std::string> cells) {
  if (cells.size() != header_.size())
    throw std::invalid_argument("Table: row width mismatch");
  rows_.push_back(std::move(cells));
  return *this;
}

const std::string& Table::cell(std::size_t row, std::size_t col) const {
  return rows_.at(row).at(col);
}

std::string Table::to_text() const {
  std::vector<std::size_t> widths(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) widths[c] = header_[c].size();
  for (const auto& row : rows_)
    for (std::size_t c = 0; c < row.size(); ++c)
      widths[c] = std::max(widths[c], row[c].size());

  std::ostringstream out;
  auto emit_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < header_.size(); ++c) {
      const std::string& cell = c < row.size() ? row[c] : std::string();
      out << (c == 0 ? "| " : " | ") << cell
          << std::string(widths[c] - cell.size(), ' ');
    }
    out << " |\n";
  };
  emit_row(header_);
  for (std::size_t c = 0; c < header_.size(); ++c)
    out << (c == 0 ? "|-" : "-|-") << std::string(widths[c], '-');
  out << "-|\n";
  for (const auto& row : rows_) emit_row(row);
  return out.str();
}

void Table::print(std::ostream& os) const { os << to_text(); }

std::string format_ratio(double ratio) {
  char buf[64];
  if (ratio >= 1e3) {
    std::snprintf(buf, sizeof buf, "%.1ex", ratio);
  } else if (ratio >= 10.0) {
    std::snprintf(buf, sizeof buf, "%.0fx", ratio);
  } else {
    std::snprintf(buf, sizeof buf, "%.1fx", ratio);
  }
  return buf;
}

std::string format_si(double value, const std::string& unit, int precision) {
  struct Scale {
    double factor;
    const char* prefix;
  };
  static constexpr Scale kScales[] = {{1e9, "G"},  {1e6, "M"},  {1e3, "k"},
                                      {1.0, ""},   {1e-3, "m"}, {1e-6, "u"},
                                      {1e-9, "n"}, {1e-12, "p"}, {1e-15, "f"}};
  const double magnitude = std::fabs(value);
  for (const auto& scale : kScales) {
    if (magnitude >= scale.factor || scale.factor == 1e-15) {
      char buf[64];
      std::snprintf(buf, sizeof buf, "%.*g%s%s", precision,
                    value / scale.factor, scale.prefix, unit.c_str());
      return buf;
    }
  }
  return std::to_string(value) + unit;
}

}  // namespace asmcap
