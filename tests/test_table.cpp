#include "util/table.h"

#include <gtest/gtest.h>

#include <sstream>

namespace asmcap {
namespace {

TEST(Table, RejectsEmptyHeader) {
  EXPECT_THROW(Table({}), std::invalid_argument);
}

TEST(Table, BuildsRows) {
  Table t({"a", "b"});
  t.new_row().add_cell("x").add_cell(1);
  t.new_row().add_cell(2.5, 2).add_cell(std::size_t{7});
  EXPECT_EQ(t.rows(), 2u);
  EXPECT_EQ(t.columns(), 2u);
  EXPECT_EQ(t.cell(0, 0), "x");
  EXPECT_EQ(t.cell(1, 0), "2.5");
  EXPECT_EQ(t.cell(1, 1), "7");
}

TEST(Table, OverfullRowThrows) {
  Table t({"only"});
  t.new_row().add_cell("one");
  EXPECT_THROW(t.add_cell("two"), std::logic_error);
}

TEST(Table, AddRowWidthChecked) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"just one"}), std::invalid_argument);
  t.add_row({"1", "2"});
  EXPECT_EQ(t.rows(), 1u);
}

TEST(Table, TextRenderingAligned) {
  Table t({"name", "v"});
  t.add_row({"long-name", "1"});
  t.add_row({"x", "22"});
  const std::string text = t.to_text();
  EXPECT_NE(text.find("| name"), std::string::npos);
  EXPECT_NE(text.find("long-name"), std::string::npos);
  // All lines equal length (aligned).
  std::istringstream in(text);
  std::string line;
  std::size_t width = 0;
  while (std::getline(in, line)) {
    if (width == 0) width = line.size();
    EXPECT_EQ(line.size(), width);
  }
}

TEST(FormatRatio, Styles) {
  EXPECT_EQ(format_ratio(1.4), "1.4x");
  EXPECT_EQ(format_ratio(61.0), "61x");
  EXPECT_EQ(format_ratio(8700.0), "8.7e+03x");
  EXPECT_EQ(format_ratio(2.0e6), "2.0e+06x");
}

TEST(FormatSi, Prefixes) {
  EXPECT_EQ(format_si(1.58e-6, "m^2"), "1.58um^2");
  EXPECT_EQ(format_si(0.9e-9, "s"), "900ps");  // strict SI prefixing
  EXPECT_EQ(format_si(7.67e-3, "W"), "7.67mW");
  EXPECT_EQ(format_si(2e-15, "F"), "2fF");
  EXPECT_EQ(format_si(1.2, "V"), "1.2V");
  EXPECT_EQ(format_si(64e6, "b"), "64Mb");
}

}  // namespace
}  // namespace asmcap
