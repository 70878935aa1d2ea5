#include "util/strings.h"

#include <gtest/gtest.h>

namespace asmcap {
namespace {

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  hi \t\n"), "hi");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim("x"), "x");
}

}  // namespace
}  // namespace asmcap
