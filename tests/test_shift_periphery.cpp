#include <gtest/gtest.h>

#include "cam/periphery.h"

namespace asmcap {
namespace {

TEST(WritePath, EnergyScalesWithWidth) {
  EXPECT_GT(row_write_energy(256), row_write_energy(64));
  EXPECT_DOUBLE_EQ(row_write_energy(256), 4.0 * row_write_energy(64));
}

}  // namespace
}  // namespace asmcap
