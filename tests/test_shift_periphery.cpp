#include <gtest/gtest.h>

#include "cam/periphery.h"

namespace asmcap {
namespace {

TEST(SearchlineDriver, EnergyAccounting) {
  const SearchlineDriver driver(16);
  const Sequence read = Sequence::from_string("ACGTACGTACGTACGT");
  EXPECT_DOUBLE_EQ(driver.drive_energy(read),
                   16 * SearchlineDriverParams{}.energy_per_base);
  EXPECT_THROW(driver.drive_energy(Sequence::from_string("AC")),
               std::invalid_argument);
  EXPECT_THROW(SearchlineDriver(0), std::invalid_argument);
}

TEST(WritePath, EnergyScalesWithWidth) {
  EXPECT_GT(row_write_energy(256), row_write_energy(64));
  EXPECT_DOUBLE_EQ(row_write_energy(256), 4.0 * row_write_energy(64));
}

}  // namespace
}  // namespace asmcap
