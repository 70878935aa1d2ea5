#include <gtest/gtest.h>

#include "cam/periphery.h"

namespace asmcap {
namespace {

TEST(SearchlineDriver, EnergyAccounting) {
  SearchlineDriver driver(16);
  const Sequence read = Sequence::from_string("ACGTACGTACGTACGT");
  const double per_drive = driver.drive(read);
  EXPECT_GT(per_drive, 0.0);
  driver.drive(read);
  EXPECT_DOUBLE_EQ(driver.consumed_energy(), 2.0 * per_drive);
  driver.reset_energy();
  EXPECT_EQ(driver.consumed_energy(), 0.0);
  EXPECT_THROW(driver.drive(Sequence::from_string("AC")),
               std::invalid_argument);
  EXPECT_THROW(SearchlineDriver(0), std::invalid_argument);
}

TEST(WritePath, EnergyScalesWithWidth) {
  EXPECT_GT(row_write_energy(256), row_write_energy(64));
  EXPECT_DOUBLE_EQ(row_write_energy(256), 4.0 * row_write_energy(64));
}

}  // namespace
}  // namespace asmcap
