#include "src/hyper/vm.h"

#include <gtest/gtest.h>

namespace oasis {
namespace {

VmConfig SmallConfig() {
  VmConfig config;
  config.id = 7;
  config.memory_bytes = 64 * kMiB;
  config.seed = 3;
  return config;
}

TEST(VmTest, ConstructionDefaults) {
  Vm vm(SmallConfig());
  EXPECT_EQ(vm.id(), 7u);
  EXPECT_EQ(vm.activity(), VmActivity::kActive);
  EXPECT_EQ(vm.residency(), VmResidency::kFullAtHome);
  EXPECT_EQ(vm.image().total_bytes(), 64 * kMiB);
}

TEST(VmTest, StateTransitions) {
  Vm vm(SmallConfig());
  vm.set_activity(VmActivity::kIdle);
  vm.set_residency(VmResidency::kPartial);
  EXPECT_EQ(vm.activity(), VmActivity::kIdle);
  EXPECT_EQ(vm.residency(), VmResidency::kPartial);
}

TEST(VmTest, DebugStringMentionsKeyState) {
  Vm vm(SmallConfig());
  std::string s = vm.DebugString();
  EXPECT_NE(s.find("vm7"), std::string::npos);
  EXPECT_NE(s.find("desktop"), std::string::npos);
  EXPECT_NE(s.find("active"), std::string::npos);
  EXPECT_NE(s.find("full@home"), std::string::npos);
}

TEST(VmTest, ImageIsMutable) {
  Vm vm(SmallConfig());
  vm.image().TouchNewBytes(8 * kMiB);
  EXPECT_EQ(vm.image().touched_bytes(), 8 * kMiB);
}

TEST(VmTest, ResidencyNames) {
  EXPECT_STREQ(VmResidencyName(VmResidency::kFullAtHome), "full@home");
  EXPECT_STREQ(VmResidencyName(VmResidency::kFullAtConsolidation), "full@consolidation");
  EXPECT_STREQ(VmResidencyName(VmResidency::kPartial), "partial");
  EXPECT_STREQ(VmActivityName(VmActivity::kActive), "active");
  EXPECT_STREQ(VmActivityName(VmActivity::kIdle), "idle");
}

}  // namespace
}  // namespace oasis
