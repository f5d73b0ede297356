// Core facade tests.

#include <gtest/gtest.h>

#include "src/core/alt.h"

namespace alt::core {
namespace {

TEST(CoreFacade, VariantNames) {
  EXPECT_STREQ(VariantName(AltVariant::kFull), "ALT");
  EXPECT_STREQ(VariantName(AltVariant::kLoopOnly), "ALT-OL");
  EXPECT_STREQ(VariantName(AltVariant::kWithoutPropagation), "ALT-WP");
}

TEST(CoreFacade, PretrainedAgentIsCachedPerMachine) {
  const auto& a = SharedPretrainedAgent(sim::Machine::ArmCpu());
  const auto& b = SharedPretrainedAgent(sim::Machine::ArmCpu());
  EXPECT_EQ(&a, &b);  // same cache entry
  EXPECT_FALSE(a.empty());
}

}  // namespace
}  // namespace alt::core
