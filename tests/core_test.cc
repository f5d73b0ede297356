// Core facade tests.

#include <cctype>
#include <string>

#include <gtest/gtest.h>

#include "src/core/alt.h"

namespace alt::core {
namespace {

constexpr int kVariants = static_cast<int>(AltVariant::kAnsor) + 1;

TEST(CoreFacade, VariantNames) {
  EXPECT_STREQ(VariantName(AltVariant::kFull), "ALT");
  EXPECT_STREQ(VariantName(AltVariant::kLoopOnly), "ALT-OL");
  EXPECT_STREQ(VariantName(AltVariant::kWithoutPropagation), "ALT-WP");
  EXPECT_STREQ(VariantName(AltVariant::kInheritProducer), "ALT-FP");
  EXPECT_STREQ(VariantName(AltVariant::kForceProducer), "ALT-BP");
  EXPECT_STREQ(VariantName(AltVariant::kVendor), "Vendor");
  EXPECT_STREQ(VariantName(AltVariant::kAutoTvm), "AutoTVM");
  EXPECT_STREQ(VariantName(AltVariant::kFlexTensor), "FlexTensor");
  EXPECT_STREQ(VariantName(AltVariant::kAnsor), "Ansor");
}

TEST(CoreFacade, VariantFromNameInvertsVariantNameInAnyCase) {
  for (int v = 0; v < kVariants; ++v) {
    const AltVariant variant = static_cast<AltVariant>(v);
    std::string name = VariantName(variant);
    EXPECT_EQ(VariantFromName(name), variant) << name;
    for (char& c : name) {
      c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    }
    EXPECT_EQ(VariantFromName(name), variant) << name;
    for (char& c : name) {
      c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
    }
    EXPECT_EQ(VariantFromName(name), variant) << name;
  }
  for (const char* unknown : {"", "alt-", "altx", "ansor ", "tvm", "?"}) {
    EXPECT_EQ(VariantFromName(unknown), std::nullopt) << "'" << unknown << "'";
  }
}

TEST(CoreFacade, VariantsBecomeTunerSwitches) {
  const sim::Machine cpu = sim::Machine::IntelCpu();
  const sim::Machine gpu = sim::Machine::NvidiaGpu();
  AltOptions options;
  options.budget = 300;
  options.method = autotune::SearchMethod::kRandom;  // no pretraining
  auto tuning = [&](AltVariant variant, const sim::Machine& machine) {
    options.variant = variant;
    return ToTuningOptions(options, machine);
  };
  using autotune::FixedLayout;
  using autotune::InputLayoutPolicy;
  EXPECT_EQ(tuning(AltVariant::kInheritProducer, cpu).input_policy,
            InputLayoutPolicy::kInheritProducer);
  EXPECT_EQ(tuning(AltVariant::kForceProducer, cpu).input_policy,
            InputLayoutPolicy::kForceProducer);
  EXPECT_FALSE(tuning(AltVariant::kWithoutPropagation, cpu).propagate_multi_hop);
  for (AltVariant loop_only : {AltVariant::kLoopOnly, AltVariant::kVendor, AltVariant::kAutoTvm,
                               AltVariant::kFlexTensor, AltVariant::kAnsor}) {
    EXPECT_FALSE(tuning(loop_only, cpu).tune_layout) << VariantName(loop_only);
  }
  EXPECT_EQ(tuning(AltVariant::kVendor, cpu).total_budget, 0);
  EXPECT_EQ(tuning(AltVariant::kAnsor, cpu).total_budget, 300);
  EXPECT_TRUE(tuning(AltVariant::kAutoTvm, gpu).restricted_loop_space);
  EXPECT_FALSE(tuning(AltVariant::kFlexTensor, cpu).use_cost_model);
  // The library layouts follow the machine; AutoTVM's and FlexTensor's do not.
  for (AltVariant library : {AltVariant::kVendor, AltVariant::kAnsor}) {
    EXPECT_EQ(tuning(library, cpu).fixed_layout, FixedLayout::kBlocked);
    EXPECT_EQ(tuning(library, gpu).fixed_layout, FixedLayout::kCanonical);
  }
  EXPECT_EQ(tuning(AltVariant::kAutoTvm, gpu).fixed_layout, FixedLayout::kBlocked);
  EXPECT_EQ(tuning(AltVariant::kFlexTensor, cpu).fixed_layout, FixedLayout::kCanonical);
  EXPECT_EQ(tuning(AltVariant::kLoopOnly, gpu).fixed_layout, FixedLayout::kChannelsLast);
}

TEST(CoreFacade, PretrainedAgentIsCachedPerMachine) {
  const auto& a = SharedPretrainedAgent(sim::Machine::ArmCpu());
  const auto& b = SharedPretrainedAgent(sim::Machine::ArmCpu());
  EXPECT_EQ(&a, &b);  // same cache entry
  EXPECT_FALSE(a.empty());
}

}  // namespace
}  // namespace alt::core
