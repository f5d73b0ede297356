// Core facade + tuning-record serialization tests.

#include <gtest/gtest.h>

#include "src/core/alt.h"
#include "src/core/tuning_record.h"
#include "src/graph/networks.h"
#include "src/runtime/session.h"
#include "tests/reference_check.h"

namespace alt::core {
namespace {

graph::Graph SmallWorkload() {
  graph::Graph g("record_target");
  int x = g.AddInput("x", {1, 8, 12, 12});
  graph::PadAttrs pad;
  pad.before = {0, 0, 1, 1};
  pad.after = {0, 0, 1, 1};
  int p = g.AddPad(x, pad, "pad");
  int w = g.AddConstant("w", {16, 8, 3, 3});
  graph::ConvAttrs attrs;
  int c = g.AddConv(graph::OpKind::kConv2d, p, w, attrs, "conv");
  int b = g.AddConstant("b", {16});
  g.AddRelu(g.AddBiasAdd(c, b, 1, "bias"), "relu");
  return g;
}

TEST(TuningRecord, RoundTripPreservesPerformance) {
  graph::Graph g = SmallWorkload();
  const auto& machine = sim::Machine::IntelCpu();
  AltOptions options;
  options.budget = 150;
  options.method = autotune::SearchMethod::kRandom;
  auto tuned = Compile(g, machine, options);
  ASSERT_TRUE(tuned.ok());

  std::string text = SerializeTuningRecord(*tuned);
  EXPECT_NE(text.find("layout"), std::string::npos);
  EXPECT_NE(text.find("schedule"), std::string::npos);

  auto record = ParseTuningRecord(text);
  ASSERT_TRUE(record.ok()) << record.status().ToString();
  // Apply to a FRESH graph built the same way: no search this time.
  graph::Graph fresh = SmallWorkload();
  auto applied = ApplyTuningRecord(fresh, machine, *record);
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  // Same layouts + schedules => same estimated performance.
  EXPECT_NEAR(applied->perf.latency_us, tuned->perf.latency_us,
              tuned->perf.latency_us * 0.01);
}

TEST(TuningRecord, AppliedNetworkIsNumericallyCorrect) {
  graph::Graph g = SmallWorkload();
  const auto& machine = sim::Machine::ArmCpu();
  AltOptions options;
  options.budget = 100;
  options.method = autotune::SearchMethod::kRandom;
  auto tuned = Compile(g, machine, options);
  ASSERT_TRUE(tuned.ok());
  auto record = ParseTuningRecord(SerializeTuningRecord(*tuned));
  ASSERT_TRUE(record.ok());
  graph::Graph fresh = SmallWorkload();
  auto applied = ApplyTuningRecord(fresh, machine, *record);
  ASSERT_TRUE(applied.ok());

  auto diff = testutil::ServedDiffVsReference(applied->graph, applied->assignment,
                                              {applied->groups, applied->programs}, 55);
  ASSERT_TRUE(diff.ok()) << diff.status().ToString();
  EXPECT_LT(*diff, 5e-3);
}

TEST(TuningRecord, RejectsWrongNetwork) {
  graph::Graph g = SmallWorkload();
  AltOptions options;
  options.budget = 60;
  options.method = autotune::SearchMethod::kRandom;
  auto tuned = Compile(g, sim::Machine::IntelCpu(), options);
  ASSERT_TRUE(tuned.ok());
  auto record = ParseTuningRecord(SerializeTuningRecord(*tuned));
  ASSERT_TRUE(record.ok());
  bool has_layouts = !record->layouts.empty();
  graph::Graph other = graph::BuildSingleMatmul(8, 8, 8);
  auto applied = ApplyTuningRecord(other, sim::Machine::IntelCpu(), *record);
  // A record with layouts for unknown tensors must be rejected.
  if (has_layouts) {
    EXPECT_FALSE(applied.ok());
  }
}

TEST(TuningRecord, ParserRejectsGarbage) {
  EXPECT_FALSE(ParseTuningRecord("bogus line here").ok());
  EXPECT_FALSE(ParseTuningRecord("layout t frobnicate:1").ok());
  auto empty = ParseTuningRecord("# only a comment\n");
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->layouts.empty());
}

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
