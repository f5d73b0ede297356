// Feeds malformed, truncated, and garbage tuning-record text to the parser
// and asserts it reports Status instead of crashing. Before the checked
// numeric parsing in support/string_util.h, lines like "par=x" or a split
// factor wider than int64 threw from std::stoi/std::stoll and aborted the
// process (the parser is exception-free by design, so nothing caught them).

#include <gtest/gtest.h>

#include "src/core/tuning_record.h"
#include "src/loop/serialization.h"
#include "src/support/string_util.h"

namespace alt {
namespace {

graph::Graph RecordTargetGraph() {
  graph::Graph g("record_target");
  int x = g.AddInput("x", {1, 16, 14, 14});
  graph::PadAttrs pad;
  pad.before = {0, 0, 1, 1};
  pad.after = {0, 0, 1, 1};
  int p = g.AddPad(x, pad, "pad");
  int w = g.AddConstant("w", {32, 16, 3, 3});
  graph::ConvAttrs attrs;
  int c = g.AddConv(graph::OpKind::kConv2d, p, w, attrs, "conv");
  g.AddRelu(c, "relu");
  return g;
}

TEST(TuningRecordRobustness, NonNumericScheduleFieldsReturnStatus) {
  for (const char* text : {
           "schedule conv par=x",
           "schedule conv rot=abc",
           "schedule conv s=a,b,c,d",
           "schedule conv r=1,z",
       }) {
    auto record = core::ParseTuningRecord(text);
    EXPECT_FALSE(record.ok()) << "accepted: " << text;
  }
}

TEST(TuningRecordRobustness, OutOfRangeIntegersReturnStatus) {
  for (const char* text : {
           "layout t split:9999999999999999999:2",
           "layout t split:1:99999999999999999999999999",
           "schedule conv par=99999999999999999999",
           "schedule conv s=99999999999999999999999,1,1,1",
           "layout t unfold:0:123456789123456789123456789:1",
       }) {
    auto record = core::ParseTuningRecord(text);
    EXPECT_FALSE(record.ok()) << "accepted: " << text;
  }
}

TEST(TuningRecordRobustness, TruncatedPrimitivesReturnStatus) {
  for (const char* text : {
           "layout t split:1",          // missing factors
           "layout t unfold:1:2",       // unfold needs 4 fields
           "layout t pad:0:1",          // pad needs 4 fields
           "layout t store_at:3",       // store_at needs 3 fields
           "layout t split::",          // empty numeric fields
           "layout t :::",              // empty kind
       }) {
    auto record = core::ParseTuningRecord(text);
    EXPECT_FALSE(record.ok()) << "accepted: " << text;
  }
}

TEST(TuningRecordRobustness, GarbageLinesReturnStatus) {
  EXPECT_FALSE(core::ParseTuningRecord("lay\0out t split:1:2").ok());
  EXPECT_FALSE(core::ParseTuningRecord("schedule").ok());
  EXPECT_FALSE(core::ParseTuningRecord("layout").ok());
  EXPECT_FALSE(core::ParseTuningRecord("\x01\x02\x03 \x04").ok());
}

TEST(TuningRecordRobustness, ValidLinesStillParse) {
  auto record = core::ParseTuningRecord(
      "# comment\n"
      "layout w split:1:4,8 reorder:0,2,1\n"
      "schedule conv s=2,1,7,4;1,1,16,1 r=4,4 par=2 rot=1 unroll=1\n");
  ASSERT_TRUE(record.ok()) << record.status().ToString();
  ASSERT_EQ(record->layouts.size(), 1u);
  EXPECT_EQ(record->layouts[0].second.size(), 2u);
  auto sched = record->schedules.find("conv");
  ASSERT_NE(sched, record->schedules.end());
  ASSERT_EQ(sched->second.spatial.size(), 2u);
  EXPECT_EQ(sched->second.spatial[0].vec, 4);
  EXPECT_EQ(sched->second.parallel_axes, 2);
  EXPECT_TRUE(sched->second.unroll_inner_reduction);
}

TEST(TuningRecordRobustness, CheckedParsersRejectEdgeCases) {
  EXPECT_FALSE(ParseInt64("").ok());
  EXPECT_FALSE(ParseInt64("12x").ok());
  EXPECT_FALSE(ParseInt64("x12").ok());
  EXPECT_FALSE(ParseInt64("99999999999999999999999").ok());
  EXPECT_FALSE(ParseInt64("-99999999999999999999999").ok());
  EXPECT_FALSE(ParseInt32("2147483648").ok());
  EXPECT_FALSE(ParseInt32("-2147483649").ok());
  ASSERT_TRUE(ParseInt64("-42").ok());
  EXPECT_EQ(*ParseInt64("-42"), -42);
  ASSERT_TRUE(ParseInt32("2147483647").ok());
  EXPECT_EQ(*ParseInt32("2147483647"), 2147483647);
}

TEST(TuningRecordRobustness, StructurallyInvalidSchedulesReturnStatus) {
  // The token grammar accepts any integers; ValidateSchedule must reject
  // zero/negative tile factors and wild axis counts at the parse boundary.
  for (const char* text : {
           "schedule conv s=0,1,7,4;1,1,16,1 r=4,4",    // zero spatial factor
           "schedule conv s=-2,1,7,4;1,1,16,1 r=4,4",   // negative spatial factor
           "schedule conv s=2,1,7,4;1,1,16,1 r=0,4",    // zero reduction factor
           "schedule conv s=2,1,7,4;1,1,16,1 r=-1,4",   // negative reduction factor
           "schedule conv par=-1",                      // negative axis count
           "schedule conv par=1000",                    // absurd axis count
           "schedule conv rot=-3",
           "schedule conv rot=999",
       }) {
    auto record = core::ParseTuningRecord(text);
    EXPECT_FALSE(record.ok()) << "accepted: " << text;
  }
}

TEST(TuningRecordRobustness, ApplyRejectsUnknownTensor) {
  graph::Graph g = RecordTargetGraph();
  auto record = core::ParseTuningRecord("layout no_such_tensor split:1:4,8\n");
  ASSERT_TRUE(record.ok());
  auto applied = core::ApplyTuningRecord(g, sim::Machine::IntelCpu(), *record);
  ASSERT_FALSE(applied.ok());
  EXPECT_EQ(applied.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(applied.status().message().find("no_such_tensor"), std::string::npos);
}

TEST(TuningRecordRobustness, ApplyRejectsUnknownOp) {
  graph::Graph g = RecordTargetGraph();
  auto record =
      core::ParseTuningRecord("schedule no_such_op s=2,1,7,4;1,1,16,1 r=4,4\n");
  ASSERT_TRUE(record.ok());
  auto applied = core::ApplyTuningRecord(g, sim::Machine::IntelCpu(), *record);
  ASSERT_FALSE(applied.ok());
  EXPECT_EQ(applied.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(applied.status().message().find("no_such_op"), std::string::npos);
}

TEST(TuningRecordRobustness, ApplyRejectsLayoutThatDoesNotFitTheShape) {
  // A split on a dim the tensor does not have: a record from a different
  // network. Must fail with context, not crash deep inside lowering.
  graph::Graph g = RecordTargetGraph();
  auto record = core::ParseTuningRecord("layout x split:9:2,2\n");
  ASSERT_TRUE(record.ok());
  auto applied = core::ApplyTuningRecord(g, sim::Machine::IntelCpu(), *record);
  ASSERT_FALSE(applied.ok());
  EXPECT_EQ(applied.status().code(), StatusCode::kInvalidArgument);
}

TEST(TuningRecordRobustness, PrimitiveCodecRoundTrips) {
  for (const auto& p : {
           layout::Primitive::Split(1, {4, 8}),
           layout::Primitive::Reorder({0, 2, 1}),
           layout::Primitive::Fuse(0, 2),
           layout::Primitive::Unfold(2, 3, 1),
           layout::Primitive::Pad(1, 0, 3),
           layout::Primitive::StoreAt(7, 1),
       }) {
    std::string text = loop::EncodePrimitive(p);
    auto decoded = loop::DecodePrimitive(text);
    ASSERT_TRUE(decoded.ok()) << text << ": " << decoded.status().ToString();
    EXPECT_EQ(loop::EncodePrimitive(*decoded), text);
  }
}

}  // namespace
}  // namespace alt
