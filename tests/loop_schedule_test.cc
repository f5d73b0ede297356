// Structural tests for schedules and the emitted loop nests: annotations
// (parallel / vectorized / unrolled) land where the schedule says, unit loops
// are elided, signatures drive the spaces.

#include <gtest/gtest.h>

#include "src/graph/layout_assignment.h"
#include "src/graph/networks.h"
#include "src/loop/lowering.h"
#include "src/loop/schedule.h"
#include "src/loop/serialization.h"

namespace alt::loop {
namespace {

using graph::Graph;
using graph::LayoutAssignment;
using graph::OpKind;

// Counts loops of a given kind in a statement tree.
int CountLoops(const ir::Stmt& stmt, ir::ForKind kind) {
  switch (stmt->kind) {
    case ir::StmtKind::kFor: {
      int inner = CountLoops(stmt->body, kind);
      return inner + (stmt->for_kind == kind ? 1 : 0);
    }
    case ir::StmtKind::kBlock: {
      int total = 0;
      for (const auto& s : stmt->stmts) {
        total += CountLoops(s, kind);
      }
      return total;
    }
    case ir::StmtKind::kStore:
      return 0;
  }
  return 0;
}

int MaxDepth(const ir::Stmt& stmt) {
  switch (stmt->kind) {
    case ir::StmtKind::kFor:
      return 1 + MaxDepth(stmt->body);
    case ir::StmtKind::kBlock: {
      int depth = 0;
      for (const auto& s : stmt->stmts) {
        depth = std::max(depth, MaxDepth(s));
      }
      return depth;
    }
    case ir::StmtKind::kStore:
      return 0;
  }
  return 0;
}

Graph MatmulGraph() { return graph::BuildSingleMatmul(32, 16, 64); }

TEST(ScheduleEmission, NaiveScheduleHasExpectedShape) {
  Graph g = MatmulGraph();
  LayoutAssignment la;
  auto groups = PartitionGraph(g, la, true);
  ASSERT_EQ(groups.size(), 1u);
  auto program = LowerGroupNaive(g, la, groups[0]);
  ASSERT_TRUE(program.ok());
  // Naive: one parallel loop over M; init nest + reduce nest.
  EXPECT_EQ(CountLoops(program->root, ir::ForKind::kParallel), 1);
  EXPECT_EQ(CountLoops(program->root, ir::ForKind::kVectorized), 0);
  EXPECT_EQ(ir::CountStoreExecutions(program->root),
            32 * 64 /*init*/ + 32 * 64 * 16 /*updates*/);
}

TEST(ScheduleEmission, VectorizedAndUnrolledAnnotations) {
  Graph g = MatmulGraph();
  LayoutAssignment la;
  auto groups = PartitionGraph(g, la, true);
  auto sig = GroupSignature(g, la, groups[0]);
  ASSERT_TRUE(sig.ok());
  LoopSchedule sched = LoopSchedule::Naive(sig->spatial_extents, sig->reduction_extents);
  sched.spatial[1].outer = 4;
  sched.spatial[1].vec = 16;
  sched.reduction[0] = {4, 4};
  sched.unroll_inner_reduction = true;
  auto program = LowerGroup(g, la, groups[0], sched);
  ASSERT_TRUE(program.ok());
  // Vector loop appears in init, reduce and (absent) finalize nests.
  EXPECT_GE(CountLoops(program->root, ir::ForKind::kVectorized), 2);
  EXPECT_EQ(CountLoops(program->root, ir::ForKind::kUnrolled), 1);
  // Work unchanged by tiling.
  EXPECT_EQ(ir::CountStoreExecutions(program->root), 32 * 64 + 32 * 64 * 16);
}

TEST(ScheduleEmission, UnitLoopsAreElided) {
  Graph g = MatmulGraph();
  LayoutAssignment la;
  auto groups = PartitionGraph(g, la, true);
  auto sig = GroupSignature(g, la, groups[0]);
  ASSERT_TRUE(sig.ok());
  // All-unit mid/inner: depth must stay minimal (2 spatial + 1 reduction).
  LoopSchedule sched = LoopSchedule::Naive(sig->spatial_extents, sig->reduction_extents);
  auto program = LowerGroup(g, la, groups[0], sched);
  ASSERT_TRUE(program.ok());
  EXPECT_EQ(MaxDepth(program->root), 3);
}

TEST(ScheduleEmission, InvalidFactorsRejected) {
  Graph g = MatmulGraph();
  LayoutAssignment la;
  auto groups = PartitionGraph(g, la, true);
  auto sig = GroupSignature(g, la, groups[0]);
  ASSERT_TRUE(sig.ok());
  LoopSchedule sched = LoopSchedule::Naive(sig->spatial_extents, sig->reduction_extents);
  sched.spatial[0].inner = 5;  // 5 does not divide 32 with outer=32
  auto program = LowerGroup(g, la, groups[0], sched);
  EXPECT_FALSE(program.ok());
  EXPECT_EQ(program.status().code(), StatusCode::kInvalidArgument);

  LoopSchedule wrong_axes;
  wrong_axes.spatial.resize(1);
  auto program2 = LowerGroup(g, la, groups[0], wrong_axes);
  EXPECT_FALSE(program2.ok());
}

TEST(ScheduleEmission, RotationPermutesInnerLoops) {
  // Both rotations must produce valid, equal-work programs.
  Graph g = MatmulGraph();
  LayoutAssignment la;
  auto groups = PartitionGraph(g, la, true);
  auto sig = GroupSignature(g, la, groups[0]);
  ASSERT_TRUE(sig.ok());
  for (int rot = 0; rot < 2; ++rot) {
    LoopSchedule sched = LoopSchedule::Naive(sig->spatial_extents, sig->reduction_extents);
    sched.spatial[0] = {4, 2, 4, 1};
    sched.spatial[1] = {8, 2, 4, 1};
    sched.inner_order_rotation = rot;
    auto program = LowerGroup(g, la, groups[0], sched);
    ASSERT_TRUE(program.ok()) << "rotation " << rot;
    EXPECT_EQ(ir::CountStoreExecutions(program->root), 32 * 64 + 32 * 64 * 16);
  }
}

TEST(ScheduleToString, MentionsAllParts) {
  LoopSchedule sched;
  sched.spatial.push_back({2, 3, 4, 5});
  sched.reduction.push_back({6, 7});
  sched.unroll_inner_reduction = true;
  std::string s = sched.ToString();
  EXPECT_NE(s.find("2/3/4/5"), std::string::npos);
  EXPECT_NE(s.find("6/7"), std::string::npos);
  EXPECT_NE(s.find("unroll"), std::string::npos);
}

TEST(GroupSignatureTest, ReflectsPhysicalShape) {
  Graph g("conv");
  int x = g.AddInput("x", {1, 8, 6, 6});
  int w = g.AddConstant("w", {8, 8, 1, 1});
  graph::ConvAttrs attrs;
  int c = g.AddConv(OpKind::kConv2d, x, w, attrs, "conv");
  LayoutAssignment la;
  layout::LayoutSeq seq;
  seq.Append(layout::Primitive::Split(1, {2, 4}));
  la.Set(c, seq);
  auto groups = PartitionGraph(g, la, true);
  auto sig = GroupSignature(g, la, groups[0]);
  ASSERT_TRUE(sig.ok());
  // Physical output is rank 5 after the split.
  EXPECT_EQ(sig->spatial_extents, (std::vector<int64_t>{1, 2, 4, 6, 6}));
  EXPECT_EQ(sig->reduction_extents, (std::vector<int64_t>{8, 1, 1}));
}

TEST(ScheduleEmission, FusedConsumersShareTheNest) {
  Graph g("fused");
  int x = g.AddInput("x", {1, 4, 4, 4});
  int w = g.AddConstant("w", {4, 4, 1, 1});
  graph::ConvAttrs attrs;
  int c = g.AddConv(OpKind::kConv2d, x, w, attrs, "conv");
  g.AddRelu(c, "relu");
  LayoutAssignment la;
  auto fused_groups = PartitionGraph(g, la, true);
  ASSERT_EQ(fused_groups.size(), 1u);
  auto program = LowerGroupNaive(g, la, fused_groups[0]);
  ASSERT_TRUE(program.ok());
  // Stores: init + update + relu finalize.
  EXPECT_EQ(ir::CountStoreExecutions(program->root), 64 + 64 * 4 + 64);
  // Both the conv output (intermediate) and relu output (output) are decls.
  EXPECT_NE(program->FindBuffer(c), nullptr);
  EXPECT_EQ(program->FindBuffer(c)->role, ir::BufferRole::kIntermediate);
}

TEST(Serialization, PrimitiveCodecRoundTrips) {
  for (const auto& p : {
           layout::Primitive::Split(1, {4, 8}),
           layout::Primitive::Reorder({0, 2, 1}),
           layout::Primitive::Fuse(0, 2),
           layout::Primitive::Unfold(2, 3, 1),
           layout::Primitive::Pad(1, 0, 3),
           layout::Primitive::StoreAt(7, 1),
       }) {
    std::string text = EncodePrimitive(p);
    auto decoded = DecodePrimitive(text);
    ASSERT_TRUE(decoded.ok()) << text << ": " << decoded.status().ToString();
    EXPECT_EQ(EncodePrimitive(*decoded), text);
  }
}

}  // namespace
}  // namespace alt::loop
