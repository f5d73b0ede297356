// Graph construction, shape inference, network builders, topological order,
// and the propagation/conversion machinery at the graph level.

#include <gtest/gtest.h>

#include "src/autotune/layout_templates.h"
#include "src/graph/layout_assignment.h"
#include "src/graph/networks.h"

namespace alt::graph {
namespace {

TEST(ShapeInference, Conv2dBasic) {
  Graph g;
  int x = g.AddInput("x", {2, 3, 32, 32});
  int w = g.AddConstant("w", {8, 3, 5, 5});
  ConvAttrs attrs;
  attrs.stride[0] = attrs.stride[1] = 2;
  attrs.pad[0] = attrs.pad[1] = 2;
  int y = g.AddConv(OpKind::kConv2d, x, w, attrs);
  EXPECT_EQ(g.tensor(y).shape, (std::vector<int64_t>{2, 8, 16, 16}));
}

TEST(ShapeInference, DilatedConv) {
  Graph g;
  int x = g.AddInput("x", {1, 4, 20, 20});
  int w = g.AddConstant("w", {4, 4, 3, 3});
  ConvAttrs attrs;
  attrs.dilation[0] = attrs.dilation[1] = 3;
  int y = g.AddConv(OpKind::kConv2d, x, w, attrs);
  EXPECT_EQ(g.tensor(y).shape[2], 14);  // 20 - 3*(3-1) = 14
}

TEST(ShapeInference, TransposedConv) {
  Graph g;
  int x = g.AddInput("x", {1, 8, 7, 7});
  int w = g.AddConstant("w", {8, 4, 4, 4});
  ConvAttrs attrs;
  attrs.stride[0] = attrs.stride[1] = 2;
  attrs.pad[0] = attrs.pad[1] = 1;
  int y = g.AddConv(OpKind::kTransposedConv2d, x, w, attrs);
  EXPECT_EQ(g.tensor(y).shape, (std::vector<int64_t>{1, 4, 14, 14}));
}

TEST(ShapeInference, PoolingAndPad) {
  Graph g;
  int x = g.AddInput("x", {1, 4, 14, 14});
  PadAttrs pad;
  pad.before = {0, 0, 1, 1};
  pad.after = {0, 0, 1, 1};
  int p = g.AddPad(x, pad);
  EXPECT_EQ(g.tensor(p).shape, (std::vector<int64_t>{1, 4, 16, 16}));
  PoolAttrs attrs;
  attrs.window[0] = attrs.window[1] = 2;
  attrs.stride[0] = attrs.stride[1] = 2;
  int y = g.AddMaxPool2d(p, attrs);
  EXPECT_EQ(g.tensor(y).shape, (std::vector<int64_t>{1, 4, 8, 8}));
}

TEST(GraphStructure, ProducersAndConsumers) {
  Graph g;
  int x = g.AddInput("x", {4, 4});
  int a = g.AddRelu(x);
  int b = g.AddGelu(x);
  int c = g.AddAdd(a, b);
  EXPECT_EQ(g.ProducerOf(x), -1);
  EXPECT_TRUE(g.IsGraphInput(x));
  EXPECT_EQ(g.ConsumersOf(x).size(), 2u);
  EXPECT_EQ(g.ConsumersOf(a).size(), 1u);
  EXPECT_EQ(g.op(g.ProducerOf(c)).kind, OpKind::kAddTensors);
}

TEST(GraphStructure, TopoOrderRespectsDependencies) {
  Graph g;
  int x = g.AddInput("x", {4, 4});
  int a = g.AddRelu(x);
  int b = g.AddGelu(a);
  int c = g.AddAdd(a, b);
  (void)c;
  auto order = TopoOrder(g);
  ASSERT_EQ(order.size(), 3u);
  std::vector<int> pos(order.size());
  for (size_t i = 0; i < order.size(); ++i) {
    pos[order[i]] = static_cast<int>(i);
  }
  EXPECT_LT(pos[0], pos[1]);  // relu before gelu
  EXPECT_LT(pos[1], pos[2]);  // gelu before add
}

TEST(GraphStructure, TopoOrderHandlesDuplicateInput) {
  Graph g;
  int x = g.AddInput("x", {4});
  int a = g.AddRelu(x);
  int c = g.AddAdd(a, a);  // same tensor twice
  (void)c;
  EXPECT_EQ(TopoOrder(g).size(), 2u);
}

TEST(GraphStructure, ReshapeValidation) {
  Graph g;
  int x = g.AddInput("x", {2, 3, 4});
  int y = g.AddReshape(x, {6, 4});
  EXPECT_EQ(g.tensor(y).NumElements(), 24);
}

TEST(OperatorLabels, ClassifiesConvVariants) {
  Op op;
  op.kind = OpKind::kConv2d;
  EXPECT_EQ(OperatorLabel(op, 64), "C2D");
  op.conv.groups = 8;
  EXPECT_EQ(OperatorLabel(op, 64), "GRP");
  op.conv.groups = 64;
  EXPECT_EQ(OperatorLabel(op, 64), "DEP");
  op.conv.groups = 1;
  op.conv.dilation[0] = 2;
  EXPECT_EQ(OperatorLabel(op, 64), "DIL");
  op.kind = OpKind::kMatmul;
  EXPECT_EQ(OperatorLabel(op, 0), "GMM");
}

// ---------------------------------------------------------------------------
// Network builders: structural checks.
// ---------------------------------------------------------------------------

TEST(Networks, ResNet18Structure) {
  Graph g = BuildResNet18(1);
  // 20 convs + 1 FC matmul.
  EXPECT_EQ(g.ComplexOps().size(), 21u);
  // Output is the classifier bias-add over 1000 classes.
  const Op& last = g.ops().back();
  EXPECT_EQ(g.tensor(last.output).shape, (std::vector<int64_t>{1, 1000}));
  EXPECT_EQ(TopoOrder(g).size(), g.ops().size());
}

TEST(Networks, ResNet18BatchScaling) {
  Graph g1 = BuildResNet18(1);
  Graph g16 = BuildResNet18(16);
  EXPECT_EQ(g16.tensor(0).shape[0], 16);
  EXPECT_EQ(g1.ops().size(), g16.ops().size());
}

TEST(Networks, MobileNetV2Structure) {
  Graph g = BuildMobileNetV2(1);
  // 1 stem + 17 blocks (2-3 convs each) + last conv + FC.
  EXPECT_GT(g.ComplexOps().size(), 45u);
  int depthwise = 0;
  for (int id : g.ComplexOps()) {
    const Op& op = g.op(id);
    if (op.kind == OpKind::kConv2d && op.conv.groups > 1) {
      ++depthwise;
    }
  }
  EXPECT_EQ(depthwise, 17);
}

TEST(Networks, BertStructure) {
  Graph g = BuildBert(1, 768, 12);
  // 6 matmuls per layer x 12 layers.
  EXPECT_EQ(g.ComplexOps().size(), 72u);
  Graph tiny = BuildBert(1, 128, 2);
  EXPECT_EQ(tiny.ComplexOps().size(), 12u);
}

TEST(Networks, ResNet3dUses3dConvs) {
  Graph g = BuildResNet3d18(1);
  for (int id : g.ComplexOps()) {
    EXPECT_EQ(g.op(id).kind, OpKind::kConv3d);
  }
  EXPECT_EQ(g.tensor(0).shape, (std::vector<int64_t>{1, 3, 16, 112, 112}));
}

TEST(Networks, Fig12SubgraphsMatchPaperShapes) {
  Graph s1 = BuildFig12Subgraph(1);
  Graph s2 = BuildFig12Subgraph(2);
  EXPECT_EQ(s1.ComplexOps().size(), 2u);
  // Subgraph#2's 1x1 conv has 2048 output channels.
  const Op& last = s2.op(s2.ComplexOps().back());
  EXPECT_EQ(s2.tensor(last.output).shape[1], 2048);
}

TEST(Networks, FirstLayerPadsTo230) {
  Graph g = BuildResNetFirstLayer(1);
  const Op& pad = g.op(0);
  ASSERT_EQ(pad.kind, OpKind::kPad);
  EXPECT_EQ(g.tensor(pad.output).shape[2], 230);
}

// ---------------------------------------------------------------------------
// Propagation behaviour at the graph level.
// ---------------------------------------------------------------------------

TEST(PropagationGraph, StopsAtShapeChange) {
  Graph g;
  int x = g.AddInput("x", {1, 8, 4, 4});
  int w = g.AddConstant("w", {8, 8, 1, 1});
  ConvAttrs attrs;
  int c = g.AddConv(OpKind::kConv2d, x, w, attrs);
  int r = g.AddRelu(c);
  PoolAttrs pool;
  pool.global = true;
  int p = g.AddAvgPool2d(r, pool);  // shape changes: propagation must stop
  int r2 = g.AddRelu(p);
  (void)r2;
  LayoutAssignment la;
  la.Set(c, autotune::ChannelsLast(2));
  auto result = PropagateOutputLayout(g, la, c);
  EXPECT_EQ(result.forward_assigned.size(), 1u);  // only the first relu
  EXPECT_FALSE(la.Has(r2));
  EXPECT_TRUE(la.Has(r));
}

TEST(PropagationGraph, StopsAtAdvancedPrimitives) {
  Graph g;
  int x = g.AddInput("x", {1, 4, 8, 8});
  int r = g.AddRelu(x);
  int r2 = g.AddRelu(r);
  (void)r2;
  LayoutAssignment la;
  layout::LayoutSeq unfolded;
  unfolded.Append(layout::Primitive::Unfold(2, 4, 2));
  la.Set(r, unfolded);
  auto result = PropagateOutputLayout(g, la, r);
  EXPECT_TRUE(result.stopped_at_advanced);
  EXPECT_TRUE(result.forward_assigned.empty());
}

TEST(PropagationGraph, OverwriteReplacesStaleLayouts) {
  Graph g;
  int x = g.AddInput("x", {1, 8, 4, 4});
  int w = g.AddConstant("w", {8, 8, 1, 1});
  ConvAttrs attrs;
  int c = g.AddConv(OpKind::kConv2d, x, w, attrs);
  int r = g.AddRelu(c);
  LayoutAssignment la;
  la.Set(c, autotune::ChannelsLast(2));
  PropagateOutputLayout(g, la, c);
  const std::vector<int64_t>& shape = g.tensor(r).shape;
  ASSERT_TRUE(SameLayout(la.Get(r), autotune::ChannelsLast(2), shape));
  // Re-tune the conv output; without overwrite the relu keeps the old layout.
  auto blocked = autotune::BlockedChannels(g.tensor(c).shape, 4);
  ASSERT_TRUE(blocked.ok());
  la.Set(c, *blocked);
  PropagateOutputLayout(g, la, c, true, /*overwrite=*/false);
  EXPECT_TRUE(SameLayout(la.Get(r), autotune::ChannelsLast(2), shape));
  PropagateOutputLayout(g, la, c, true, /*overwrite=*/true);
  EXPECT_TRUE(SameLayout(la.Get(r), *blocked, shape));
}

TEST(PropagationGraph, ConversionRewiresConsumer) {
  Graph g;
  int x = g.AddInput("x", {1, 4, 8, 8});
  int w1 = g.AddConstant("w1", {4, 4, 1, 1});
  int w2 = g.AddConstant("w2", {4, 4, 1, 1});
  ConvAttrs attrs;
  int c1 = g.AddConv(OpKind::kConv2d, x, w1, attrs);
  int c2 = g.AddConv(OpKind::kConv2d, c1, w2, attrs);
  int conv2_op = g.ProducerOf(c2);
  LayoutAssignment la;
  la.Set(c1, autotune::ChannelsLast(2));
  auto sat = RequestInputLayout(g, la, conv2_op, 0, autotune::Hwon());
  EXPECT_EQ(sat, InputSatisfaction::kConversionInserted);
  // conv2 now reads the converted tensor, whose producer is a LayoutConvert.
  int new_input = g.op(conv2_op).inputs[0];
  EXPECT_NE(new_input, c1);
  EXPECT_EQ(g.op(g.ProducerOf(new_input)).kind, OpKind::kLayoutConvert);
  // Requesting the SAME layout again is a no-op.
  auto again = RequestInputLayout(g, la, conv2_op, 0, autotune::Hwon());
  EXPECT_EQ(again, InputSatisfaction::kAlreadySame);
}

TEST(PhysicalShapeTest, AppliesAssignedSequence) {
  Graph g;
  int x = g.AddInput("x", {1, 32, 8, 8});
  LayoutAssignment la;
  auto blocked = autotune::BlockedChannels(g.tensor(x).shape, 8);
  ASSERT_TRUE(blocked.ok());
  la.Set(x, *blocked);
  auto shape = la.PhysicalShape(g, x);
  ASSERT_TRUE(shape.ok());
  EXPECT_EQ(*shape, (std::vector<int64_t>{1, 4, 8, 8, 8}));
}

}  // namespace
}  // namespace alt::graph
