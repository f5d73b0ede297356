// End-to-end numeric validation: graph -> (layouts, propagation) -> lowering
// -> interpreter must match the independent canonical reference for every
// operator kind and layout/schedule combination. This is the test that keeps
// the whole §4/§6 transformation machinery honest.

#include <gtest/gtest.h>

#include "src/autotune/layout_templates.h"
#include "src/graph/layout_assignment.h"
#include "src/graph/networks.h"
#include "src/loop/lowering.h"
#include "src/runtime/session.h"
#include "tests/reference_check.h"

namespace alt {
namespace {

using graph::ConvConfig;
using graph::Graph;
using graph::LayoutAssignment;
using graph::OpKind;

constexpr double kTol = 2e-3;  // float accumulation over up to ~1k terms

double Validate(const Graph& g, const LayoutAssignment& la, uint64_t seed = 7) {
  auto diff = testutil::LoweredDiffVsReference(g, la, seed);
  EXPECT_TRUE(diff.ok()) << diff.status().ToString();
  return diff.ok() ? *diff : 1e9;
}

// ---------------------------------------------------------------------------
// Canonical-layout lowering for each operator kind.
// ---------------------------------------------------------------------------

TEST(LoweringCanonical, Conv2d) {
  ConvConfig cfg;
  cfg.batch = 2;
  cfg.in_channels = 3;
  cfg.out_channels = 8;
  cfg.spatial[0] = cfg.spatial[1] = 9;
  cfg.kernel[0] = cfg.kernel[1] = 3;
  cfg.pad = 0;
  Graph g = graph::BuildSingleConv(OpKind::kConv2d, cfg);
  EXPECT_LT(Validate(g, LayoutAssignment{}), kTol);
}

TEST(LoweringCanonical, Conv2dStrided) {
  ConvConfig cfg;
  cfg.in_channels = 4;
  cfg.out_channels = 6;
  cfg.spatial[0] = cfg.spatial[1] = 11;
  cfg.stride = 2;
  cfg.pad = 0;
  Graph g = graph::BuildSingleConv(OpKind::kConv2d, cfg);
  EXPECT_LT(Validate(g, LayoutAssignment{}), kTol);
}

TEST(LoweringCanonical, Conv2dGrouped) {
  ConvConfig cfg;
  cfg.in_channels = 8;
  cfg.out_channels = 8;
  cfg.groups = 4;
  cfg.spatial[0] = cfg.spatial[1] = 7;
  cfg.pad = 0;
  Graph g = graph::BuildSingleConv(OpKind::kConv2d, cfg);
  EXPECT_LT(Validate(g, LayoutAssignment{}), kTol);
}

TEST(LoweringCanonical, Conv2dDepthwise) {
  ConvConfig cfg;
  cfg.in_channels = 6;
  cfg.out_channels = 6;
  cfg.groups = 6;
  cfg.spatial[0] = cfg.spatial[1] = 8;
  cfg.pad = 0;
  Graph g = graph::BuildSingleConv(OpKind::kConv2d, cfg);
  EXPECT_LT(Validate(g, LayoutAssignment{}), kTol);
}

TEST(LoweringCanonical, Conv2dDilated) {
  ConvConfig cfg;
  cfg.in_channels = 4;
  cfg.out_channels = 4;
  cfg.dilation = 2;
  cfg.spatial[0] = cfg.spatial[1] = 12;
  cfg.pad = 0;
  Graph g = graph::BuildSingleConv(OpKind::kConv2d, cfg);
  EXPECT_LT(Validate(g, LayoutAssignment{}), kTol);
}

TEST(LoweringCanonical, Conv1dAnd3d) {
  ConvConfig cfg1;
  cfg1.in_channels = 4;
  cfg1.out_channels = 8;
  cfg1.spatial[0] = 16;
  cfg1.kernel[0] = 3;
  cfg1.pad = 0;
  Graph g1 = graph::BuildSingleConv(OpKind::kConv1d, cfg1);
  EXPECT_LT(Validate(g1, LayoutAssignment{}), kTol);

  ConvConfig cfg3;
  cfg3.in_channels = 3;
  cfg3.out_channels = 4;
  cfg3.spatial[0] = cfg3.spatial[1] = cfg3.spatial[2] = 6;
  cfg3.kernel[0] = cfg3.kernel[1] = cfg3.kernel[2] = 3;
  cfg3.pad = 0;
  Graph g3 = graph::BuildSingleConv(OpKind::kConv3d, cfg3);
  EXPECT_LT(Validate(g3, LayoutAssignment{}), kTol);
}

TEST(LoweringCanonical, TransposedConv2dAnd3d) {
  ConvConfig cfg;
  cfg.in_channels = 4;
  cfg.out_channels = 6;
  cfg.spatial[0] = cfg.spatial[1] = 5;
  cfg.kernel[0] = cfg.kernel[1] = 3;
  cfg.stride = 2;
  cfg.pad = 1;
  Graph g = graph::BuildSingleConv(OpKind::kTransposedConv2d, cfg);
  EXPECT_LT(Validate(g, LayoutAssignment{}), kTol);

  ConvConfig cfg3;
  cfg3.in_channels = 3;
  cfg3.out_channels = 4;
  cfg3.spatial[0] = cfg3.spatial[1] = cfg3.spatial[2] = 4;
  cfg3.kernel[0] = cfg3.kernel[1] = cfg3.kernel[2] = 3;
  cfg3.stride = 2;
  cfg3.pad = 1;
  Graph g3 = graph::BuildSingleConv(OpKind::kTransposedConv3d, cfg3);
  EXPECT_LT(Validate(g3, LayoutAssignment{}), kTol);
}

TEST(LoweringCanonical, Matmul) {
  Graph g = graph::BuildSingleMatmul(12, 16, 20);
  EXPECT_LT(Validate(g, LayoutAssignment{}), kTol);
}

TEST(LoweringCanonical, PoolingPadSoftmaxEtc) {
  Graph g("misc");
  int x = g.AddInput("x", {2, 4, 10, 10});
  graph::PadAttrs pad;
  pad.before = {0, 0, 1, 1};
  pad.after = {0, 0, 1, 1};
  int p = g.AddPad(x, pad, "pad");
  graph::PoolAttrs mp;
  mp.window[0] = mp.window[1] = 3;
  mp.stride[0] = mp.stride[1] = 2;
  int pooled = g.AddMaxPool2d(p, mp, "maxpool");
  graph::PoolAttrs gap;
  gap.global = true;
  int pooled2 = g.AddAvgPool2d(pooled, gap, "gap");
  int flat = g.AddReshape(pooled2, {2, 4}, "flatten");
  int soft = g.AddSoftmax(flat, "softmax");
  g.AddLayerNorm(soft, "ln");
  EXPECT_LT(Validate(g, LayoutAssignment{}), kTol);
}

TEST(LoweringCanonical, ElementwiseChainWithFusion) {
  Graph g("chain");
  int x = g.AddInput("x", {1, 8, 6, 6});
  int w = g.AddConstant("w", {8, 8, 1, 1});
  graph::ConvAttrs attrs;
  int c = g.AddConv(OpKind::kConv2d, x, w, attrs, "conv");
  int b = g.AddConstant("b", {8});
  int biased = g.AddBiasAdd(c, b, 1, "bias");
  int relu = g.AddRelu(biased, "relu");
  int gelu = g.AddGelu(relu, "gelu");
  g.AddMulScalar(gelu, 0.5, "scale");
  // Fusion happens (all elementwise, same layouts): one group for conv chain.
  LayoutAssignment la;
  auto groups = loop::PartitionGraph(g, la, true);
  EXPECT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0].fused_ops.size(), 4u);
  EXPECT_LT(Validate(g, la), kTol);
}

// ---------------------------------------------------------------------------
// Layout-transformed lowering.
// ---------------------------------------------------------------------------

struct LayoutCase {
  const char* name;
  int which;  // 0 NOHW, 1 NHWO, 2 HWON, 3 blocked, 4 ALT template, 5 ALT+2level
};

class ConvLayoutCorrectness : public ::testing::TestWithParam<int> {};

TEST_P(ConvLayoutCorrectness, MatchesReference) {
  int which = GetParam();
  Graph g("conv_layout");
  int x = g.AddInput("x", {1, 4, 10, 10});
  graph::PadAttrs padattrs;
  padattrs.before = {0, 0, 1, 1};
  padattrs.after = {0, 0, 1, 1};
  int p = g.AddPad(x, padattrs, "pad");
  int w = g.AddConstant("w", {8, 4, 3, 3});
  graph::ConvAttrs attrs;
  int c = g.AddConv(OpKind::kConv2d, p, w, attrs, "conv");
  int b = g.AddConstant("b", {8});
  int biased = g.AddBiasAdd(c, b, 1, "bias");
  g.AddRelu(biased, "relu");

  const graph::Op& conv = g.op(g.ProducerOf(c));
  LayoutAssignment la;
  switch (which) {
    case 0:
      break;  // canonical NOHW
    case 1: {  // NHWO everywhere
      la.Set(c, autotune::ChannelsLast(2));
      la.Set(p, autotune::ChannelsLast(2));
      graph::PropagateOutputLayout(g, la, c);
      break;
    }
    case 2: {  // HWON output
      la.Set(c, autotune::Hwon());
      graph::PropagateOutputLayout(g, la, c);
      break;
    }
    case 3: {  // blocked NCHWc
      auto blocked_out = autotune::BlockedChannels(g.tensor(c).shape, 4);
      ASSERT_TRUE(blocked_out.ok());
      la.Set(c, *blocked_out);
      auto blocked_in = autotune::BlockedChannels(g.tensor(p).shape, 2);
      ASSERT_TRUE(blocked_in.ok());
      la.Set(p, *blocked_in);
      graph::PropagateOutputLayout(g, la, c);
      break;
    }
    case 4:
    case 5: {  // full ALT template with unfolded input
      autotune::ConvLayoutParams params;
      params.spatial_tiles = {5, 5};
      params.out_tile = 4;
      params.in_tile = 2;
      params.w_in_tile = 2;
      params.w_out_tile = 4;
      if (which == 5) {
        params.out_tile = 2;
        params.out_tile2 = 2;
      }
      auto layouts = autotune::MakeConvTemplates(g, conv, params);
      ASSERT_TRUE(layouts.ok()) << layouts.status().ToString();
      la.Set(c, layouts->output);
      la.Set(p, layouts->input);
      la.Set(w, layouts->weight);
      graph::PropagateOutputLayout(g, la, c);
      break;
    }
  }
  EXPECT_LT(Validate(g, la), kTol) << "layout case " << which;
}

INSTANTIATE_TEST_SUITE_P(AllLayouts, ConvLayoutCorrectness, ::testing::Range(0, 6));

TEST(LayoutCorrectness, GmmTemplates) {
  for (int which = 0; which < 3; ++which) {
    Graph g = graph::BuildSingleMatmul(16, 24, 32);
    const graph::Op& op = g.op(0);
    LayoutAssignment la;
    if (which == 1) {
      la.Set(op.inputs[1], autotune::TransposedB());  // NK
    } else if (which == 2) {
      autotune::GmmLayoutParams params{4, 8, 6};  // NKn-style tiling
      auto layouts = autotune::MakeGmmTemplates(g, op, params);
      ASSERT_TRUE(layouts.ok());
      la.Set(op.output, layouts->c);
      la.Set(op.inputs[0], layouts->a);
      la.Set(op.inputs[1], layouts->b);
    }
    EXPECT_LT(Validate(g, la), kTol) << "gmm case " << which;
  }
}

TEST(LayoutCorrectness, StridedConvWithUnfoldTemplate) {
  // Stride-2 7x7 conv (the ResNet first layer shape, scaled down).
  Graph g("strided");
  int x = g.AddInput("x", {1, 3, 20, 20});
  graph::PadAttrs padattrs;
  padattrs.before = {0, 0, 3, 3};
  padattrs.after = {0, 0, 3, 3};
  int p = g.AddPad(x, padattrs, "pad");
  int w = g.AddConstant("w", {8, 3, 7, 7});
  graph::ConvAttrs attrs;
  attrs.stride[0] = attrs.stride[1] = 2;
  int c = g.AddConv(OpKind::kConv2d, p, w, attrs, "conv");
  const graph::Op& conv = g.op(g.ProducerOf(c));
  ASSERT_EQ(g.tensor(c).shape[2], 10);

  autotune::ConvLayoutParams params;
  params.spatial_tiles = {5, 5};
  params.out_tile = 8;
  params.in_tile = 3;
  params.w_in_tile = 1;
  params.w_out_tile = 8;
  auto layouts = autotune::MakeConvTemplates(g, conv, params);
  ASSERT_TRUE(layouts.ok()) << layouts.status().ToString();
  LayoutAssignment la;
  la.Set(c, layouts->output);
  la.Set(p, layouts->input);
  la.Set(w, layouts->weight);
  EXPECT_LT(Validate(g, la), kTol);
}

TEST(LayoutCorrectness, DilatedConvUnfold) {
  Graph g("dilated");
  int x = g.AddInput("x", {1, 2, 16, 16});
  int w = g.AddConstant("w", {4, 2, 3, 3});
  graph::ConvAttrs attrs;
  attrs.dilation[0] = attrs.dilation[1] = 2;
  int c = g.AddConv(OpKind::kConv2d, x, w, attrs, "conv");
  const graph::Op& conv = g.op(g.ProducerOf(c));
  ASSERT_EQ(g.tensor(c).shape[2], 12);
  autotune::ConvLayoutParams params;
  params.spatial_tiles = {4, 4};
  params.out_tile = 4;
  params.in_tile = 2;
  params.w_in_tile = 2;
  params.w_out_tile = 4;
  auto layouts = autotune::MakeConvTemplates(g, conv, params);
  ASSERT_TRUE(layouts.ok()) << layouts.status().ToString();
  LayoutAssignment la;
  la.Set(c, layouts->output);
  la.Set(x, layouts->input);
  la.Set(w, layouts->weight);
  EXPECT_LT(Validate(g, la), kTol);
}

// ---------------------------------------------------------------------------
// Propagation behaviour (Algorithm 1) with numerics.
// ---------------------------------------------------------------------------

TEST(Propagation, ForwardPropagationAlignsFusion) {
  Graph g("prop");
  int x = g.AddInput("x", {1, 8, 8, 8});
  int w = g.AddConstant("w", {8, 8, 3, 3});
  graph::PadAttrs padattrs;
  padattrs.before = {0, 0, 1, 1};
  padattrs.after = {0, 0, 1, 1};
  int p = g.AddPad(x, padattrs, "pad");
  graph::ConvAttrs attrs;
  int c = g.AddConv(OpKind::kConv2d, p, w, attrs, "conv");
  int r = g.AddRelu(c, "relu");
  int s = g.AddMulScalar(r, 2.0, "scale");
  (void)s;

  LayoutAssignment la;
  la.Set(c, autotune::ChannelsLast(2));
  auto result = graph::PropagateOutputLayout(g, la, c);
  // relu and scale outputs both picked up the layout.
  EXPECT_EQ(result.forward_assigned.size(), 2u);
  // With aligned layouts the three ops fuse into one group.
  auto groups = loop::PartitionGraph(g, la, true);
  ASSERT_EQ(groups.size(), 2u);  // pad group + conv group
  EXPECT_EQ(groups[1].fused_ops.size(), 2u);
  EXPECT_LT(Validate(g, la), kTol);
}

TEST(Propagation, FusionConflictWithoutPropagation) {
  Graph g("noprop");
  int x = g.AddInput("x", {1, 8, 8, 8});
  int w = g.AddConstant("w", {8, 8, 1, 1});
  graph::ConvAttrs attrs;
  int c = g.AddConv(OpKind::kConv2d, x, w, attrs, "conv");
  g.AddRelu(c, "relu");
  LayoutAssignment la;
  la.Set(c, autotune::ChannelsLast(2));
  // No propagation: relu output stays canonical -> layouts differ -> no fuse
  // (the Fig. 6 fusion conflict).
  auto groups = loop::PartitionGraph(g, la, true);
  EXPECT_EQ(groups.size(), 2u);
  EXPECT_LT(Validate(g, la), kTol);
}

TEST(Propagation, ConversionOpInsertedBetweenComplexOps) {
  Graph g("two_convs");
  int x = g.AddInput("x", {1, 4, 8, 8});
  int w1 = g.AddConstant("w1", {8, 4, 1, 1});
  int w2 = g.AddConstant("w2", {8, 8, 1, 1});
  graph::ConvAttrs attrs;
  int c1 = g.AddConv(OpKind::kConv2d, x, w1, attrs, "conv1");
  int c2 = g.AddConv(OpKind::kConv2d, c1, w2, attrs, "conv2");
  (void)c2;

  LayoutAssignment la;
  la.Set(c1, autotune::ChannelsLast(2));  // conv1 output tuned
  size_t ops_before = g.ops().size();
  // conv2 requests a blocked input layout; producer is complex -> conversion.
  auto blocked = autotune::BlockedChannels(g.tensor(c1).shape, 4);
  ASSERT_TRUE(blocked.ok());
  auto sat = graph::RequestInputLayout(g, la, g.ProducerOf(c2), 0, *blocked);
  EXPECT_EQ(sat, graph::InputSatisfaction::kConversionInserted);
  EXPECT_EQ(g.ops().size(), ops_before + 1);
  EXPECT_LT(Validate(g, la), kTol);
}

TEST(Propagation, SimpleProducerWritesRequestedLayout) {
  Graph g("pad_writes");
  int x = g.AddInput("x", {1, 4, 6, 6});
  graph::PadAttrs padattrs;
  padattrs.before = {0, 0, 1, 1};
  padattrs.after = {0, 0, 1, 1};
  int p = g.AddPad(x, padattrs, "pad");
  int w = g.AddConstant("w", {4, 4, 3, 3});
  graph::ConvAttrs attrs;
  int c = g.AddConv(OpKind::kConv2d, p, w, attrs, "conv");
  LayoutAssignment la;
  auto sat = graph::RequestInputLayout(g, la, g.ProducerOf(c), 0, autotune::ChannelsLast(2));
  EXPECT_EQ(sat, graph::InputSatisfaction::kProducerWrites);  // Fig. 5b
  EXPECT_TRUE(la.Has(p));
  auto sat_w = graph::RequestInputLayout(g, la, g.ProducerOf(c), 1,
                                         autotune::ChannelsLast(2));
  EXPECT_EQ(sat_w, graph::InputSatisfaction::kOffline);  // constant weight
  EXPECT_LT(Validate(g, la), kTol);
}

// ---------------------------------------------------------------------------
// Scheduled lowering (tiling / vectorization / unroll / rotation).
// ---------------------------------------------------------------------------

class ScheduledLowering : public ::testing::TestWithParam<int> {};

TEST_P(ScheduledLowering, TiledMatchesReference) {
  int variant = GetParam();
  Graph g("sched");
  int x = g.AddInput("x", {1, 8, 12, 12});
  int w = g.AddConstant("w", {16, 8, 3, 3});
  graph::PadAttrs padattrs;
  padattrs.before = {0, 0, 1, 1};
  padattrs.after = {0, 0, 1, 1};
  int p = g.AddPad(x, padattrs, "pad");
  graph::ConvAttrs attrs;
  int c = g.AddConv(OpKind::kConv2d, p, w, attrs, "conv");
  int r = g.AddRelu(c, "relu");
  (void)r;

  LayoutAssignment la;
  la.Set(c, autotune::ChannelsLast(2));
  graph::PropagateOutputLayout(g, la, c);

  auto groups = loop::PartitionGraph(g, la, true);
  ASSERT_EQ(groups.size(), 2u);

  // Build schedules for the conv group.
  auto sig = loop::GroupSignature(g, la, groups[1]);
  ASSERT_TRUE(sig.ok());
  loop::LoopSchedule sched;
  ASSERT_EQ(sig->spatial_extents.size(), 4u);   // N H W O (channels-last)
  ASSERT_EQ(sig->reduction_extents.size(), 3u);  // I KH KW
  auto mk = [](int64_t o, int64_t m, int64_t i, int64_t v) {
    loop::SpatialAxisSchedule a;
    a.outer = o;
    a.mid = m;
    a.inner = i;
    a.vec = v;
    return a;
  };
  switch (variant) {
    case 0:  // tile H,W and vectorize O
      sched.spatial = {mk(1, 1, 1, 1), mk(3, 2, 2, 1), mk(2, 3, 2, 1), mk(2, 1, 2, 4)};
      sched.reduction = {{4, 2}, {3, 1}, {1, 3}};
      break;
    case 1:  // heavy mid tiles, unroll
      sched.spatial = {mk(1, 1, 1, 1), mk(2, 6, 1, 1), mk(6, 1, 2, 1), mk(1, 2, 8, 1)};
      sched.reduction = {{2, 4}, {1, 3}, {3, 1}};
      sched.unroll_inner_reduction = true;
      break;
    case 2:  // rotation + parallel over two axes
      sched.spatial = {mk(1, 1, 1, 1), mk(12, 1, 1, 1), mk(4, 3, 1, 1), mk(4, 1, 4, 1)};
      sched.reduction = {{8, 1}, {1, 3}, {3, 1}};
      sched.parallel_axes = 2;
      sched.inner_order_rotation = 2;
      break;
  }

  auto program = loop::LowerGroup(g, la, groups[1], sched);
  ASSERT_TRUE(program.ok()) << program.status().ToString();

  // Run: pad group naive + scheduled conv group.
  auto pad_prog = loop::LowerGroupNaive(g, la, groups[0]);
  ASSERT_TRUE(pad_prog.ok());
  loop::LoweredNetwork net;
  net.groups = groups;
  net.programs = {std::move(*pad_prog), std::move(*program)};

  auto diff = testutil::ServedDiffVsReference(g, la, net, 13);
  ASSERT_TRUE(diff.ok()) << diff.status().ToString();
  EXPECT_LT(*diff, kTol) << "variant " << variant;
}

INSTANTIATE_TEST_SUITE_P(Variants, ScheduledLowering, ::testing::Range(0, 3));

// ---------------------------------------------------------------------------
// Whole small networks, canonical layouts.
// ---------------------------------------------------------------------------

TEST(NetworkCorrectness, Fig12SubgraphCanonical) {
  Graph g = graph::BuildFig12Subgraph(1);
  // Shrink channels for test speed by rebuilding a small analogue.
  Graph small("fig12_small");
  int x = small.AddInput("data", {1, 8, 7, 7});
  graph::PadAttrs pad;
  pad.before = {0, 0, 1, 1};
  pad.after = {0, 0, 1, 1};
  int px = small.AddPad(x, pad, "pad");
  int w1 = small.AddConstant("w1", {8, 8, 3, 3});
  graph::ConvAttrs a1;
  int c1 = small.AddConv(OpKind::kConv2d, px, w1, a1, "c2d_3x3");
  int w2 = small.AddConstant("w2", {16, 8, 1, 1});
  graph::ConvAttrs a2;
  small.AddConv(OpKind::kConv2d, c1, w2, a2, "c2d_1x1");
  EXPECT_LT(Validate(small, graph::LayoutAssignment{}), kTol);
  EXPECT_EQ(g.ComplexOps().size(), 2u);
}

}  // namespace
}  // namespace alt
