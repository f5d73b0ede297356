// Whole-pipeline integration tests: small but structurally complete networks
// (residual blocks, depthwise bottlenecks, a transformer layer, 3-D convs)
// tuned and/or layout-transformed, lowered, interpreted, and validated
// against the reference executor; tuned BERT-tiny is also served on every
// engine and thread count, bit for bit.

#include <cstring>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/autotune/layout_templates.h"
#include "src/core/alt.h"
#include "src/graph/layout_assignment.h"
#include "src/graph/networks.h"
#include "src/loop/lowering.h"
#include "src/runtime/session.h"
#include "src/support/metrics.h"
#include "tests/reference_check.h"

namespace alt {
namespace {

using graph::Graph;
using graph::LayoutAssignment;
using graph::OpKind;

constexpr double kTol = 5e-3;

// A miniature residual stage: conv-bias-relu, conv-bias, downsample 1x1,
// add, relu — the exact dataflow shape of a ResNet basic block.
Graph MiniResidualBlock() {
  Graph g("mini_residual");
  int x = g.AddInput("x", {1, 8, 12, 12});
  graph::PadAttrs pad;
  pad.before = {0, 0, 1, 1};
  pad.after = {0, 0, 1, 1};
  int p1 = g.AddPad(x, pad, "pad1");
  int w1 = g.AddConstant("w1", {16, 8, 3, 3});
  graph::ConvAttrs s2;
  s2.stride[0] = s2.stride[1] = 2;
  int c1 = g.AddConv(OpKind::kConv2d, p1, w1, s2, "conv1");
  int b1 = g.AddConstant("b1", {16});
  int y = g.AddRelu(g.AddBiasAdd(c1, b1, 1, "bias1"), "relu1");

  int p2 = g.AddPad(y, pad, "pad2");
  int w2 = g.AddConstant("w2", {16, 16, 3, 3});
  graph::ConvAttrs s1;
  int c2 = g.AddConv(OpKind::kConv2d, p2, w2, s1, "conv2");
  int b2 = g.AddConstant("b2", {16});
  int main_path = g.AddBiasAdd(c2, b2, 1, "bias2");

  int wd = g.AddConstant("wd", {16, 8, 1, 1});
  int down = g.AddConv(OpKind::kConv2d, x, wd, s2, "down");

  int sum = g.AddAdd(main_path, down, "add");
  g.AddRelu(sum, "relu_out");
  return g;
}

TEST(Integration, ResidualBlockCanonical) {
  Graph g = MiniResidualBlock();
  EXPECT_LT(*testutil::LoweredDiffVsReference(g, LayoutAssignment{}, 5), kTol);
}

TEST(Integration, ResidualBlockMixedLayouts) {
  Graph g = MiniResidualBlock();
  // Put different layouts on the two convs: channels-last on conv1 (with
  // propagation) and a blocked layout on conv2's side.
  LayoutAssignment la;
  int c1 = -1, c2 = -1;
  for (const auto& op : g.ops()) {
    if (op.name == "conv1") {
      c1 = op.output;
    }
    if (op.name == "conv2") {
      c2 = op.output;
    }
  }
  ASSERT_GE(c1, 0);
  ASSERT_GE(c2, 0);
  la.Set(c1, autotune::ChannelsLast(2));
  graph::PropagateOutputLayout(g, la, c1);
  auto blocked = autotune::BlockedChannels(g.tensor(c2).shape, 4);
  ASSERT_TRUE(blocked.ok());
  la.Set(c2, *blocked);
  graph::PropagateOutputLayout(g, la, c2);
  EXPECT_LT(*testutil::LoweredDiffVsReference(g, la, 6), kTol);
}

TEST(Integration, DepthwiseBottleneckTuned) {
  // Mini MobileNet inverted residual: expand 1x1 -> depthwise 3x3 -> project.
  Graph g("mini_bottleneck");
  int x = g.AddInput("x", {1, 8, 10, 10});
  int we = g.AddConstant("we", {24, 8, 1, 1});
  graph::ConvAttrs a1;
  int e = g.AddConv(OpKind::kConv2d, x, we, a1, "expand");
  int re = g.AddRelu(e, "relu_e");
  graph::PadAttrs pad;
  pad.before = {0, 0, 1, 1};
  pad.after = {0, 0, 1, 1};
  int pd = g.AddPad(re, pad, "pad");
  int wd = g.AddConstant("wd", {24, 1, 3, 3});
  graph::ConvAttrs dw;
  dw.groups = 24;
  int d = g.AddConv(OpKind::kConv2d, pd, wd, dw, "depthwise");
  int rd = g.AddRelu(d, "relu_d");
  int wp = g.AddConstant("wp", {8, 24, 1, 1});
  int proj = g.AddConv(OpKind::kConv2d, rd, wp, a1, "project");
  g.AddAdd(proj, x, "residual");

  // Tune it end-to-end and validate the tuned programs numerically.
  core::AltOptions options;
  options.budget = 120;
  options.method = autotune::SearchMethod::kRandom;
  auto compiled = core::Compile(g, sim::Machine::ArmCpu(), options);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();

  auto diff = testutil::ServedDiffVsReference(compiled->graph, compiled->assignment,
                                              {compiled->groups, compiled->programs}, 31);
  ASSERT_TRUE(diff.ok()) << diff.status().ToString();
  EXPECT_LT(*diff, kTol);
}

TEST(Integration, TransformerLayerCanonical) {
  // One miniature BERT-style layer (hidden 32): matmuls + bias + gelu +
  // residual + layernorm + softmax path.
  Graph g = graph::BuildBert(1, 64, 1, /*seq_len=*/8);
  EXPECT_LT(*testutil::LoweredDiffVsReference(g, LayoutAssignment{}, 8), kTol);
}

TEST(Integration, Conv3dBlockWithLayouts) {
  Graph g("mini3d");
  int x = g.AddInput("x", {1, 4, 6, 8, 8});
  graph::PadAttrs pad;
  pad.before = {0, 0, 1, 1, 1};
  pad.after = {0, 0, 1, 1, 1};
  int p = g.AddPad(x, pad, "pad");
  int w = g.AddConstant("w", {8, 4, 3, 3, 3});
  graph::ConvAttrs attrs;
  attrs.spatial_dims = 3;
  int c = g.AddConv(OpKind::kConv3d, p, w, attrs, "conv3d");
  int b = g.AddConstant("b", {8});
  g.AddRelu(g.AddBiasAdd(c, b, 1, "bias"), "relu");

  const graph::Op& conv = g.op(g.ProducerOf(c));
  autotune::ConvLayoutParams params;
  params.spatial_tiles = {3, 4, 4};
  params.out_tile = 4;
  params.in_tile = 2;
  params.w_in_tile = 2;
  params.w_out_tile = 4;
  auto layouts = autotune::MakeConvTemplates(g, conv, params);
  ASSERT_TRUE(layouts.ok()) << layouts.status().ToString();
  LayoutAssignment la;
  la.Set(c, layouts->output);
  la.Set(p, layouts->input);
  la.Set(w, layouts->weight);
  graph::PropagateOutputLayout(g, la, c);
  EXPECT_LT(*testutil::LoweredDiffVsReference(g, la, 9), kTol);
}

TEST(Integration, Fig12SubgraphWithConversionOp) {
  // Shrunk §7.3.2 subgraph: tune both convs independently so a conversion op
  // appears between them; the converted network must stay correct.
  Graph g("fig12_mini");
  int x = g.AddInput("x", {1, 8, 7, 7});
  graph::PadAttrs pad;
  pad.before = {0, 0, 1, 1};
  pad.after = {0, 0, 1, 1};
  int p = g.AddPad(x, pad, "pad");
  int w1 = g.AddConstant("w1", {8, 8, 3, 3});
  graph::ConvAttrs attrs;
  int c1 = g.AddConv(OpKind::kConv2d, p, w1, attrs, "c3x3");
  int w2 = g.AddConstant("w2", {16, 8, 1, 1});
  int c2 = g.AddConv(OpKind::kConv2d, c1, w2, attrs, "c1x1");
  (void)c2;

  LayoutAssignment la;
  la.Set(c1, autotune::ChannelsLast(2));
  auto blocked = autotune::BlockedChannels(g.tensor(c1).shape, 4);
  ASSERT_TRUE(blocked.ok());
  auto sat = graph::RequestInputLayout(g, la, g.ProducerOf(c2), 0, *blocked);
  ASSERT_EQ(sat, graph::InputSatisfaction::kConversionInserted);
  EXPECT_LT(*testutil::LoweredDiffVsReference(g, la, 10), kTol);
}

// ---------------------------------------------------------------------------
// Partitioning properties.
// ---------------------------------------------------------------------------

TEST(Partitioning, EveryOpAppearsExactlyOnce) {
  Graph g = MiniResidualBlock();
  LayoutAssignment la;
  auto groups = loop::PartitionGraph(g, la, true);
  std::vector<int> count(g.ops().size(), 0);
  for (const auto& grp : groups) {
    ++count[grp.anchor_op];
    for (int f : grp.fused_ops) {
      ++count[f];
    }
  }
  for (size_t i = 0; i < count.size(); ++i) {
    EXPECT_EQ(count[i], 1) << "op " << i;
  }
}

TEST(Partitioning, FusionDisabledYieldsSingletonGroups) {
  Graph g = MiniResidualBlock();
  LayoutAssignment la;
  auto fused = loop::PartitionGraph(g, la, true);
  auto unfused = loop::PartitionGraph(g, la, false);
  EXPECT_GT(unfused.size(), fused.size());
  for (const auto& grp : unfused) {
    EXPECT_TRUE(grp.fused_ops.empty());
  }
  // Both partitions execute to the same numbers.
  EXPECT_LT(*testutil::LoweredDiffVsReference(g, la, 12, /*enable_fusion=*/false), kTol);
}

TEST(Partitioning, MultiConsumerTensorIsNotFused) {
  // The residual input x feeds two convs: neither may fuse across it.
  Graph g("fanout");
  int x = g.AddInput("x", {1, 4, 4, 4});
  int r = g.AddRelu(x, "relu");
  g.AddMulScalar(r, 2.0, "a");
  g.AddMulScalar(r, 3.0, "b");
  LayoutAssignment la;
  auto groups = loop::PartitionGraph(g, la, true);
  EXPECT_EQ(groups.size(), 3u);  // relu cannot fuse into either consumer
}

// ---------------------------------------------------------------------------
// Tuned-variant consistency on a shared workload.
// ---------------------------------------------------------------------------

TEST(Integration, AllVariantsStayCorrect) {
  Graph g = MiniResidualBlock();
  for (auto variant : {core::AltVariant::kFull, core::AltVariant::kLoopOnly,
                       core::AltVariant::kWithoutPropagation}) {
    core::AltOptions options;
    options.budget = 80;
    options.variant = variant;
    options.method = autotune::SearchMethod::kRandom;
    auto compiled = core::Compile(g, sim::Machine::IntelCpu(), options);
    ASSERT_TRUE(compiled.ok()) << core::VariantName(variant);
    auto diff = testutil::ServedDiffVsReference(compiled->graph, compiled->assignment,
                                                {compiled->groups, compiled->programs}, 41);
    ASSERT_TRUE(diff.ok()) << core::VariantName(variant) << ": "
                           << diff.status().ToString();
    EXPECT_LT(*diff, kTol) << core::VariantName(variant);
  }
}

// ---------------------------------------------------------------------------
// Tuned networks served on every engine.
// ---------------------------------------------------------------------------

// BERT-tiny (sequence length 8) tuned with ALT at budget 200 and tuner
// `seed`, compiled once per seed for the tests below.
const autotune::CompiledNetwork& TunedBertTiny(uint64_t seed) {
  static std::map<uint64_t, autotune::CompiledNetwork> tuned;
  auto it = tuned.find(seed);
  if (it == tuned.end()) {
    core::AltOptions options;
    options.budget = 200;
    options.seed = seed;
    auto compiled = core::Compile(graph::BuildBert(1, 128, 2, /*seq_len=*/8),
                                  sim::Machine::IntelCpu(), options);
    EXPECT_TRUE(compiled.ok()) << "seed " << seed << ": " << compiled.status().ToString();
    it = tuned.emplace(seed, compiled.ok() ? std::move(*compiled)
                                           : autotune::CompiledNetwork{}).first;
  }
  return it->second;
}

// BERT-tiny tuned with ALT at tuner seeds 1-5. Its bias, GELU, softmax and
// layer-norm leaves are eval leaves, which the native kernel hands back to the
// host per element. Sessions on the generic, affine and native engines, at 1
// and 4 intra-op threads, must serve bit-identical outputs that match the
// reference within tolerance.
TEST(Integration, TunedBertServedBitIdenticallyOnEveryEngine) {
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    const autotune::CompiledNetwork& compiled = TunedBertTiny(seed);
    ASSERT_FALSE(compiled.programs.empty()) << "seed " << seed;
    const loop::LoweredNetwork net{compiled.groups, compiled.programs};

    Rng rng(seed);
    runtime::TensorDataMap data;
    runtime::FillGraphInputs(compiled.graph, rng, data);
    std::vector<std::string> names;
    std::vector<std::vector<float>> outputs;
    int output_tensor = -1;
    const MetricsSnapshot before = MetricsRegistry::Global().Snapshot();
    for (auto [engine, name] : {std::pair{runtime::ExecEngine::kAffine, "affine"},
                                std::pair{runtime::ExecEngine::kGeneric, "generic"},
                                std::pair{runtime::ExecEngine::kNative, "native"}}) {
      for (int threads : {1, 4}) {
        runtime::SessionOptions session_options;
        session_options.engine = engine;
        session_options.intra_threads = threads;
        auto session = runtime::InferenceSession::Create(compiled.graph, compiled.assignment,
                                                         net, session_options);
        ASSERT_TRUE(session.ok()) << session.status().ToString();
        auto served = session->Run(data);
        ASSERT_TRUE(served.ok()) << name << "@" << threads << ": " << served.status().ToString();
        names.push_back(std::string(name) + "@" + std::to_string(threads));
        outputs.push_back(std::move(*served));
        output_tensor = session->output_tensor();
      }
    }
    const MetricsSnapshot after = MetricsRegistry::Global().Snapshot();
    EXPECT_GT(after.counter("interp.eval_leaves") - before.counter("interp.eval_leaves"), 0)
        << "seed " << seed << " built no eval leaf";
    for (size_t i = 1; i < outputs.size(); ++i) {
      ASSERT_EQ(outputs[i].size(), outputs[0].size()) << names[i];
      EXPECT_EQ(std::memcmp(outputs[i].data(), outputs[0].data(),
                            outputs[0].size() * sizeof(float)),
                0)
          << "seed " << seed << ": " << names[i] << " differs from " << names[0];
    }
    ASSERT_TRUE(runtime::ExecuteReference(compiled.graph, data).ok());
    EXPECT_LT(runtime::MaxAbsDiff(outputs[0], data[output_tensor]), kTol) << "seed " << seed;
  }
}

// The served output says nothing about the attention branch: BuildBert
// discards each layer's qkv and context results, so qkv, scores, softmax and
// context never reach it. Every group of every seed's network is checked
// against the reference on its own instead, which is what catches a softmax
// that reads its tiled input canonically.
TEST(Integration, TunedBertEveryGroupMatchesReference) {
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    const autotune::CompiledNetwork& compiled = TunedBertTiny(seed);
    ASSERT_FALSE(compiled.programs.empty()) << "seed " << seed;
    auto diffs = testutil::GroupDiffsVsReference(compiled.graph, compiled.assignment,
                                                 {compiled.groups, compiled.programs}, seed);
    ASSERT_TRUE(diffs.ok()) << "seed " << seed << ": " << diffs.status().ToString();
    for (size_t i = 0; i < diffs->size(); ++i) {
      EXPECT_LT((*diffs)[i], kTol) << "seed " << seed << ": group " << compiled.programs[i].name;
    }
  }
}

}  // namespace
}  // namespace alt
