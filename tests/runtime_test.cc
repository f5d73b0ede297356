// Interpreter, reference executor, physicalize/canonicalize converters, and
// the store_at materialization path.

#include <cmath>
#include <utility>

#include <gtest/gtest.h>

#include "src/graph/layout_assignment.h"
#include "src/graph/networks.h"
#include "src/loop/lowering.h"
#include "src/runtime/session.h"
#include "tests/reference_check.h"

namespace alt::runtime {
namespace {

using graph::Graph;
using graph::LayoutAssignment;
using graph::OpKind;

// Executes the malformed `program` on every engine, each on its own copy of
// `inputs`, and requires all three to fail with one StatusCode. Returns the
// affine engine's status.
Status ExpectSameFailureOnEveryEngine(const ir::Program& program, const BufferStore& inputs) {
  auto run = [&](ExecEngine engine) {
    BufferStore store = inputs;
    ExecOptions options;
    options.engine = engine;
    return Execute(program, store, options);
  };
  const Status affine = run(ExecEngine::kAffine);
  EXPECT_FALSE(affine.ok());
  for (auto [engine, name] : {std::pair{ExecEngine::kGeneric, "generic"},
                              std::pair{ExecEngine::kNative, "native"}}) {
    const Status s = run(engine);
    EXPECT_EQ(s.code(), affine.code())
        << name << ": " << s.ToString() << " vs affine: " << affine.ToString();
  }
  return affine;
}

TEST(Interpreter, ExecutesSimpleAccumulation) {
  // for i in 8: out[0] += in[i]
  ir::Program program;
  ir::BufferDecl in;
  in.tensor.id = 0;
  in.tensor.name = "in";
  in.tensor.shape = {8};
  in.role = ir::BufferRole::kInput;
  ir::BufferDecl out;
  out.tensor.id = 1;
  out.tensor.name = "out";
  out.tensor.shape = {1};
  out.role = ir::BufferRole::kOutput;
  program.buffers = {in, out};
  ir::Expr i = ir::MakeVar("i");
  program.root = ir::MakeFor(
      i, 8, ir::ForKind::kSerial,
      ir::MakeStore(1, {ir::Const(0)}, ir::Load(0, {i}), ir::StoreMode::kAccumulate));

  BufferStore store;
  store.Get(0) = {1, 2, 3, 4, 5, 6, 7, 8};
  ASSERT_TRUE(Execute(program, store).ok());
  EXPECT_FLOAT_EQ(store.Get(1)[0], 36.0f);
}

TEST(Interpreter, GuardsRespectModulus) {
  // out[i] = (i % 3 == 0 && 0 <= i < 9) ? in[i/3] : -1
  ir::Program program;
  ir::BufferDecl in;
  in.tensor.id = 0;
  in.tensor.name = "in";
  in.tensor.shape = {3};
  in.role = ir::BufferRole::kInput;
  ir::BufferDecl out;
  out.tensor.id = 1;
  out.tensor.name = "out";
  out.tensor.shape = {9};
  out.role = ir::BufferRole::kOutput;
  program.buffers = {in, out};
  ir::Expr i = ir::MakeVar("i");
  std::vector<ir::IntervalCond> conds{{i, 0, 9, 3, 0}};
  ir::Val v = ir::Select(std::move(conds), ir::Load(0, {ir::FloorDiv(i, 3)}), ir::Imm(-1.0));
  program.root = ir::MakeFor(i, 9, ir::ForKind::kSerial, ir::MakeStore(1, {i}, v));

  BufferStore store;
  store.Get(0) = {10, 20, 30};
  ASSERT_TRUE(Execute(program, store).ok());
  std::vector<float> expected{10, -1, -1, 20, -1, -1, 30, -1, -1};
  EXPECT_EQ(store.Get(1), expected);
}

TEST(Interpreter, MissingInputBufferFails) {
  ir::Program program;
  ir::BufferDecl in;
  in.tensor.id = 0;
  in.tensor.name = "in";
  in.tensor.shape = {4};
  in.role = ir::BufferRole::kInput;
  program.buffers = {in};
  ExpectSameFailureOnEveryEngine(program, BufferStore());
}

TEST(Interpreter, MathFunctions) {
  ir::Program program;
  ir::BufferDecl in;
  in.tensor.id = 0;
  in.tensor.name = "in";
  in.tensor.shape = {1};
  in.role = ir::BufferRole::kInput;
  ir::BufferDecl out;
  out.tensor.id = 1;
  out.tensor.name = "out";
  out.tensor.shape = {3};
  out.role = ir::BufferRole::kOutput;
  program.buffers = {in, out};
  ir::Val x = ir::Load(0, {ir::Const(0)});
  program.root = ir::MakeBlock({
      ir::MakeStore(1, {ir::Const(0)}, ir::VExp(x)),
      ir::MakeStore(1, {ir::Const(1)}, ir::VTanh(x)),
      ir::MakeStore(1, {ir::Const(2)}, ir::VSqrt(x)),
  });
  BufferStore store;
  store.Get(0) = {1.0f};
  ASSERT_TRUE(Execute(program, store).ok());
  EXPECT_NEAR(store.Get(1)[0], std::exp(1.0f), 1e-5);
  EXPECT_NEAR(store.Get(1)[1], std::tanh(1.0f), 1e-5);
  EXPECT_NEAR(store.Get(1)[2], 1.0f, 1e-6);
}

// ---------------------------------------------------------------------------
// Physicalize / Canonicalize properties.
// ---------------------------------------------------------------------------

class PhysicalizeRoundTrip : public ::testing::TestWithParam<int> {
 public:
  static layout::LayoutSeq SeqFor(int which) {
    layout::LayoutSeq seq;
    switch (which) {
      case 0:
        seq.Append(layout::Primitive::Split(0, {3, 4}));
        break;
      case 1:
        seq.Append(layout::Primitive::Reorder({1, 0}));
        break;
      case 2:
        seq.Append(layout::Primitive::Fuse(0, 2));
        break;
      case 3:
        seq.Append(layout::Primitive::Pad(1, 2, 2));
        break;
      case 4:
        seq.Append(layout::Primitive::Unfold(0, 5, 3));
        break;
      case 5:
        seq.Append(layout::Primitive::Split(1, {2, 3}));
        seq.Append(layout::Primitive::Reorder({1, 0, 2}));
        seq.Append(layout::Primitive::Unfold(2, 2, 1));
        break;
    }
    return seq;
  }
};

TEST_P(PhysicalizeRoundTrip, CanonicalizeInvertsPhysicalize) {
  layout::LayoutSeq seq = SeqFor(GetParam());
  std::vector<int64_t> shape{12, 6};
  std::vector<float> data(72);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<float>(i) * 0.5f;
  }
  auto phys = Physicalize(data, shape, seq);
  ASSERT_TRUE(phys.ok());
  auto back = Canonicalize(*phys, shape, seq);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(MaxAbsDiff(*back, data), 0.0);
}

INSTANTIATE_TEST_SUITE_P(Seqs, PhysicalizeRoundTrip, ::testing::Range(0, 6));

TEST(Physicalize, UnfoldDuplicatesConsistently) {
  // Every copy of a duplicated element must hold the same value.
  layout::LayoutSeq seq;
  seq.Append(layout::Primitive::Unfold(0, 4, 2));
  std::vector<float> data{0, 1, 2, 3, 4, 5, 6, 7};
  auto phys = Physicalize(data, {8}, seq);
  ASSERT_TRUE(phys.ok());
  // Tiles: [0..3], [2..5], [4..7]: 12 elements.
  ASSERT_EQ(phys->size(), 12u);
  EXPECT_FLOAT_EQ((*phys)[2], (*phys)[4]);  // element 2: tile0[2], tile1[0]
  EXPECT_FLOAT_EQ((*phys)[7], (*phys)[9]);  // element 5: tile1[3], tile2[1]
}

TEST(Physicalize, PadRegionsAreZero) {
  layout::LayoutSeq seq;
  seq.Append(layout::Primitive::Pad(0, 1, 1));
  std::vector<float> data{5, 6};
  auto phys = Physicalize(data, {2}, seq);
  ASSERT_TRUE(phys.ok());
  EXPECT_EQ(*phys, (std::vector<float>{0, 5, 6, 0}));
}

// ---------------------------------------------------------------------------
// store_at: bias attached to the weight matrix (paper §4.1.2).
// ---------------------------------------------------------------------------

TEST(StoreAt, GmmBiasInWeightMatchesReference) {
  Graph g("gmm_bias");
  int a = g.AddInput("A", {6, 8});
  int b = g.AddConstant("B", {8, 10});
  int c = g.AddMatmul(a, b, "gmm");
  int bias = g.AddConstant("bias", {10});
  g.AddBiasAdd(c, bias, 1, "bias_add");

  LayoutAssignment la;
  layout::LayoutSeq host;
  host.Append(layout::Primitive::StoreAt(bias, 0));  // B becomes (K+1) x N
  la.Set(b, host);

  auto diff = testutil::LoweredDiffVsReference(g, la, 3);
  ASSERT_TRUE(diff.ok()) << diff.status().ToString();
  EXPECT_LT(*diff, 1e-4);
}

TEST(StoreAt, LoweredProgramDropsTheSourceBuffer) {
  Graph g("gmm_bias2");
  int a = g.AddInput("A", {4, 4});
  int b = g.AddConstant("B", {4, 4});
  int c = g.AddMatmul(a, b, "gmm");
  int bias = g.AddConstant("bias", {4});
  g.AddBiasAdd(c, bias, 1, "bias_add");
  LayoutAssignment la;
  layout::LayoutSeq host;
  host.Append(layout::Primitive::StoreAt(bias, 0));
  la.Set(b, host);
  auto net = loop::LowerNetworkNaive(g, la, true);
  ASSERT_TRUE(net.ok());
  ASSERT_EQ(net->programs.size(), 1u);  // matmul + fused bias
  // The bias tensor is folded into B's buffer: no separate decl, and B's
  // physical shape grew by one row.
  EXPECT_EQ(net->programs[0].FindBuffer(bias), nullptr);
  ASSERT_NE(net->programs[0].FindBuffer(b), nullptr);
  EXPECT_EQ(net->programs[0].FindBuffer(b)->tensor.shape,
            (std::vector<int64_t>{5, 4}));
}

// ---------------------------------------------------------------------------
// Reference executor spot checks against hand-computed values.
// ---------------------------------------------------------------------------

TEST(Reference, TinyConvByHand) {
  Graph g;
  int x = g.AddInput("x", {1, 1, 3, 3});
  int w = g.AddConstant("w", {1, 1, 2, 2});
  graph::ConvAttrs attrs;
  int y = g.AddConv(OpKind::kConv2d, x, w, attrs);
  TensorDataMap data;
  data[x] = {1, 2, 3, 4, 5, 6, 7, 8, 9};
  data[w] = {1, 0, 0, 1};  // identity-ish: adds top-left and bottom-right
  ASSERT_TRUE(ExecuteReference(g, data).ok());
  // out[i][j] = x[i][j] + x[i+1][j+1]
  EXPECT_EQ(data[y], (std::vector<float>{6, 8, 12, 14}));
}

TEST(Reference, SoftmaxRowsSumToOne) {
  Graph g;
  int x = g.AddInput("x", {4, 8});
  int y = g.AddSoftmax(x);
  Rng rng(2);
  TensorDataMap data;
  FillGraphInputs(g, rng, data);
  ASSERT_TRUE(ExecuteReference(g, data).ok());
  for (int r = 0; r < 4; ++r) {
    double sum = 0;
    for (int c = 0; c < 8; ++c) {
      sum += data[y][r * 8 + c];
    }
    EXPECT_NEAR(sum, 1.0, 1e-5);
  }
}

TEST(Reference, LayerNormMoments) {
  Graph g;
  int x = g.AddInput("x", {2, 16});
  int y = g.AddLayerNorm(x);
  Rng rng(4);
  TensorDataMap data;
  FillGraphInputs(g, rng, data);
  ASSERT_TRUE(ExecuteReference(g, data).ok());
  for (int r = 0; r < 2; ++r) {
    double mean = 0, var = 0;
    for (int c = 0; c < 16; ++c) {
      mean += data[y][r * 16 + c];
    }
    mean /= 16;
    for (int c = 0; c < 16; ++c) {
      var += (data[y][r * 16 + c] - mean) * (data[y][r * 16 + c] - mean);
    }
    EXPECT_NEAR(mean, 0.0, 1e-4);
    EXPECT_NEAR(var / 16, 1.0, 0.05);
  }
}

TEST(Interpreter, OutOfBoundsStoreReturnsStatusNotCrash) {
  // for i in 8: out[i] = in[i], but out only has 4 elements. A malformed
  // program (bad schedule, corrupt record) must surface as a Status from
  // Execute, never as memory corruption or an abort.
  ir::Program program;
  ir::BufferDecl in;
  in.tensor.id = 0;
  in.tensor.name = "in";
  in.tensor.shape = {8};
  in.role = ir::BufferRole::kInput;
  ir::BufferDecl out;
  out.tensor.id = 1;
  out.tensor.name = "out";
  out.tensor.shape = {4};
  out.role = ir::BufferRole::kOutput;
  program.buffers = {in, out};
  ir::Expr i = ir::MakeVar("i");
  program.root = ir::MakeFor(
      i, 8, ir::ForKind::kSerial,
      ir::MakeStore(1, {i}, ir::Load(0, {i}), ir::StoreMode::kAssign));

  BufferStore store;
  store.Get(0) = {1, 2, 3, 4, 5, 6, 7, 8};
  Status s = ExpectSameFailureOnEveryEngine(program, store);
  EXPECT_NE(s.ToString().find("out"), std::string::npos);
}

TEST(Interpreter, OutOfBoundsLoadReturnsStatus) {
  // out[i] = in[i + 4] walks off the end of a 4-element input.
  ir::Program program;
  ir::BufferDecl in;
  in.tensor.id = 0;
  in.tensor.name = "in";
  in.tensor.shape = {4};
  in.role = ir::BufferRole::kInput;
  ir::BufferDecl out;
  out.tensor.id = 1;
  out.tensor.name = "out";
  out.tensor.shape = {4};
  out.role = ir::BufferRole::kOutput;
  program.buffers = {in, out};
  ir::Expr i = ir::MakeVar("i");
  program.root = ir::MakeFor(
      i, 4, ir::ForKind::kSerial,
      ir::MakeStore(1, {i}, ir::Load(0, {ir::Add(i, ir::Const(4))}),
                    ir::StoreMode::kAssign));

  BufferStore store;
  store.Get(0) = {1, 2, 3, 4};
  ExpectSameFailureOnEveryEngine(program, store);
}

TEST(Interpreter, UnboundVariableReturnsStatus) {
  // The store index references a loop variable that no loop binds.
  ir::Program program;
  ir::BufferDecl out;
  out.tensor.id = 0;
  out.tensor.name = "out";
  out.tensor.shape = {4};
  out.role = ir::BufferRole::kOutput;
  program.buffers = {out};
  ir::Expr i = ir::MakeVar("i");
  ir::Expr ghost = ir::MakeVar("never_bound");
  program.root = ir::MakeFor(
      i, 4, ir::ForKind::kSerial,
      ir::MakeStore(0, {ghost}, ir::Imm(1.0), ir::StoreMode::kAssign));

  Status s = ExpectSameFailureOnEveryEngine(program, BufferStore());
  EXPECT_NE(s.ToString().find("never_bound"), std::string::npos);
}

TEST(Interpreter, StoreToUndeclaredBufferReturnsStatus) {
  ir::Program program;
  ir::BufferDecl out;
  out.tensor.id = 0;
  out.tensor.name = "out";
  out.tensor.shape = {2};
  out.role = ir::BufferRole::kOutput;
  program.buffers = {out};
  ir::Expr i = ir::MakeVar("i");
  program.root = ir::MakeFor(
      i, 2, ir::ForKind::kSerial,
      ir::MakeStore(/*buffer_id=*/5, {i}, ir::Imm(1.0), ir::StoreMode::kAssign));

  ExpectSameFailureOnEveryEngine(program, BufferStore());
}

}  // namespace
}  // namespace alt::runtime
