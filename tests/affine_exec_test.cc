// Affine execution engine coverage: unit tests for the decomposition and
// guard-range rules (ir/affine.h), a randomized differential corpus proving
// the fast path and the generic fallback produce bit-identical buffers across
// layout-primitive + schedule combinations, hand-built bytecode and guarded
// eval leaves with the per-kind leaf counters, a randomized corpus of value
// trees and index forms that native kernels run as store leaves (with pinned
// libm, select and structure-key cases), zero-init-skip semantics, and equal
// measurements of structurally identical programs.

#include <sys/stat.h>
#include <unistd.h>

#include <array>
#include <cmath>
#include <cstring>
#include <random>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "src/autotune/layout_templates.h"
#include "src/autotune/measure.h"
#include "src/codegen/kernel_cache.h"
#include "src/graph/layout_assignment.h"
#include "src/graph/networks.h"
#include "src/ir/affine.h"
#include "src/ir/eval.h"
#include "src/loop/lowering.h"
#include "src/runtime/session.h"
#include "src/support/fileio.h"
#include "src/support/metrics.h"

namespace alt {
namespace {

using graph::Graph;
using graph::LayoutAssignment;
using graph::OpKind;
using ir::AffineAnalyzer;
using ir::AffineLoop;

// ---------------------------------------------------------------------------
// Affine decomposition.
// ---------------------------------------------------------------------------

TEST(AffineDecompose, LinearForm) {
  ir::Expr i = ir::MakeVar("i");
  ir::Expr j = ir::MakeVar("j");
  AffineAnalyzer az({{i->var_id, 4}, {j->var_id, 7}});
  auto f = az.Decompose(ir::Add(ir::Add(ir::Mul(i, 3), j), ir::Const(5)));
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->base, 5);
  ASSERT_EQ(f->coeffs.size(), 2u);
  EXPECT_EQ(f->coeffs[0], 3);
  EXPECT_EQ(f->coeffs[1], 1);
}

TEST(AffineDecompose, SplitFuseRoundtrip) {
  // The split/fuse pattern layout lowering produces: (4i + j) with j in
  // [0, 4) must divide and mod back to exactly i and j.
  ir::Expr i = ir::MakeVar("i");
  ir::Expr j = ir::MakeVar("j");
  AffineAnalyzer az({{i->var_id, 6}, {j->var_id, 4}});
  ir::Expr fused = ir::Add(ir::Mul(i, 4), j);
  auto div = az.Decompose(ir::FloorDiv(fused, 4));
  ASSERT_TRUE(div.has_value());
  EXPECT_EQ(div->base, 0);
  EXPECT_EQ(div->coeffs[0], 1);
  EXPECT_EQ(div->coeffs[1], 0);
  auto mod = az.Decompose(ir::Mod(fused, 4));
  ASSERT_TRUE(mod.has_value());
  EXPECT_EQ(mod->base, 0);
  EXPECT_EQ(mod->coeffs[0], 0);
  EXPECT_EQ(mod->coeffs[1], 1);
}

TEST(AffineDecompose, ModWithOffsetStaysExactWhenRangeFits) {
  ir::Expr i = ir::MakeVar("i");
  AffineAnalyzer az({{i->var_id, 4}});
  // (i + 2) mod 8 == i + 2 for i in [0, 4).
  auto f = az.Decompose(ir::Mod(ir::Add(i, 2), 8));
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->base, 2);
  EXPECT_EQ(f->coeffs[0], 1);
}

TEST(AffineDecompose, NonDivisibleResidueIsRejected) {
  ir::Expr i = ir::MakeVar("i");
  ir::Expr j = ir::MakeVar("j");
  AffineAnalyzer az({{i->var_id, 4}, {j->var_id, 2}});
  // (3i + j) / 4 takes quotients 0, 1 and 2 over the domain: not affine.
  EXPECT_FALSE(az.Decompose(ir::FloorDiv(ir::Add(ir::Mul(i, 3), j), 4)).has_value());
}

TEST(AffineDecompose, MinMaxResolveByDifferenceRange) {
  ir::Expr i = ir::MakeVar("i");
  AffineAnalyzer az({{i->var_id, 4}});
  // i <= 7 over the whole domain -> min picks i; max picks the constant.
  auto mn = az.Decompose(ir::Min(i, ir::Const(7)));
  ASSERT_TRUE(mn.has_value());
  EXPECT_EQ(mn->coeffs[0], 1);
  auto mx = az.Decompose(ir::Max(i, ir::Const(7)));
  ASSERT_TRUE(mx.has_value());
  EXPECT_EQ(mx->coeffs[0], 0);
  EXPECT_EQ(mx->base, 7);
  // i crosses 2 inside the domain: unresolvable.
  EXPECT_FALSE(az.Decompose(ir::Min(i, ir::Const(2))).has_value());
}

TEST(AffineDecompose, UnknownVarIsNonAffine) {
  ir::Expr i = ir::MakeVar("i");
  ir::Expr stray = ir::MakeVar("stray");
  AffineAnalyzer az({{i->var_id, 4}});
  EXPECT_FALSE(az.Decompose(ir::Add(i, stray)).has_value());
}

// Every successful decomposition must agree with bytecode evaluation at every
// point of the iteration domain — the exactness contract the engines rely on.
TEST(AffineDecompose, ExactOverTheWholeDomain) {
  ir::Expr i = ir::MakeVar("i");
  ir::Expr j = ir::MakeVar("j");
  const int64_t ei = 6, ej = 8;
  AffineAnalyzer az({{i->var_id, ei}, {j->var_id, ej}});
  std::vector<ir::Expr> exprs = {
      ir::Add(ir::Mul(i, 9), ir::Mul(j, 2)),
      ir::FloorDiv(ir::Add(ir::Mul(i, 8), j), 8),
      ir::Mod(ir::Add(ir::Mul(i, 8), j), 8),
      ir::Mod(ir::Add(ir::Mul(i, 16), ir::Add(ir::Mul(j, 2), 1)), 16),
      ir::Min(ir::Add(i, j), ir::Const(13)),
      ir::Max(ir::Sub(i, 5), ir::Const(-5)),
      ir::Sub(ir::Mul(j, 3), ir::Mul(i, 2)),
  };
  ir::VarSlotMap slots;
  int si = slots.AddVar(i->var_id);
  int sj = slots.AddVar(j->var_id);
  for (const auto& e : exprs) {
    auto form = az.Decompose(e);
    ASSERT_TRUE(form.has_value()) << ir::ToString(e);
    auto compiled = ir::CompiledExpr::Compile(e, slots);
    ASSERT_TRUE(compiled.ok());
    std::vector<int64_t> env(slots.size(), 0);
    for (int64_t vi = 0; vi < ei; ++vi) {
      for (int64_t vj = 0; vj < ej; ++vj) {
        env[si] = vi;
        env[sj] = vj;
        int64_t expected = compiled->Eval(env.data());
        int64_t got = form->base + form->coeffs[0] * vi + form->coeffs[1] * vj;
        ASSERT_EQ(got, expected) << ir::ToString(e) << " at i=" << vi << " j=" << vj;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Guard-range splitting.
// ---------------------------------------------------------------------------

// Brute-force oracle for the guard predicate.
bool GuardHolds(int64_t e, int64_t lo, int64_t hi, int64_t modulus, int64_t rem) {
  if (e < lo || e >= hi) {
    return false;
  }
  if (modulus > 1) {
    int64_t m = e % modulus;
    if (m < 0) {
      m += modulus;
    }
    return m == rem;
  }
  return true;
}

void CheckGuardRange(int64_t c0, int64_t cv, int64_t lo, int64_t hi, int64_t modulus,
                     int64_t rem, int64_t extent) {
  auto r = ir::GuardRange(c0, cv, lo, hi, modulus, rem, extent);
  ASSERT_TRUE(r.has_value());
  for (int64_t v = 0; v < extent; ++v) {
    bool expected = GuardHolds(c0 + cv * v, lo, hi, modulus, rem);
    bool got = v >= r->first && v < r->second;
    ASSERT_EQ(got, expected) << "c0=" << c0 << " cv=" << cv << " v=" << v;
  }
}

TEST(GuardRange, PositiveAndNegativeCoefficients) {
  CheckGuardRange(-2, 1, 0, 8, 1, 0, 10);  // pad-style prefix/suffix trim
  CheckGuardRange(5, -1, 0, 4, 1, 0, 10);  // decreasing guard expression
  CheckGuardRange(0, 3, 2, 11, 1, 0, 10);  // stride-3 walk through an interval
  CheckGuardRange(-7, 2, 0, 4, 1, 0, 10);
}

TEST(GuardRange, ConstantGuard) {
  CheckGuardRange(3, 0, 0, 8, 1, 0, 5);   // always true -> full range
  CheckGuardRange(9, 0, 0, 8, 1, 0, 5);   // always false -> empty
  CheckGuardRange(4, 0, 0, 8, 2, 0, 5);   // modulus satisfied
  CheckGuardRange(3, 0, 0, 8, 2, 0, 5);   // modulus violated -> empty
}

TEST(GuardRange, ModulusAlignedCoefficient) {
  // cv divisible by the modulus: residue constant along v, range splittable.
  CheckGuardRange(4, 2, 0, 20, 2, 0, 12);
  CheckGuardRange(3, 2, 0, 20, 2, 0, 12);  // residue 1 != 0 -> empty
  CheckGuardRange(6, 4, 0, 30, 2, 0, 8);
}

TEST(GuardRange, PeriodicSubsetIsRejected) {
  // cv % modulus != 0 selects every other iteration: not contiguous.
  EXPECT_FALSE(ir::GuardRange(0, 1, 0, 100, 2, 0, 10).has_value());
  EXPECT_FALSE(ir::GuardRange(5, 3, 0, 100, 2, 1, 10).has_value());
}

TEST(GuardRange, ClampsToTheIterationDomain) {
  auto r = ir::GuardRange(0, 1, -100, 100, 1, 0, 6);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->first, 0);
  EXPECT_EQ(r->second, 6);
}

// ---------------------------------------------------------------------------
// Differential corpus: affine engine vs generic fallback, bit-identical.
// ---------------------------------------------------------------------------

// Executes `programs` in order under all three engines — and the affine and
// native engines additionally at intra-op thread counts 2 and 8; the generic
// engine never shards — each on its own copy of `inputs`, and requires every
// buffer to match bit for bit. The serial affine run is the reference; thread
// counts above the root extent and programs whose kParallel root fails the
// disjointness proof (degrading to serial) must be equally invariant.
void ExpectProgramsBitIdentical(const std::vector<ir::Program>& programs,
                                const runtime::BufferStore& inputs, const std::string& tag) {
  struct EngineRun {
    std::string name;
    runtime::ExecOptions options;
    runtime::BufferStore store;
  };
  std::vector<EngineRun> runs;
  auto add = [&](const std::string& name, runtime::ExecEngine engine,
                 std::shared_ptr<runtime::IntraOpPool> pool) {
    runs.push_back({name, {}, inputs});
    runs.back().options.engine = engine;
    runs.back().options.intra_pool = std::move(pool);
  };
  add("affine", runtime::ExecEngine::kAffine, nullptr);  // runs[0]: the reference
  add("generic", runtime::ExecEngine::kGeneric, nullptr);
  add("native", runtime::ExecEngine::kNative, nullptr);
  for (int t : {2, 8}) {
    auto pool = std::make_shared<runtime::IntraOpPool>(t);
    add("affine@" + std::to_string(t), runtime::ExecEngine::kAffine, pool);
    add("native@" + std::to_string(t), runtime::ExecEngine::kNative, pool);
  }
  for (const auto& program : programs) {
    Status ref = runtime::Execute(program, runs[0].store, runs[0].options);
    for (size_t ri = 1; ri < runs.size(); ++ri) {
      Status s = runtime::Execute(program, runs[ri].store, runs[ri].options);
      ASSERT_EQ(ref.ok(), s.ok()) << tag << " affine=" << ref.ToString() << " "
                                  << runs[ri].name << "=" << s.ToString();
    }
    ASSERT_TRUE(ref.ok()) << tag << ": " << ref.ToString();
    for (const auto& decl : program.buffers) {
      const auto* a = runs[0].store.Find(decl.tensor.id);
      ASSERT_NE(a, nullptr) << tag;
      for (size_t ri = 1; ri < runs.size(); ++ri) {
        const auto* b = runs[ri].store.Find(decl.tensor.id);
        ASSERT_NE(b, nullptr) << tag;
        ASSERT_EQ(a->size(), b->size()) << tag << " tensor " << decl.tensor.name;
        ASSERT_EQ(std::memcmp(a->data(), b->data(), a->size() * sizeof(float)), 0)
            << tag << " tensor " << decl.tensor.name << " differs (affine vs "
            << runs[ri].name << ")";
      }
    }
  }
}

// ExpectProgramsBitIdentical over every program of `net`, on the graph's
// inputs drawn from `seed` and physicalized under `la`.
void ExpectEnginesBitIdentical(const Graph& g, const LayoutAssignment& la,
                               const loop::LoweredNetwork& net, uint64_t seed,
                               const std::string& tag) {
  Rng rng(seed);
  runtime::TensorDataMap data;
  runtime::FillGraphInputs(g, rng, data);
  runtime::BufferStore inputs;
  for (const auto& t : g.tensors()) {
    if (!g.IsGraphInput(t.id) && !g.IsConstant(t.id)) {
      continue;
    }
    auto it = data.find(t.id);
    ASSERT_NE(it, data.end()) << tag;
    auto phys = runtime::Physicalize(it->second, t.shape, la.Get(t.id));
    ASSERT_TRUE(phys.ok()) << tag << ": " << phys.status().ToString();
    inputs.Get(t.id) = *phys;
  }
  ExpectProgramsBitIdentical(net.programs, inputs, tag);
}

std::vector<int64_t> RandomFactors(int64_t n, int parts, std::mt19937_64& rng) {
  std::vector<int64_t> f(static_cast<size_t>(parts), 1);
  for (int p = 0; p + 1 < parts; ++p) {
    std::vector<int64_t> divs;
    for (int64_t d = 1; d <= n; ++d) {
      if (n % d == 0) {
        divs.push_back(d);
      }
    }
    f[p] = divs[rng() % divs.size()];
    n /= f[p];
  }
  f[static_cast<size_t>(parts) - 1] = n;
  return f;
}

loop::LoopSchedule RandomSchedule(const std::vector<int64_t>& spatial,
                                  const std::vector<int64_t>& reduction,
                                  std::mt19937_64& rng) {
  loop::LoopSchedule s;
  for (int64_t e : spatial) {
    auto f = RandomFactors(e, 4, rng);
    loop::SpatialAxisSchedule a;
    a.outer = f[0];
    a.mid = f[1];
    a.inner = f[2];
    a.vec = f[3];
    s.spatial.push_back(a);
  }
  for (int64_t e : reduction) {
    auto f = RandomFactors(e, 2, rng);
    s.reduction.push_back({f[0], f[1]});
  }
  s.parallel_axes = static_cast<int>(rng() % 3);
  s.inner_order_rotation =
      spatial.empty() ? 0 : static_cast<int>(rng() % spatial.size());
  s.unroll_inner_reduction = (rng() % 2) == 0;
  return s;
}

// Lowers the network, scheduling the (single) complex group randomly and the
// rest naively, then runs the differential check.
void DifferentialConvCase(Graph& g, const LayoutAssignment& la, std::mt19937_64& rng,
                          const std::string& tag) {
  auto groups = loop::PartitionGraph(g, la, true);
  loop::LoweredNetwork net;
  net.groups = groups;
  for (const auto& group : groups) {
    if (graph::IsComplex(g.op(group.anchor_op).kind)) {
      auto sig = loop::GroupSignature(g, la, group);
      ASSERT_TRUE(sig.ok()) << tag << ": " << sig.status().ToString();
      auto sched = RandomSchedule(sig->spatial_extents, sig->reduction_extents, rng);
      auto prog = loop::LowerGroup(g, la, group, sched);
      ASSERT_TRUE(prog.ok()) << tag << ": " << prog.status().ToString();
      net.programs.push_back(std::move(*prog));
    } else {
      auto prog = loop::LowerGroupNaive(g, la, group);
      ASSERT_TRUE(prog.ok()) << tag << ": " << prog.status().ToString();
      net.programs.push_back(std::move(*prog));
    }
  }
  ExpectEnginesBitIdentical(g, la, net, /*seed=*/rng(), tag);
}

class AffineDifferentialConv : public ::testing::TestWithParam<int> {};

TEST_P(AffineDifferentialConv, LayoutAndScheduleCorpus) {
  const int which = GetParam();
  std::mt19937_64 rng(1234u + static_cast<uint64_t>(which) * 77u);
  for (int round = 0; round < 3; ++round) {
    Graph g("affine_diff");
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
        break;  // canonical
      case 1: {
        la.Set(c, autotune::ChannelsLast(2));
        la.Set(p, autotune::ChannelsLast(2));
        graph::PropagateOutputLayout(g, la, c);
        break;
      }
      case 2: {
        auto blocked_out = autotune::BlockedChannels(g.tensor(c).shape, 4);
        ASSERT_TRUE(blocked_out.ok());
        la.Set(c, *blocked_out);
        auto blocked_in = autotune::BlockedChannels(g.tensor(p).shape, 2);
        ASSERT_TRUE(blocked_in.ok());
        la.Set(p, *blocked_in);
        graph::PropagateOutputLayout(g, la, c);
        break;
      }
      case 3: {  // full ALT template: pad guards + unfolded input
        autotune::ConvLayoutParams params;
        params.spatial_tiles = {5, 5};
        params.out_tile = 4;
        params.in_tile = 2;
        params.w_in_tile = 2;
        params.w_out_tile = 4;
        auto layouts = autotune::MakeConvTemplates(g, conv, params);
        ASSERT_TRUE(layouts.ok()) << layouts.status().ToString();
        la.Set(c, layouts->output);
        la.Set(p, layouts->input);
        la.Set(w, layouts->weight);
        graph::PropagateOutputLayout(g, la, c);
        break;
      }
    }
    DifferentialConvCase(g, la, rng,
                         "conv layout " + std::to_string(which) + " round " +
                             std::to_string(round));
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Layouts, AffineDifferentialConv, ::testing::Range(0, 4));

TEST(AffineDifferential, GmmLayoutsAndSchedules) {
  std::mt19937_64 rng(99);
  for (int which = 0; which < 3; ++which) {
    Graph g = graph::BuildSingleMatmul(16, 24, 32);
    const graph::Op& op = g.op(0);
    LayoutAssignment la;
    if (which == 1) {
      la.Set(op.inputs[1], autotune::TransposedB());
    } else if (which == 2) {
      autotune::GmmLayoutParams params{4, 8, 6};
      auto layouts = autotune::MakeGmmTemplates(g, op, params);
      ASSERT_TRUE(layouts.ok());
      la.Set(op.output, layouts->c);
      la.Set(op.inputs[0], layouts->a);
      la.Set(op.inputs[1], layouts->b);
    }
    DifferentialConvCase(g, la, rng, "gmm case " + std::to_string(which));
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
  }
}

TEST(AffineDifferential, TransposedConvModulusGuards) {
  graph::ConvConfig cfg;
  cfg.in_channels = 4;
  cfg.out_channels = 6;
  cfg.spatial[0] = cfg.spatial[1] = 5;
  cfg.kernel[0] = cfg.kernel[1] = 3;
  cfg.stride = 2;
  cfg.pad = 1;
  Graph g = graph::BuildSingleConv(OpKind::kTransposedConv2d, cfg);
  LayoutAssignment la;
  auto net = loop::LowerNetworkNaive(g, la, true);
  ASSERT_TRUE(net.ok());
  ExpectEnginesBitIdentical(g, la, *net, 5, "transposed conv");
}

// Reshape delinearization chains and row-op blocks exercise singleton-store
// leaves and loads with non-affine offsets, which make eval leaves.
TEST(AffineDifferential, NonAffineFallbackNetwork) {
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
  LayoutAssignment la;
  auto net = loop::LowerNetworkNaive(g, la, true);
  ASSERT_TRUE(net.ok());
  ExpectEnginesBitIdentical(g, la, *net, 21, "misc network");
}

// ---------------------------------------------------------------------------
// Intra-op sharding: disjointness proof, parallel dispatch, serial degrade.
// ---------------------------------------------------------------------------

// out[i][j] = in[i][j] * 2 under a kParallel root i: every iteration writes
// its own row, so the disjointness proof holds and the root shards.
ir::Program DisjointParallelProgram(int64_t rows, int64_t cols) {
  ir::Program program;
  ir::BufferDecl in;
  in.tensor.id = 0;
  in.tensor.name = "in";
  in.tensor.shape = {rows, cols};
  in.role = ir::BufferRole::kInput;
  ir::BufferDecl out;
  out.tensor.id = 1;
  out.tensor.name = "out";
  out.tensor.shape = {rows, cols};
  out.role = ir::BufferRole::kOutput;
  program.buffers = {in, out};
  ir::Expr i = ir::MakeVar("i");
  ir::Expr j = ir::MakeVar("j");
  ir::Stmt body = ir::MakeFor(
      j, cols, ir::ForKind::kSerial,
      ir::MakeStore(1, {i, j}, ir::VMul(ir::Load(0, {i, j}), ir::Imm(2.0)),
                    ir::StoreMode::kAssign));
  program.root = ir::MakeFor(i, rows, ir::ForKind::kParallel, std::move(body));
  return program;
}

// out[j] += in[i][j] with the kParallel loop as the REDUCTION axis: every
// root iteration writes the same `cols` elements, so the proof must fail and
// execution must degrade to serial (still correct, just not parallel).
ir::Program ParallelReductionProgram(int64_t rows, int64_t cols) {
  ir::Program program;
  ir::BufferDecl in;
  in.tensor.id = 0;
  in.tensor.name = "in";
  in.tensor.shape = {rows, cols};
  in.role = ir::BufferRole::kInput;
  ir::BufferDecl out;
  out.tensor.id = 1;
  out.tensor.name = "out";
  out.tensor.shape = {cols};
  out.role = ir::BufferRole::kOutput;
  program.buffers = {in, out};
  ir::Expr i = ir::MakeVar("i");
  ir::Expr j = ir::MakeVar("j");
  ir::Stmt body = ir::MakeFor(j, cols, ir::ForKind::kSerial,
                              ir::MakeStore(1, {j}, ir::Load(0, {i, j}),
                                            ir::StoreMode::kAccumulate));
  program.root = ir::MakeFor(i, rows, ir::ForKind::kParallel, std::move(body));
  return program;
}

TEST(ParallelRootWritesDisjoint, ProvesRowDisjointStores) {
  EXPECT_TRUE(ir::ParallelRootWritesDisjoint(DisjointParallelProgram(4, 8)));
}

TEST(ParallelRootWritesDisjoint, RejectsParallelReduction) {
  EXPECT_FALSE(ir::ParallelRootWritesDisjoint(ParallelReductionProgram(4, 8)));
}

// A tiled write under a kParallel root o, as tuned BERT-tiny's FFN writes
// T[m][o*2 + i][..]: out[m][o*2 + i][j] = in[m][o*2 + i][j] * 2 over
// out of shape {rows, outer*2, cols}. The flat root stride is 2*cols but
// the flat residual spans (rows - 1) rows of the tensor, so only dimension
// 1 — stride 2, residual span 1 — separates the iterations.
ir::Program DimensionSeparatedProgram(int64_t rows, int64_t outer, int64_t cols) {
  ir::Program program;
  ir::BufferDecl in;
  in.tensor.id = 0;
  in.tensor.name = "in";
  in.tensor.shape = {rows, outer * 2, cols};
  in.role = ir::BufferRole::kInput;
  ir::BufferDecl out = in;
  out.tensor.id = 1;
  out.tensor.name = "out";
  out.role = ir::BufferRole::kOutput;
  program.buffers = {in, out};
  ir::Expr o = ir::MakeVar("o");
  ir::Expr m = ir::MakeVar("m");
  ir::Expr i = ir::MakeVar("i");
  ir::Expr j = ir::MakeVar("j");
  const std::vector<ir::Expr> idx = {m, ir::Add(ir::Mul(o, 2), i), j};
  ir::Stmt store = ir::MakeStore(1, idx, ir::VMul(ir::Load(0, idx), ir::Imm(2.0)),
                                 ir::StoreMode::kAssign);
  ir::Stmt body = ir::MakeFor(
      m, rows, ir::ForKind::kSerial,
      ir::MakeFor(i, 2, ir::ForKind::kSerial,
                  ir::MakeFor(j, cols, ir::ForKind::kSerial, std::move(store))));
  program.root = ir::MakeFor(o, outer, ir::ForKind::kParallel, std::move(body));
  return program;
}

// out[j][o*2 + i] += 1 over out of shape {4, 2}, o in [0, 3), i and j in
// [0, 2): dimension 1 has stride 2 and residual span 1, but its index runs to
// 5, past the dimension, so out[j][2] is out[j + 1][0] and iterations o and
// o + 1 write the same elements.
ir::Program IndexLeavesItsDimensionProgram() {
  ir::Program program;
  ir::BufferDecl out;
  out.tensor.id = 0;
  out.tensor.name = "out";
  out.tensor.shape = {4, 2};
  out.role = ir::BufferRole::kOutput;
  program.buffers = {out};
  ir::Expr o = ir::MakeVar("o");
  ir::Expr i = ir::MakeVar("i");
  ir::Expr j = ir::MakeVar("j");
  ir::Stmt store = ir::MakeStore(0, {j, ir::Add(ir::Mul(o, 2), i)}, ir::Imm(1.0),
                                 ir::StoreMode::kAccumulate);
  program.root = ir::MakeFor(
      o, 3, ir::ForKind::kParallel,
      ir::MakeFor(i, 2, ir::ForKind::kSerial,
                  ir::MakeFor(j, 2, ir::ForKind::kSerial, std::move(store))));
  return program;
}

TEST(ParallelRootWritesDisjoint, ProvesDimensionSeparatedWrites) {
  EXPECT_TRUE(ir::ParallelRootWritesDisjoint(DimensionSeparatedProgram(8, 16, 4)));
}

TEST(ParallelRootWritesDisjoint, RejectsSeparatingIndexThatLeavesItsDimension) {
  EXPECT_FALSE(ir::ParallelRootWritesDisjoint(IndexLeavesItsDimensionProgram()));
}

TEST(ParallelRootWritesDisjoint, DimensionSeparatedRootShardsBitIdentically) {
  ir::Program program = DimensionSeparatedProgram(8, 16, 4);
  runtime::BufferStore inputs;
  auto& in = inputs.Get(0);
  in.resize(8 * 32 * 4);
  for (size_t k = 0; k < in.size(); ++k) {
    in[k] = static_cast<float>(k % 23) * 0.125f - 1.0f;
  }
  const MetricsSnapshot before = MetricsRegistry::Global().Snapshot();
  ExpectProgramsBitIdentical({program}, inputs, "dimension-separated root");
  const MetricsSnapshot after = MetricsRegistry::Global().Snapshot();
  // affine and native, at 2 and 8 threads
  EXPECT_EQ(after.counter("interp.parallel_programs") -
                before.counter("interp.parallel_programs"),
            4);
}

void FillParallelInput(runtime::BufferStore& store, int64_t n) {
  auto& in = store.Get(0);
  in.resize(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    in[static_cast<size_t>(i)] = static_cast<float>(i % 17) * 0.25f - 1.0f;
  }
}

TEST(IntraOpSharding, DisjointParallelRootShards) {
  ir::Program program = DisjointParallelProgram(4, 8);
  runtime::BufferStore serial_store;
  runtime::BufferStore sharded_store;
  FillParallelInput(serial_store, 32);
  FillParallelInput(sharded_store, 32);
  runtime::ExecOptions serial;
  runtime::ExecOptions sharded;
  // Above the root extent: clamped to 4 shards.
  sharded.intra_pool = std::make_shared<runtime::IntraOpPool>(8);
  ASSERT_TRUE(runtime::Execute(program, serial_store, serial).ok());
  const MetricsSnapshot before = MetricsRegistry::Global().Snapshot();
  ASSERT_TRUE(runtime::Execute(program, sharded_store, sharded).ok());
  const MetricsSnapshot after = MetricsRegistry::Global().Snapshot();
  EXPECT_EQ(after.counter("interp.parallel_programs") -
                before.counter("interp.parallel_programs"),
            1);
  EXPECT_EQ(std::memcmp(serial_store.Get(1).data(), sharded_store.Get(1).data(),
                        32 * sizeof(float)),
            0);
}

TEST(IntraOpSharding, ParallelReductionDegradesToSerial) {
  ir::Program program = ParallelReductionProgram(4, 8);
  runtime::BufferStore serial_store;
  runtime::BufferStore degraded_store;
  FillParallelInput(serial_store, 32);
  FillParallelInput(degraded_store, 32);
  runtime::ExecOptions serial;
  runtime::ExecOptions wants_parallel;
  wants_parallel.intra_pool = std::make_shared<runtime::IntraOpPool>(8);
  ASSERT_TRUE(runtime::Execute(program, serial_store, serial).ok());
  const MetricsSnapshot before = MetricsRegistry::Global().Snapshot();
  ASSERT_TRUE(runtime::Execute(program, degraded_store, wants_parallel).ok());
  const MetricsSnapshot after = MetricsRegistry::Global().Snapshot();
  EXPECT_GE(after.counter("interp.parallel_degraded") -
                before.counter("interp.parallel_degraded"),
            1);
  EXPECT_EQ(after.counter("interp.parallel_programs") -
                before.counter("interp.parallel_programs"),
            0);
  EXPECT_EQ(std::memcmp(serial_store.Get(1).data(), degraded_store.Get(1).data(),
                        8 * sizeof(float)),
            0);
}

// ---------------------------------------------------------------------------
// Zero-init-skip semantics.
// ---------------------------------------------------------------------------

ir::Program CopyProgram(int64_t n, ir::StoreMode mode) {
  ir::Program program;
  ir::BufferDecl in;
  in.tensor.id = 0;
  in.tensor.name = "in";
  in.tensor.shape = {n};
  in.role = ir::BufferRole::kInput;
  ir::BufferDecl out;
  out.tensor.id = 1;
  out.tensor.name = "out";
  out.tensor.shape = {n};
  out.role = ir::BufferRole::kOutput;
  program.buffers = {in, out};
  ir::Expr i = ir::MakeVar("i");
  program.root = ir::MakeFor(i, n, ir::ForKind::kSerial,
                             ir::MakeStore(1, {i}, ir::Load(0, {i}), mode));
  return program;
}

TEST(ZeroInitSkip, AssignFirstOverwritesStaleBuffer) {
  ir::Program program = CopyProgram(16, ir::StoreMode::kAssign);
  runtime::BufferStore fresh;
  runtime::BufferStore stale;
  std::vector<float> input(16);
  for (int i = 0; i < 16; ++i) {
    input[i] = static_cast<float>(i) * 0.5f;
  }
  fresh.Get(0) = input;
  stale.Get(0) = input;
  stale.Get(1).assign(16, -123.0f);  // garbage that must be overwritten
  ASSERT_TRUE(runtime::Execute(program, fresh).ok());
  ASSERT_TRUE(runtime::Execute(program, stale).ok());
  EXPECT_EQ(std::memcmp(fresh.Get(1).data(), stale.Get(1).data(), 16 * sizeof(float)), 0);
}

TEST(ZeroInitSkip, AccumulateOutputsAreRezeroedEachRun) {
  ir::Program program = CopyProgram(8, ir::StoreMode::kAccumulate);
  runtime::BufferStore store;
  store.Get(0) = {1, 2, 3, 4, 5, 6, 7, 8};
  ASSERT_TRUE(runtime::Execute(program, store).ok());
  std::vector<float> first = store.Get(1);
  ASSERT_TRUE(runtime::Execute(program, store).ok());
  // A reduction output relies on the zero-fill: a second run must not double.
  EXPECT_EQ(std::memcmp(first.data(), store.Get(1).data(), 8 * sizeof(float)), 0);
  EXPECT_EQ(store.Get(1)[0], 1.0f);
}

// ---------------------------------------------------------------------------
// Leaf kinds: kernel, eval and bytecode leaves, counted by what runs them.
// ---------------------------------------------------------------------------

// An input `in` of `n` elements and an output `out` of `out_shape`.
ir::Program UnaryProgram(int64_t n, std::vector<int64_t> out_shape) {
  ir::Program program;
  ir::BufferDecl in;
  in.tensor.id = 0;
  in.tensor.name = "in";
  in.tensor.shape = {n};
  in.role = ir::BufferRole::kInput;
  ir::BufferDecl out;
  out.tensor.id = 1;
  out.tensor.name = "out";
  out.tensor.shape = std::move(out_shape);
  out.role = ir::BufferRole::kOutput;
  program.buffers = {in, out};
  return program;
}

// out[i / 4][i % 4] = 2 * in[i] for i in [0, 16): the store offset keeps a
// floor-div and a mod, so the program is one bytecode leaf.
ir::Program BytecodeStoreProgram() {
  ir::Program program = UnaryProgram(16, {4, 4});
  ir::Expr i = ir::MakeVar("i");
  program.root = ir::MakeFor(
      i, 16, ir::ForKind::kSerial,
      ir::MakeStore(1, {ir::FloorDiv(i, 4), ir::Mod(i, 4)},
                    ir::VMul(ir::Imm(2.0), ir::Load(0, {i})), ir::StoreMode::kAssign));
  return program;
}

// out[i] = select(2 <= i < 10, exp(in[i]), 0) for i in [0, 16): one guarded
// leaf whose then-branch is evaluated per element and whose else-branch fills.
ir::Program GuardedEvalProgram() {
  ir::Program program = UnaryProgram(16, {16});
  ir::Expr i = ir::MakeVar("i");
  ir::IntervalCond in_range;
  in_range.expr = i;
  in_range.lo = 2;
  in_range.hi = 10;
  program.root = ir::MakeFor(
      i, 16, ir::ForKind::kSerial,
      ir::MakeStore(1, {i},
                    ir::Select({in_range}, ir::VExp(ir::Load(0, {i})), ir::Imm(0.0)),
                    ir::StoreMode::kAssign));
  return program;
}

// {interp.kernel_leaves, interp.eval_leaves, interp.bytecode_leaves} added by
// preparing `program` for `engine`.
std::array<int64_t, 3> LeafCounts(const ir::Program& program, runtime::BufferStore store,
                                  runtime::ExecEngine engine = runtime::ExecEngine::kAffine) {
  runtime::ExecOptions options;
  options.engine = engine;
  const MetricsSnapshot before = MetricsRegistry::Global().Snapshot();
  auto prepared = runtime::PreparedProgram::Prepare(program, store, options);
  EXPECT_TRUE(prepared.ok()) << prepared.status().ToString();
  const MetricsSnapshot after = MetricsRegistry::Global().Snapshot();
  auto delta = [&](const char* name) { return after.counter(name) - before.counter(name); };
  return {delta("interp.kernel_leaves"), delta("interp.eval_leaves"),
          delta("interp.bytecode_leaves")};
}

TEST(LeafKinds, EachLeafCountsOnceByWhatRunsIt) {
  using Counts = std::array<int64_t, 3>;
  Graph g("gelu");
  int x = g.AddInput("x", {4, 8});
  g.AddGelu(x, "gelu");
  auto net = loop::LowerNetworkNaive(g, LayoutAssignment{}, true);
  ASSERT_TRUE(net.ok()) << net.status().ToString();
  ASSERT_EQ(net->programs.size(), 1u);
  runtime::BufferStore gelu_inputs;
  gelu_inputs.Get(x).assign(32, 0.5f);
  // GELU's tanh value tree has no kernel: one eval leaf.
  EXPECT_EQ(LeafCounts(net->programs[0], gelu_inputs), (Counts{0, 1, 0}));

  runtime::BufferStore inputs;
  FillParallelInput(inputs, 16);
  EXPECT_EQ(LeafCounts(BytecodeStoreProgram(), inputs), (Counts{0, 0, 1}));
  EXPECT_EQ(LeafCounts(GuardedEvalProgram(), inputs), (Counts{0, 1, 0}));
  // A copy loop is exactly what the native kernel compiles.
  EXPECT_EQ(LeafCounts(CopyProgram(16, ir::StoreMode::kAssign), inputs), (Counts{1, 0, 0}));

  // The generic engine analyzes nothing: each program is one bytecode leaf,
  // and its outputs stay bit-identical to the affine engine's.
  constexpr Counts kOneBytecodeLeaf{0, 0, 1};
  EXPECT_EQ(LeafCounts(net->programs[0], gelu_inputs, runtime::ExecEngine::kGeneric),
            kOneBytecodeLeaf);
  ExpectProgramsBitIdentical({net->programs[0]}, gelu_inputs, "gelu");
  for (const ir::Program& program : {BytecodeStoreProgram(), GuardedEvalProgram(),
                                     CopyProgram(16, ir::StoreMode::kAssign)}) {
    EXPECT_EQ(LeafCounts(program, inputs, runtime::ExecEngine::kGeneric), kOneBytecodeLeaf);
    ExpectProgramsBitIdentical({program}, inputs, "leaf kinds");
  }
}

TEST(AffineDifferential, BytecodeStoreLeaf) {
  runtime::BufferStore inputs;
  FillParallelInput(inputs, 16);
  ExpectProgramsBitIdentical({BytecodeStoreProgram()}, inputs, "bytecode store");
  runtime::BufferStore store = inputs;
  ASSERT_TRUE(runtime::Execute(BytecodeStoreProgram(), store).ok());
  for (size_t i = 0; i < 16; ++i) {
    EXPECT_EQ(store.Get(1)[i], static_cast<float>(2.0 * static_cast<double>(store.Get(0)[i])))
        << i;
  }
}

TEST(AffineDifferential, GuardedLeafWithEvalThenAndFillElse) {
  runtime::BufferStore inputs;
  FillParallelInput(inputs, 16);
  ExpectProgramsBitIdentical({GuardedEvalProgram()}, inputs, "guarded eval");
  runtime::BufferStore store = inputs;
  ASSERT_TRUE(runtime::Execute(GuardedEvalProgram(), store).ok());
  for (size_t i = 0; i < 16; ++i) {
    const float expected =
        i >= 2 && i < 10 ? static_cast<float>(std::exp(static_cast<double>(store.Get(0)[i])))
                         : 0.0f;
    EXPECT_EQ(store.Get(1)[i], expected) << i;
  }
}

// ---------------------------------------------------------------------------
// Store leaves: every value kind and index form the native kernel emits.
// ---------------------------------------------------------------------------

// Seeded random programs over two inputs, `a` (kFlat elements) and `b`
// (kRows x kCols), and two outputs: `out` (kRows x kCols), written through
// affine offsets, and `tiles` (kFlatOut / 4 x 4), written through the
// non-affine (i*kCols + j) / 4, (i*kCols + j) % 4 — bytecode leaves. Each
// program is a root loop i, serial or kParallel, over one or two leaves in j
// and sometimes a singleton store, each storing a random value tree in assign
// or accumulate mode. Loads read through affine, floor-div/mod and clamped
// offsets, all inside their buffers.
class StoreLeafCorpus {
 public:
  static constexpr int64_t kRows = 6;
  static constexpr int64_t kCols = 10;
  static constexpr int64_t kFlat = 64;
  static constexpr int kA = 0, kB = 1, kOut = 2, kTiles = 3;

  explicit StoreLeafCorpus(uint64_t seed) : rng_(seed) {}

  ir::Program Next() {
    ir::Program program;
    auto decl = [](int id, const char* name, std::vector<int64_t> shape, ir::BufferRole role) {
      ir::BufferDecl d;
      d.tensor.id = id;
      d.tensor.name = name;
      d.tensor.shape = std::move(shape);
      d.role = role;
      return d;
    };
    program.buffers = {decl(kA, "a", {kFlat}, ir::BufferRole::kInput),
                       decl(kB, "b", {kRows, kCols}, ir::BufferRole::kInput),
                       decl(kOut, "out", {kRows, kCols}, ir::BufferRole::kOutput),
                       decl(kTiles, "tiles", {kRows * kCols / 4, 4}, ir::BufferRole::kOutput)};
    ir::Expr i = ir::MakeVar("i");
    std::vector<ir::Stmt> body;
    const int leaves = Pick(2) + 1;
    for (int l = 0; l < leaves; ++l) {
      ir::Expr j = ir::MakeVar("j");
      body.push_back(ir::MakeFor(j, kCols, ir::ForKind::kSerial, Store(i, j)));
    }
    if (Pick(3) == 0) {
      // A singleton store: only i is bound, so j is a constant column.
      body.insert(body.begin(), Store(i, ir::Const(Pick(kCols))));
    }
    program.root = ir::MakeFor(i, kRows, Pick(2) ? ir::ForKind::kParallel : ir::ForKind::kSerial,
                               ir::MakeBlock(std::move(body)));
    return program;
  }

  // Inputs for every program of the corpus.
  runtime::BufferStore Inputs() {
    runtime::BufferStore store;
    std::uniform_real_distribution<float> dist(-2.0f, 2.0f);
    for (auto [id, n] : {std::pair<int, int64_t>{kA, kFlat}, {kB, kRows * kCols}}) {
      auto& buf = store.Get(id);
      buf.resize(static_cast<size_t>(n));
      for (float& x : buf) {
        x = dist(rng_);
      }
    }
    return store;
  }

  // Value kinds generated so far, by ir::ValKind.
  const std::array<int, 12>& kinds() const { return kinds_; }

 private:
  int64_t Pick(int64_t n) { return static_cast<int64_t>(rng_() % static_cast<uint64_t>(n)); }

  ir::Stmt Store(const ir::Expr& i, const ir::Expr& j) {
    const ir::StoreMode mode = Pick(2) ? ir::StoreMode::kAccumulate : ir::StoreMode::kAssign;
    ir::Val value;
    switch (Pick(4)) {
      case 0:  // a kernel shape: copy, or a product with a load
        value = Pick(2) ? Load(i, j) : Note(ir::VMul(Load(i, j), Pick(2) ? Load(i, j) : Imm()));
        break;
      case 1:  // a top-level select the affine engine splits
        value = Note(ir::Select({Guard(i, j)}, Tree(i, j, 3), Tree(i, j, 3)));
        break;
      default:
        value = Tree(i, j, 4);
        break;
    }
    if (Pick(3) == 0) {
      const ir::Expr flat = ir::Add(ir::Mul(i, kCols), j);
      return ir::MakeStore(kTiles, {ir::FloorDiv(flat, 4), ir::Mod(flat, 4)}, value, mode);
    }
    return ir::MakeStore(kOut, {i, j}, value, mode);
  }

  ir::Val Note(ir::Val v) {
    ++kinds_[static_cast<size_t>(v->kind)];
    return v;
  }

  ir::Val Imm() {
    static constexpr double kImms[] = {0.5, -1.25, 3.0, 0.7978845608, 0.044715, -0.0, 1e-3, 2.0};
    if (Pick(4) == 0) {
      return Note(ir::Imm(std::uniform_real_distribution<double>(-4.0, 4.0)(rng_)));
    }
    return Note(ir::Imm(kImms[Pick(8)]));
  }

  // A load of `a` or `b` through one of the offset forms, always in bounds.
  ir::Val Load(const ir::Expr& i, const ir::Expr& j) {
    const ir::Expr row = ir::Add(ir::Mul(i, kCols), j);  // in [0, 60)
    if (Pick(3) == 0) {
      switch (Pick(3)) {
        case 0:
          return Note(ir::Load(kB, {i, j}));
        case 1:
          return Note(ir::Load(kB, {ir::Mod(ir::Add(i, j), kRows), j}));
        default:
          return Note(ir::Load(kB, {i, ir::Min(ir::Add(j, 3), ir::Const(kCols - 1))}));
      }
    }
    ir::Expr off;
    switch (Pick(9)) {
      case 0:  // affine
        off = row;
        break;
      case 1:  // affine, transposed
        off = ir::Add(ir::Mul(j, kRows), i);
        break;
      case 2:  // mod whose range exceeds its modulus
        off = ir::Mul(ir::Mod(row, 7), 9);
        break;
      case 3:  // floor-div that does not divide the strides
        off = ir::FloorDiv(ir::Add(ir::Mul(i, 13), ir::Mul(j, 5)), 3);
        break;
      case 4:  // div and mod mixed
        off = ir::Add(ir::FloorDiv(row, 2), ir::Mod(j, 3));
        break;
      case 5:  // wrapped
        off = ir::Mod(ir::Add(ir::Mul(j, 7), i), kFlat);
        break;
      case 6:  // the unfold clamp: min(affine, constant)
        off = ir::Min(row, ir::Const(40));
        break;
      case 7:  // floor-div and mod of negative operands
        off = ir::Add(ir::Add(ir::FloorDiv(ir::Sub(row, 5), 3), ir::Const(2)),
                      ir::Mod(ir::Sub(j, 4), 7));
        break;
      default:  // a max clamp
        off = ir::Max(ir::Sub(ir::Mul(j, 7), ir::Const(5)), ir::Const(0));
        break;
    }
    return Note(ir::Load(kA, {off}));
  }

  ir::IntervalCond Guard(const ir::Expr& i, const ir::Expr& j) {
    ir::IntervalCond c;
    switch (Pick(5)) {
      case 0:
        c.expr = j;
        break;
      case 4:  // negative values, whose residues move into [0, modulus)
        c.expr = ir::Sub(j, 5);
        break;
      case 1:
        c.expr = ir::Add(ir::Mul(i, kCols), j);
        break;
      case 2:
        c.expr = ir::Add(i, j);
        break;
      default:
        c.expr = ir::Mod(ir::Add(ir::Mul(i, 3), j), 7);
        break;
    }
    c.lo = Pick(9) - 4;
    c.hi = c.lo + 1 + Pick(12);
    c.modulus = Pick(2) ? 1 : 2 + Pick(2);
    c.rem = Pick(c.modulus);
    return c;
  }

  ir::Val Tree(const ir::Expr& i, const ir::Expr& j, int depth) {
    if (depth == 0 || Pick(5) == 0) {
      return Pick(4) == 0 ? Imm() : Load(i, j);
    }
    auto sub = [&] { return Tree(i, j, depth - 1); };
    switch (Pick(10)) {
      case 0:
        return Note(ir::VAdd(sub(), sub()));
      case 1:
        return Note(ir::VSub(sub(), sub()));
      case 2:
        return Note(ir::VMul(sub(), sub()));
      case 3:
        return Note(ir::VDiv(sub(), sub()));
      case 4:
        return Note(ir::VMax(sub(), sub()));
      case 5:
        return Note(ir::VMin(sub(), sub()));
      case 6:
        return Note(ir::VExp(sub()));
      case 7:
        return Note(ir::VTanh(sub()));
      case 8:
        return Note(ir::VSqrt(sub()));
      default: {
        std::vector<ir::IntervalCond> conds = {Guard(i, j)};
        if (Pick(2) == 0) {
          conds.push_back(Guard(i, j));
        }
        return Note(ir::Select(std::move(conds), sub(), sub()));
      }
    }
  }

  std::mt19937_64 rng_;
  std::array<int, 12> kinds_{};
};

TEST(StoreLeaves, RandomValueTreesAndIndexFormsAreBitIdentical) {
  const MetricsSnapshot before = MetricsRegistry::Global().Snapshot();
  StoreLeafCorpus corpus(20251);
  const runtime::BufferStore inputs = corpus.Inputs();
  for (int n = 0; n < 48; ++n) {
    ExpectProgramsBitIdentical({corpus.Next()}, inputs, "store leaf #" + std::to_string(n));
    if (HasFatalFailure()) {
      return;
    }
  }
  for (size_t k = 0; k < corpus.kinds().size(); ++k) {
    EXPECT_GT(corpus.kinds()[k], 0) << "value kind " << k << " never generated";
  }
  const MetricsSnapshot after = MetricsRegistry::Global().Snapshot();
  for (const char* c : {"interp.kernel_leaves", "interp.eval_leaves", "interp.bytecode_leaves",
                        "interp.parallel_programs"}) {
    EXPECT_GT(after.counter(c) - before.counter(c), 0) << c;
  }
}

// Restores the kernel cache's default toolchain and empties it however the
// test exits.
struct KernelCacheSandbox {
  KernelCacheSandbox() { Reset(); }
  ~KernelCacheSandbox() { Reset(); }
  static void Reset() {
    codegen::KernelCache::Global().SetJitOptionsForTest(codegen::JitOptions());
    codegen::KernelCache::Global().ClearForTest();
  }
};

// out[k] = (tanh(c_k) - t_k) * 2^60 for GELU's two constants c_k, where t_k
// is this process's libm tanh(c_k): exactly 0 when the kernel calls the same
// libm. A compiler that folds tanh of a constant rounds correctly, one ulp
// away from glibc's result for both constants, and stores a multiple of 128.
ir::Program TanhFoldingProgram() {
  ir::Program program = UnaryProgram(1, {2});
  const double consts[] = {0.7978845608, 0.044715};
  std::vector<ir::Stmt> stores;
  for (int64_t k = 0; k < 2; ++k) {
    volatile double c = consts[k];  // computed at run time, by libm
    const double libm_tanh = std::tanh(c);
    stores.push_back(ir::MakeStore(
        1, {ir::Const(k)},
        ir::VMul(ir::VSub(ir::VTanh(ir::Imm(consts[k])), ir::Imm(libm_tanh)),
                 ir::Imm(std::ldexp(1.0, 60))),
        ir::StoreMode::kAssign));
  }
  program.root = ir::MakeBlock(std::move(stores));
  return program;
}

TEST(StoreLeaves, KernelsCallLibmInsteadOfFoldingConstants) {
  KernelCacheSandbox sandbox;
  runtime::BufferStore inputs;
  inputs.Get(0).assign(1, 0.0f);
  ExpectProgramsBitIdentical({TanhFoldingProgram()}, inputs, "tanh folding");
  runtime::BufferStore affine = inputs;
  ASSERT_TRUE(runtime::Execute(TanhFoldingProgram(), affine).ok());
  EXPECT_EQ(affine.Get(1), std::vector<float>({0.0f, 0.0f}));

  // The same kernel compiled without -fno-builtin-exp -fno-builtin-tanh:
  // the compiler folds tanh(c_k) and the stored values move off zero.
  const std::string dir = testing::TempDir() + "/alt-nofold-" + std::to_string(getpid());
  ASSERT_EQ(mkdir(dir.c_str(), 0700), 0) << dir;
  const std::string wrapper = dir + "/cxx";
  ASSERT_TRUE(WriteFile(wrapper,
                        "#!/bin/sh\n"
                        "for a do\n"
                        "  shift\n"
                        "  case \"$a\" in\n"
                        "    -fno-builtin-exp|-fno-builtin-tanh) ;;\n"
                        "    *) set -- \"$@\" \"$a\" ;;\n"
                        "  esac\n"
                        "done\n"
                        "exec \"${ALT_CXX:-c++}\" \"$@\"\n")
                  .ok());
  ASSERT_EQ(chmod(wrapper.c_str(), 0700), 0);
  codegen::JitOptions folding;
  folding.compiler = wrapper;
  codegen::KernelCache::Global().SetJitOptionsForTest(folding);
  codegen::KernelCache::Global().ClearForTest();
  runtime::BufferStore native = inputs;
  runtime::ExecOptions options;
  options.engine = runtime::ExecEngine::kNative;
  const MetricsSnapshot before = MetricsRegistry::Global().Snapshot();
  ASSERT_TRUE(runtime::Execute(TanhFoldingProgram(), native, options).ok());
  const MetricsSnapshot after = MetricsRegistry::Global().Snapshot();
  unlink(wrapper.c_str());
  rmdir(dir.c_str());
  if (after.counter("codegen.native_programs") == before.counter("codegen.native_programs")) {
    GTEST_SKIP() << "no host C++ toolchain";
  }
  EXPECT_NE(native.Get(1), affine.Get(1));
}

// out[i] = s(select(i < then_hi, exp(in[i]), exp(in[i + 100]))) for i in
// [0, 4), with s the identity (a top-level select the affine engine splits)
// or x + 1 (a select inside an eval leaf's value): the else branch reads past
// `in` exactly where it is taken.
ir::Program SelectOutOfBoundsProgram(int64_t then_hi, bool split) {
  ir::Program program = UnaryProgram(4, {4});
  ir::Expr i = ir::MakeVar("i");
  ir::IntervalCond c;
  c.expr = i;
  c.lo = 0;
  c.hi = then_hi;
  ir::Val sel = ir::Select({c}, ir::VExp(ir::Load(0, {i})),
                           ir::VExp(ir::Load(0, {ir::Add(i, 100)})));
  ir::Val value = split ? sel : ir::VAdd(sel, ir::Imm(1.0));
  program.root = ir::MakeFor(i, 4, ir::ForKind::kSerial,
                             ir::MakeStore(1, {i}, value, ir::StoreMode::kAssign));
  return program;
}

TEST(StoreLeaves, OnlyTheTakenSelectBranchIsBoundsChecked) {
  runtime::BufferStore inputs;
  FillParallelInput(inputs, 4);
  for (bool split : {true, false}) {
    // The else branch is never taken: every engine succeeds, bit-identically.
    ExpectProgramsBitIdentical({SelectOutOfBoundsProgram(4, split)}, inputs,
                               split ? "split select" : "eval select");
    // Taken at i = 2, 3: every engine fails.
    for (runtime::ExecEngine engine : {runtime::ExecEngine::kAffine, runtime::ExecEngine::kGeneric,
                                       runtime::ExecEngine::kNative}) {
      runtime::BufferStore store = inputs;
      runtime::ExecOptions options;
      options.engine = engine;
      const Status s = runtime::Execute(SelectOutOfBoundsProgram(2, split), store, options);
      EXPECT_FALSE(s.ok()) << "engine " << static_cast<int>(engine) << " split " << split;
      EXPECT_NE(s.message().find("load out of bounds"), std::string::npos) << s.ToString();
    }
  }
}

// out[i] = tanh(in[i] * scale) for i in [0, 16).
ir::Program TanhScaleProgram(double scale) {
  ir::Program program = UnaryProgram(16, {16});
  ir::Expr i = ir::MakeVar("i");
  program.root = ir::MakeFor(
      i, 16, ir::ForKind::kSerial,
      ir::MakeStore(1, {i}, ir::VTanh(ir::VMul(ir::Load(0, {i}), ir::Imm(scale))),
                    ir::StoreMode::kAssign));
  return program;
}

TEST(StoreLeaves, ImmediatesUnderTanhKeyDistinctKernels) {
  const ir::Program half = TanhScaleProgram(0.5);
  const ir::Program most = TanhScaleProgram(0.75);
  auto half_key = runtime::EnsureNativeKernel(half);
  auto most_key = runtime::EnsureNativeKernel(most);
  ASSERT_TRUE(half_key.ok()) << half_key.status().ToString();
  ASSERT_TRUE(most_key.ok()) << most_key.status().ToString();
  EXPECT_NE(*half_key, *most_key);
  runtime::BufferStore inputs;
  FillParallelInput(inputs, 16);
  ExpectProgramsBitIdentical({half}, inputs, "tanh * 0.5");
  ExpectProgramsBitIdentical({most}, inputs, "tanh * 0.75");
  runtime::ExecOptions options;
  options.engine = runtime::ExecEngine::kNative;
  runtime::BufferStore a = inputs;
  runtime::BufferStore b = inputs;
  ASSERT_TRUE(runtime::Execute(half, a, options).ok());
  ASSERT_TRUE(runtime::Execute(most, b, options).ok());
  EXPECT_NE(a.Get(1), b.Get(1));
}

// ---------------------------------------------------------------------------
// Structurally identical programs in the measurement engine.
// ---------------------------------------------------------------------------

TEST(MeasureEngine, StructurallyIdenticalProgramsMeasureEqualLatencies) {
  Graph g = graph::BuildSingleMatmul(12, 16, 20);
  LayoutAssignment la;
  auto groups = loop::PartitionGraph(g, la, true);
  ASSERT_EQ(groups.size(), 1u);
  auto sig = loop::GroupSignature(g, la, groups[0]);
  ASSERT_TRUE(sig.ok());
  ASSERT_EQ(sig->spatial_extents.size(), 2u);
  ASSERT_EQ(sig->reduction_extents.size(), 1u);
  const int64_t e0 = sig->spatial_extents[0];
  const int64_t e1 = sig->spatial_extents[1];
  const int64_t er = sig->reduction_extents[0];

  auto mk = [](int64_t o, int64_t m, int64_t i, int64_t v) {
    loop::SpatialAxisSchedule a;
    a.outer = o;
    a.mid = m;
    a.inner = i;
    a.vec = v;
    return a;
  };
  // s=12,1,1,1;1,20,1,1 and s=12,1,1,1;20,1,1,1 differ only in which tile
  // level carries the second axis; both lower to the same loop nest up to
  // omitted unit loops, so the two programs are structurally identical.
  loop::LoopSchedule s1;
  s1.spatial = {mk(e0, 1, 1, 1), mk(1, e1, 1, 1)};
  s1.reduction = {{er, 1}};
  loop::LoopSchedule s2;
  s2.spatial = {mk(e0, 1, 1, 1), mk(e1, 1, 1, 1)};
  s2.reduction = {{er, 1}};

  // Two distinct schedules are two fresh measurements, and the performance
  // model reads only the structure both lowered programs share.
  const sim::Machine machine = sim::Machine::IntelCpu();
  autotune::MeasureEngine engine(machine);
  auto results = engine.Measure(g, la, groups[0], {s1, s2});
  ASSERT_EQ(results.size(), 2u);
  ASSERT_TRUE(results[0].status.ok()) << results[0].status.ToString();
  ASSERT_TRUE(results[1].status.ok()) << results[1].status.ToString();
  EXPECT_FALSE(results[1].cache_hit);  // both were fresh measurements...
  EXPECT_EQ(results[0].latency_us, results[1].latency_us);  // ...same latency
  EXPECT_EQ(engine.stats().measured, 2);
}

}  // namespace
}  // namespace alt
