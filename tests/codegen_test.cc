// Native codegen: the emitter's generated kernels, JIT failure handling
// (every failure is a Status — a missing or broken toolchain never aborts
// and never leaves temp files behind), the process-wide kernel cache
// (compile-once semantics, negative caching, rejected garbage objects), and
// the artifact embedding path: save with ExecEngine::kNative, reload in a
// cleared cache, serve with zero recompiles.

#include <dirent.h>
#include <sys/stat.h>

#include <cerrno>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/codegen/cpp_emitter.h"
#include "src/codegen/jit.h"
#include "src/codegen/kernel_cache.h"
#include "src/core/alt.h"
#include "src/graph/networks.h"
#include "src/loop/lowering.h"
#include "src/runtime/session.h"
#include "src/support/fileio.h"
#include "src/support/metrics.h"

namespace alt {
namespace {

int64_t CounterValue(const std::string& name) {
  return MetricsRegistry::Global().Snapshot().counter(name);
}

// Restores the cache to the default toolchain (and empty state) however the
// test exits, so a failure in one test cannot poison the rest of the binary.
struct CacheSandbox {
  CacheSandbox() { Reset(); }
  ~CacheSandbox() { Reset(); }
  static void Reset() {
    codegen::KernelCache::Global().SetJitOptionsForTest(codegen::JitOptions());
    codegen::KernelCache::Global().ClearForTest();
  }
};

// Minimal hand-built spec: one unguarded fill leaf writing `extent` elements
// of an immediate from offset 0, stride 1.
codegen::KernelSpec FillSpec(int64_t extent, int64_t out_size, double imm) {
  codegen::KernelSpec spec;
  spec.env_size = 1;
  spec.acc_init = {0};
  codegen::KernelSpec::Leaf leaf;
  leaf.extent = extent;
  leaf.vslot = 0;
  leaf.out_buffer = 0;
  leaf.out_size = out_size;
  leaf.store_acc = 0;
  leaf.store_inner = 1;
  leaf.then_k.kind = codegen::KernelSpec::BranchKind::kFill;
  leaf.then_k.imm = imm;
  spec.leaves.push_back(leaf);
  codegen::KernelSpec::Instr instr;
  instr.kind = codegen::KernelSpec::Instr::kLeaf;
  instr.leaf = 0;
  spec.instrs.push_back(instr);
  return spec;
}

bool ToolchainAvailable() {
  static const bool available = [] {
    auto kernel = codegen::CompileAndLoad(codegen::EmitKernelSource(FillSpec(1, 1, 0.0)));
    return kernel.ok();
  }();
  return available;
}

int64_t RunFill(const std::shared_ptr<codegen::NativeKernel>& kernel,
                std::vector<float>& out) {
  float* bufs[] = {out.data()};
  return kernel->fn()(bufs, 0, 0);
}

graph::Graph SmallWorkload() {
  graph::Graph g("codegen_target");
  int x = g.AddInput("x", {1, 8, 12, 12});
  int w = g.AddConstant("w", {16, 8, 3, 3});
  graph::ConvAttrs attrs;
  int c = g.AddConv(graph::OpKind::kConv2d, x, w, attrs, "conv");
  int b = g.AddConstant("b", {16});
  g.AddRelu(g.AddBiasAdd(c, b, 1, "bias"), "relu");
  return g;
}

// Canonical (no-layout) inputs for `g`, duplicated into a fresh store.
runtime::BufferStore SeedInputs(const graph::Graph& g, uint64_t seed) {
  Rng rng(seed);
  runtime::TensorDataMap data;
  runtime::FillGraphInputs(g, rng, data);
  runtime::BufferStore store;
  for (const auto& [id, values] : data) {
    store.Get(id) = values;
  }
  return store;
}

void RunAllPrograms(const loop::LoweredNetwork& net, runtime::BufferStore& store,
                    runtime::ExecEngine engine) {
  runtime::ExecOptions options;
  options.engine = engine;
  for (const auto& program : net.programs) {
    Status s = runtime::Execute(program, store, options);
    ASSERT_TRUE(s.ok()) << s.ToString();
  }
}

// --- emitter + jit ------------------------------------------------------

TEST(CodegenEmitter, GeneratedKernelRunsAndBoundsChecks) {
  if (!ToolchainAvailable()) {
    GTEST_SKIP() << "no host C++ toolchain";
  }
  const std::string source = codegen::EmitKernelSource(FillSpec(4, 4, 2.5));
  EXPECT_NE(source.find(codegen::kKernelSymbol), std::string::npos);
  auto kernel = codegen::CompileAndLoad(source);
  ASSERT_TRUE(kernel.ok()) << kernel.status().ToString();

  std::vector<float> out(4, -1.0f);
  EXPECT_EQ(RunFill(*kernel, out), codegen::kOk);
  for (float v : out) {
    EXPECT_EQ(v, 2.5f);
  }

  // A store whose last element lands past the declared buffer size must be
  // refused with the store-bounds code before any element is written.
  auto oob = codegen::CompileAndLoad(codegen::EmitKernelSource(FillSpec(4, 3, 2.5)));
  ASSERT_TRUE(oob.ok()) << oob.status().ToString();
  std::vector<float> small(4, -1.0f);
  EXPECT_EQ(RunFill(*oob, small), codegen::kStoreOutOfBounds);
  EXPECT_EQ(small[0], -1.0f);
}

TEST(CodegenJit, CompilerFailureIsAStatusAndLeavesNoTempFiles) {
  const std::string root = ::testing::TempDir() + "codegen_scratch";
  ASSERT_TRUE(mkdir(root.c_str(), 0755) == 0 || errno == EEXIST);
  codegen::JitOptions options;
  options.compiler = "/bin/false";
  options.temp_root = root;
  auto kernel = codegen::CompileAndLoad(codegen::EmitKernelSource(FillSpec(2, 2, 1.0)), options);
  EXPECT_FALSE(kernel.ok());

  DIR* dir = opendir(root.c_str());
  ASSERT_NE(dir, nullptr);
  int entries = 0;
  while (dirent* e = readdir(dir)) {
    if (std::strcmp(e->d_name, ".") != 0 && std::strcmp(e->d_name, "..") != 0) {
      ++entries;
    }
  }
  closedir(dir);
  EXPECT_EQ(entries, 0) << "failed compile left files under its temp root";
}

TEST(CodegenJit, GarbageObjectBytesAreRejectedWithStatus) {
  const std::vector<unsigned char> garbage = {0xde, 0xad, 0xbe, 0xef, 0x00, 0x42};
  auto kernel = codegen::LoadObject(garbage);
  EXPECT_FALSE(kernel.ok());

  CacheSandbox sandbox;
  auto& cache = codegen::KernelCache::Global();
  Status s = cache.RegisterObject("0123456789abcdef", garbage);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(cache.size(), 0);
}

// --- kernel cache -------------------------------------------------------

TEST(CodegenCache, SecondPrepareHitsWithoutRecompiling) {
  if (!ToolchainAvailable()) {
    GTEST_SKIP() << "no host C++ toolchain";
  }
  CacheSandbox sandbox;
  graph::Graph g = SmallWorkload();
  graph::LayoutAssignment la;
  auto net = loop::LowerNetworkNaive(g, la, true);
  ASSERT_TRUE(net.ok()) << net.status().ToString();

  const int64_t compiles0 = CounterValue("codegen.compiles");
  const int64_t hits0 = CounterValue("codegen.cache_hits");
  auto first = SeedInputs(g, 11);
  RunAllPrograms(*net, first, runtime::ExecEngine::kNative);
  const int64_t compiled = CounterValue("codegen.compiles") - compiles0;
  EXPECT_GT(compiled, 0);
  EXPECT_EQ(CounterValue("codegen.compile_failures"), 0);

  // Preparing the same programs again must be served entirely from cache.
  auto second = SeedInputs(g, 11);
  RunAllPrograms(*net, second, runtime::ExecEngine::kNative);
  EXPECT_EQ(CounterValue("codegen.compiles") - compiles0, compiled);
  EXPECT_GE(CounterValue("codegen.cache_hits") - hits0, compiled);
}

// for i, j: out[i][j] = in[i][j] * 2; out[i][j] += tanh(in[i][j] * scale):
// a kernel leaf and an eval leaf, over tensors `in_id` and `out_id` and
// fresh loop variables named `i_name` and `j_name`.
ir::Program TwoLeafProgram(int in_id, int out_id, const char* i_name, const char* j_name,
                           double scale) {
  ir::Program program;
  auto decl = [](int id, const char* name, ir::BufferRole role) {
    ir::BufferDecl d;
    d.tensor.id = id;
    d.tensor.name = name;
    d.tensor.shape = {4, 8};
    d.role = role;
    return d;
  };
  program.buffers = {decl(in_id, "in", ir::BufferRole::kInput),
                     decl(out_id, "out", ir::BufferRole::kOutput)};
  ir::Expr i = ir::MakeVar(i_name);
  ir::Expr j = ir::MakeVar(j_name);
  ir::Val x = ir::Load(in_id, {i, j});
  program.root = ir::MakeFor(
      i, 4, ir::ForKind::kSerial,
      ir::MakeBlock(
          {ir::MakeFor(j, 8, ir::ForKind::kSerial,
                       ir::MakeStore(out_id, {i, j}, ir::VMul(x, ir::Imm(2.0)),
                                     ir::StoreMode::kAssign)),
           ir::MakeFor(j, 8, ir::ForKind::kSerial,
                       ir::MakeStore(out_id, {i, j}, ir::VTanh(ir::VMul(x, ir::Imm(scale))),
                                     ir::StoreMode::kAccumulate))}));
  return program;
}

TEST(CodegenCache, ProgramsDifferingOnlyInIdsShareOneKernel) {
  CacheSandbox sandbox;
  const ir::Program a = TwoLeafProgram(0, 1, "i", "j", 0.5);
  const ir::Program b = TwoLeafProgram(7, 3, "row", "col", 0.5);
  const ir::Program c = TwoLeafProgram(0, 1, "i", "j", 0.75);

  // Keys are a function of the emitted source, compiled or not.
  auto key_a = runtime::EnsureNativeKernel(a);
  auto key_b = runtime::EnsureNativeKernel(b);
  auto key_c = runtime::EnsureNativeKernel(c);
  ASSERT_TRUE(key_a.ok()) << key_a.status().ToString();
  ASSERT_TRUE(key_b.ok()) << key_b.status().ToString();
  ASSERT_TRUE(key_c.ok()) << key_c.status().ToString();
  EXPECT_EQ(*key_a, *key_b);
  EXPECT_NE(*key_a, *key_c);  // one immediate apart

  if (!ToolchainAvailable()) {
    GTEST_SKIP() << "no host C++ toolchain";
  }
  codegen::KernelCache::Global().ClearForTest();
  const int64_t compiles0 = CounterValue("codegen.compiles");
  const int64_t hits0 = CounterValue("codegen.cache_hits");
  const int64_t failures0 = CounterValue("codegen.compile_failures");
  runtime::ExecOptions options;
  options.engine = runtime::ExecEngine::kNative;
  for (const ir::Program* program : {&a, &b}) {
    runtime::BufferStore store;
    store.Get(program->buffers[0].tensor.id).assign(32, 0.25f);
    auto prepared = runtime::PreparedProgram::Prepare(*program, store, options);
    ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  }
  EXPECT_EQ(CounterValue("codegen.compiles") - compiles0, 1);
  EXPECT_GE(CounterValue("codegen.cache_hits") - hits0, 1);
  EXPECT_EQ(CounterValue("codegen.compile_failures") - failures0, 0);
}

TEST(CodegenCache, CompileFailureFallsBackBitIdenticallyAndIsNegativeCached) {
  CacheSandbox sandbox;
  codegen::JitOptions broken;
  broken.compiler = "/bin/false";
  codegen::KernelCache::Global().SetJitOptionsForTest(broken);

  graph::Graph g = SmallWorkload();
  graph::LayoutAssignment la;
  auto net = loop::LowerNetworkNaive(g, la, true);
  ASSERT_TRUE(net.ok()) << net.status().ToString();

  const int64_t compiles0 = CounterValue("codegen.compiles");
  const int64_t failures0 = CounterValue("codegen.compile_failures");
  auto generic = SeedInputs(g, 23);
  RunAllPrograms(*net, generic, runtime::ExecEngine::kGeneric);
  auto native = SeedInputs(g, 23);
  RunAllPrograms(*net, native, runtime::ExecEngine::kNative);  // degrades, still ok
  const int64_t attempts = CounterValue("codegen.compiles") - compiles0;
  EXPECT_GT(attempts, 0);
  EXPECT_EQ(CounterValue("codegen.compile_failures") - failures0, attempts);

  for (const auto& t : g.tensors()) {
    const auto* a = generic.Find(t.id);
    const auto* b = native.Find(t.id);
    ASSERT_EQ(a == nullptr, b == nullptr) << t.name;
    if (a != nullptr) {
      ASSERT_EQ(a->size(), b->size()) << t.name;
      EXPECT_EQ(std::memcmp(a->data(), b->data(), a->size() * sizeof(float)), 0)
          << "fallback output differs for " << t.name;
    }
  }

  // The failure is remembered: re-preparing must not shell out again.
  auto again = SeedInputs(g, 23);
  RunAllPrograms(*net, again, runtime::ExecEngine::kNative);
  EXPECT_EQ(CounterValue("codegen.compiles") - compiles0, attempts);
}

// --- artifact embedding -------------------------------------------------

TEST(CodegenArtifact, SaveEmbedsKernelsAndReloadServesWithZeroRecompiles) {
  if (!ToolchainAvailable()) {
    GTEST_SKIP() << "no host C++ toolchain";
  }
  CacheSandbox sandbox;
  const auto& machine = sim::Machine::IntelCpu();
  core::AltOptions options;
  options.budget = 120;
  options.method = autotune::SearchMethod::kRandom;
  options.seed = 7;
  options.engine = runtime::ExecEngine::kNative;
  graph::Graph g = SmallWorkload();
  auto tuned = core::Compile(g, machine, options);
  ASSERT_TRUE(tuned.ok()) << tuned.status().ToString();

  const std::string path = ::testing::TempDir() + "codegen_artifact.altart";
  ASSERT_TRUE(core::SaveArtifact(*tuned, machine, options, path).ok());
  auto contents = ReadFile(path);
  ASSERT_TRUE(contents.ok());
  EXPECT_NE(contents->find("altart v2"), std::string::npos);
  EXPECT_NE(contents->find("kernel "), std::string::npos);

  // Drop the in-process kernels: everything the reload serves natively must
  // come out of the artifact, not out of this process's compile history.
  codegen::KernelCache::Global().ClearForTest();
  const int64_t compiles0 = CounterValue("codegen.compiles");
  const int64_t hits0 = CounterValue("codegen.cache_hits");
  auto loaded = core::LoadArtifact(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->info.version, 2);
  EXPECT_GT(loaded->info.kernels, 0);

  runtime::SessionOptions session_options;
  session_options.engine = runtime::ExecEngine::kNative;
  auto session = runtime::InferenceSession::Create(
      loaded->network.graph, loaded->network.assignment,
      {loaded->network.groups, loaded->network.programs}, session_options);
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  Rng rng(99);
  runtime::TensorDataMap data;
  runtime::FillGraphInputs(loaded->network.graph, rng, data);
  auto served = session->Run(data);
  ASSERT_TRUE(served.ok()) << served.status().ToString();

  EXPECT_EQ(CounterValue("codegen.compiles"), compiles0) << "reload recompiled a kernel";
  EXPECT_GT(CounterValue("codegen.cache_hits"), hits0);

  // Same request through the default engine: the embedded kernels are
  // bit-identical, not merely close.
  auto reference_session = runtime::InferenceSession::Create(
      loaded->network.graph, loaded->network.assignment,
      {loaded->network.groups, loaded->network.programs});
  ASSERT_TRUE(reference_session.ok());
  auto reference = reference_session->Run(data);
  ASSERT_TRUE(reference.ok());
  ASSERT_EQ(served->size(), reference->size());
  EXPECT_EQ(std::memcmp(served->data(), reference->data(), served->size() * sizeof(float)), 0);
}

}  // namespace
}  // namespace alt
