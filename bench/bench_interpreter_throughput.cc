// Interpreter throughput: a three-way race — the generic engine (every store
// evaluated per element), the affine engine, and the JIT-compiled native
// backend — on conv2d and GMM programs
// under several layouts (including the pad-guard and unfold templates that
// stress guard splitting and the bytecode fallback).
//
//   ./build/bench/bench_interpreter_throughput
//
// For every configuration the three engines are first checked to produce
// bit-identical buffers, then timed over repeated runs. Work is counted in
// innermost store executions (ir::CountStoreExecutions), so elements/s is
// comparable across layouts of the same workload. With ALT_TRACE_DIR set the
// per-config throughput is also written as a JSON metrics artifact for CI.
//
// Gates: affine must hold a 2x geomean over generic, and native must not
// slip below affine (geomean >= 1x) — unless the host has no toolchain
// (codegen.fallback_programs > 0), in which case the native gate is skipped
// because "native" silently served through the affine engine. On hosts with
// at least 4 cores, 4 intra-op threads must buy a 2x geomean on the
// canonical configs, measured as alternating 1-thread/4-thread pairs.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "src/autotune/layout_templates.h"
#include "src/runtime/session.h"
#include "src/support/metrics.h"
#include "src/support/thread_pool.h"

namespace alt {

struct BenchConfig {
  std::string name;
  graph::Graph g;
  graph::LayoutAssignment la;
};

// A deterministic schedule that exercises the vectorized inner-loop kernels
// AND carves a multi-core outer tile: each spatial axis takes an outer tile
// (largest divisor <= 8) whose leading two axes are marked kParallel —
// canonical conv2d gets a parallel out-channel tile of 8, canonical GMM a
// parallel row tile of 8 — then keeps a unit-stride vec slot from what
// remains. The kParallel root is what the intra-op thread sweep below
// shards.
loop::LoopSchedule DefaultSchedule(const loop::LoopNestSignature& sig) {
  loop::LoopSchedule s;
  auto largest_divisor = [](int64_t e, int64_t cap) {
    int64_t best = 1;
    for (int64_t d = 1; d <= cap && d <= e; ++d) {
      if (e % d == 0) {
        best = d;
      }
    }
    return best;
  };
  for (int64_t e : sig.spatial_extents) {
    const int64_t outer = largest_divisor(e, 8);
    const int64_t rest = e / outer;
    const int64_t vec = largest_divisor(rest, 8);
    loop::SpatialAxisSchedule a;
    a.outer = outer;
    a.mid = 1;
    a.inner = rest / vec;
    a.vec = vec;
    s.spatial.push_back(a);
  }
  for (int64_t e : sig.reduction_extents) {
    s.reduction.push_back({e, 1});
  }
  s.parallel_axes = 2;
  return s;
}

StatusOr<loop::LoweredNetwork> Lower(const graph::Graph& g,
                                     const graph::LayoutAssignment& la) {
  auto groups = loop::PartitionGraph(g, la, true);
  loop::LoweredNetwork net;
  net.groups = groups;
  for (const auto& group : groups) {
    if (graph::IsComplex(g.op(group.anchor_op).kind)) {
      auto sig = loop::GroupSignature(g, la, group);
      if (!sig.ok()) {
        return sig.status();
      }
      auto prog = loop::LowerGroup(g, la, group, DefaultSchedule(*sig));
      if (!prog.ok()) {
        return prog.status();
      }
      net.programs.push_back(std::move(*prog));
    } else {
      auto prog = loop::LowerGroupNaive(g, la, group);
      if (!prog.ok()) {
        return prog.status();
      }
      net.programs.push_back(std::move(*prog));
    }
  }
  return net;
}

graph::Graph ConvGraph() {
  graph::Graph g("conv2d");
  int x = g.AddInput("x", {1, 8, 28, 28});
  graph::PadAttrs pad;
  pad.before = {0, 0, 1, 1};
  pad.after = {0, 0, 1, 1};
  int p = g.AddPad(x, pad, "pad");
  int w = g.AddConstant("w", {16, 8, 3, 3});
  graph::ConvAttrs attrs;
  int c = g.AddConv(graph::OpKind::kConv2d, p, w, attrs, "conv");
  g.AddRelu(c, "relu");
  return g;
}

std::vector<BenchConfig> BuildConfigs() {
  std::vector<BenchConfig> configs;

  {
    BenchConfig cfg{"conv2d/canonical", ConvGraph(), {}};
    configs.push_back(std::move(cfg));
  }
  // Tensor ids in ConvGraph(): x=0, pad=1, w=2, conv=3, relu=4.
  constexpr int kPad = 1, kConvOut = 3;
  {
    BenchConfig cfg{"conv2d/channels-last", ConvGraph(), {}};
    cfg.la.Set(kConvOut, autotune::ChannelsLast(2));
    cfg.la.Set(kPad, autotune::ChannelsLast(2));
    graph::PropagateOutputLayout(cfg.g, cfg.la, kConvOut);
    configs.push_back(std::move(cfg));
  }
  {
    // Full ALT conv template: pad-guarded unfolded input, tiled output and
    // weight — the layout that stresses guard splitting the hardest.
    BenchConfig cfg{"conv2d/alt-template", ConvGraph(), {}};
    const graph::Op& conv = cfg.g.op(cfg.g.ProducerOf(kConvOut));
    autotune::ConvLayoutParams params;
    params.spatial_tiles = {7, 7};
    params.out_tile = 4;
    params.in_tile = 2;
    params.w_in_tile = 2;
    params.w_out_tile = 4;
    auto layouts = autotune::MakeConvTemplates(cfg.g, conv, params);
    if (layouts.ok()) {
      cfg.la.Set(kConvOut, layouts->output);
      cfg.la.Set(kPad, layouts->input);
      cfg.la.Set(conv.inputs[1], layouts->weight);
      graph::PropagateOutputLayout(cfg.g, cfg.la, kConvOut);
      configs.push_back(std::move(cfg));
    } else {
      std::fprintf(stderr, "alt-template config skipped: %s\n",
                   layouts.status().ToString().c_str());
    }
  }
  {
    BenchConfig cfg{"gmm/canonical", graph::BuildSingleMatmul(64, 64, 64), {}};
    configs.push_back(std::move(cfg));
  }
  {
    BenchConfig cfg{"gmm/transposed-b", graph::BuildSingleMatmul(64, 64, 64), {}};
    cfg.la.Set(cfg.g.op(0).inputs[1], autotune::TransposedB());
    configs.push_back(std::move(cfg));
  }
  {
    BenchConfig cfg{"gmm/blocked", graph::BuildSingleMatmul(64, 64, 64), {}};
    const graph::Op& op = cfg.g.op(0);
    autotune::GmmLayoutParams params{8, 8, 8};
    auto layouts = autotune::MakeGmmTemplates(cfg.g, op, params);
    if (layouts.ok()) {
      cfg.la.Set(op.output, layouts->c);
      cfg.la.Set(op.inputs[0], layouts->a);
      cfg.la.Set(op.inputs[1], layouts->b);
      configs.push_back(std::move(cfg));
    } else {
      std::fprintf(stderr, "gmm/blocked config skipped: %s\n",
                   layouts.status().ToString().c_str());
    }
  }
  return configs;
}

struct ConfigResult {
  std::string name;
  double affine_eps = 0.0;   // elements (store executions) per second
  double generic_eps = 0.0;
  double native_eps = 0.0;
  double speedup = 0.0;            // affine vs generic
  double native_vs_affine = 0.0;
  bench::SampleStats affine_stats;  // per-run elements/s samples
};

// Seeds `store` with physicalized graph inputs/constants.
Status SeedStore(const graph::Graph& g, const graph::LayoutAssignment& la,
                 runtime::BufferStore& store, uint64_t seed) {
  Rng rng(seed);
  runtime::TensorDataMap data;
  runtime::FillGraphInputs(g, rng, data);
  for (const auto& t : g.tensors()) {
    if (!g.IsGraphInput(t.id) && !g.IsConstant(t.id)) {
      continue;
    }
    auto phys = runtime::Physicalize(data[t.id], t.shape, la.Get(t.id));
    if (!phys.ok()) {
      return phys.status();
    }
    store.Get(t.id) = std::move(*phys);
  }
  return Status::Ok();
}

double RunOnce(const loop::LoweredNetwork& net, runtime::BufferStore& store,
               const runtime::ExecOptions& opts) {
  auto start = std::chrono::steady_clock::now();
  for (const auto& program : net.programs) {
    Status s = runtime::Execute(program, store, opts);
    if (!s.ok()) {
      std::fprintf(stderr, "execute failed: %s\n", s.ToString().c_str());
      std::exit(1);
    }
  }
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

// Prepare-once / Run-many execution for the thread sweep: plan compilation,
// shardability analysis, and the intra-op pool are paid once, so the timed
// runs measure execution alone — the serving-path shape.
StatusOr<std::vector<runtime::PreparedProgram>> PrepareNet(const loop::LoweredNetwork& net,
                                                           runtime::BufferStore& store,
                                                           const runtime::ExecOptions& opts) {
  std::vector<runtime::PreparedProgram> programs;
  programs.reserve(net.programs.size());
  for (const auto& program : net.programs) {
    auto prepared = runtime::PreparedProgram::Prepare(program, store, opts);
    if (!prepared.ok()) {
      return prepared.status();
    }
    programs.push_back(std::move(*prepared));
  }
  return programs;
}

double RunPrepared(std::vector<runtime::PreparedProgram>& programs) {
  auto start = std::chrono::steady_clock::now();
  for (auto& p : programs) {
    Status s = p.Run();
    if (!s.ok()) {
      std::fprintf(stderr, "prepared run failed: %s\n", s.ToString().c_str());
      std::exit(1);
    }
  }
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

// Bit-identity across thread counts: every declared buffer of every program
// must match the serial reference exactly.
bool StoresMatch(const loop::LoweredNetwork& net, const runtime::BufferStore& got,
                 const runtime::BufferStore& want, std::string* what) {
  for (const auto& program : net.programs) {
    for (const auto& decl : program.buffers) {
      const auto* a = got.Find(decl.tensor.id);
      const auto* b = want.Find(decl.tensor.id);
      if (a == nullptr || b == nullptr || a->size() != b->size() ||
          std::memcmp(a->data(), b->data(), a->size() * sizeof(float)) != 0) {
        *what = decl.tensor.name;
        return false;
      }
    }
  }
  return true;
}

int Main() {
  bench::PrintHeader(
      "Interpreter throughput: generic per-element engine vs affine engine vs "
      "native JIT (elements = innermost store executions)");

  // The three-way race is a SINGLE-THREAD engine comparison: no intra-op
  // pool, so the ratios keep measuring per-core execution. The thread sweep
  // below is where kParallel roots fan out.
  runtime::ExecOptions affine;
  affine.engine = runtime::ExecEngine::kAffine;
  runtime::ExecOptions generic;
  generic.engine = runtime::ExecEngine::kGeneric;
  runtime::ExecOptions native;
  native.engine = runtime::ExecEngine::kNative;
  const int64_t fallback_before =
      MetricsRegistry::Global().Snapshot().counter("codegen.fallback_programs");

  std::vector<BenchConfig> configs = BuildConfigs();
  std::vector<ConfigResult> results;
  std::printf("%-22s %14s %14s %14s %9s %9s\n", "config", "affine_el/s",
              "generic_el/s", "native_el/s", "aff/gen", "nat/aff");
  for (auto& cfg : configs) {
    auto net = Lower(cfg.g, cfg.la);
    if (!net.ok()) {
      std::fprintf(stderr, "%s: lowering failed: %s\n", cfg.name.c_str(),
                   net.status().ToString().c_str());
      return 1;
    }
    int64_t elems = 0;
    for (const auto& program : net->programs) {
      elems += ir::CountStoreExecutions(program.root);
    }

    // Correctness gate: all three engines must produce bit-identical
    // buffers. (These runs also warm the kernel cache, so the timed native
    // runs below never pay a compile.)
    runtime::BufferStore fast, slow, jitted;
    if (!SeedStore(cfg.g, cfg.la, fast, 7).ok() ||
        !SeedStore(cfg.g, cfg.la, slow, 7).ok() ||
        !SeedStore(cfg.g, cfg.la, jitted, 7).ok()) {
      std::fprintf(stderr, "%s: input physicalization failed\n", cfg.name.c_str());
      return 1;
    }
    RunOnce(*net, fast, affine);
    RunOnce(*net, slow, generic);
    RunOnce(*net, jitted, native);
    for (const auto& program : net->programs) {
      for (const auto& decl : program.buffers) {
        const auto* a = fast.Find(decl.tensor.id);
        const auto* b = slow.Find(decl.tensor.id);
        const auto* n = jitted.Find(decl.tensor.id);
        if (a == nullptr || b == nullptr || n == nullptr || a->size() != b->size() ||
            a->size() != n->size() ||
            std::memcmp(a->data(), b->data(), a->size() * sizeof(float)) != 0 ||
            std::memcmp(a->data(), n->data(), a->size() * sizeof(float)) != 0) {
          std::fprintf(stderr, "%s: BIT-IDENTITY VIOLATION on tensor %s\n",
                       cfg.name.c_str(), decl.tensor.name.c_str());
          return 1;
        }
      }
    }

    constexpr int kAffineReps = 10;
    constexpr int kGenericReps = 3;
    std::vector<double> affine_eps;
    for (int r = 0; r < kAffineReps; ++r) {
      affine_eps.push_back(static_cast<double>(elems) / RunOnce(*net, fast, affine));
    }
    std::vector<double> native_eps;
    for (int r = 0; r < kAffineReps; ++r) {
      native_eps.push_back(static_cast<double>(elems) / RunOnce(*net, jitted, native));
    }
    double generic_total = 0.0;
    for (int r = 0; r < kGenericReps; ++r) {
      generic_total += RunOnce(*net, slow, generic);
    }

    ConfigResult res;
    res.name = cfg.name;
    res.affine_stats = bench::Summarize(affine_eps);
    res.affine_eps = res.affine_stats.p50;
    res.native_eps = bench::Summarize(native_eps).p50;
    res.generic_eps = static_cast<double>(elems) * kGenericReps / generic_total;
    res.speedup = res.affine_eps / res.generic_eps;
    res.native_vs_affine = res.native_eps / res.affine_eps;
    std::printf("%-22s %14.3e %14.3e %14.3e %8.2fx %8.2fx\n", res.name.c_str(),
                res.affine_eps, res.generic_eps, res.native_eps, res.speedup,
                res.native_vs_affine);
    results.push_back(std::move(res));
  }

  double log_sum = 0.0;
  double native_log_sum = 0.0;
  for (const auto& r : results) {
    log_sum += std::log(r.speedup);
    native_log_sum += std::log(r.native_vs_affine);
  }
  double geomean = results.empty() ? 0.0 : std::exp(log_sum / results.size());
  double native_geomean =
      results.empty() ? 0.0 : std::exp(native_log_sum / results.size());
  const int64_t native_fallbacks =
      MetricsRegistry::Global().Snapshot().counter("codegen.fallback_programs") -
      fallback_before;
  std::printf("\ngeomean speedup (affine vs generic): %.2fx\n", geomean);
  std::printf("geomean speedup (native vs affine): %.2fx (%lld fallback programs)\n",
              native_geomean, static_cast<long long>(native_fallbacks));
  for (const auto& r : results) {
    std::printf("  %-22s p50=%.3e p95=%.3e min=%.3e max=%.3e el/s\n", r.name.c_str(),
                r.affine_stats.p50, r.affine_stats.p95, r.affine_stats.min,
                r.affine_stats.max);
  }

  // --- intra-op thread sweep ------------------------------------------------
  // Every config runs the affine and native engines at 1/2/4/hw intra-op
  // threads (Prepare once, Run many), with a bit-identity check against the
  // serial run at every width. Configs whose kParallel root fails the
  // disjointness proof (e.g. channels-last, where the parallel axis carries
  // the smallest stride) degrade to serial and simply sweep flat.
  struct SweepPoint {
    std::string config;
    std::string engine;
    int threads = 0;
    double eps = 0.0;
    double speedup = 0.0;  // vs the same engine at 1 thread
  };
  // The scaling gate's samples: on the canonical configs, whose kParallel
  // roots provably shard, the same prepared 1-thread and 4-thread programs
  // run in alternation, so a host phase that slows one width slows its pair
  // partner too. Each point's speedup is the median 1t/4t pair time ratio.
  constexpr int kScalePairs = 20;
  std::vector<SweepPoint> scale_points;
  const int64_t parallel_before =
      MetricsRegistry::Global().Snapshot().counter("interp.parallel_programs");
  std::vector<int> sweep_threads = {1, 2, 4, HardwareThreads()};
  std::sort(sweep_threads.begin(), sweep_threads.end());
  sweep_threads.erase(std::unique(sweep_threads.begin(), sweep_threads.end()),
                      sweep_threads.end());
  std::vector<SweepPoint> sweep;
  std::printf("\nintra-op thread sweep (Prepare once / Run many):\n");
  std::printf("%-22s %-7s %8s %14s %9s\n", "config", "engine", "threads", "el/s",
              "vs_1t");
  for (auto& cfg : configs) {
    auto net = Lower(cfg.g, cfg.la);
    if (!net.ok()) {
      std::fprintf(stderr, "%s: lowering failed: %s\n", cfg.name.c_str(),
                   net.status().ToString().c_str());
      return 1;
    }
    int64_t elems = 0;
    for (const auto& program : net->programs) {
      elems += ir::CountStoreExecutions(program.root);
    }
    for (const auto* engine_name : {"affine", "native"}) {
      const runtime::ExecEngine engine = std::strcmp(engine_name, "affine") == 0
                                             ? runtime::ExecEngine::kAffine
                                             : runtime::ExecEngine::kNative;
      // Serial reference buffers for the bit-identity gate.
      runtime::BufferStore ref_store;
      if (!SeedStore(cfg.g, cfg.la, ref_store, 11).ok()) {
        std::fprintf(stderr, "%s: input physicalization failed\n", cfg.name.c_str());
        return 1;
      }
      runtime::ExecOptions ref_opts;
      ref_opts.engine = engine;
      auto ref_prepared = PrepareNet(*net, ref_store, ref_opts);
      if (!ref_prepared.ok()) {
        std::fprintf(stderr, "%s: prepare failed: %s\n", cfg.name.c_str(),
                     ref_prepared.status().ToString().c_str());
        return 1;
      }
      RunPrepared(*ref_prepared);
      double base_eps = 0.0;
      // The prepared 1- and 4-thread programs, kept for the scaling pairs.
      struct Width {
        std::unique_ptr<runtime::BufferStore> store;
        std::vector<runtime::PreparedProgram> programs;
      };
      Width serial, four;
      for (int t : sweep_threads) {
        auto owned_store = std::make_unique<runtime::BufferStore>();
        runtime::BufferStore& store = *owned_store;
        if (!SeedStore(cfg.g, cfg.la, store, 11).ok()) {
          std::fprintf(stderr, "%s: input physicalization failed\n", cfg.name.c_str());
          return 1;
        }
        runtime::ExecOptions opts;
        opts.engine = engine;
        opts.intra_pool = std::make_shared<runtime::IntraOpPool>(t);
        auto prepared = PrepareNet(*net, store, opts);
        if (!prepared.ok()) {
          std::fprintf(stderr, "%s: prepare failed: %s\n", cfg.name.c_str(),
                       prepared.status().ToString().c_str());
          return 1;
        }
        RunPrepared(*prepared);  // warm-up; also the correctness run
        std::string bad;
        if (!StoresMatch(*net, store, ref_store, &bad)) {
          std::fprintf(stderr,
                       "%s: BIT-IDENTITY VIOLATION at %s %d intra-op threads on tensor %s\n",
                       cfg.name.c_str(), engine_name, t, bad.c_str());
          return 1;
        }
        constexpr int kSweepReps = 10;
        std::vector<double> eps_samples;
        for (int r = 0; r < kSweepReps; ++r) {
          eps_samples.push_back(static_cast<double>(elems) / RunPrepared(*prepared));
        }
        SweepPoint p;
        p.config = cfg.name;
        p.engine = engine_name;
        p.threads = t;
        p.eps = bench::Summarize(eps_samples).p50;
        if (t == 1) {
          base_eps = p.eps;
        }
        p.speedup = base_eps > 0.0 ? p.eps / base_eps : 0.0;
        std::printf("%-22s %-7s %8d %14.3e %8.2fx\n", p.config.c_str(), engine_name, t,
                    p.eps, p.speedup);
        sweep.push_back(std::move(p));
        if (t == 1 || t == 4) {
          (t == 1 ? serial : four) = {std::move(owned_store), std::move(*prepared)};
        }
      }
      if (cfg.name == "conv2d/canonical" || cfg.name == "gmm/canonical") {
        std::vector<double> ratios;
        for (int r = 0; r < kScalePairs; ++r) {
          const double serial_s = RunPrepared(serial.programs);
          ratios.push_back(serial_s / RunPrepared(four.programs));
        }
        scale_points.push_back({cfg.name, engine_name, 4, 0.0, bench::Summarize(ratios).p50});
      }
    }
  }
  const int64_t parallel_programs =
      MetricsRegistry::Global().Snapshot().counter("interp.parallel_programs") -
      parallel_before;
  std::printf("parallel (sharded) program runs during sweep: %lld\n",
              static_cast<long long>(parallel_programs));

  const std::string trace_dir = bench::TraceDir();
  if (!trace_dir.empty()) {
    std::string json = "{\n  \"interpreter_throughput\": [\n";
    for (size_t i = 0; i < results.size(); ++i) {
      const auto& r = results[i];
      char buf[384];
      std::snprintf(buf, sizeof(buf),
                    "    {\"config\": \"%s\", \"elements_per_s\": %.6e, "
                    "\"generic_elements_per_s\": %.6e, "
                    "\"native_elements_per_s\": %.6e, \"speedup\": %.3f, "
                    "\"native_vs_affine\": %.3f}%s\n",
                    r.name.c_str(), r.affine_eps, r.generic_eps, r.native_eps,
                    r.speedup, r.native_vs_affine, i + 1 < results.size() ? "," : "");
      json += buf;
    }
    json += "  ],\n  \"thread_sweep\": [\n";
    for (size_t i = 0; i < sweep.size(); ++i) {
      const auto& p = sweep[i];
      char buf[256];
      std::snprintf(buf, sizeof(buf),
                    "    {\"config\": \"%s\", \"engine\": \"%s\", \"threads\": %d, "
                    "\"elements_per_s\": %.6e, \"speedup_vs_1\": %.3f}%s\n",
                    p.config.c_str(), p.engine.c_str(), p.threads, p.eps, p.speedup,
                    i + 1 < sweep.size() ? "," : "");
      json += buf;
    }
    char tail[256];
    std::snprintf(tail, sizeof(tail),
                  "  ],\n  \"geomean_speedup\": %.3f,\n"
                  "  \"native_geomean_vs_affine\": %.3f,\n"
                  "  \"native_fallback_programs\": %lld,\n"
                  "  \"parallel_programs\": %lld,\n"
                  "  \"hardware_threads\": %d\n}\n",
                  geomean, native_geomean, static_cast<long long>(native_fallbacks),
                  static_cast<long long>(parallel_programs), HardwareThreads());
    json += tail;
    Status ws = WriteFile(trace_dir + "/interpreter_throughput_metrics.json", json);
    if (!ws.ok()) {
      std::fprintf(stderr, "metrics artifact not written: %s\n", ws.ToString().c_str());
    } else {
      std::printf("metrics artifact written to %s/interpreter_throughput_metrics.json\n",
                  trace_dir.c_str());
    }
  }

  // The affine engine exists to make simulation-side execution cheap; a
  // regression below 2x end-to-end means the fast path stopped engaging.
  if (geomean < 2.0) {
    std::fprintf(stderr, "THROUGHPUT REGRESSION: geomean %.2fx < 2x\n", geomean);
    return 1;
  }
  // The native backend justifies its complexity by never losing to the
  // interpreter it replaces. Skipped when any program could not be compiled
  // (no host toolchain): "native" then timed the affine engine against
  // itself and the comparison is meaningless.
  if (native_fallbacks > 0) {
    std::printf("native gate skipped: %lld programs served without a compiled kernel\n",
                static_cast<long long>(native_fallbacks));
  } else if (native_geomean < 1.0) {
    std::fprintf(stderr, "NATIVE REGRESSION: geomean %.2fx < 1x vs affine\n",
                 native_geomean);
    return 1;
  }
  // Scaling gate: the canonical configs carry provably disjoint kParallel
  // roots, so 4 intra-op threads must buy >= 2x geomean over serial — for the
  // affine engine always, and for native whenever every kernel compiled
  // (under fallback "native" shards the affine plan, double-counting it).
  // Each config and engine contributes the median of its alternating 1t/4t
  // pair ratios. Skipped on hosts without 4 cores, where the speedup
  // physically cannot materialize.
  if (HardwareThreads() < 4) {
    std::printf("scaling gate skipped: host has %d hardware threads (< 4)\n",
                HardwareThreads());
  } else {
    double scale_log_sum = 0.0;
    int scale_n = 0;
    std::printf("\nscaling at 4 threads (median of %d alternating 1t/4t pairs):\n",
                kScalePairs);
    for (const auto& p : scale_points) {
      std::printf("  %-22s %-7s %6.2fx\n", p.config.c_str(), p.engine.c_str(), p.speedup);
      if (p.engine == "native" && native_fallbacks > 0) {
        continue;
      }
      scale_log_sum += std::log(p.speedup);
      ++scale_n;
    }
    const double scale_geomean =
        scale_n > 0 ? std::exp(scale_log_sum / scale_n) : 0.0;
    std::printf("geomean scaling at 4 threads (canonical configs): %.2fx\n",
                scale_geomean);
    if (scale_geomean < 2.0) {
      std::fprintf(stderr, "SCALING REGRESSION: geomean %.2fx < 2x at 4 threads\n",
                   scale_geomean);
      return 1;
    }
  }
  return 0;
}

}  // namespace alt

int main() { return alt::Main(); }
