// alt_cli: command-line driver — tune a named network on a machine profile
// with a chosen method and budget, and print a compilation report.
//
//   ./build/examples/example_alt_cli [network] [machine] [method] [budget]
//
//   network: r18 | r18b16 | mv2 | bert-base | bert-tiny | r3d | first-layer | gmm16
//   machine: intel-cpu | nvidia-gpu | arm-cpu
//   method:  any core::VariantName, in any letter case: alt | alt-ol | alt-wp |
//            alt-fp | alt-bp | vendor | autotvm | flextensor | ansor
//            (vendor spends no budget)
//   budget:  measurement count (default 400)
//
// Every method compiles through core::Compile, so every flag below applies
// to all of them. Malformed numbers and unknown names exit 2.
//
// Telemetry:
//   ALT_TRACE=<path>    write a Chrome trace of the run (chrome://tracing)
//   ALT_METRICS=<path>  write the run's metrics snapshot as JSON (also
//                       honored on the artifact-serving paths, where the
//                       snapshot carries the codegen.* kernel-cache counters)
//
// Execution engine:
//   --engine affine|generic|native (default affine)
//     Engine for serving (runtime::ExecEngine). With `native`, tuning+save
//     embeds the JIT-compiled kernel objects in the artifact and serving
//     prefers them; a reloaded artifact then serves with zero recompiles
//     (codegen.compiles stays 0, codegen.cache_hits counts the reuse).
//   --intra-threads <n>
//     Intra-op threads for serving: root loops the schedule marked
//     ForKind::kParallel shard across n threads when provably safe
//     (bit-identical results at any n). <= 0 uses one per hardware core;
//     1 keeps execution serial.
//
// Deployment:
//   --artifact <path>
//     When the file exists: skip tuning, load the artifact, and serve one
//     request through runtime::InferenceSession (printing its provenance).
//     Otherwise: tune as usual, then save the artifact to that path.
//   --serve <n> (requires an existing --artifact; exits 2 otherwise)
//     Instead of one direct request, run n randomly-filled requests through
//     the serving::Server front-end — dynamic batching under the default
//     size/timeout policy — and print the operator metrics (per-model
//     p50/p95/p99, batch sizes, queue waits) when the traffic drains.
//
// Robustness:
//   --workers <n>
//     Evaluate candidates in n forked worker subprocesses (crash isolation):
//     a candidate that crashes, hangs, or corrupts its reply is retried and
//     quarantined instead of killing the tuner. Trajectory-identical to
//     in-process measurement.
//   --tuning-db <path>
//     Persistent tuning database: measurements are looked up here before
//     running and appended after, so re-running the same tuning command
//     warm-starts with zero redundant measurements. Re-running the same
//     command with the same --tuning-db also resumes an interrupted run: the
//     measurements it persisted are answered from the file, the rest are
//     measured, and the report equals an uninterrupted run's.

#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "src/core/alt.h"
#include "src/graph/networks.h"
#include "src/runtime/session.h"
#include "src/serving/server.h"
#include "src/support/fileio.h"
#include "src/support/string_util.h"

namespace {

bool ParseEngine(const std::string& name, alt::runtime::ExecEngine* out) {
  if (name == "affine") {
    *out = alt::runtime::ExecEngine::kAffine;
  } else if (name == "generic") {
    *out = alt::runtime::ExecEngine::kGeneric;
  } else if (name == "native") {
    *out = alt::runtime::ExecEngine::kNative;
  } else {
    return false;
  }
  return true;
}

// Parses the integer `text` given for `what` into `out`; false (after
// printing why) when it is not a whole decimal int.
bool ParseCount(const char* what, const std::string& text, int* out) {
  auto v = alt::ParseInt32(text);
  if (!v.ok()) {
    std::fprintf(stderr, "%s: %s\n", what, v.status().message().c_str());
    return false;
  }
  *out = *v;
  return true;
}

// ALT_METRICS honored on the serving paths too: the process-global snapshot
// carries the codegen.* counters CI uses to assert zero recompiles on reload.
void MaybeWriteGlobalMetrics() {
  if (const char* metrics_path = std::getenv("ALT_METRICS")) {
    alt::Status ws =
        alt::WriteFile(metrics_path, alt::MetricsRegistry::Global().Snapshot().ToJson());
    if (!ws.ok()) {
      std::fprintf(stderr, "metrics snapshot not written: %s\n", ws.ToString().c_str());
    } else {
      std::printf("metrics snapshot written to %s\n", metrics_path);
    }
  }
}

alt::graph::Graph BuildNetwork(const std::string& name) {
  if (name == "r18") {
    return alt::graph::BuildResNet18(1);
  }
  if (name == "r18b16") {
    return alt::graph::BuildResNet18(16);
  }
  if (name == "mv2") {
    return alt::graph::BuildMobileNetV2(1);
  }
  if (name == "bert-base") {
    return alt::graph::BuildBert(1, 768, 12);
  }
  if (name == "bert-tiny") {
    return alt::graph::BuildBert(1, 128, 2);
  }
  if (name == "r3d") {
    return alt::graph::BuildResNet3d18(1);
  }
  if (name == "first-layer") {
    return alt::graph::BuildResNetFirstLayer(1);
  }
  if (name == "gmm16") {
    // Single 16x16x16 matmul: the compact divisor grid makes the joint
    // stage revisit fingerprint-equal layouts, exercising relation dedup.
    return alt::graph::BuildSingleMatmul(16, 16, 16);
  }
  std::fprintf(stderr, "unknown network '%s'\n", name.c_str());
  std::exit(2);
}

// Serves one randomly-filled request through an InferenceSession built from
// a loaded artifact and prints what ran.
int ServeLoadedArtifact(const alt::core::LoadedArtifact& loaded,
                        const alt::runtime::SessionOptions& session_options) {
  using namespace alt;
  const autotune::CompiledNetwork& net = loaded.network;
  std::printf("loaded artifact: graph %s, tuned for %s (%s, budget %d, seed %llu, "
              "%d measurements, best %s, %d embedded kernels)\n",
              net.graph.name().c_str(), loaded.info.machine.c_str(),
              core::VariantName(loaded.info.variant), loaded.info.budget,
              static_cast<unsigned long long>(loaded.info.seed),
              loaded.info.measurements_used, FormatMicros(loaded.info.best_latency_us).c_str(),
              loaded.info.kernels);
  auto session = runtime::InferenceSession::Create(net.graph, net.assignment,
                                                   {net.groups, net.programs}, session_options);
  if (!session.ok()) {
    std::fprintf(stderr, "session creation failed: %s\n",
                 session.status().ToString().c_str());
    return 1;
  }
  Rng rng(loaded.info.seed);
  runtime::TensorDataMap data;
  runtime::FillGraphInputs(net.graph, rng, data);
  auto out = session->Run(data);
  if (!out.ok()) {
    std::fprintf(stderr, "serving failed: %s\n", out.status().ToString().c_str());
    return 1;
  }
  std::printf("served one request: output tensor %d, %zu elements\n",
              session->output_tensor(), out->size());
  MaybeWriteGlobalMetrics();
  return 0;
}

// Serves `count` randomly-filled requests through the dynamic-batching
// front-end and prints the operator metrics once the traffic drains.
int ServeTraffic(const alt::core::LoadedArtifact& loaded, int count,
                 const alt::runtime::SessionOptions& session_options) {
  using namespace alt;
  const autotune::CompiledNetwork& net = loaded.network;
  serving::ServerOptions server_options;
  server_options.session = session_options;
  serving::Server server(server_options);
  Status added = server.AddModel(net.graph.name(), loaded);
  if (!added.ok()) {
    std::fprintf(stderr, "model registration failed: %s\n", added.ToString().c_str());
    return 1;
  }
  std::printf("serving %d requests through the batching front-end...\n", count);
  std::vector<std::future<serving::Response>> futures;
  futures.reserve(count);
  for (int i = 0; i < count; ++i) {
    Rng rng(loaded.info.seed + i);
    runtime::TensorDataMap data;
    runtime::FillGraphInputs(net.graph, rng, data);
    futures.push_back(server.Submit(net.graph.name(), std::move(data)));
  }
  int failed = 0;
  for (auto& f : futures) {
    if (!f.get().ok()) {
      ++failed;
    }
  }
  MetricsSnapshot metrics = server.Metrics();
  const HistogramSnapshot* latency =
      metrics.histogram("serving." + net.graph.name() + ".request_us");
  const HistogramSnapshot* batch_size = metrics.histogram("serving.batch_size");
  std::printf("served %d requests (%d failed) in %lld batches\n", count, failed,
              static_cast<long long>(metrics.counter("serving.batches")));
  if (latency != nullptr) {
    std::printf("request latency us : p50 %.0f  p95 %.0f  p99 %.0f\n", latency->p50,
                latency->p95, latency->p99);
  }
  if (batch_size != nullptr && batch_size->count > 0) {
    std::printf("batch size         : mean %.1f  max %.0f\n", batch_size->mean(),
                batch_size->max);
  }
  MaybeWriteGlobalMetrics();
  return failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace alt;
  std::string artifact_path;
  std::string tuning_db_path;
  std::string engine_name = "affine";
  int workers = 0;
  int intra_threads = 0;
  int serve_requests = 0;
  std::vector<std::string> pos;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--artifact" && has_value) {
      artifact_path = argv[++i];
    } else if (arg == "--serve" && has_value) {
      if (!ParseCount("--serve", argv[++i], &serve_requests)) {
        return 2;
      }
    } else if (arg == "--workers" && has_value) {
      if (!ParseCount("--workers", argv[++i], &workers)) {
        return 2;
      }
    } else if (arg == "--tuning-db" && has_value) {
      tuning_db_path = argv[++i];
    } else if (arg == "--engine" && has_value) {
      engine_name = argv[++i];
    } else if (arg == "--intra-threads" && has_value) {
      if (!ParseCount("--intra-threads", argv[++i], &intra_threads)) {
        return 2;
      }
    } else {
      pos.push_back(arg);
    }
  }
  runtime::ExecEngine engine = runtime::ExecEngine::kAffine;
  if (!ParseEngine(engine_name, &engine)) {
    std::fprintf(stderr, "unknown engine '%s' (affine|generic|native)\n",
                 engine_name.c_str());
    return 2;
  }
  std::string net_name = pos.size() > 0 ? pos[0] : "first-layer";
  std::string machine_name = pos.size() > 1 ? pos[1] : "intel-cpu";
  std::string method = pos.size() > 2 ? pos[2] : "alt";
  int budget = 400;
  if (pos.size() > 3 && !ParseCount("budget", pos[3], &budget)) {
    return 2;
  }
  const std::optional<core::AltVariant> variant = core::VariantFromName(method);
  if (!variant) {
    std::fprintf(stderr,
                 "unknown method '%s' (alt|alt-ol|alt-wp|alt-fp|alt-bp|vendor|autotvm|"
                 "flextensor|ansor)\n",
                 method.c_str());
    return 2;
  }
  const bool artifact_exists = !artifact_path.empty() && FileExists(artifact_path);
  if (serve_requests > 0 && !artifact_exists) {
    std::fprintf(stderr, "--serve needs an existing artifact (--artifact <path> of a saved "
                         "network)\n");
    return 2;
  }

  core::AltOptions options;
  options.budget = budget;
  options.variant = *variant;
  options.engine = engine;
  options.intra_threads = intra_threads;
  if (const char* trace = std::getenv("ALT_TRACE")) {
    options.trace_path = trace;
  }
  options.measure.isolate.workers = workers;  // <= 0 measures in process
  options.tuning_db = tuning_db_path;
  // One flag set drives every serving path: ToSessionOptions maps the facade
  // options (engine, intra-op budget) onto session options.
  const runtime::SessionOptions session_options = core::ToSessionOptions(options);

  if (artifact_exists) {
    auto loaded = core::LoadArtifact(artifact_path);
    if (!loaded.ok()) {
      std::fprintf(stderr, "artifact load failed: %s\n",
                   loaded.status().ToString().c_str());
      return 1;
    }
    if (serve_requests > 0) {
      return ServeTraffic(*loaded, serve_requests, session_options);
    }
    return ServeLoadedArtifact(*loaded, session_options);
  }

  graph::Graph g = BuildNetwork(net_name);
  const sim::Machine* found = sim::Machine::Find(machine_name);
  if (found == nullptr) {
    std::fprintf(stderr, "unknown machine '%s'\n", machine_name.c_str());
    return 2;
  }
  const sim::Machine& machine = *found;
  std::printf("tuning %s on %s with %s (budget %d)...\n", g.name().c_str(),
              machine.name.c_str(), method.c_str(), budget);

  auto compiled = core::Compile(g, machine, options);
  if (compiled.ok() && !artifact_path.empty()) {
    Status ws = core::SaveArtifact(*compiled, machine, options, artifact_path);
    if (!ws.ok()) {
      std::fprintf(stderr, "artifact not written: %s\n", ws.ToString().c_str());
    } else {
      std::printf("artifact written to %s\n", artifact_path.c_str());
    }
  }
  if (!compiled.ok()) {
    std::fprintf(stderr, "compilation failed: %s\n", compiled.status().ToString().c_str());
    return 1;
  }

  const auto& result = *compiled;
  if (const char* metrics_path = std::getenv("ALT_METRICS")) {
    Status ws = WriteFile(metrics_path, result.metrics.ToJson());
    if (!ws.ok()) {
      std::fprintf(stderr, "metrics snapshot not written: %s\n", ws.ToString().c_str());
    } else {
      std::printf("metrics snapshot written to %s\n", metrics_path);
    }
  }
  std::printf("\n=== compilation report ===\n");
  std::printf("estimated latency : %s\n", FormatMicros(result.perf.latency_us).c_str());
  std::printf("flops             : %.3g\n", result.perf.flops);
  std::printf("L1 loads / misses : %.3g / %.3g\n", result.perf.l1_loads,
              result.perf.l1_misses);
  std::printf("DRAM traffic      : %.1f MB\n", result.perf.dram_bytes / 1e6);
  std::printf("measurements used : %d\n", result.measurements_used);
  std::printf("fused groups      : %zu\n", result.groups.size());
  int conversions = 0;
  int layouted = 0;
  for (const auto& group : result.groups) {
    if (result.graph.op(group.anchor_op).kind == graph::OpKind::kLayoutConvert) {
      ++conversions;
    }
    if (!result.assignment.Get(group.OutputTensor(result.graph)).empty()) {
      ++layouted;
    }
  }
  std::printf("conversion ops    : %d\n", conversions);
  std::printf("non-canonical outs: %d\n", layouted);

  // Show the five slowest groups.
  std::vector<std::pair<double, size_t>> costs;
  for (size_t i = 0; i < result.programs.size(); ++i) {
    costs.push_back({sim::EstimateProgram(result.programs[i], machine).latency_us, i});
  }
  std::sort(costs.rbegin(), costs.rend());
  std::printf("\nhottest groups:\n");
  for (size_t i = 0; i < costs.size() && i < 5; ++i) {
    size_t gi = costs[i].second;
    int out = result.groups[gi].OutputTensor(result.graph);
    const auto& seq = result.assignment.Get(out);
    std::printf("  %8.1f us  %-20s layout: %s\n", costs[i].first,
                result.graph.op(result.groups[gi].anchor_op).name.c_str(),
                seq.empty() ? "canonical" : seq.ToString().c_str());
  }
  return 0;
}
