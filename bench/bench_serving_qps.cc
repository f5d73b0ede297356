// Serving front-end QPS: dynamic batching vs per-request dispatch, plus
// hot-swap bit-identity.
//
//   ./build/bench/bench_serving_qps
//
// A small network is tuned (random search, tiny budget — deterministic), and
// the same request stream is pushed through two serving::Server setups:
//
//   * per-request dispatch: max_batch_size=1 — every request is its own
//     batch, the naive serve loop.
//   * dynamic batching: max_batch_size=16 under a 2 ms delay budget — the
//     batcher aggregates the backlog into units the worker can fan out
//     across its ThreadPool.
//
// Batching wins by turning a stream of serial Run() calls into parallelizable
// batches and by amortizing dispatch (wakeup, lock, deadline scan) across 16
// requests. The parallel half needs >1 hardware thread: on a single-core
// host the bench degrades to the overhead comparison, so the hard gate
// "batching sustains more requests/sec" applies on multi-core hosts and a
// 0.85x sanity floor applies on one core. Each setup's figures come from the
// median of 5 rounds, the two setups alternating.
//
// Everything is gated on bit-identity: every response in every mode must
// equal the direct InferenceSession::Run output for its seed — including
// after an atomic hot-swap to the re-saved, re-loaded artifact of the same
// tuned network halfway through the stream.
//
// With ALT_TRACE_DIR set, the figures are written as a JSON metrics artifact
// for CI.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "bench/harness.h"
#include "src/core/alt.h"
#include "src/serving/server.h"

namespace alt {

namespace {

graph::Graph QpsGraph() {
  graph::Graph g("served_conv");
  int x = g.AddInput("x", {1, 8, 12, 12});
  graph::PadAttrs pad;
  pad.before = {0, 0, 1, 1};
  pad.after = {0, 0, 1, 1};
  int p = g.AddPad(x, pad, "pad");
  int w = g.AddConstant("w", {16, 8, 3, 3});
  graph::ConvAttrs attrs;
  int c = g.AddConv(graph::OpKind::kConv2d, p, w, attrs, "conv");
  int b = g.AddConstant("b", {16});
  g.AddRelu(g.AddBiasAdd(c, b, 1, "bias"), "relu");
  return g;
}

double Seconds(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

runtime::TensorDataMap MakeRequest(const graph::Graph& g, uint64_t seed) {
  Rng rng(seed);
  runtime::TensorDataMap data;
  runtime::FillGraphInputs(g, rng, data);
  return data;
}

constexpr int kRequests = 96;

struct StreamResult {
  double rps = 0.0;
  double p95_us = 0.0;
  double p99_us = 0.0;
  double mean_batch = 0.0;
};

// Pushes the full request stream through `server`, optionally hot-swapping
// `swap_artifact` in after half the stream, and bit-checks every response.
// Returns false (with a message) on any failure or identity violation.
bool RunStream(serving::Server& server, const std::string& model,
               const graph::Graph& g, const std::vector<std::vector<float>>& expected,
               const core::LoadedArtifact* swap_artifact, StreamResult* result) {
  MetricsSnapshot before = MetricsRegistry::Global().Snapshot();
  auto start = std::chrono::steady_clock::now();
  std::vector<std::future<serving::Response>> futures;
  futures.reserve(kRequests);
  for (int i = 0; i < kRequests; ++i) {
    if (swap_artifact != nullptr && i == kRequests / 2) {
      Status swap = server.SwapModel(model, *swap_artifact);
      if (!swap.ok()) {
        std::fprintf(stderr, "hot-swap failed: %s\n", swap.ToString().c_str());
        return false;
      }
    }
    futures.push_back(server.Submit(model, MakeRequest(g, 1000 + i)));
  }
  for (int i = 0; i < kRequests; ++i) {
    auto out = futures[i].get();
    if (!out.ok()) {
      std::fprintf(stderr, "request %d failed: %s\n", i, out.status().ToString().c_str());
      return false;
    }
    if (out->size() != expected[i].size() ||
        std::memcmp(out->data(), expected[i].data(),
                    expected[i].size() * sizeof(float)) != 0) {
      std::fprintf(stderr, "BIT-IDENTITY VIOLATION on request %d%s\n", i,
                   swap_artifact != nullptr ? " (hot-swap stream)" : "");
      return false;
    }
  }
  const double elapsed = Seconds(start);
  MetricsSnapshot delta = MetricsRegistry::Global().Snapshot().DeltaSince(before);
  result->rps = kRequests / elapsed;
  if (const HistogramSnapshot* lat = delta.histogram("serving." + model + ".request_us")) {
    result->p95_us = lat->p95;
    result->p99_us = lat->p99;
  }
  if (const HistogramSnapshot* sizes = delta.histogram("serving.batch_size")) {
    result->mean_batch = sizes->mean();
  }
  return true;
}

}  // namespace

int Main() {
  bench::PrintHeader(
      "Serving QPS: dynamic batching vs per-request dispatch, hot-swap "
      "bit-identity");

  // A deterministic tuned network (random search keeps this fast) so the
  // stream exercises real tuned layouts and the artifact path.
  core::AltOptions options;
  options.budget = 80;
  options.method = autotune::SearchMethod::kRandom;
  options.seed = 7;
  graph::Graph g = QpsGraph();
  auto compiled = core::Compile(g, sim::Machine::IntelCpu(), options);
  if (!compiled.ok()) {
    std::fprintf(stderr, "compile failed: %s\n", compiled.status().ToString().c_str());
    return 1;
  }
  const loop::LoweredNetwork net{compiled->groups, compiled->programs};
  auto session = runtime::InferenceSession::Create(compiled->graph, compiled->assignment, net);
  if (!session.ok()) {
    std::fprintf(stderr, "session failed: %s\n", session.status().ToString().c_str());
    return 1;
  }

  // Reference outputs: the bit-identity contract for every serving mode.
  std::vector<std::vector<float>> expected;
  for (int i = 0; i < kRequests; ++i) {
    auto out = session->Run(MakeRequest(compiled->graph, 1000 + i));
    if (!out.ok()) {
      std::fprintf(stderr, "reference run failed: %s\n", out.status().ToString().c_str());
      return 1;
    }
    expected.push_back(std::move(*out));
  }

  // The tuned network re-saved and re-loaded: the hot-swap target.
  const std::string artifact_path = "bench_serving_qps.altart";
  Status saved = core::SaveArtifact(*compiled, sim::Machine::IntelCpu(), options,
                                    artifact_path);
  if (!saved.ok()) {
    std::fprintf(stderr, "artifact save failed: %s\n", saved.ToString().c_str());
    return 1;
  }
  auto loaded = core::LoadArtifact(artifact_path);
  if (!loaded.ok()) {
    std::fprintf(stderr, "artifact load failed: %s\n", loaded.status().ToString().c_str());
    return 1;
  }
  std::remove(artifact_path.c_str());

  // Per-request dispatch: max_batch_size=1, every request is its own batch
  // (the naive serve loop). Dynamic batching: up to 16 requests under a 2 ms
  // delay budget, the tail latency batching may add.
  serving::ServerOptions per_request_options;
  per_request_options.policy.max_batch_size = 1;
  per_request_options.policy.max_delay_us = 0;
  per_request_options.workers = 1;
  per_request_options.intra_batch_threads = 1;
  serving::ServerOptions batching_options;
  batching_options.policy.max_batch_size = 16;
  batching_options.policy.max_delay_us = 2000;
  batching_options.workers = 1;
  batching_options.intra_batch_threads = 4;
  serving::Server per_request_server(per_request_options);
  serving::Server batching_server(batching_options);
  for (serving::Server* server : {&per_request_server, &batching_server}) {
    Status added = server->AddModel("m", compiled->graph, compiled->assignment, net);
    if (!added.ok()) {
      std::fprintf(stderr, "add model failed: %s\n", added.ToString().c_str());
      return 1;
    }
  }

  // Median of kRounds alternating rounds per setup: one stream per setup let
  // a single scheduling hiccup on a shared host decide the gate. Not the
  // best round: per-request dispatch shards every Run across the intra-op
  // threads, so its rate jumps whenever the host briefly frees every core,
  // and a best-of picks those jumps. The first batching round hot-swaps to
  // the re-loaded artifact halfway through its stream; later rounds serve
  // the swapped-in model.
  constexpr int kRounds = 5;
  std::vector<StreamResult> per_request_rounds(kRounds);
  std::vector<StreamResult> batching_rounds(kRounds);
  for (int round = 0; round < kRounds; ++round) {
    if (!RunStream(per_request_server, "m", compiled->graph, expected, nullptr,
                   &per_request_rounds[round]) ||
        !RunStream(batching_server, "m", compiled->graph, expected,
                   round == 0 ? &*loaded : nullptr, &batching_rounds[round])) {
      return 1;
    }
  }
  auto median = [](std::vector<StreamResult> rounds) {
    std::sort(rounds.begin(), rounds.end(),
              [](const StreamResult& a, const StreamResult& b) { return a.rps < b.rps; });
    return rounds[rounds.size() / 2];
  };
  const StreamResult per_request = median(per_request_rounds);
  const StreamResult batching = median(batching_rounds);
  const int swaps = static_cast<int>(batching_server.Metrics().counter("serving.swaps"));
  std::printf("bit-identity gate: %d requests x 2 modes x %d rounds identical to direct "
              "session runs, across %d hot-swap(s)\n\n",
              kRequests, kRounds, swaps);

  // --- multi-worker sweep: workers x intra_batch_threads x intra-op --------
  // The three thread knobs compose: worker threads drain the queue,
  // intra_batch_threads fan requests of one batch across the session pool,
  // and intra-op threads shard each program's kParallel root. The sweep shows
  // where each knob pays (and that the budget keeps them from fighting) —
  // every point re-checks bit-identity against the direct session runs.
  struct SweepRow {
    int workers = 0;
    int batch_threads = 0;
    int intra_threads = 0;
    double rps = 0.0;
    double p99_us = 0.0;
  };
  std::vector<SweepRow> worker_sweep;
  std::printf("%-10s %-14s %-13s %10s %10s\n", "workers", "batch_threads",
              "intra_threads", "req/s", "p99 us");
  for (int workers : {1, 2}) {
    for (int batch_threads : {1, 2}) {
      for (int intra : {1, 2}) {
        serving::ServerOptions sopt;
        sopt.policy.max_batch_size = 16;
        sopt.policy.max_delay_us = 2000;
        sopt.workers = workers;
        sopt.intra_batch_threads = batch_threads;
        sopt.session.intra_threads = intra;
        serving::Server server(sopt);
        Status added = server.AddModel("m", compiled->graph, compiled->assignment, net);
        if (!added.ok()) {
          std::fprintf(stderr, "add model failed: %s\n", added.ToString().c_str());
          return 1;
        }
        StreamResult point;
        if (!RunStream(server, "m", compiled->graph, expected, nullptr, &point)) {
          std::fprintf(stderr, "sweep point workers=%d batch_threads=%d intra=%d failed\n",
                       workers, batch_threads, intra);
          return 1;
        }
        std::printf("%-10d %-14d %-13d %10.1f %10.0f\n", workers, batch_threads,
                    intra, point.rps, point.p99_us);
        worker_sweep.push_back({workers, batch_threads, intra, point.rps, point.p99_us});
      }
    }
  }
  std::printf("\n");

  const int hardware = static_cast<int>(std::thread::hardware_concurrency());
  std::printf("%-34s %10s %10s %10s %10s\n", "mode", "req/s", "p95 us", "p99 us",
              "batch");
  std::printf("%-34s %10.1f %10.0f %10.0f %10.1f\n", "per-request dispatch",
              per_request.rps, per_request.p95_us, per_request.p99_us,
              per_request.mean_batch);
  std::printf("%-34s %10.1f %10.0f %10.0f %10.1f\n", "dynamic batching (16 @ 2ms)",
              batching.rps, batching.p95_us, batching.p99_us, batching.mean_batch);
  std::printf("\nbatching speedup: %.2fx (hardware threads: %d)\n",
              batching.rps / per_request.rps, hardware);

  const std::string trace_dir = bench::TraceDir();
  if (!trace_dir.empty()) {
    char buf[640];
    std::snprintf(buf, sizeof(buf),
                  "{\n  \"serving_qps\": {\n"
                  "    \"requests\": %d,\n"
                  "    \"hardware_threads\": %d,\n"
                  "    \"per_request_rps\": %.3f,\n"
                  "    \"per_request_p99_us\": %.3f,\n"
                  "    \"batching_rps\": %.3f,\n"
                  "    \"batching_p99_us\": %.3f,\n"
                  "    \"batching_mean_batch\": %.3f,\n"
                  "    \"batching_speedup\": %.4f,\n"
                  "    \"hot_swaps\": %d\n  },\n"
                  "  \"worker_sweep\": [\n",
                  kRequests, hardware, per_request.rps, per_request.p99_us,
                  batching.rps, batching.p99_us, batching.mean_batch,
                  batching.rps / per_request.rps, swaps);
    std::string json = buf;
    for (size_t i = 0; i < worker_sweep.size(); ++i) {
      const auto& row = worker_sweep[i];
      char rbuf[256];
      std::snprintf(rbuf, sizeof(rbuf),
                    "    {\"workers\": %d, \"intra_batch_threads\": %d, "
                    "\"intra_threads\": %d, \"rps\": %.3f, \"p99_us\": %.3f}%s\n",
                    row.workers, row.batch_threads, row.intra_threads, row.rps,
                    row.p99_us, i + 1 < worker_sweep.size() ? "," : "");
      json += rbuf;
    }
    json += "  ]\n}\n";
    Status ws = WriteFile(trace_dir + "/serving_qps_metrics.json", json);
    if (!ws.ok()) {
      std::fprintf(stderr, "metrics artifact not written: %s\n", ws.ToString().c_str());
    } else {
      std::printf("metrics artifact written to %s/serving_qps_metrics.json\n",
                  trace_dir.c_str());
    }
  }

  // The gate: batching must sustain more than per-request dispatch. The
  // parallel win needs >1 hardware thread; a single-core host can only show
  // the overhead delta, so it gets a sanity floor instead of the hard gate.
  const double floor = hardware >= 2 ? 1.0 : 0.85;
  if (batching.rps <= per_request.rps * floor) {
    std::fprintf(stderr,
                 "SERVING REGRESSION: dynamic batching (%.1f req/s) did not "
                 "sustain more than per-request dispatch (%.1f req/s, floor %.2fx)\n",
                 batching.rps, per_request.rps, floor);
    return 1;
  }
  if (swaps != 1) {
    std::fprintf(stderr, "SERVING REGRESSION: expected exactly 1 hot-swap, saw %d\n",
                 swaps);
    return 1;
  }
  return 0;
}

}  // namespace alt

int main() { return alt::Main(); }
