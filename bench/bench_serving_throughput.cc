// Serving throughput: InferenceSession reuse vs per-call setup, and
// single- vs multi-threaded request execution.
//
//   ./build/bench/bench_serving_throughput
//
// Before timing, the reused session's output is checked bit-identical
// against a throwaway session built per call (the "per-call setup" baseline
// being measured). Each mode is timed as the best of 5 rounds, per-call and
// reused-session requests alternating within a round.
// With ALT_TRACE_DIR set the requests/s figures are also written as a JSON
// metrics artifact for CI. Exits nonzero if session reuse fails to beat
// per-call setup: the entire point of the serving split is amortizing plan
// compilation and buffer allocation.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "src/autotune/layout_templates.h"
#include "src/runtime/session.h"

namespace alt {

graph::Graph ServingGraph() {
  graph::Graph g("serving_conv");
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

// The per-call baseline: a fresh session (plan compilation, arena
// allocation) for every request.
StatusOr<std::vector<float>> RunThrowawaySession(const graph::Graph& g,
                                                 const graph::LayoutAssignment& la,
                                                 const loop::LoweredNetwork& net,
                                                 const runtime::TensorDataMap& request) {
  auto session = runtime::InferenceSession::Create(g, la, net);
  if (!session.ok()) {
    return session.status();
  }
  return session->Run(request);
}

double Seconds(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

int Main() {
  bench::PrintHeader(
      "Serving throughput: session reuse vs per-call setup, single vs "
      "multi-threaded");

  graph::Graph g = ServingGraph();
  graph::LayoutAssignment la;
  // Channels-last on the conv output (propagated across the elementwise
  // tail) so requests exercise real layout-conversion plans on both ends.
  // Tensor ids in ServingGraph(): x=0, pad=1, w=2, conv=3, b=4, bias=5, relu=6.
  constexpr int kPadT = 1, kConvOut = 3;
  la.Set(kConvOut, autotune::ChannelsLast(2));
  la.Set(kPadT, autotune::ChannelsLast(2));
  graph::PropagateOutputLayout(g, la, kConvOut);

  auto net = loop::LowerNetworkNaive(g, la, true);
  if (!net.ok()) {
    std::fprintf(stderr, "lowering failed: %s\n", net.status().ToString().c_str());
    return 1;
  }
  auto session = runtime::InferenceSession::Create(g, la, *net);
  if (!session.ok()) {
    std::fprintf(stderr, "session creation failed: %s\n",
                 session.status().ToString().c_str());
    return 1;
  }

  constexpr int kRequests = 64;
  std::vector<runtime::TensorDataMap> requests;
  for (int i = 0; i < kRequests; ++i) {
    Rng rng(1000 + i);
    runtime::TensorDataMap data;
    runtime::FillGraphInputs(g, rng, data);
    requests.push_back(std::move(data));
  }

  // Bit-identity gate: the reused session must reproduce a fresh session
  // exactly, request by request (pinning reused arenas to fresh-arena
  // results).
  for (int i = 0; i < kRequests; ++i) {
    auto via_fresh = RunThrowawaySession(g, la, *net, requests[i]);
    auto via_session = session->Run(requests[i]);
    if (!via_fresh.ok() || !via_session.ok()) {
      std::fprintf(stderr, "request %d failed: %s\n", i,
                   (!via_fresh.ok() ? via_fresh.status() : via_session.status())
                       .ToString()
                       .c_str());
      return 1;
    }
    if (via_fresh->size() != via_session->size() ||
        std::memcmp(via_fresh->data(), via_session->data(),
                    via_fresh->size() * sizeof(float)) != 0) {
      std::fprintf(stderr, "BIT-IDENTITY VIOLATION on request %d\n", i);
      return 1;
    }
  }
  std::printf("bit-identity gate: %d requests identical to a per-call session\n\n",
              kRequests);

  // Each mode is timed as the best of kRounds rounds. Within a round the
  // two single-caller modes alternate request by request, so both sample
  // the same stretch of host load; one pass per mode let a single slow
  // stretch on a shared host decide the gate.
  constexpr int kRounds = 5;
  constexpr int kThreads = 4;
  ThreadPool pool(kThreads);
  double per_call_rps = 0.0;
  double session_rps = 0.0;
  double batch_rps = 0.0;
  for (int round = 0; round < kRounds; ++round) {
    double per_call_s = 0.0;
    double session_s = 0.0;
    for (const auto& request : requests) {
      // --- per-call setup: a throwaway session for the request -----------
      auto start = std::chrono::steady_clock::now();
      auto fresh = RunThrowawaySession(g, la, *net, request);
      per_call_s += Seconds(start);
      if (!fresh.ok()) {
        std::fprintf(stderr, "per-call run failed: %s\n", fresh.status().ToString().c_str());
        return 1;
      }
      // --- session reuse, single caller ----------------------------------
      start = std::chrono::steady_clock::now();
      auto reused = session->Run(request);
      session_s += Seconds(start);
      if (!reused.ok()) {
        std::fprintf(stderr, "session run failed: %s\n", reused.status().ToString().c_str());
        return 1;
      }
    }
    per_call_rps = std::max(per_call_rps, kRequests / per_call_s);
    session_rps = std::max(session_rps, kRequests / session_s);

    // --- session reuse, concurrent callers -------------------------------
    const auto start = std::chrono::steady_clock::now();
    auto batch = session->RunBatchDetailed(requests, pool);
    for (const auto& out : batch) {
      if (!out.ok()) {
        std::fprintf(stderr, "batch run failed: %s\n", out.status().ToString().c_str());
        return 1;
      }
    }
    batch_rps = std::max(batch_rps, kRequests / Seconds(start));
  }

  std::printf("%-28s %12s\n", "mode", "requests/s");
  std::printf("%-28s %12.1f\n", "per-call setup", per_call_rps);
  std::printf("%-28s %12.1f\n", "session reuse (1 thread)", session_rps);
  std::printf("%-28s %12.1f\n", "session batch (4 threads)", batch_rps);
  std::printf("\nsession-reuse speedup over per-call setup: %.2fx\n",
              session_rps / per_call_rps);
  std::printf("arenas materialized: %d\n", session->arena_count());

  const std::string trace_dir = bench::TraceDir();
  if (!trace_dir.empty()) {
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "{\n  \"serving_throughput\": {\n"
                  "    \"requests\": %d,\n"
                  "    \"per_call_rps\": %.3f,\n"
                  "    \"session_rps\": %.3f,\n"
                  "    \"batch_rps\": %.3f,\n"
                  "    \"batch_threads\": %d,\n"
                  "    \"session_speedup\": %.3f,\n"
                  "    \"arenas\": %d\n  }\n}\n",
                  kRequests, per_call_rps, session_rps, batch_rps, kThreads,
                  session_rps / per_call_rps, session->arena_count());
    Status ws = WriteFile(trace_dir + "/serving_throughput_metrics.json", buf);
    if (!ws.ok()) {
      std::fprintf(stderr, "metrics artifact not written: %s\n", ws.ToString().c_str());
    } else {
      std::printf("metrics artifact written to %s/serving_throughput_metrics.json\n",
                  trace_dir.c_str());
    }
  }

  if (session_rps <= per_call_rps) {
    std::fprintf(stderr,
                 "SERVING REGRESSION: session reuse (%.1f req/s) did not beat "
                 "per-call setup (%.1f req/s)\n",
                 session_rps, per_call_rps);
    return 1;
  }
  return 0;
}

}  // namespace alt

int main() { return alt::Main(); }
