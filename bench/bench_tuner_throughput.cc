// Measurement-engine throughput: wall-clock of a fixed-budget tune_conv2d
// run at measure.threads = 1 / 2 / 4, verifying along the way that every
// thread count lands on the identical tuned result — the determinism
// guarantee that makes the parallelism safe to enable. A second section
// checks that layout-relation dedup measures fewer layout candidates than
// the search enumerates.
//
//   ./build/bench/bench_tuner_throughput
//
// On a 4+ core host the 4-thread row should be >= 2x the 1-thread row; on
// smaller hosts the speedup degrades gracefully (the engine never slows a
// run down: candidates are claimed dynamically and the caller participates).

#include <chrono>
#include <cstdio>

#include "bench/harness.h"

namespace alt {

struct RunResult {
  double wall_ms = 0.0;
  double latency_us = 0.0;
  int measurements = 0;
  autotune::MeasureStats stats;
  // Per-run deltas of the layout-space counters (layout/relation.h dedup).
  int64_t enumerated = 0;
  int64_t deduped = 0;
};

RunResult RunTune(const graph::Graph& g, const sim::Machine& machine, int threads,
                  const std::string& trace_path = "", int budget = 300) {
  core::AltOptions options;
  options.budget = budget;
  options.seed = 11;
  options.method = autotune::SearchMethod::kPpoPretrained;
  options.measure.threads = threads;
  options.trace_path = trace_path;
  auto start = std::chrono::steady_clock::now();
  auto compiled = core::Compile(g, machine, options);
  auto wall =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
          .count();
  RunResult r;
  r.wall_ms = wall;
  if (!compiled.ok()) {
    std::fprintf(stderr, "tune failed: %s\n", compiled.status().ToString().c_str());
    return r;
  }
  r.latency_us = compiled->perf.latency_us;
  r.measurements = compiled->measurements_used;
  r.stats = compiled->measure_stats;
  r.enumerated = compiled->metrics.counter("layout.candidates_enumerated");
  r.deduped = compiled->metrics.counter("layout.relation_dedup");
  return r;
}

int Main() {
  bench::PrintHeader(
      "Tuner throughput: parallel measurement engine on tune_conv2d (budget 300)");

  graph::Graph g = graph::BuildResNetFirstLayer(1);
  const auto& machine = sim::Machine::IntelCpu();
  std::printf("workload: %s on %s\n\n", g.name().c_str(), machine.name.c_str());
  std::printf("%-10s %10s %12s %10s %8s %8s\n", "threads", "wall_ms", "tuned_us",
              "measured", "hits", "speedup");

  RunResult base;
  for (int threads : {1, 2, 4}) {
    RunResult r = RunTune(g, machine, threads);
    if (threads == 1) {
      base = r;
    }
    std::printf("%-10d %10.1f %12.1f %10lld %8lld %7.2fx\n", threads, r.wall_ms,
                r.latency_us, static_cast<long long>(r.stats.measured),
                static_cast<long long>(r.stats.cache_hits),
                r.wall_ms > 0 ? base.wall_ms / r.wall_ms : 0.0);
    // Determinism guarantee: identical tuned result at every thread count.
    if (r.latency_us != base.latency_us || r.measurements != base.measurements) {
      std::fprintf(stderr,
                   "DETERMINISM VIOLATION: threads=%d diverged "
                   "(%.3f us / %d meas vs %.3f us / %d meas)\n",
                   threads, r.latency_us, r.measurements, base.latency_us,
                   base.measurements);
      return 1;
    }
  }
  std::printf(
      "\nnote: rows must agree exactly on tuned_us; the speedup column is\n"
      "wall-clock relative to the 1-thread row.\n");

  // Layout-relation dedup (layout/relation.h): candidates whose relation
  // fingerprints match an already-evaluated triple replay its result instead
  // of spending measurement budget. The table reports, per workload, how
  // many candidates the search enumerated and how many were actually
  // measured (enumerated - deduped); dedup must collapse at least one
  // candidate, so fewer are measured than enumerated.
  bench::PrintHeader("Layout relation dedup: candidates measured vs enumerated");
  struct DedupRow {
    std::string workload;
    RunResult r;
  };
  std::vector<DedupRow> dedup_rows;
  {
    // Small canonical shapes: the divisor grids are compact enough that the
    // agent's quantized proposals revisit fingerprint-equal layouts within
    // the budget, so the dedup path demonstrably engages (deterministically,
    // given the fixed seed).
    graph::ConvConfig small_conv;
    small_conv.in_channels = 16;
    small_conv.out_channels = 16;
    small_conv.spatial[0] = small_conv.spatial[1] = 8;
    std::vector<std::pair<std::string, graph::Graph>> workloads;
    workloads.emplace_back("conv2d/16ch-8x8",
                           graph::BuildSingleConv(graph::OpKind::kConv2d, small_conv));
    workloads.emplace_back("gmm/16x16x16", graph::BuildSingleMatmul(16, 16, 16));
    std::printf("%-20s %11s %9s %9s %12s\n", "workload", "enumerated", "deduped",
                "measured", "tuned_us");
    for (const auto& [name, wg] : workloads) {
      RunResult r = RunTune(wg, machine, /*threads=*/4, "", /*budget=*/400);
      const int64_t measured = r.enumerated - r.deduped;
      std::printf("%-20s %11lld %9lld %9lld %12.1f\n", name.c_str(),
                  static_cast<long long>(r.enumerated), static_cast<long long>(r.deduped),
                  static_cast<long long>(measured), r.latency_us);
      dedup_rows.push_back({name, r});
      if (r.deduped <= 0 || measured >= r.enumerated) {
        std::fprintf(stderr,
                     "DEDUP INEFFECTIVE: %s measured %lld of %lld enumerated candidates\n",
                     name.c_str(), static_cast<long long>(measured),
                     static_cast<long long>(r.enumerated));
        return 1;
      }
    }
    std::printf("\nnote: 'measured' = enumerated - deduped.\n");
  }

  // Wall-clock repeatability at the default configuration: single runs above
  // are fine for the speedup table, but overhead claims (e.g. the <1% budget
  // for disabled tracing) need percentiles, not a lone sample.
  constexpr int kRepeats = 5;
  std::vector<double> walls;
  for (int rep = 0; rep < kRepeats; ++rep) {
    walls.push_back(RunTune(g, machine, /*threads=*/4).wall_ms);
  }
  bench::SampleStats stats = bench::Summarize(walls);
  std::printf(
      "\nrepeatability (threads=4, %d runs): wall_ms p50=%.1f p95=%.1f "
      "min=%.1f max=%.1f\n",
      stats.n, stats.p50, stats.p95, stats.min, stats.max);
  // One extra traced run when ALT_TRACE_DIR is set — kept out of the timed
  // rows above so the table always reports the tracing-disabled numbers.
  const std::string trace_dir = bench::TraceDir();
  if (!trace_dir.empty()) {
    RunTune(g, machine, /*threads=*/4, trace_dir + "/tuner_throughput_trace.json");
    std::string json = "{\n  \"layout_dedup\": [\n";
    for (size_t i = 0; i < dedup_rows.size(); ++i) {
      const auto& row = dedup_rows[i];
      char buf[320];
      std::snprintf(buf, sizeof(buf),
                    "    {\"workload\": \"%s\", \"enumerated\": %lld, "
                    "\"deduped\": %lld, \"measured\": %lld, \"tuned_us\": %.3f}%s\n",
                    row.workload.c_str(), static_cast<long long>(row.r.enumerated),
                    static_cast<long long>(row.r.deduped),
                    static_cast<long long>(row.r.enumerated - row.r.deduped),
                    row.r.latency_us, i + 1 < dedup_rows.size() ? "," : "");
      json += buf;
    }
    json += "  ]\n}\n";
    Status ws = WriteFile(trace_dir + "/tuner_throughput_metrics.json", json);
    if (!ws.ok()) {
      std::fprintf(stderr, "metrics artifact not written: %s\n", ws.ToString().c_str());
    }
    std::printf("telemetry artifacts (ALT_TRACE_DIR) written to %s\n", trace_dir.c_str());
  }
  return 0;
}

}  // namespace alt

int main() { return alt::Main(); }
