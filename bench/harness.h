// Shared helpers for the per-figure/table benchmark binaries.
//
// Budgets are scaled down from the paper (which spends 1,000 measurements per
// single operator and 20,000 per network on real hardware) because our
// measurement device is a simulator estimate; the joint/loop budget RATIO
// follows the paper (30% joint stage / 70% loop-only stage).

#ifndef ALT_BENCH_HARNESS_H_
#define ALT_BENCH_HARNESS_H_

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "src/core/alt.h"
#include "src/graph/networks.h"
#include "src/support/fileio.h"
#include "src/support/logging.h"

namespace alt::bench {

// Order statistics over repeated samples (exact nearest-rank percentiles —
// unlike the bucketed MetricsRegistry histograms, bench sample counts are
// tiny, so sorting is free and exact).
struct SampleStats {
  int n = 0;
  double mean = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double min = 0.0;
  double max = 0.0;
};

inline SampleStats Summarize(std::vector<double> samples) {
  SampleStats s;
  s.n = static_cast<int>(samples.size());
  if (s.n == 0) {
    return s;
  }
  std::sort(samples.begin(), samples.end());
  double sum = 0.0;
  for (double v : samples) {
    sum += v;
  }
  s.mean = sum / s.n;
  s.min = samples.front();
  s.max = samples.back();
  auto rank = [&](double p) {
    int idx = static_cast<int>(std::ceil(p / 100.0 * s.n)) - 1;
    return samples[std::min(std::max(idx, 0), s.n - 1)];
  };
  s.p50 = rank(50);
  s.p95 = rank(95);
  return s;
}

// Directory for per-run telemetry artifacts, from ALT_TRACE_DIR ("" = off).
// When set, every RunMethod writes <net>_<method>_trace.json
// (Chrome trace-event format) and <net>_<method>_metrics.json there.
inline std::string TraceDir() {
  const char* dir = std::getenv("ALT_TRACE_DIR");
  return dir != nullptr ? dir : "";
}

inline std::string SanitizeTag(const std::string& s) {
  std::string out = s;
  for (char& c : out) {
    if (!std::isalnum(static_cast<unsigned char>(c))) {
      c = '_';
    }
  }
  return out;
}

struct MethodResult {
  std::string name;
  double latency_us = 0.0;
  int measurements = 0;
};

// Compiles `g` with the method the paper calls `name` (core::VariantFromName:
// "ALT", "ALT-OL", "Ansor", ...). A failed or unknown method reports a
// negative latency.
inline MethodResult RunMethod(const std::string& name, const graph::Graph& g,
                              const sim::Machine& machine, int budget, uint64_t seed) {
  MethodResult result;
  result.name = name;
  result.latency_us = -1.0;
  const std::optional<core::AltVariant> variant = core::VariantFromName(name);
  if (!variant) {
    std::fprintf(stderr, "  [%s] FAILED: unknown method\n", name.c_str());
    return result;
  }
  core::AltOptions options;
  options.budget = budget;
  options.seed = seed;
  options.variant = *variant;
  const std::string trace_dir = TraceDir();
  const std::string tag = SanitizeTag(g.name() + "_" + name);
  if (!trace_dir.empty()) {
    options.trace_path = trace_dir + "/" + tag + "_trace.json";
  }
  auto compiled = core::Compile(g, machine, options);
  if (!compiled.ok()) {
    std::fprintf(stderr, "  [%s] FAILED: %s\n", name.c_str(),
                 compiled.status().ToString().c_str());
    return result;
  }
  if (!trace_dir.empty()) {
    Status ws = WriteFile(trace_dir + "/" + tag + "_metrics.json", compiled->metrics.ToJson());
    if (!ws.ok()) {
      std::fprintf(stderr, "  [%s] metrics snapshot not written: %s\n", name.c_str(),
                   ws.ToString().c_str());
    }
  }
  result.latency_us = compiled->perf.latency_us;
  result.measurements = compiled->measurements_used;
  return result;
}

// Prints one row: workload name, per-method latency (ms) and normalized
// performance (best = 1.00).
inline void PrintRow(const std::string& workload, const std::vector<MethodResult>& results) {
  double best = 1e30;
  for (const auto& r : results) {
    if (r.latency_us > 0) {
      best = std::min(best, r.latency_us);
    }
  }
  std::printf("%-14s", workload.c_str());
  for (const auto& r : results) {
    if (r.latency_us <= 0) {
      std::printf(" | %-9s n/a      ", r.name.c_str());
    } else {
      std::printf(" | %-9s %8.3fms (%.2f)", r.name.c_str(), r.latency_us / 1e3,
                  best / r.latency_us);
    }
  }
  std::printf("\n");
  std::fflush(stdout);
}

inline void PrintHeader(const std::string& title) {
  std::printf("\n==============================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("==============================================================\n");
  std::fflush(stdout);
}

// Geometric-mean speedup of `method` over `baseline` across rows.
inline double GeoMeanSpeedup(const std::vector<std::vector<MethodResult>>& rows,
                             const std::string& method, const std::string& baseline) {
  double log_sum = 0.0;
  int n = 0;
  for (const auto& row : rows) {
    double m = -1, b = -1;
    for (const auto& r : row) {
      if (r.name == method) {
        m = r.latency_us;
      }
      if (r.name == baseline) {
        b = r.latency_us;
      }
    }
    if (m > 0 && b > 0) {
      log_sum += std::log(b / m);
      ++n;
    }
  }
  return n > 0 ? std::exp(log_sum / n) : 0.0;
}

}  // namespace alt::bench

#endif  // ALT_BENCH_HARNESS_H_
