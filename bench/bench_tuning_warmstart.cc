// Tuning-database warm-start economics.
//
//   ./build/bench/bench_tuning_warmstart
//
// Three questions, answered on the same fixed-seed workload:
//
//   1. WRITE-THROUGH OVERHEAD — how much wall-clock does recording every
//      fresh measurement into the tuning database add to a cold run?
//      (Target: noise — one short CRC-framed append per measurement.)
//   2. WARM-START SPEED — how fast is re-running the tuner with every
//      measurement answered from the database instead of executed?
//   3. BIT-IDENTITY — the warm run must land on the identical tuned network
//      with ZERO fresh measurements. Exits non-zero if it does not: warm
//      start is a pure accelerator, never a different compiler.
//
// With ALT_TRACE_DIR set, writes warmstart_metrics.json there (the warm
// run's metrics snapshot — db_hits, measured, requested) for CI validation.

#include <chrono>
#include <cstdio>

#include "bench/harness.h"
#include "src/core/alt.h"
#include "src/support/fileio.h"

namespace alt {

namespace {

double MinOf(const std::vector<double>& v) {
  return *std::min_element(v.begin(), v.end());
}

core::AltOptions BenchOptions() {
  core::AltOptions options;
  options.budget = 300;
  options.seed = 11;
  options.method = autotune::SearchMethod::kPpoPretrained;
  return options;
}

template <typename Fn>
double TimeMs(const Fn& fn) {
  auto start = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

int Main() {
  bench::PrintHeader("Tuning database: write-through overhead and warm-start speed");

  graph::Graph g = graph::BuildResNetFirstLayer(1);
  const auto& machine = sim::Machine::IntelCpu();
  const std::string path = "/tmp/alt_bench_tuning_warmstart.altdb";
  core::AltOptions plain_options = BenchOptions();
  core::AltOptions db_options = BenchOptions();
  db_options.tuning_db = path;
  std::printf("workload: %s on %s, budget %d\n\n", g.name().c_str(), machine.name.c_str(),
              plain_options.budget);

  const int kReps = 5;
  std::vector<double> plain_ms, cold_ms, warm_ms;
  StatusOr<autotune::CompiledNetwork> plain = Status::Ok();
  StatusOr<autotune::CompiledNetwork> cold = Status::Ok();
  StatusOr<autotune::CompiledNetwork> warm = Status::Ok();
  for (int rep = 0; rep < kReps; ++rep) {
    plain_ms.push_back(TimeMs([&] { plain = core::Compile(g, machine, plain_options); }));
    RemoveFile(path);
    cold_ms.push_back(TimeMs([&] { cold = core::Compile(g, machine, db_options); }));
    // The database is now fully populated: the warm run must answer every
    // measurement from disk.
    warm_ms.push_back(TimeMs([&] { warm = core::Compile(g, machine, db_options); }));
  }
  if (!plain.ok() || !cold.ok() || !warm.ok()) {
    std::fprintf(stderr, "tuning failed: %s\n",
                 (!plain.ok()  ? plain.status()
                  : !cold.ok() ? cold.status()
                               : warm.status())
                     .ToString()
                     .c_str());
    return 1;
  }

  const double plain_med = MinOf(plain_ms);
  const double cold_med = MinOf(cold_ms);
  const double warm_med = MinOf(warm_ms);
  const double overhead_pct = (cold_med / plain_med - 1.0) * 100.0;

  std::printf("%-22s %10s %12s %10s %10s\n", "mode", "wall_ms", "tuned_us", "measured",
              "db_hits");
  std::printf("%-22s %10.1f %12.1f %10lld %10lld\n", "plain (no database)", plain_med,
              plain->perf.latency_us, static_cast<long long>(plain->measure_stats.measured),
              static_cast<long long>(plain->measure_stats.db_hits));
  std::printf("%-22s %10.1f %12.1f %10lld %10lld\n", "cold (write-through)", cold_med,
              cold->perf.latency_us, static_cast<long long>(cold->measure_stats.measured),
              static_cast<long long>(cold->measure_stats.db_hits));
  std::printf("%-22s %10.1f %12.1f %10lld %10lld\n", "warm (db answers)", warm_med,
              warm->perf.latency_us, static_cast<long long>(warm->measure_stats.measured),
              static_cast<long long>(warm->measure_stats.db_hits));
  std::printf("\nwrite-through overhead: %+.2f%% (min of %d)   warm-start speedup: %.2fx\n",
              overhead_pct, kReps, warm_med > 0 ? plain_med / warm_med : 0.0);

  // Bit-identity gate: all three runs are the same trajectory, and the warm
  // run measured nothing.
  bool same = plain->perf.latency_us == cold->perf.latency_us &&
              plain->perf.latency_us == warm->perf.latency_us &&
              plain->measurements_used == cold->measurements_used &&
              plain->measurements_used == warm->measurements_used &&
              plain->history_us.size() == warm->history_us.size();
  if (!same) {
    std::fprintf(stderr,
                 "DETERMINISM VIOLATION: plain %.3f us/%d, cold %.3f us/%d, "
                 "warm %.3f us/%d\n",
                 plain->perf.latency_us, plain->measurements_used, cold->perf.latency_us,
                 cold->measurements_used, warm->perf.latency_us, warm->measurements_used);
    return 1;
  }
  if (warm->measure_stats.measured != 0) {
    std::fprintf(stderr, "warm start re-measured %lld candidates; expected zero\n",
                 static_cast<long long>(warm->measure_stats.measured));
    return 1;
  }
  if (warm->measure_stats.db_hits <= 0) {
    std::fprintf(stderr, "warm start reported no database hits\n");
    return 1;
  }
  std::printf("bit-identity: plain == cold == warm (%.1f us, %d measurements, %lld db hits)\n",
              plain->perf.latency_us, plain->measurements_used,
              static_cast<long long>(warm->measure_stats.db_hits));

  const std::string trace_dir = bench::TraceDir();
  if (!trace_dir.empty()) {
    const std::string out = trace_dir + "/warmstart_metrics.json";
    Status ws = WriteFile(out, warm->metrics.ToJson());
    if (!ws.ok()) {
      std::fprintf(stderr, "metrics artifact not written: %s\n", ws.ToString().c_str());
    } else {
      std::printf("metrics artifact written to %s\n", out.c_str());
    }
  }
  RemoveFile(path);
  return 0;
}

}  // namespace alt

int main() { return alt::Main(); }
