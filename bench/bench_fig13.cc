// Figure 13 (paper §7.3.3): parameter sensitivity — layout template depth vs
// budget. Compares two-level layout-tiling templates at the base budget,
// two-level at 1.5x budget, and one-level at the base budget (the default).
//
// Claims to reproduce: with the same budget, one-level templates beat
// two-level (bigger space, same budget); giving two-level more budget closes
// most of the gap (the space is a superset).

#include "bench/harness.h"

namespace alt {

double RunSetting(const graph::Graph& g, const sim::Machine& machine, bool two_level,
                  int budget) {
  core::AltOptions options;
  options.budget = budget;
  options.two_level_templates = two_level;
  options.seed = 23;
  autotune::TuningOptions tuning = core::ToTuningOptions(options, machine);
  // No seeded layout candidates: this experiment isolates the
  // template-space-size vs budget tradeoff.
  tuning.seed_layout_candidates = false;
  auto result = core::RunTuner(g, machine, options, tuning);
  if (!result.ok()) {
    std::fprintf(stderr, "  failed: %s\n", result.status().ToString().c_str());
    return -1.0;
  }
  return result->perf.latency_us;
}

void RunWorkload(const std::string& name, const graph::Graph& g, const sim::Machine& machine) {
  const int kBudget = 240;  // paper: 20,000 (and 30,000 for the bigger run)
  double two_base = RunSetting(g, machine, true, kBudget);
  double two_more = RunSetting(g, machine, true, kBudget * 3 / 2);
  double one_base = RunSetting(g, machine, false, kBudget);
  std::printf("%-14s | two-level(1x) %9.2f ms | two-level(1.5x) %9.2f ms | "
              "one-level(1x) %9.2f ms | one-level speedup vs two-level(1x): %.2fx\n",
              (name + "-" + machine.name).c_str(), two_base / 1e3, two_more / 1e3,
              one_base / 1e3, two_base / one_base);
  std::fflush(stdout);
}

}  // namespace alt

int main() {
  alt::bench::PrintHeader(
      "Fig. 13: layout template depth vs budget (paper: one-level at the base\n"
      "budget is ~15% faster than two-level; +50% budget recovers ~6%)");
  alt::RunWorkload("R18-b1", alt::graph::BuildResNet18(1), alt::sim::Machine::IntelCpu());
  alt::RunWorkload("MV2-b1", alt::graph::BuildMobileNetV2(1), alt::sim::Machine::IntelCpu());
  alt::RunWorkload("BB-b1", alt::graph::BuildBert(1, 768, 12), alt::sim::Machine::IntelCpu());
  alt::RunWorkload("R18-b1", alt::graph::BuildResNet18(1), alt::sim::Machine::NvidiaGpu());
  alt::RunWorkload("R3D-b1", alt::graph::BuildResNet3d18(1), alt::sim::Machine::NvidiaGpu());
  return 0;
}
