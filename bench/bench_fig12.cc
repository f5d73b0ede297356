// Figure 12 (paper §7.3.2): layout propagation overhead on two subgraphs
// (padding → C2D 3x3 → C2D 1x1) comparing Ansor, ALT-FP (forward-propagate
// the first conv's output layout into the second), ALT-BP (backward: force
// the first conv's output to the second's preferred input layout), and ALT
// (tune both independently, inserting a conversion operator).
//
// Claims to reproduce: ALT beats ALT-FP and ALT-BP (independent per-op
// layouts win), and the conversion operator's cost is small relative to the
// convs.

#include <cstdio>

#include "bench/harness.h"

namespace alt {

struct Fig12Result {
  double total_us = -1.0;
  double conversion_us = 0.0;
};

Fig12Result RunVariant(core::AltVariant variant, const graph::Graph& g,
                       const sim::Machine& machine, int budget) {
  Fig12Result out;
  core::AltOptions options;
  options.budget = budget;
  options.seed = 5;
  options.variant = variant;
  auto compiled = core::Compile(g, machine, options);
  if (!compiled.ok()) {
    std::fprintf(stderr, "  [%s] FAILED: %s\n", core::VariantName(variant),
                 compiled.status().ToString().c_str());
    return out;
  }
  out.total_us = compiled->perf.latency_us;
  for (size_t i = 0; i < compiled->groups.size(); ++i) {
    const auto& anchor = compiled->graph.op(compiled->groups[i].anchor_op);
    if (anchor.kind == graph::OpKind::kLayoutConvert) {
      out.conversion_us += sim::EstimateProgram(compiled->programs[i], machine).latency_us;
    }
  }
  return out;
}

// ALT's total against another variant's: "wins" below 0.95x, "loses" above
// 1.05x, "ties" within ±5%.
const char* Verdict(double alt_total, double other_total) {
  if (alt_total <= 0 || other_total <= 0) {
    return "loses";  // a failed compile
  }
  if (alt_total < other_total * 0.95) {
    return "wins";
  }
  return alt_total > other_total * 1.05 ? "loses" : "ties";
}

void RunSubgraph(int index, const sim::Machine& machine) {
  graph::Graph g = graph::BuildFig12Subgraph(index);
  char title[128];
  std::snprintf(title, sizeof(title), "Fig. 12: subgraph#%d on %s", index,
                machine.name.c_str());
  bench::PrintHeader(title);
  const int kBudget = 160;
  double alt_total = -1, fp_total = -1, bp_total = -1;
  for (core::AltVariant variant :
       {core::AltVariant::kAnsor, core::AltVariant::kInheritProducer,
        core::AltVariant::kForceProducer, core::AltVariant::kFull}) {
    Fig12Result r = RunVariant(variant, g, machine, kBudget);
    std::printf("%-8s total %9.1f us", core::VariantName(variant), r.total_us);
    if (variant == core::AltVariant::kFull) {
      std::printf("   (conversion op: %.1f us)", r.conversion_us);
      alt_total = r.total_us;
    }
    if (variant == core::AltVariant::kInheritProducer) {
      fp_total = r.total_us;
    }
    if (variant == core::AltVariant::kForceProducer) {
      bp_total = r.total_us;
    }
    std::printf("\n");
    std::fflush(stdout);
  }
  std::printf("-> ALT (independent + conversion) vs FP/BP: %s / %s\n",
              Verdict(alt_total, fp_total), Verdict(alt_total, bp_total));
}

}  // namespace alt

int main() {
  alt::RunSubgraph(1, alt::sim::Machine::IntelCpu());
  alt::RunSubgraph(2, alt::sim::Machine::IntelCpu());
  alt::RunSubgraph(1, alt::sim::Machine::NvidiaGpu());
  alt::RunSubgraph(2, alt::sim::Machine::NvidiaGpu());
  return 0;
}
