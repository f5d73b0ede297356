// Figure 1 (paper §2): C2D latency under NOHW / NHWO / HWON layouts and GMM
// latency under KN / NK / NKn layouts, each loop-tuned independently, on the
// Intel-CPU and NVIDIA-GPU machine profiles. The claim to reproduce: the best
// layout depends on the operator configuration and platform, and picking it
// well yields large average gains (paper: 55.9% / 87.2% for C2D, 20.6% /
// 24.8% for GMM).

#include <cmath>

#include "bench/harness.h"
#include "src/autotune/layout_templates.h"

namespace alt {

using graph::ConvConfig;
using graph::Graph;
using graph::LayoutAssignment;

double LoopTuneFixedLayout(const Graph& g, const LayoutAssignment& la,
                           const sim::Machine& machine, int budget, uint64_t seed) {
  core::AltOptions options;
  options.variant = core::AltVariant::kLoopOnly;
  options.budget = budget;
  options.seed = seed;
  autotune::TuningOptions tuning = core::ToTuningOptions(options, machine);
  tuning.initial_assignment = &la;  // loop-tune exactly this layout
  auto result = core::RunTuner(g, machine, options, tuning);
  if (!result.ok()) {
    std::fprintf(stderr, "  tuning failed: %s\n", result.status().ToString().c_str());
    return -1.0;
  }
  return result->perf.latency_us;
}

struct C2dCase {
  ConvConfig cfg;
  std::string name;
};

std::vector<C2dCase> C2dConfigs() {
  // Sampled from widely-used settings (ResNet / MobileNet / VGG shapes).
  std::vector<C2dCase> cases;
  auto add = [&](int64_t c, int64_t o, int64_t hw, int64_t k, int64_t s) {
    ConvConfig cfg;
    cfg.batch = 1;
    cfg.in_channels = c;
    cfg.out_channels = o;
    cfg.spatial[0] = cfg.spatial[1] = hw;
    cfg.kernel[0] = cfg.kernel[1] = k;
    cfg.stride = s;
    cfg.pad = 0;
    char buf[64];
    std::snprintf(buf, sizeof(buf), "C%ldxO%ldx%ld k%ld s%ld", c, o, hw, k, s);
    cases.push_back({cfg, buf});
  };
  add(3, 64, 112, 7, 2);
  add(16, 64, 56, 3, 1);
  add(64, 64, 56, 3, 1);
  add(64, 128, 28, 3, 2);
  add(128, 128, 28, 3, 1);
  add(256, 256, 14, 3, 1);
  add(512, 512, 7, 3, 1);
  add(32, 64, 56, 1, 1);
  return cases;
}

void RunC2d(const sim::Machine& machine) {
  bench::PrintHeader("Fig. 1 " + std::string(machine.gpu_like ? "(b)" : "(a)") +
                     ": C2D latency by layout on " + machine.name);
  std::vector<double> best_gain;
  for (const auto& c2d : C2dConfigs()) {
    Graph g = graph::BuildSingleConv(graph::OpKind::kConv2d, c2d.cfg);
    int conv_out = g.op(0).output;
    int data = g.op(0).inputs[0];

    std::vector<bench::MethodResult> row;
    for (const char* layout : {"NOHW", "NHWO", "HWON"}) {
      LayoutAssignment la;
      if (std::string(layout) == "NHWO") {
        la.Set(conv_out, autotune::ChannelsLast(2));
        la.Set(data, autotune::ChannelsLast(2));
      } else if (std::string(layout) == "HWON") {
        la.Set(conv_out, autotune::Hwon());
        la.Set(data, autotune::Hwon());
      }
      bench::MethodResult r;
      r.name = layout;
      r.latency_us = LoopTuneFixedLayout(g, la, machine, 60, 7);
      row.push_back(r);
    }
    bench::PrintRow(c2d.name, row);
    double worst = 0, best = 1e30;
    for (const auto& r : row) {
      if (r.latency_us > 0) {
        worst = std::max(worst, r.latency_us);
        best = std::min(best, r.latency_us);
      }
    }
    if (best < 1e30) {
      best_gain.push_back(worst / best - 1.0);
    }
  }
  double mean = 0;
  for (double v : best_gain) {
    mean += v;
  }
  std::printf("-> average best-vs-worst layout gain: %.1f%% (paper: %.1f%%)\n",
              100.0 * mean / best_gain.size(), machine.gpu_like ? 87.2 : 55.9);
}

void RunGmm(const sim::Machine& machine) {
  bench::PrintHeader("Fig. 1 " + std::string(machine.gpu_like ? "(d)" : "(c)") +
                     ": GMM latency by layout on " + machine.name);
  struct GmmCase {
    int64_t m, k, n;
  };
  std::vector<GmmCase> cases = {{128, 128, 128},   {256, 256, 256},  {512, 512, 512},
                                {1024, 1024, 1024}, {128, 768, 768},  {128, 768, 3072},
                                {512, 64, 512},     {2048, 2048, 2048}};
  for (const auto& gc : cases) {
    Graph g = graph::BuildSingleMatmul(gc.m, gc.k, gc.n);
    const graph::Op& op = g.op(0);
    std::vector<bench::MethodResult> row;
    for (const char* layout : {"KN", "NK", "NKn"}) {
      LayoutAssignment la;
      if (std::string(layout) == "NK") {
        la.Set(op.inputs[1], autotune::TransposedB());
      } else if (std::string(layout) == "NKn") {
        autotune::GmmLayoutParams params;
        params.mt = std::min<int64_t>(16, gc.m);
        params.nt = std::min<int64_t>(16, gc.n);
        params.kt = gc.k;  // paper NKn tiles M and N with 16, K untouched
        auto layouts = autotune::MakeGmmTemplates(g, op, params);
        if (layouts.ok()) {
          la.Set(op.output, layouts->c);
          la.Set(op.inputs[0], layouts->a);
          la.Set(op.inputs[1], layouts->b);
        }
      }
      bench::MethodResult r;
      r.name = layout;
      r.latency_us = LoopTuneFixedLayout(g, la, machine, 60, 11);
      row.push_back(r);
    }
    char name[64];
    std::snprintf(name, sizeof(name), "%ldx%ldx%ld", gc.m, gc.k, gc.n);
    bench::PrintRow(name, row);
  }
}

}  // namespace alt

int main() {
  alt::RunC2d(alt::sim::Machine::IntelCpu());
  alt::RunC2d(alt::sim::Machine::NvidiaGpu());
  alt::RunGmm(alt::sim::Machine::IntelCpu());
  alt::RunGmm(alt::sim::Machine::NvidiaGpu());
  return 0;
}
