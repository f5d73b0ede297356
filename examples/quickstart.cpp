// Quickstart: build a small convolution graph, transform its layouts by hand
// with ALT's primitive functions, lower it, execute it on the interpreter,
// validate against the reference, and estimate its cost on a machine profile.
//
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/example_quickstart

#include <cstdio>

#include "src/autotune/layout_templates.h"
#include "src/graph/layout_assignment.h"
#include "src/graph/networks.h"
#include "src/loop/lowering.h"
#include "src/runtime/session.h"
#include "src/sim/perf_model.h"

int main() {
  using namespace alt;

  // 1. A computational graph: pad -> conv2d -> bias -> relu.
  graph::Graph g("quickstart");
  int x = g.AddInput("data", {1, 16, 14, 14});
  graph::PadAttrs pad;
  pad.before = {0, 0, 1, 1};
  pad.after = {0, 0, 1, 1};
  int padded = g.AddPad(x, pad, "pad");
  int w = g.AddConstant("weight", {32, 16, 3, 3});
  graph::ConvAttrs attrs;
  int conv = g.AddConv(graph::OpKind::kConv2d, padded, w, attrs, "conv");
  int b = g.AddConstant("bias", {32});
  int biased = g.AddBiasAdd(conv, b, 1, "bias_add");
  g.AddRelu(biased, "relu");
  std::printf("%s\n", g.ToString().c_str());

  // 2. Assign layouts with primitive functions: the motivating §2 layout
  //    N H/ht W/wt O/ot ht wt ot with an overlap-unfolded input.
  const graph::Op& conv_op = g.op(g.ProducerOf(conv));
  autotune::ConvLayoutParams params;
  params.spatial_tiles = {7, 7};  // ht = wt = 7 (two tiles per spatial dim)
  params.out_tile = 8;
  params.in_tile = 4;
  params.w_in_tile = 4;
  params.w_out_tile = 8;
  auto layouts = autotune::MakeConvTemplates(g, conv_op, params);
  if (!layouts.ok()) {
    std::fprintf(stderr, "template failed: %s\n", layouts.status().ToString().c_str());
    return 1;
  }
  std::printf("output layout: %s\n", layouts->output.ToString().c_str());
  std::printf("input  layout: %s\n", layouts->input.ToString().c_str());
  std::printf("weight layout: %s\n\n", layouts->weight.ToString().c_str());

  graph::LayoutAssignment la;
  la.Set(conv, layouts->output);
  la.Set(w, layouts->weight);
  // The padding op is re-lowered to WRITE the unfolded layout directly
  // (Fig. 5b): no conversion operator needed.
  auto sat = graph::RequestInputLayout(g, la, conv_op.id, 0, layouts->input);
  std::printf("input layout satisfied by: %s\n",
              sat == graph::InputSatisfaction::kProducerWrites ? "producer re-lowering"
                                                               : "conversion op");
  // Propagate the output layout so bias/relu fuse into the conv loop nest.
  auto prop = graph::PropagateOutputLayout(g, la, conv);
  std::printf("layout propagated to %zu elementwise consumers\n\n",
              prop.forward_assigned.size());

  // 3. Lower and print the conv group's program.
  auto net = loop::LowerNetworkNaive(g, la, /*enable_fusion=*/true);
  if (!net.ok()) {
    std::fprintf(stderr, "lowering failed: %s\n", net.status().ToString().c_str());
    return 1;
  }
  for (const auto& program : net->programs) {
    if (program.name == "conv") {
      std::printf("%s\n", ir::ToString(program).c_str());
    }
  }

  // 4. Serve one request through an InferenceSession and compare against the
  // reference.
  auto session = runtime::InferenceSession::Create(g, la, *net);
  if (!session.ok()) {
    std::fprintf(stderr, "session creation failed: %s\n",
                 session.status().ToString().c_str());
    return 1;
  }
  Rng rng(1);
  runtime::TensorDataMap data;
  runtime::FillGraphInputs(g, rng, data);
  auto out = session->Run(data);
  if (!out.ok()) {
    std::fprintf(stderr, "execution failed: %s\n", out.status().ToString().c_str());
    return 1;
  }
  if (!runtime::ExecuteReference(g, data).ok()) {
    return 1;
  }
  std::printf("max |lowered - reference| = %.2e\n",
              runtime::MaxAbsDiff(*out, data[session->output_tensor()]));

  // 5. Estimate performance on a machine profile.
  auto perf = sim::EstimatePrograms(net->programs, sim::Machine::IntelCpu());
  std::printf("estimated latency on intel-cpu: %.1f us (%.0f flops, %.0f L1 misses)\n",
              perf.latency_us, perf.flops, perf.l1_misses);
  return 0;
}
