// Shared by the tests that check a lowered network against the canonical
// reference executor (runtime/reference.h) on seeded random inputs: either
// the served network output, or every group's output on its own.

#ifndef ALT_TESTS_REFERENCE_CHECK_H_
#define ALT_TESTS_REFERENCE_CHECK_H_

#include <cstdint>
#include <vector>

#include "src/graph/layout_assignment.h"
#include "src/loop/lowering.h"
#include "src/runtime/interpreter.h"
#include "src/runtime/session.h"
#include "src/support/rng.h"

namespace alt::testutil {

// Serves inputs drawn from `seed` through a fresh session over `net` and
// diffs the output against the reference on the same inputs.
inline StatusOr<double> ServedDiffVsReference(const graph::Graph& graph,
                                              const graph::LayoutAssignment& assignment,
                                              const loop::LoweredNetwork& net, uint64_t seed) {
  auto session = runtime::InferenceSession::Create(graph, assignment, net);
  if (!session.ok()) {
    return session.status();
  }
  Rng rng(seed);
  runtime::TensorDataMap data;
  runtime::FillGraphInputs(graph, rng, data);
  auto served = session->Run(data);
  if (!served.ok()) {
    return served.status();
  }
  ALT_RETURN_IF_ERROR(runtime::ExecuteReference(graph, data));
  return runtime::MaxAbsDiff(*served, data[session->output_tensor()]);
}

// Lowers `graph` naively under `assignment`, then ServedDiffVsReference.
inline StatusOr<double> LoweredDiffVsReference(const graph::Graph& graph,
                                               const graph::LayoutAssignment& assignment,
                                               uint64_t seed, bool enable_fusion = true) {
  auto net = loop::LowerNetworkNaive(graph, assignment, enable_fusion);
  if (!net.ok()) {
    return net.status();
  }
  return ServedDiffVsReference(graph, assignment, *net, seed);
}

// Runs the programs of `net` in order on one BufferStore fed the inputs
// drawn from `seed`, and returns per group the max |diff| between its output
// tensor, canonicalized, and the reference's. Unlike a served-output check
// this sees groups whose results never reach the network output. Networks
// with store_at layouts are not supported.
inline StatusOr<std::vector<double>> GroupDiffsVsReference(
    const graph::Graph& graph, const graph::LayoutAssignment& assignment,
    const loop::LoweredNetwork& net, uint64_t seed) {
  Rng rng(seed);
  runtime::TensorDataMap data;
  runtime::FillGraphInputs(graph, rng, data);
  runtime::BufferStore store;
  for (const auto& t : graph.tensors()) {
    if (!graph.IsGraphInput(t.id) && !graph.IsConstant(t.id)) {
      continue;
    }
    auto physical = runtime::Physicalize(data[t.id], t.shape, assignment.Get(t.id));
    if (!physical.ok()) {
      return physical.status();
    }
    store.Get(t.id) = std::move(*physical);
  }
  ALT_RETURN_IF_ERROR(runtime::ExecuteReference(graph, data));
  std::vector<double> diffs;
  for (size_t i = 0; i < net.programs.size(); ++i) {
    ALT_RETURN_IF_ERROR(runtime::Execute(net.programs[i], store));
    const int out = net.groups[i].OutputTensor(graph);
    auto canonical =
        runtime::Canonicalize(store.Get(out), graph.tensor(out).shape, assignment.Get(out));
    if (!canonical.ok()) {
      return canonical.status();
    }
    diffs.push_back(runtime::MaxAbsDiff(*canonical, data[out]));
  }
  return diffs;
}

}  // namespace alt::testutil

#endif  // ALT_TESTS_REFERENCE_CHECK_H_
