// Shared by the tests that check a served network against the canonical
// reference executor (runtime/reference.h): seeded random inputs are served
// through an InferenceSession and through the reference, and the max |diff|
// of the network output is returned.

#ifndef ALT_TESTS_REFERENCE_CHECK_H_
#define ALT_TESTS_REFERENCE_CHECK_H_

#include <cstdint>

#include "src/graph/layout_assignment.h"
#include "src/loop/lowering.h"
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

}  // namespace alt::testutil

#endif  // ALT_TESTS_REFERENCE_CHECK_H_
