#include "src/graph/layout_assignment.h"

#include <deque>

#include "src/support/logging.h"

namespace alt::graph {

StatusOr<std::vector<int64_t>> LayoutAssignment::PhysicalShape(const Graph& graph,
                                                               int tensor_id) const {
  std::vector<int64_t> shape = graph.tensor(tensor_id).shape;
  ALT_RETURN_IF_ERROR(Get(tensor_id).ApplyToShape(shape));
  return shape;
}

bool SameLayout(const layout::LayoutSeq& a, const layout::LayoutSeq& b,
                const std::vector<int64_t>& shape) {
  auto ra = layout::LayoutRelation::FromSeq(a, shape);
  auto rb = layout::LayoutRelation::FromSeq(b, shape);
  if (!ra.ok() || !rb.ok()) {
    return a.ToString() == b.ToString();  // inapplicable sequence: compare syntax
  }
  return ra->Fingerprint() == rb->Fingerprint();
}

PropagationResult PropagateOutputLayout(const Graph& graph, LayoutAssignment& assignment,
                                        int tensor_id, bool multi_hop, bool overwrite) {
  PropagationResult result;
  const layout::LayoutSeq& seq = assignment.Get(tensor_id);
  if (seq.empty()) {
    return result;
  }
  // Propagation is relation composition: an element-wise consumer computes
  // out[i] = f(in[i]) over canonical indices, so giving its output the
  // producer's layout relation R makes the consumer's physical relation
  // R ∘ Id — the loop nests reconstruct identically and fusion stays legal.
  auto rel = layout::LayoutRelation::FromSeq(seq, graph.tensor(tensor_id).shape);
  if (!rel.ok()) {
    return result;  // inapplicable to this shape: nothing to propagate
  }
  // Constraint 1 (Alg. 1 line 3): never duplicate data-expanding relations
  // across operators (overlapping unfold, pad, store_at — the non-trivial
  // advanced primitives).
  if (rel->ExpandsData()) {
    result.stopped_at_advanced = true;
    return result;
  }

  std::deque<int> queue{tensor_id};
  std::vector<bool> visited(graph.tensors().size(), false);
  visited[tensor_id] = true;
  while (!queue.empty()) {
    int src = queue.front();
    queue.pop_front();
    for (int consumer_id : graph.ConsumersOf(src)) {
      const Op& consumer = graph.op(consumer_id);
      // Constraint 2: stop at complex operators — each tunes its own layouts
      // independently (Alg. 1 line 10, no conversion inserted here).
      if (IsComplex(consumer.kind)) {
        result.stopped_at_complex = true;
        continue;
      }
      // Constraint 3: only element-wise consumers with identical shapes can
      // share the relation (its parameters are shape-dependent).
      if (!IsElementwise(consumer.kind)) {
        continue;
      }
      int out = consumer.output;
      if (graph.tensor(out).shape != graph.tensor(src).shape) {
        continue;
      }
      if (visited[out] || (!overwrite && assignment.Has(out))) {
        continue;  // already tuned or propagated
      }
      visited[out] = true;
      assignment.Set(out, rel->steps());
      result.forward_assigned.push_back(out);
      if (multi_hop) {
        queue.push_back(out);
      }
    }
  }
  return result;
}

InputSatisfaction RequestInputLayout(Graph& graph, LayoutAssignment& assignment, int consumer_op,
                                     int input_index, const layout::LayoutSeq& seq) {
  Op& consumer = graph.mutable_op(consumer_op);
  ALT_CHECK(input_index >= 0 && input_index < static_cast<int>(consumer.inputs.size()));
  int tensor_id = consumer.inputs[input_index];

  // Semantic comparison: an equivalent relation spelled differently must not
  // trigger a conversion (the inserted op would be a physical no-op).
  if (SameLayout(assignment.Get(tensor_id), seq, graph.tensor(tensor_id).shape)) {
    return InputSatisfaction::kAlreadySame;
  }

  // Weights and other constants: transform offline, zero runtime cost.
  if (graph.IsConstant(tensor_id)) {
    assignment.Set(tensor_id, seq);
    return InputSatisfaction::kOffline;
  }

  int producer_id = graph.ProducerOf(tensor_id);
  // A simple sole-consumer producer can be re-lowered to emit any requested
  // layout (Fig. 5b), even replacing a previously assigned one — its output
  // has no other reader whose expectations could break.
  bool producer_can_write =
      producer_id >= 0 && !IsComplex(graph.op(producer_id).kind) &&
      graph.op(producer_id).kind != OpKind::kLayoutConvert &&
      graph.ConsumersOf(tensor_id).size() == 1;
  if (producer_can_write) {
    // Fig. 5b: the simple producer (e.g. padding) emits the new layout
    // directly; its loop nest is reconstructed from this output layout.
    assignment.Set(tensor_id, seq);
    return InputSatisfaction::kProducerWrites;
  }

  // Fig. 5a: insert an explicit conversion operator.
  Op convert;
  convert.kind = OpKind::kLayoutConvert;
  convert.name = graph.tensor(tensor_id).name + "_cvt";
  convert.inputs = {tensor_id};
  int converted = graph.AddCustomOp(std::move(convert), graph.tensor(tensor_id).shape,
                                    graph.tensor(tensor_id).name + "_cvt");
  assignment.Set(converted, seq);
  graph.mutable_op(consumer_op).inputs[input_index] = converted;
  return InputSatisfaction::kConversionInserted;
}

std::vector<int> TopoOrder(const Graph& graph) {
  int n = static_cast<int>(graph.ops().size());
  std::vector<int> indegree(n, 0);
  for (const Op& op : graph.ops()) {
    // Count distinct produced input tensors (ConsumersOf reports a consumer
    // once per tensor even when an op reads the same tensor twice).
    std::vector<int> seen;
    for (int in : op.inputs) {
      if (graph.ProducerOf(in) < 0) {
        continue;
      }
      bool dup = false;
      for (int s : seen) {
        dup = dup || (s == in);
      }
      if (!dup) {
        seen.push_back(in);
        ++indegree[op.id];
      }
    }
  }
  std::deque<int> ready;
  for (int i = 0; i < n; ++i) {
    if (indegree[i] == 0) {
      ready.push_back(i);
    }
  }
  std::vector<int> order;
  order.reserve(n);
  while (!ready.empty()) {
    int id = ready.front();
    ready.pop_front();
    order.push_back(id);
    for (int consumer : graph.ConsumersOf(graph.op(id).output)) {
      if (--indegree[consumer] == 0) {
        ready.push_back(consumer);
      }
    }
  }
  ALT_CHECK_MSG(static_cast<int>(order.size()) == n, "graph has a cycle");
  return order;
}

}  // namespace alt::graph
