// Layout assignment and propagation (paper §4.2, Algorithm 1).
//
// A LayoutAssignment maps tensors to the primitive sequence describing their
// physical storage. The graph itself stays canonical; lowering consults this
// table to reconstruct loops (for outputs) and rewrite accesses (for inputs).
//
// Two propagation directions mirror the paper:
//   * RequestInputLayout — a complex operator asks for its input tensor in a
//     new layout. Constants are transformed offline; a simple producer is
//     re-lowered to write the new layout directly (Fig. 5b); otherwise a
//     conversion operator is inserted (Fig. 5a).
//   * PropagateOutputLayout — a tuned output layout is duplicated onto
//     element-wise consumer chains so their loop nests reconstruct
//     identically and fusion stays legal (Fig. 6 → Fig. 7).

#ifndef ALT_GRAPH_LAYOUT_ASSIGNMENT_H_
#define ALT_GRAPH_LAYOUT_ASSIGNMENT_H_

#include <unordered_map>
#include <vector>

#include "src/graph/graph.h"
#include "src/layout/primitive.h"
#include "src/layout/relation.h"

namespace alt::graph {

class LayoutAssignment {
 public:
  void Set(int tensor_id, layout::LayoutSeq seq) { seqs_[tensor_id] = std::move(seq); }

  bool Has(int tensor_id) const { return seqs_.count(tensor_id) > 0; }

  // Empty sequence when unassigned (canonical layout).
  const layout::LayoutSeq& Get(int tensor_id) const {
    static const layout::LayoutSeq kEmpty;
    auto it = seqs_.find(tensor_id);
    return it == seqs_.end() ? kEmpty : it->second;
  }

  StatusOr<std::vector<int64_t>> PhysicalShape(const Graph& graph, int tensor_id) const;

  // All assigned sequences (used e.g. to locate store_at hosts).
  const std::unordered_map<int, layout::LayoutSeq>& all() const { return seqs_; }

 private:
  std::unordered_map<int, layout::LayoutSeq> seqs_;
};

enum class InputSatisfaction {
  kAlreadySame,         // requested layout equals the current one
  kOffline,             // constant tensor: transformed at compile time
  kProducerWrites,      // simple producer re-lowered to emit the new layout
  kConversionInserted,  // explicit layout_convert op added to the graph
};

struct PropagationResult {
  std::vector<int> forward_assigned;  // tensors that received the layout
  bool stopped_at_complex = false;
  bool stopped_at_advanced = false;
};

// Algorithm 1 forward phase: propagates the layout already assigned to
// `tensor_id` across element-wise consumers with matching shapes. When
// `multi_hop` is false only direct fusion partners are skipped (the ALT-WP
// ablation of §7.2 disables this entirely). With `overwrite`, previously
// propagated layouts on the chain are replaced (used when a complex op's
// output layout is re-tuned after an earlier initialization pass).
PropagationResult PropagateOutputLayout(const Graph& graph, LayoutAssignment& assignment,
                                        int tensor_id, bool multi_hop = true,
                                        bool overwrite = false);

// Requests layout `seq` for input `input_index` of op `consumer_op`. May
// insert a layout_convert op; `graph` is mutated in that case and the
// consumer is rewired to the converted tensor.
InputSatisfaction RequestInputLayout(Graph& graph, LayoutAssignment& assignment, int consumer_op,
                                     int input_index, const layout::LayoutSeq& seq);

// Kahn topological order over op ids (needed once conversion ops are
// appended out of order).
std::vector<int> TopoOrder(const Graph& graph);

// Semantic equality over `shape`: equal normalized relation fingerprints
// (layout/relation.h), so differently-spelled sequences denoting the same
// layout compare equal and no-op conversions are never inserted for them.
// A sequence inapplicable to `shape` equals only its own spelling.
bool SameLayout(const layout::LayoutSeq& a, const layout::LayoutSeq& b,
                const std::vector<int64_t>& shape);

}  // namespace alt::graph

#endif  // ALT_GRAPH_LAYOUT_ASSIGNMENT_H_
