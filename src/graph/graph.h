// Computational graph: operators as nodes, tensors as edges (paper §2).
//
// Tensor shapes here are CANONICAL (logical) shapes — conv data is N,C,H,W,
// weights are O,I,KH,KW, matmul operands are M,K / K,N. Physical storage
// layouts are primitive sequences kept in a LayoutAssignment side table
// (layout_assignment.h); the graph itself never changes when layouts do,
// which is exactly the decoupling the paper argues for.

#ifndef ALT_GRAPH_GRAPH_H_
#define ALT_GRAPH_GRAPH_H_

#include <string>
#include <vector>

#include "src/graph/op.h"
#include "src/ir/tensor.h"
#include "src/support/status.h"

namespace alt::graph {

class Graph {
 public:
  Graph() = default;
  explicit Graph(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }

  // --- construction (shape inference is built into each helper) ---

  int AddInput(const std::string& name, std::vector<int64_t> shape);
  int AddConstant(const std::string& name, std::vector<int64_t> shape);

  // data: N,C,W|H,W|D,H,W. weight: O, C/groups, K... Returns output tensor id.
  int AddConv(OpKind kind, int data, int weight, const ConvAttrs& attrs,
              const std::string& name = "");
  int AddMatmul(int a, int b, const std::string& name = "");

  int AddPad(int input, PadAttrs attrs, const std::string& name = "");
  int AddBiasAdd(int input, int bias, int axis = 1, const std::string& name = "");
  int AddRelu(int input, const std::string& name = "");
  int AddGelu(int input, const std::string& name = "");
  int AddAdd(int a, int b, const std::string& name = "");
  int AddMulScalar(int input, double scalar, const std::string& name = "");
  int AddMaxPool2d(int input, const PoolAttrs& attrs, const std::string& name = "");
  int AddAvgPool2d(int input, const PoolAttrs& attrs, const std::string& name = "");
  int AddSoftmax(int input, const std::string& name = "");
  int AddReshape(int input, std::vector<int64_t> shape, const std::string& name = "");
  int AddLayerNorm(int input, const std::string& name = "");

  // Inserts `op` consuming existing tensors; output shape given explicitly.
  // Used by layout propagation to insert conversion operators.
  int AddCustomOp(Op op, std::vector<int64_t> output_shape, const std::string& tensor_name);

  // Restores a graph from previously serialized parts (artifact loading).
  // Unlike the Add* helpers this performs no shape inference — a tuned graph
  // contains inserted conversion ops whose inputs may reference later tensor
  // ids, so it cannot be rebuilt by replaying construction. All structural
  // invariants (contiguous ids, in-range references, positive extents, one
  // producer per tensor) are validated with Status, never aborts: the parts
  // come from untrusted files.
  static StatusOr<Graph> FromParts(std::string name, std::vector<ir::Tensor> tensors,
                                   std::vector<Op> ops, std::vector<bool> is_const);

  // --- access ---

  const std::vector<Op>& ops() const { return ops_; }
  const std::vector<ir::Tensor>& tensors() const { return tensors_; }
  const ir::Tensor& tensor(int id) const { return tensors_[id]; }
  const Op& op(int id) const { return ops_[id]; }
  Op& mutable_op(int id) { return ops_[id]; }

  // Producer op id of a tensor, or -1 for graph inputs/constants.
  int ProducerOf(int tensor_id) const { return producer_[tensor_id]; }
  // Ops consuming a tensor.
  std::vector<int> ConsumersOf(int tensor_id) const;

  // Ids of complex ops in topological (insertion) order.
  std::vector<int> ComplexOps() const;

  bool IsGraphInput(int tensor_id) const {
    return producer_[tensor_id] < 0 && !is_const_[tensor_id];
  }
  bool IsConstant(int tensor_id) const { return is_const_[tensor_id]; }

  std::string ToString() const;

 private:
  int AddTensor(const std::string& name, std::vector<int64_t> shape, bool is_const);
  int AddOpNode(Op op, std::vector<int64_t> output_shape, const std::string& tensor_name);
  int AddElementwise(OpKind kind, int input, const std::string& name);

  std::string name_;
  std::vector<ir::Tensor> tensors_;
  std::vector<Op> ops_;
  std::vector<int> producer_;    // tensor id -> op id or -1
  std::vector<bool> is_const_;   // tensor id -> constant weight?
};

}  // namespace alt::graph

#endif  // ALT_GRAPH_GRAPH_H_
