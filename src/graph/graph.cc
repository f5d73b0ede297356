#include "src/graph/graph.h"

#include <sstream>

namespace alt::graph {

int Graph::AddTensor(const std::string& name, std::vector<int64_t> shape, bool is_const) {
  ir::Tensor t;
  t.id = static_cast<int>(tensors_.size());
  t.name = name.empty() ? ("t" + std::to_string(t.id)) : name;
  t.shape = std::move(shape);
  tensors_.push_back(std::move(t));
  producer_.push_back(-1);
  is_const_.push_back(is_const);
  return tensors_.back().id;
}

int Graph::AddOpNode(Op op, std::vector<int64_t> output_shape, const std::string& tensor_name) {
  op.id = static_cast<int>(ops_.size());
  if (op.name.empty()) {
    op.name = std::string(OpKindName(op.kind)) + "_" + std::to_string(op.id);
  }
  std::string out_name = tensor_name.empty() ? (op.name + "_out") : tensor_name;
  int out = AddTensor(out_name, std::move(output_shape), /*is_const=*/false);
  op.output = out;
  producer_[out] = op.id;
  ops_.push_back(std::move(op));
  return out;
}

int Graph::AddInput(const std::string& name, std::vector<int64_t> shape) {
  return AddTensor(name, std::move(shape), /*is_const=*/false);
}

int Graph::AddConstant(const std::string& name, std::vector<int64_t> shape) {
  return AddTensor(name, std::move(shape), /*is_const=*/true);
}

namespace {

int64_t ConvOutExtent(int64_t in, int64_t kernel, int64_t stride, int64_t dilation, int64_t pad) {
  return (in + 2 * pad - dilation * (kernel - 1) - 1) / stride + 1;
}

int64_t TransposedConvOutExtent(int64_t in, int64_t kernel, int64_t stride, int64_t pad,
                                int64_t out_pad) {
  return (in - 1) * stride - 2 * pad + kernel + out_pad;
}

}  // namespace

int Graph::AddConv(OpKind kind, int data, int weight, const ConvAttrs& attrs,
                   const std::string& name) {
  const auto& in_shape = tensors_[data].shape;
  const auto& w_shape = tensors_[weight].shape;
  int sd = attrs.spatial_dims;
  ALT_CHECK_MSG(static_cast<int>(in_shape.size()) == 2 + sd, "conv data rank mismatch");
  ALT_CHECK_MSG(static_cast<int>(w_shape.size()) == 2 + sd, "conv weight rank mismatch");

  int64_t n = in_shape[0];
  int64_t c = in_shape[1];
  bool transposed = (kind == OpKind::kTransposedConv2d || kind == OpKind::kTransposedConv3d);
  // Weight canonical: forward O, C/g, K...; transposed C, O/g, K...
  int64_t o = transposed ? w_shape[1] * attrs.groups : w_shape[0];
  ALT_CHECK_MSG(transposed ? (w_shape[0] == c) : (w_shape[1] * attrs.groups == c),
                "conv channel mismatch");

  std::vector<int64_t> out_shape{n, o};
  for (int d = 0; d < sd; ++d) {
    int64_t in_extent = in_shape[2 + d];
    int64_t kernel = w_shape[2 + d];
    int64_t extent =
        transposed
            ? TransposedConvOutExtent(in_extent, kernel, attrs.stride[d], attrs.pad[d],
                                      attrs.output_pad[d])
            : ConvOutExtent(in_extent, kernel, attrs.stride[d], attrs.dilation[d], attrs.pad[d]);
    ALT_CHECK_MSG(extent > 0, "conv output extent <= 0");
    out_shape.push_back(extent);
  }

  Op op;
  op.kind = kind;
  op.name = name;
  op.inputs = {data, weight};
  op.conv = attrs;
  return AddOpNode(std::move(op), std::move(out_shape), "");
}

int Graph::AddMatmul(int a, int b, const std::string& name) {
  const auto& sa = tensors_[a].shape;
  const auto& sb = tensors_[b].shape;
  ALT_CHECK(sa.size() == 2 && sb.size() == 2);
  ALT_CHECK_MSG(sa[1] == sb[0], "matmul inner-dim mismatch");
  Op op;
  op.kind = OpKind::kMatmul;
  op.name = name;
  op.inputs = {a, b};
  return AddOpNode(std::move(op), {sa[0], sb[1]}, "");
}

int Graph::AddPad(int input, PadAttrs attrs, const std::string& name) {
  const auto& in_shape = tensors_[input].shape;
  ALT_CHECK(attrs.before.size() == in_shape.size() && attrs.after.size() == in_shape.size());
  std::vector<int64_t> out_shape = in_shape;
  for (size_t d = 0; d < out_shape.size(); ++d) {
    out_shape[d] += attrs.before[d] + attrs.after[d];
  }
  Op op;
  op.kind = OpKind::kPad;
  op.name = name;
  op.inputs = {input};
  op.pad = std::move(attrs);
  return AddOpNode(std::move(op), std::move(out_shape), "");
}

int Graph::AddElementwise(OpKind kind, int input, const std::string& name) {
  Op op;
  op.kind = kind;
  op.name = name;
  op.inputs = {input};
  return AddOpNode(std::move(op), tensors_[input].shape, "");
}

int Graph::AddBiasAdd(int input, int bias, int axis, const std::string& name) {
  ALT_CHECK(tensors_[bias].shape.size() == 1);
  ALT_CHECK(tensors_[bias].shape[0] == tensors_[input].shape[axis]);
  Op op;
  op.kind = OpKind::kBiasAdd;
  op.name = name;
  op.inputs = {input, bias};
  op.bias_axis = axis;
  return AddOpNode(std::move(op), tensors_[input].shape, "");
}

int Graph::AddRelu(int input, const std::string& name) {
  return AddElementwise(OpKind::kRelu, input, name);
}

int Graph::AddGelu(int input, const std::string& name) {
  return AddElementwise(OpKind::kGelu, input, name);
}

int Graph::AddAdd(int a, int b, const std::string& name) {
  ALT_CHECK(tensors_[a].shape == tensors_[b].shape);
  Op op;
  op.kind = OpKind::kAddTensors;
  op.name = name;
  op.inputs = {a, b};
  return AddOpNode(std::move(op), tensors_[a].shape, "");
}

int Graph::AddMulScalar(int input, double scalar, const std::string& name) {
  Op op;
  op.kind = OpKind::kMulScalar;
  op.name = name;
  op.inputs = {input};
  op.scalar = scalar;
  return AddOpNode(std::move(op), tensors_[input].shape, "");
}

namespace {
std::vector<int64_t> PoolOutShape(const std::vector<int64_t>& in, const PoolAttrs& attrs) {
  ALT_CHECK(in.size() == 4);
  if (attrs.global) {
    return {in[0], in[1], 1, 1};
  }
  std::vector<int64_t> out = in;
  for (int d = 0; d < 2; ++d) {
    out[2 + d] = (in[2 + d] + 2 * attrs.pad[d] - attrs.window[d]) / attrs.stride[d] + 1;
  }
  return out;
}
}  // namespace

int Graph::AddMaxPool2d(int input, const PoolAttrs& attrs, const std::string& name) {
  Op op;
  op.kind = OpKind::kMaxPool2d;
  op.name = name;
  op.inputs = {input};
  op.pool = attrs;
  return AddOpNode(std::move(op), PoolOutShape(tensors_[input].shape, attrs), "");
}

int Graph::AddAvgPool2d(int input, const PoolAttrs& attrs, const std::string& name) {
  Op op;
  op.kind = OpKind::kAvgPool2d;
  op.name = name;
  op.inputs = {input};
  op.pool = attrs;
  return AddOpNode(std::move(op), PoolOutShape(tensors_[input].shape, attrs), "");
}

int Graph::AddSoftmax(int input, const std::string& name) {
  Op op;
  op.kind = OpKind::kSoftmax;
  op.name = name;
  op.inputs = {input};
  return AddOpNode(std::move(op), tensors_[input].shape, "");
}

int Graph::AddReshape(int input, std::vector<int64_t> shape, const std::string& name) {
  int64_t n = 1;
  for (int64_t d : shape) {
    n *= d;
  }
  ALT_CHECK_MSG(n == tensors_[input].NumElements(), "reshape element-count mismatch");
  Op op;
  op.kind = OpKind::kReshape;
  op.name = name;
  op.inputs = {input};
  return AddOpNode(std::move(op), std::move(shape), "");
}

int Graph::AddLayerNorm(int input, const std::string& name) {
  Op op;
  op.kind = OpKind::kLayerNorm;
  op.name = name;
  op.inputs = {input};
  return AddOpNode(std::move(op), tensors_[input].shape, "");
}

int Graph::AddCustomOp(Op op, std::vector<int64_t> output_shape, const std::string& tensor_name) {
  return AddOpNode(std::move(op), std::move(output_shape), tensor_name);
}

StatusOr<Graph> Graph::FromParts(std::string name, std::vector<ir::Tensor> tensors,
                                 std::vector<Op> ops, std::vector<bool> is_const) {
  const int num_tensors = static_cast<int>(tensors.size());
  if (is_const.size() != tensors.size()) {
    return Status::InvalidArgument("graph parts: is_const/tensor count mismatch");
  }
  std::vector<int> producer(tensors.size(), -1);
  for (int i = 0; i < num_tensors; ++i) {
    if (tensors[i].id != i) {
      return Status::InvalidArgument("graph parts: non-contiguous tensor ids");
    }
    for (int64_t d : tensors[i].shape) {
      if (d <= 0) {
        return Status::InvalidArgument("graph parts: non-positive extent in tensor " +
                                       tensors[i].name);
      }
    }
  }
  for (size_t i = 0; i < ops.size(); ++i) {
    Op& op = ops[i];
    if (op.id != static_cast<int>(i)) {
      return Status::InvalidArgument("graph parts: non-contiguous op ids");
    }
    if (op.output < 0 || op.output >= num_tensors) {
      return Status::InvalidArgument("graph parts: op output out of range");
    }
    if (producer[op.output] >= 0) {
      return Status::InvalidArgument("graph parts: tensor produced twice");
    }
    if (is_const[op.output]) {
      return Status::InvalidArgument("graph parts: constant tensor has a producer");
    }
    producer[op.output] = op.id;
    for (int in : op.inputs) {
      if (in < 0 || in >= num_tensors) {
        return Status::InvalidArgument("graph parts: op input out of range");
      }
    }
  }
  Graph g(std::move(name));
  g.tensors_ = std::move(tensors);
  g.ops_ = std::move(ops);
  g.producer_ = std::move(producer);
  g.is_const_.assign(is_const.begin(), is_const.end());
  return g;
}

std::vector<int> Graph::ConsumersOf(int tensor_id) const {
  std::vector<int> out;
  for (const auto& op : ops_) {
    for (int in : op.inputs) {
      if (in == tensor_id) {
        out.push_back(op.id);
        break;
      }
    }
  }
  return out;
}

std::vector<int> Graph::ComplexOps() const {
  std::vector<int> out;
  for (const auto& op : ops_) {
    if (IsComplex(op.kind)) {
      out.push_back(op.id);
    }
  }
  return out;
}

std::string Graph::ToString() const {
  std::ostringstream oss;
  oss << "graph " << name_ << " {\n";
  for (const auto& op : ops_) {
    oss << "  %" << op.output << " = " << OpKindName(op.kind) << "(";
    for (size_t i = 0; i < op.inputs.size(); ++i) {
      if (i > 0) {
        oss << ", ";
      }
      oss << "%" << op.inputs[i];
    }
    oss << ")  // " << op.name << " " << ir::ShapeToString(tensors_[op.output].shape) << "\n";
  }
  oss << "}\n";
  return oss.str();
}

}  // namespace alt::graph
