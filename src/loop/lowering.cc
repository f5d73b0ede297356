#include "src/loop/lowering.h"

#include <algorithm>
#include <limits>
#include <optional>
#include <unordered_map>
#include <unordered_set>

#include "src/ir/eval.h"
#include "src/layout/relation.h"
#include "src/support/logging.h"

namespace alt::loop {

using graph::Graph;
using graph::LayoutAssignment;
using graph::Op;
using graph::OpKind;
using ir::Expr;
using ir::Stmt;
using ir::Val;

namespace {

// ---------------------------------------------------------------------------
// Anchor bodies: the canonical semantics of each operator.
// ---------------------------------------------------------------------------

enum class Combine { kNone, kSum, kMax };

struct AnchorBody {
  std::vector<Expr> spatial_vars;        // canonical output dims, in order
  std::vector<int64_t> spatial_extents;  // canonical output shape
  std::vector<Expr> reduction_vars;
  std::vector<int64_t> reduction_extents;
  Val update;  // per-reduction-point value, canonical loads
  Combine combine = Combine::kNone;
  double init_value = 0.0;
  double finalize_scale = 1.0;  // e.g. 1/window for average pooling
  // Per input-tensor window patterns (parallel to that tensor's canonical
  // rank) enabling the Eq. (1) unfold rewrite.
  std::unordered_map<int, std::vector<std::optional<layout::WindowPattern>>> patterns;
};

std::vector<Expr> MakeDimVars(const std::vector<int64_t>& shape, const char* prefix) {
  std::vector<Expr> vars;
  for (size_t d = 0; d < shape.size(); ++d) {
    vars.push_back(ir::MakeVar(std::string(prefix) + std::to_string(d)));
  }
  return vars;
}

StatusOr<AnchorBody> BuildConvBody(const Graph& g, const Op& op) {
  bool transposed =
      (op.kind == OpKind::kTransposedConv2d || op.kind == OpKind::kTransposedConv3d);
  const auto& attrs = op.conv;
  int sd = attrs.spatial_dims;
  int data = op.inputs[0];
  int weight = op.inputs[1];
  const auto& in_shape = g.tensor(data).shape;
  const auto& w_shape = g.tensor(weight).shape;
  const auto& out_shape = g.tensor(op.output).shape;

  if (!transposed) {
    for (int d = 0; d < sd; ++d) {
      if (attrs.pad[d] != 0) {
        return Status::FailedPrecondition(
            "forward convolutions must take explicitly padded inputs (insert a pad op)");
      }
    }
  }

  AnchorBody body;
  body.spatial_extents = out_shape;
  body.spatial_vars = MakeDimVars(out_shape, "s");
  body.combine = Combine::kSum;
  body.init_value = 0.0;

  int64_t out_channels = out_shape[1];
  int64_t cpg = transposed ? w_shape[1] : w_shape[1];  // channels per group (weight dim 1)
  int64_t opg = out_channels / attrs.groups;           // out channels per group

  // Reduction vars: input-channel (within group) then kernel dims.
  int64_t red_channels = transposed ? in_shape[1] / attrs.groups : cpg;
  body.reduction_extents.push_back(red_channels);
  for (int d = 0; d < sd; ++d) {
    body.reduction_extents.push_back(w_shape[2 + d]);
  }
  body.reduction_vars = MakeDimVars(body.reduction_extents, "r");

  Expr n = body.spatial_vars[0];
  Expr o = body.spatial_vars[1];
  Expr ri = body.reduction_vars[0];
  // Group index of the output channel; input channels offset accordingly.
  Expr group = attrs.groups > 1 ? ir::FloorDiv(o, opg) : ir::Const(0);

  if (!transposed) {
    Expr in_channel = attrs.groups > 1 ? ir::Add(ir::Mul(group, red_channels), ri) : ri;
    std::vector<Expr> in_idx{n, in_channel};
    std::vector<std::optional<layout::WindowPattern>> pats(2 + sd);
    for (int d = 0; d < sd; ++d) {
      Expr s = body.spatial_vars[2 + d];
      Expr r = body.reduction_vars[1 + d];
      Expr pos = ir::Add(ir::Mul(s, attrs.stride[d]), ir::Mul(r, attrs.dilation[d]));
      in_idx.push_back(pos);
      layout::WindowPattern wp;
      wp.base = s;
      wp.stride = attrs.stride[d];
      wp.window = ir::Mul(r, attrs.dilation[d]);
      wp.window_size = attrs.dilation[d] * (w_shape[2 + d] - 1) + 1;
      pats[2 + d] = wp;
    }
    std::vector<Expr> w_idx{o, ri};
    for (int d = 0; d < sd; ++d) {
      w_idx.push_back(body.reduction_vars[1 + d]);
    }
    body.update = ir::VMul(ir::Load(data, in_idx), ir::Load(weight, w_idx));
    body.patterns[data] = pats;
  } else {
    // Gather form: out[n,o,x...] += in[n,c,(x + pad - r)/V] * w[c,o_in_g,r...]
    // guarded by range and divisibility.
    std::vector<Expr> in_idx{n, attrs.groups > 1 ? ir::Add(ir::Mul(group, red_channels), ri) : ri};
    std::vector<ir::IntervalCond> conds;
    for (int d = 0; d < sd; ++d) {
      Expr s = body.spatial_vars[2 + d];
      Expr r = body.reduction_vars[1 + d];
      Expr e = ir::Sub(ir::Add(s, attrs.pad[d]), r);
      ir::IntervalCond cond;
      cond.expr = e;
      cond.lo = 0;
      cond.hi = (in_shape[2 + d] - 1) * attrs.stride[d] + 1;
      cond.modulus = attrs.stride[d];
      cond.rem = 0;
      conds.push_back(cond);
      in_idx.push_back(ir::FloorDiv(e, attrs.stride[d]));
    }
    std::vector<Expr> w_idx{ir::Add(ir::Mul(group, red_channels), ri), ir::Mod(o, opg)};
    for (int d = 0; d < sd; ++d) {
      w_idx.push_back(body.reduction_vars[1 + d]);
    }
    Val prod = ir::VMul(ir::Load(data, in_idx), ir::Load(weight, w_idx));
    body.update = ir::Select(std::move(conds), prod, ir::Imm(0.0));
  }
  return body;
}

StatusOr<AnchorBody> BuildMatmulBody(const Graph& g, const Op& op) {
  const auto& sa = g.tensor(op.inputs[0]).shape;
  AnchorBody body;
  body.spatial_extents = g.tensor(op.output).shape;
  body.spatial_vars = MakeDimVars(body.spatial_extents, "s");
  body.reduction_extents = {sa[1]};
  body.reduction_vars = MakeDimVars(body.reduction_extents, "r");
  body.combine = Combine::kSum;
  Expr m = body.spatial_vars[0];
  Expr nn = body.spatial_vars[1];
  Expr k = body.reduction_vars[0];
  body.update = ir::VMul(ir::Load(op.inputs[0], {m, k}), ir::Load(op.inputs[1], {k, nn}));
  return body;
}

StatusOr<AnchorBody> BuildPoolBody(const Graph& g, const Op& op) {
  const auto& attrs = op.pool;
  const auto& in_shape = g.tensor(op.inputs[0]).shape;
  AnchorBody body;
  body.spatial_extents = g.tensor(op.output).shape;
  body.spatial_vars = MakeDimVars(body.spatial_extents, "s");
  int64_t wh = attrs.global ? in_shape[2] : attrs.window[0];
  int64_t ww = attrs.global ? in_shape[3] : attrs.window[1];
  body.reduction_extents = {wh, ww};
  body.reduction_vars = MakeDimVars(body.reduction_extents, "r");
  if (!attrs.global && (attrs.pad[0] != 0 || attrs.pad[1] != 0)) {
    return Status::FailedPrecondition("pooling must take explicitly padded inputs");
  }
  Expr n = body.spatial_vars[0];
  Expr c = body.spatial_vars[1];
  Expr h = attrs.global ? body.reduction_vars[0]
                        : ir::Add(ir::Mul(body.spatial_vars[2], attrs.stride[0]),
                                  body.reduction_vars[0]);
  Expr w = attrs.global ? body.reduction_vars[1]
                        : ir::Add(ir::Mul(body.spatial_vars[3], attrs.stride[1]),
                                  body.reduction_vars[1]);
  body.update = ir::Load(op.inputs[0], {n, c, h, w});
  std::vector<std::optional<layout::WindowPattern>> pats(4);
  if (!attrs.global) {
    pats[2] = layout::WindowPattern{body.spatial_vars[2], attrs.stride[0],
                                    body.reduction_vars[0], attrs.window[0]};
    pats[3] = layout::WindowPattern{body.spatial_vars[3], attrs.stride[1],
                                    body.reduction_vars[1], attrs.window[1]};
  }
  body.patterns[op.inputs[0]] = pats;
  if (op.kind == OpKind::kMaxPool2d) {
    body.combine = Combine::kMax;
    body.init_value = -std::numeric_limits<double>::infinity();
  } else {
    body.combine = Combine::kSum;
    body.init_value = 0.0;
    body.finalize_scale = 1.0 / static_cast<double>(wh * ww);
  }
  return body;
}

// Element-wise value given the loaded input value(s) at canonical indices.
// Used both for stand-alone simple anchors and fused consumers.
StatusOr<Val> ElementwiseValue(const Graph& g, const Op& op, const Val& main_input,
                               const std::vector<Expr>& canonical_idx) {
  switch (op.kind) {
    case OpKind::kRelu:
      return ir::VMax(main_input, ir::Imm(0.0));
    case OpKind::kGelu: {
      // 0.5 x (1 + tanh(sqrt(2/pi) (x + 0.044715 x^3))).
      Val x = main_input;
      Val x3 = ir::VMul(x, ir::VMul(x, x));
      Val inner = ir::VMul(ir::Imm(0.7978845608028654),
                           ir::VAdd(x, ir::VMul(ir::Imm(0.044715), x3)));
      return ir::VMul(ir::VMul(ir::Imm(0.5), x), ir::VAdd(ir::Imm(1.0), ir::VTanh(inner)));
    }
    case OpKind::kMulScalar:
      return ir::VMul(main_input, ir::Imm(op.scalar));
    case OpKind::kIdentity:
      return main_input;
    case OpKind::kBiasAdd: {
      Val bias = ir::Load(op.inputs[1], {canonical_idx[op.bias_axis]});
      return ir::VAdd(main_input, bias);
    }
    case OpKind::kAddTensors: {
      Val other = ir::Load(op.inputs[1], canonical_idx);
      return ir::VAdd(main_input, other);
    }
    default:
      return Status::Unimplemented(std::string("elementwise value for ") +
                                   graph::OpKindName(op.kind));
  }
}

StatusOr<AnchorBody> BuildSimpleBody(const Graph& g, const Op& op) {
  AnchorBody body;
  body.spatial_extents = g.tensor(op.output).shape;
  body.spatial_vars = MakeDimVars(body.spatial_extents, "s");
  switch (op.kind) {
    case OpKind::kPad: {
      const auto& in_shape = g.tensor(op.inputs[0]).shape;
      std::vector<Expr> in_idx;
      std::vector<ir::IntervalCond> conds;
      for (size_t d = 0; d < in_shape.size(); ++d) {
        Expr e = ir::Sub(body.spatial_vars[d], op.pad.before[d]);
        in_idx.push_back(e);
        if (op.pad.before[d] != 0 || op.pad.after[d] != 0) {
          conds.push_back(ir::IntervalCond{e, 0, in_shape[d], 1, 0});
        }
      }
      Val load = ir::Load(op.inputs[0], in_idx);
      body.update = conds.empty() ? load : ir::Select(std::move(conds), load, ir::Imm(0.0));
      return body;
    }
    case OpKind::kReshape: {
      const auto& in_shape = g.tensor(op.inputs[0]).shape;
      // Linearize output indices row-major, then delinearize into the input.
      Expr linear = ir::Const(0);
      for (size_t d = 0; d < body.spatial_extents.size(); ++d) {
        linear = ir::Add(ir::Mul(linear, body.spatial_extents[d]), body.spatial_vars[d]);
      }
      std::vector<Expr> in_idx(in_shape.size());
      Expr rem = linear;
      for (int d = static_cast<int>(in_shape.size()) - 1; d >= 0; --d) {
        in_idx[d] = ir::Mod(rem, in_shape[d]);
        rem = ir::FloorDiv(rem, in_shape[d]);
      }
      body.update = ir::Load(op.inputs[0], in_idx);
      return body;
    }
    case OpKind::kLayoutConvert: {
      body.update = ir::Load(op.inputs[0], body.spatial_vars);
      return body;
    }
    default: {
      Val main_input = ir::Load(op.inputs[0], body.spatial_vars);
      auto value = ElementwiseValue(g, op, main_input, body.spatial_vars);
      if (!value.ok()) {
        return value.status();
      }
      body.update = *value;
      return body;
    }
  }
}

StatusOr<AnchorBody> BuildAnchorBody(const Graph& g, const Op& op) {
  switch (op.kind) {
    case OpKind::kConv1d:
    case OpKind::kConv2d:
    case OpKind::kConv3d:
    case OpKind::kTransposedConv2d:
    case OpKind::kTransposedConv3d:
      return BuildConvBody(g, op);
    case OpKind::kMatmul:
      return BuildMatmulBody(g, op);
    case OpKind::kMaxPool2d:
    case OpKind::kAvgPool2d:
      return BuildPoolBody(g, op);
    case OpKind::kInput:
      return Status::InvalidArgument("cannot lower an input placeholder");
    case OpKind::kSoftmax:
    case OpKind::kLayerNorm:
      return Status::Internal("softmax/layernorm use the row-op lowering path");
    default:
      return BuildSimpleBody(g, op);
  }
}

bool IsRowOp(OpKind kind) { return kind == OpKind::kSoftmax || kind == OpKind::kLayerNorm; }

// ---------------------------------------------------------------------------
// Group partitioning.
// ---------------------------------------------------------------------------

bool CanFuse(const Graph& g, const LayoutAssignment& assignment, int producer_tensor,
             const Op& consumer) {
  if (!graph::IsElementwise(consumer.kind)) {
    return false;
  }
  if (consumer.inputs.empty() || consumer.inputs[0] != producer_tensor) {
    return false;  // fuse only along the main data input
  }
  if (g.ConsumersOf(producer_tensor).size() != 1) {
    return false;
  }
  if (g.tensor(consumer.output).shape != g.tensor(producer_tensor).shape) {
    return false;
  }
  // The fusion-conflict rule (§4.2): loop nests align only when the physical
  // layouts coincide — compared semantically, so equivalent spellings of one
  // relation still fuse.
  return graph::SameLayout(assignment.Get(producer_tensor), assignment.Get(consumer.output),
                           g.tensor(producer_tensor).shape);
}

}  // namespace

std::vector<FusedGroup> PartitionGraph(const Graph& graph, const LayoutAssignment& assignment,
                                       bool enable_fusion) {
  std::vector<FusedGroup> groups;
  std::unordered_set<int> consumed;  // op ids already part of a group
  for (int op_id : graph::TopoOrder(graph)) {
    if (consumed.count(op_id)) {
      continue;
    }
    const Op& op = graph.op(op_id);
    if (op.kind == OpKind::kInput) {
      continue;
    }
    FusedGroup group;
    group.anchor_op = op_id;
    consumed.insert(op_id);
    if (enable_fusion && !IsRowOp(op.kind)) {
      int tail = op.output;
      for (;;) {
        auto consumers = graph.ConsumersOf(tail);
        if (consumers.size() != 1) {
          break;
        }
        const Op& next = graph.op(consumers[0]);
        if (!CanFuse(graph, assignment, tail, next)) {
          break;
        }
        group.fused_ops.push_back(next.id);
        consumed.insert(next.id);
        tail = next.output;
      }
    }
    groups.push_back(std::move(group));
  }
  return groups;
}

StatusOr<LoopNestSignature> GroupSignature(const Graph& graph,
                                           const LayoutAssignment& assignment,
                                           const FusedGroup& group) {
  const Op& anchor = graph.op(group.anchor_op);
  LoopNestSignature sig;
  auto phys = assignment.PhysicalShape(graph, anchor.output);
  if (!phys.ok()) {
    return phys.status();
  }
  sig.spatial_extents = *phys;
  if (IsRowOp(anchor.kind)) {
    return sig;  // fixed lowering, no tiling knobs
  }
  auto body = BuildAnchorBody(graph, anchor);
  if (!body.ok()) {
    return body.status();
  }
  sig.reduction_extents = body->reduction_extents;
  return sig;
}

namespace {

// ---------------------------------------------------------------------------
// Scheduled emission.
// ---------------------------------------------------------------------------

struct AxisVars {
  Expr outer, mid, inner, vec;
  Expr combined;  // physical index expression
};

Stmt WrapLoops(Stmt body, const std::vector<std::pair<Expr, int64_t>>& loops,
               ir::ForKind kind = ir::ForKind::kSerial) {
  for (int i = static_cast<int>(loops.size()) - 1; i >= 0; --i) {
    if (loops[i].second == 1) {
      continue;  // omit unit loops for readability
    }
    body = ir::MakeFor(loops[i].first, loops[i].second, kind, body);
  }
  return body;
}

std::vector<int> RotatedOrder(int n, int rotation) {
  std::vector<int> order(n);
  for (int i = 0; i < n; ++i) {
    order[i] = (i + rotation % std::max(n, 1) + n) % std::max(n, 1);
  }
  return order;
}

}  // namespace

StatusOr<ir::Program> LowerGroup(const Graph& graph, const LayoutAssignment& assignment,
                                 const FusedGroup& group, const LoopSchedule& schedule) {
  const Op& anchor = graph.op(group.anchor_op);
  if (IsRowOp(anchor.kind)) {
    return LowerGroupNaive(graph, assignment, group);  // row ops ignore schedules
  }
  auto body_or = BuildAnchorBody(graph, anchor);
  if (!body_or.ok()) {
    return body_or.status();
  }
  AnchorBody body = std::move(*body_or);

  const layout::LayoutSeq& out_seq = assignment.Get(anchor.output);
  auto phys_or = assignment.PhysicalShape(graph, anchor.output);
  if (!phys_or.ok()) {
    return phys_or.status();
  }
  std::vector<int64_t> phys_shape = *phys_or;

  // --- validate schedule against signature ---
  if (schedule.spatial.size() != phys_shape.size() ||
      schedule.reduction.size() != body.reduction_extents.size()) {
    return Status::InvalidArgument("schedule axis count mismatch");
  }
  for (size_t j = 0; j < phys_shape.size(); ++j) {
    const auto& a = schedule.spatial[j];
    // Sign check before the product check: a pair of negative factors can
    // multiply to the right extent yet lower to a negative loop bound.
    if (a.outer < 1 || a.mid < 1 || a.inner < 1 || a.vec < 1) {
      return Status::InvalidArgument("spatial tile factors must be >= 1");
    }
    if (a.outer * a.mid * a.inner * a.vec != phys_shape[j]) {
      return Status::InvalidArgument("spatial tile factors do not multiply to extent");
    }
  }
  for (size_t k = 0; k < body.reduction_extents.size(); ++k) {
    const auto& a = schedule.reduction[k];
    if (a.outer < 1 || a.inner < 1) {
      return Status::InvalidArgument("reduction tile factors must be >= 1");
    }
    if (a.outer * a.inner != body.reduction_extents[k]) {
      return Status::InvalidArgument("reduction tile factors do not multiply to extent");
    }
  }

  // --- create loop vars and physical index expressions ---
  int ns = static_cast<int>(phys_shape.size());
  int nr = static_cast<int>(body.reduction_extents.size());
  std::vector<AxisVars> axes(ns);
  std::vector<Expr> phys_idx(ns);
  for (int j = 0; j < ns; ++j) {
    const auto& a = schedule.spatial[j];
    std::string base = "l" + std::to_string(j);
    axes[j].outer = ir::MakeVar(base + "o");
    axes[j].mid = ir::MakeVar(base + "m");
    axes[j].inner = ir::MakeVar(base + "i");
    axes[j].vec = ir::MakeVar(base + "v");
    Expr e = axes[j].outer;
    e = ir::Add(ir::Mul(e, a.mid), axes[j].mid);
    e = ir::Add(ir::Mul(e, a.inner), axes[j].inner);
    e = ir::Add(ir::Mul(e, a.vec), axes[j].vec);
    // Unit loops are omitted during emission, so zero their vars out here.
    std::unordered_map<int, Expr> zero;
    if (a.outer == 1) zero[axes[j].outer->var_id] = ir::Const(0);
    if (a.mid == 1) zero[axes[j].mid->var_id] = ir::Const(0);
    if (a.inner == 1) zero[axes[j].inner->var_id] = ir::Const(0);
    if (a.vec == 1) zero[axes[j].vec->var_id] = ir::Const(0);
    phys_idx[j] = ir::Substitute(e, zero);
    axes[j].combined = phys_idx[j];
  }
  std::vector<Expr> red_outer(nr), red_inner(nr), red_idx(nr);
  for (int k = 0; k < nr; ++k) {
    const auto& a = schedule.reduction[k];
    red_outer[k] = ir::MakeVar("ro" + std::to_string(k));
    red_inner[k] = ir::MakeVar("ri" + std::to_string(k));
    Expr e = ir::Add(ir::Mul(red_outer[k], a.inner), red_inner[k]);
    std::unordered_map<int, Expr> zero;
    if (a.outer == 1) zero[red_outer[k]->var_id] = ir::Const(0);
    if (a.inner == 1) zero[red_inner[k]->var_id] = ir::Const(0);
    red_idx[k] = ir::Substitute(e, zero);
  }

  // --- canonical indices via the inverse relation (S_Y^{-1}) ---
  std::vector<Expr> canonical;
  if (out_seq.empty()) {
    canonical = phys_idx;
  } else {
    auto out_rel = layout::LayoutRelation::FromSeq(out_seq, body.spatial_extents);
    if (!out_rel.ok()) {
      return out_rel.status();
    }
    auto inv = out_rel->MapInverse(phys_idx);
    if (!inv.ok()) {
      return inv.status();
    }
    canonical = *inv;
  }

  // Substitution: canonical spatial var -> canonical expr; reduction var ->
  // tiled reduction expr.
  std::unordered_map<int, Expr> subst;
  for (size_t d = 0; d < body.spatial_vars.size(); ++d) {
    subst[body.spatial_vars[d]->var_id] = canonical[d];
  }
  for (int k = 0; k < nr; ++k) {
    subst[body.reduction_vars[k]->var_id] = red_idx[k];
  }

  // store_at hosting (layout::HostedStoreAt): loads of a tensor another
  // tensor hosts are redirected into the host's appended slice at index
  // extent_dim. Returns the host tensor id or -1.
  auto store_at_host = [&](int src_tensor, int* dim_out, int64_t* index_out) -> int {
    for (const auto& [host_id, seq] : assignment.all()) {
      const layout::Primitive* store = layout::HostedStoreAt(seq);
      if (store == nullptr || store->store_src_tensor != src_tensor) {
        continue;
      }
      *dim_out = store->dim;
      *index_out = graph.tensor(host_id).shape[store->dim];
      return host_id;
    }
    return -1;
  };

  // --- rewrite a canonical-load value into physical space ---
  // `skip_tensor`: leave loads of this tensor untouched (already physical).
  auto rewrite_value = [&](const Val& v, int skip_tensor = -1) -> StatusOr<Val> {
    // 1. substitute loop vars; 2. per-tensor layout rewrite of load indices.
    Val out = ir::SubstituteVal(v, subst);
    Status failed = Status::Ok();
    for (int tid : ir::CollectLoadTensors(out)) {
      if (tid == skip_tensor) {
        continue;
      }
      int host_dim = 0;
      int64_t host_index = 0;
      int host = store_at_host(tid, &host_dim, &host_index);
      if (host >= 0) {
        out = ir::RewriteLoadsOfTensor(out, tid,
                                       [&](const std::vector<Expr>& idx) -> std::vector<Expr> {
                                         std::vector<Expr> extended = idx;
                                         extended.insert(extended.begin() + host_dim,
                                                         ir::Const(host_index));
                                         return extended;
                                       });
        // Retarget the load to the host tensor.
        struct Retarget {
          static Val Apply(const Val& v, int from, int to) {
            auto node = std::make_shared<ir::ValNode>(*v);
            if (v->kind == ir::ValKind::kLoad && v->tensor_id == from) {
              node->tensor_id = to;
              return node;
            }
            if (v->a) {
              node->a = Apply(v->a, from, to);
            }
            if (v->b) {
              node->b = Apply(v->b, from, to);
            }
            return node;
          }
        };
        out = Retarget::Apply(out, tid, host);
        continue;
      }
      const layout::LayoutSeq& seq = assignment.Get(tid);
      if (seq.empty()) {
        continue;
      }
      // Window patterns, with loop-var substitution applied to their exprs.
      std::vector<std::optional<layout::WindowPattern>> pats;
      auto it = body.patterns.find(tid);
      if (it != body.patterns.end()) {
        pats = it->second;
        for (auto& p : pats) {
          if (p.has_value()) {
            p->base = ir::Substitute(p->base, subst);
            p->window = ir::Substitute(p->window, subst);
          }
        }
      }
      auto rel = layout::LayoutRelation::FromSeq(seq, graph.tensor(tid).shape);
      if (!rel.ok()) {
        return rel.status();
      }
      out = ir::RewriteLoadsOfTensor(out, tid,
                                     [&](const std::vector<Expr>& idx) -> std::vector<Expr> {
                                       auto mapped = rel->MapRead(idx, pats);
                                       if (!mapped.ok()) {
                                         failed = mapped.status();
                                         return idx;
                                       }
                                       return *mapped;
                                     });
    }
    if (!failed.ok()) {
      return failed;
    }
    return out;
  };

  // kLayoutConvert with a padding/unfold output layout can reconstruct
  // canonical indices outside the tensor: guard them.
  bool guard_canonical = (anchor.kind == OpKind::kLayoutConvert && !out_seq.empty());
  Val update = body.update;
  if (guard_canonical) {
    std::vector<ir::IntervalCond> conds;
    for (size_t d = 0; d < body.spatial_extents.size(); ++d) {
      conds.push_back(ir::IntervalCond{body.spatial_vars[d], 0, body.spatial_extents[d], 1, 0});
    }
    update = ir::Select(std::move(conds), update, ir::Imm(0.0));
  }
  auto update_or = rewrite_value(update);
  if (!update_or.ok()) {
    return update_or.status();
  }
  update = *update_or;

  // --- assemble loop nest ---
  bool has_reduction = body.combine != Combine::kNone;
  auto inner_order = RotatedOrder(ns, schedule.inner_order_rotation);

  auto spatial_loops = [&](const Stmt& innermost) -> Stmt {
    // inner loops in rotated order, vec innermost.
    std::vector<std::pair<Expr, int64_t>> vec_loops;
    for (int j = 0; j < ns; ++j) {
      if (schedule.spatial[j].vec > 1) {
        vec_loops.push_back({axes[j].vec, schedule.spatial[j].vec});
      }
    }
    Stmt s = innermost;
    for (auto it = vec_loops.rbegin(); it != vec_loops.rend(); ++it) {
      s = ir::MakeFor(it->first, it->second, ir::ForKind::kVectorized, s);
    }
    std::vector<std::pair<Expr, int64_t>> loops;
    for (int j : inner_order) {
      loops.push_back({axes[j].inner, schedule.spatial[j].inner});
    }
    return WrapLoops(s, loops);
  };

  std::vector<Stmt> tile_body;

  int out_id = anchor.output;
  if (has_reduction) {
    // init nest
    Stmt init = ir::MakeStore(out_id, phys_idx, ir::Imm(body.init_value));
    tile_body.push_back(spatial_loops(init));
    // reduction nest
    Stmt store;
    if (body.combine == Combine::kSum) {
      store = ir::MakeStore(out_id, phys_idx, update, ir::StoreMode::kAccumulate);
    } else {
      store = ir::MakeStore(out_id, phys_idx, ir::VMax(ir::Load(out_id, phys_idx), update));
    }
    // inner reduction loops (unrolled if requested)
    Stmt s = store;
    for (int k = nr - 1; k >= 0; --k) {
      if (schedule.reduction[k].inner > 1) {
        s = ir::MakeFor(red_inner[k], schedule.reduction[k].inner,
                        schedule.unroll_inner_reduction ? ir::ForKind::kUnrolled
                                                        : ir::ForKind::kSerial,
                        s);
      }
    }
    s = spatial_loops(s);
    std::vector<std::pair<Expr, int64_t>> ro_loops;
    for (int k = 0; k < nr; ++k) {
      ro_loops.push_back({red_outer[k], schedule.reduction[k].outer});
    }
    tile_body.push_back(WrapLoops(s, ro_loops));
  }

  // finalize / element-wise nest
  std::vector<Stmt> finalize_stores;
  Val carried = ir::Load(out_id, phys_idx);
  if (body.finalize_scale != 1.0) {
    finalize_stores.push_back(
        ir::MakeStore(out_id, phys_idx, ir::VMul(carried, ir::Imm(body.finalize_scale))));
    carried = ir::Load(out_id, phys_idx);
  }
  if (!has_reduction) {
    // anchor itself is the element-wise store
    finalize_stores.push_back(ir::MakeStore(out_id, phys_idx, update));
    carried = ir::Load(out_id, phys_idx);
  }
  int prev_tensor = out_id;
  for (int fused_id : group.fused_ops) {
    const Op& fop = graph.op(fused_id);
    Val incoming = ir::Load(prev_tensor, phys_idx);
    auto value = ElementwiseValue(graph, fop, incoming, body.spatial_vars);
    if (!value.ok()) {
      return value.status();
    }
    // The main input is already physical; rewrite only side inputs.
    auto rewritten = rewrite_value(*value, /*skip_tensor=*/prev_tensor);
    if (!rewritten.ok()) {
      return rewritten.status();
    }
    finalize_stores.push_back(ir::MakeStore(fop.output, phys_idx, *rewritten));
    prev_tensor = fop.output;
  }
  if (!finalize_stores.empty()) {
    tile_body.push_back(spatial_loops(ir::MakeBlock(std::move(finalize_stores))));
  }

  Stmt tile = ir::MakeBlock(std::move(tile_body));

  // mid loops then outer loops (parallel on the leading ones).
  std::vector<std::pair<Expr, int64_t>> mid_loops;
  for (int j = 0; j < ns; ++j) {
    mid_loops.push_back({axes[j].mid, schedule.spatial[j].mid});
  }
  Stmt s = WrapLoops(tile, mid_loops);
  for (int j = ns - 1; j >= 0; --j) {
    if (schedule.spatial[j].outer == 1) {
      continue;
    }
    ir::ForKind kind =
        j < schedule.parallel_axes ? ir::ForKind::kParallel : ir::ForKind::kSerial;
    s = ir::MakeFor(axes[j].outer, schedule.spatial[j].outer, kind, s);
  }

  // --- buffers ---
  ir::Program program;
  program.name = anchor.name;
  program.root = s;
  int final_out = group.OutputTensor(graph);

  auto add_buffer = [&](int tid, ir::BufferRole role) -> Status {
    if (program.FindBuffer(tid) != nullptr) {
      return Status::Ok();
    }
    auto shape = assignment.PhysicalShape(graph, tid);
    if (!shape.ok()) {
      return shape.status();
    }
    ir::BufferDecl decl;
    decl.tensor = graph.tensor(tid);
    decl.tensor.shape = *shape;
    decl.role = role;
    program.buffers.push_back(std::move(decl));
    return Status::Ok();
  };

  // Collect loads from the final statement tree.
  std::vector<int> loaded;
  {
    std::vector<const ir::StmtNode*> work{program.root.get()};
    while (!work.empty()) {
      const ir::StmtNode* node = work.back();
      work.pop_back();
      switch (node->kind) {
        case ir::StmtKind::kFor:
          work.push_back(node->body.get());
          break;
        case ir::StmtKind::kBlock:
          for (const auto& child : node->stmts) {
            work.push_back(child.get());
          }
          break;
        case ir::StmtKind::kStore:
          for (int tid : ir::CollectLoadTensors(node->value)) {
            loaded.push_back(tid);
          }
          break;
      }
    }
  }
  for (int tid : loaded) {
    if (tid == final_out) {
      continue;
    }
    int producer = graph.ProducerOf(tid);
    bool inside_group = (producer == group.anchor_op);
    for (int f : group.fused_ops) {
      inside_group = inside_group || producer == f;
    }
    ir::BufferRole role = inside_group ? ir::BufferRole::kIntermediate
                          : graph.IsConstant(tid) ? ir::BufferRole::kConstant
                                                  : ir::BufferRole::kInput;
    ALT_RETURN_IF_ERROR(add_buffer(tid, role));
  }
  // Intermediates written by the group.
  ALT_RETURN_IF_ERROR(add_buffer(anchor.output, anchor.output == final_out
                                                    ? ir::BufferRole::kOutput
                                                    : ir::BufferRole::kIntermediate));
  for (int f : group.fused_ops) {
    int t = graph.op(f).output;
    ALT_RETURN_IF_ERROR(
        add_buffer(t, t == final_out ? ir::BufferRole::kOutput : ir::BufferRole::kIntermediate));
  }
  return program;
}

namespace {

// Softmax / LayerNorm over the last canonical dim: fixed two-buffer lowering.
// The loops walk canonical (row, column) coordinates and map every input and
// output access through that tensor's layout relation. A non-bijective
// output layout would leave physical elements unwritten: it is refused.
StatusOr<ir::Program> LowerRowOp(const Graph& graph, const LayoutAssignment& assignment,
                                 const FusedGroup& group) {
  const Op& op = graph.op(group.anchor_op);
  const auto& shape = graph.tensor(op.output).shape;
  int64_t cols = shape.back();
  int64_t rows = 1;
  for (size_t d = 0; d + 1 < shape.size(); ++d) {
    rows *= shape[d];
  }
  int in_id = op.inputs[0];
  int out_id = op.output;
  auto in_rel = layout::LayoutRelation::FromSeq(assignment.Get(in_id), graph.tensor(in_id).shape);
  if (!in_rel.ok()) {
    return in_rel.status();
  }
  auto out_rel = layout::LayoutRelation::FromSeq(assignment.Get(out_id), shape);
  if (!out_rel.ok()) {
    return out_rel.status();
  }
  if (!out_rel->IsBijective()) {
    return Status::FailedPrecondition(op.name + ": the output layout of a row op must be a "
                                      "bijection, got " + assignment.Get(out_id).ToString());
  }

  ir::Program program;
  program.name = op.name;

  // Temp row-statistic buffers get ids beyond the graph tensors.
  int stat_a = static_cast<int>(graph.tensors().size()) + group.anchor_op * 2;
  int stat_b = stat_a + 1;

  Expr m = ir::MakeVar("m");
  Expr c = ir::MakeVar("c");
  Expr c2 = ir::MakeVar("c2");
  Expr c3 = ir::MakeVar("c3");

  // Physical index of canonical element (row, col) of tensor `tid`; the
  // leading dims are the flattened row.
  Status failed = Status::Ok();
  auto at = [&](int tid, const Expr& row, const Expr& col) {
    std::vector<Expr> idx(shape.size());
    Expr rem = row;
    for (int d = static_cast<int>(shape.size()) - 2; d >= 0; --d) {
      idx[d] = ir::Mod(rem, shape[d]);
      rem = ir::FloorDiv(rem, shape[d]);
    }
    idx[shape.size() - 1] = col;
    if (assignment.Get(tid).empty()) {
      return idx;
    }
    auto mapped = (tid == in_id ? *in_rel : *out_rel).MapRead(idx);
    if (!mapped.ok()) {
      failed = mapped.status();
      return idx;
    }
    return *mapped;
  };
  auto in = [&](const Expr& col) { return ir::Load(in_id, at(in_id, m, col)); };
  auto out_idx = [&](const Expr& col) { return at(out_id, m, col); };

  std::vector<Stmt> body;
  if (op.kind == OpKind::kSoftmax) {
    body.push_back(ir::MakeStore(stat_a, {m}, ir::Imm(-1e30)));
    body.push_back(ir::MakeFor(
        c, cols, ir::ForKind::kSerial,
        ir::MakeStore(stat_a, {m}, ir::VMax(ir::Load(stat_a, {m}), in(c)))));
    body.push_back(ir::MakeStore(stat_b, {m}, ir::Imm(0.0)));
    body.push_back(ir::MakeFor(
        c2, cols, ir::ForKind::kSerial,
        ir::MakeBlock(
            {ir::MakeStore(out_id, out_idx(c2), ir::VExp(ir::VSub(in(c2), ir::Load(stat_a, {m})))),
             ir::MakeStore(stat_b, {m}, ir::Load(out_id, out_idx(c2)),
                           ir::StoreMode::kAccumulate)})));
    body.push_back(ir::MakeFor(
        c3, cols, ir::ForKind::kVectorized,
        ir::MakeStore(out_id, out_idx(c3),
                      ir::VDiv(ir::Load(out_id, out_idx(c3)), ir::Load(stat_b, {m})))));
  } else {  // LayerNorm (no affine params)
    body.push_back(ir::MakeStore(stat_a, {m}, ir::Imm(0.0)));
    body.push_back(ir::MakeFor(
        c, cols, ir::ForKind::kSerial,
        ir::MakeStore(stat_a, {m}, in(c), ir::StoreMode::kAccumulate)));
    body.push_back(
        ir::MakeStore(stat_a, {m}, ir::VMul(ir::Load(stat_a, {m}), ir::Imm(1.0 / cols))));
    body.push_back(ir::MakeStore(stat_b, {m}, ir::Imm(0.0)));
    body.push_back(ir::MakeFor(
        c2, cols, ir::ForKind::kSerial,
        ir::MakeStore(stat_b, {m},
                      ir::VMul(ir::VSub(in(c2), ir::Load(stat_a, {m})),
                               ir::VSub(in(c2), ir::Load(stat_a, {m}))),
                      ir::StoreMode::kAccumulate)));
    body.push_back(
        ir::MakeStore(stat_b, {m}, ir::VMul(ir::Load(stat_b, {m}), ir::Imm(1.0 / cols))));
    body.push_back(ir::MakeFor(
        c3, cols, ir::ForKind::kVectorized,
        ir::MakeStore(out_id, out_idx(c3),
                      ir::VDiv(ir::VSub(in(c3), ir::Load(stat_a, {m})),
                               ir::VSqrt(ir::VAdd(ir::Load(stat_b, {m}), ir::Imm(1e-5)))))));
  }
  if (!failed.ok()) {
    return failed;
  }

  program.root = ir::MakeFor(m, rows, ir::ForKind::kParallel, ir::MakeBlock(std::move(body)));

  ir::BufferDecl in_decl;
  in_decl.tensor = graph.tensor(in_id);
  in_decl.tensor.shape = in_rel->physical_shape();
  in_decl.role = ir::BufferRole::kInput;
  program.buffers.push_back(in_decl);
  ir::BufferDecl out_decl;
  out_decl.tensor = graph.tensor(out_id);
  out_decl.tensor.shape = out_rel->physical_shape();
  out_decl.role = ir::BufferRole::kOutput;
  program.buffers.push_back(out_decl);
  ir::BufferDecl sa;
  sa.tensor.id = stat_a;
  sa.tensor.name = op.name + "_stat_a";
  sa.tensor.shape = {rows};
  sa.role = ir::BufferRole::kIntermediate;
  program.buffers.push_back(sa);
  ir::BufferDecl sb;
  sb.tensor.id = stat_b;
  sb.tensor.name = op.name + "_stat_b";
  sb.tensor.shape = {rows};
  sb.role = ir::BufferRole::kIntermediate;
  program.buffers.push_back(sb);
  return program;
}

}  // namespace

StatusOr<ir::Program> LowerGroupNaive(const Graph& graph, const LayoutAssignment& assignment,
                                      const FusedGroup& group) {
  const Op& anchor = graph.op(group.anchor_op);
  if (IsRowOp(anchor.kind)) {
    return LowerRowOp(graph, assignment, group);
  }
  auto sig = GroupSignature(graph, assignment, group);
  if (!sig.ok()) {
    return sig.status();
  }
  return LowerGroup(graph, assignment, group,
                    LoopSchedule::Naive(sig->spatial_extents, sig->reduction_extents));
}

StatusOr<LoweredNetwork> LowerNetworkNaive(const Graph& graph,
                                           const LayoutAssignment& assignment,
                                           bool enable_fusion) {
  LoweredNetwork net;
  net.groups = PartitionGraph(graph, assignment, enable_fusion);
  for (const auto& group : net.groups) {
    auto program = LowerGroupNaive(graph, assignment, group);
    if (!program.ok()) {
      return program.status();
    }
    net.programs.push_back(std::move(*program));
  }
  return net;
}

}  // namespace alt::loop
