#include "src/runtime/interpreter.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <optional>
#include <sstream>
#include <utility>

#include "src/codegen/cpp_emitter.h"
#include "src/codegen/kernel_cache.h"
#include "src/codegen/kernel_spec.h"
#include "src/ir/affine.h"
#include "src/ir/eval.h"
#include "src/support/metrics.h"
#include "src/support/trace.h"

namespace alt::runtime {

namespace {

using ir::CompiledExpr;
using ir::VarSlotMap;

// Fixed binding of a declared buffer: pointer and size are captured once, in
// the up-front allocation pass, before any plan compilation — compiled plans
// and kernels may hold raw pointers for the duration of the execution.
struct BufferBinding {
  std::vector<float>* buffer = nullptr;
  int64_t size = 0;
};
using BindingMap = std::unordered_map<int, BufferBinding>;

// Execution-time error state. A malformed program (e.g. loaded from a
// corrupt artifact) may compute an out-of-range element offset; the
// first such fault is recorded here and execution unwinds instead of
// aborting the process.
struct ExecContext {
  Status error = Status::Ok();
  bool failed = false;

  void Fail(std::string msg) {
    if (!failed) {
      failed = true;
      error = Status::InvalidArgument(std::move(msg));
    }
  }
};

ir::Expr LinearIndexExpr(const std::vector<ir::Expr>& indices,
                         const std::vector<int64_t>& strides) {
  ir::Expr linear = ir::Const(0);
  for (size_t d = 0; d < indices.size(); ++d) {
    linear = ir::Add(linear, ir::Mul(indices[d], strides[d]));
  }
  return linear;
}

// ===========================================================================
// The execution plan.
//
// The statement tree is flattened into a codegen::KernelSpec: a linear
// instruction array (LoopBegin / LoopEnd / Leaf). Every affine load/store
// offset gets an integer accumulator initialized to the form's base; each
// enclosing loop carries a bump list of (accumulator, stride) pairs applied on
// every iteration advance — strength reduction that removes offset bytecode
// from execution entirely. A For whose body is a single Store is consumed into
// a leaf. When every branch of its value is a fill, copy or mul-accumulate,
// the leaf is a kernel leaf that runs the innermost loop as a tight kernel,
// offsets still bumped; top-level pad/unfold Selects whose guards are affine
// in the leaf variable are split into contiguous [else)[then)[else) ranges so
// the condition check leaves the inner loop. Any other leaf is a store leaf
// that evaluates its value tree per element: an eval leaf when its store
// offset is affine (taken from its accumulator), a bytecode leaf when it is
// not (evaluated from its index program). The spec holds only indices; the
// `bufs` table beside it holds what they name in this process.
// The affine engine runs the spec below and the native engine compiles the
// same spec, and every kernel performs the exact double→float conversion
// sequence of the per-element evaluator, in the same element order, so the
// three engines are bit-identical by construction.
//
// The generic engine builds its spec with the analysis off: plain loops with
// no bumps, and every store a bytecode leaf. It shares the index programs and
// the value-tree builder with the other engines — runtime::ExecuteReference
// checks those — but none of the accumulators, guard or clamp splits,
// kernels or shards, so it stays an independent oracle for the affine
// analysis.
// ===========================================================================

using Spec = codegen::KernelSpec;

// The top-level Select (if any) of a store value, with the value rewritten so
// the select is outermost. A product with one select operand is hoisted:
//   Mul(Select(c, t, e), x)  ==  Select(c, Mul(t, x), Mul(e, x))
// pointwise — both sides evaluate the identical double products — so pad
// guards buried under the conv multiply still split out of the inner loop.
struct SelParts {
  const std::vector<ir::IntervalCond>* conds;
  ir::Val then_v, else_v;
};

bool ContainsSelect(const ir::Val& v) {
  if (!v) {
    return false;
  }
  if (v->kind == ir::ValKind::kSelect) {
    return true;
  }
  return ContainsSelect(v->a) || ContainsSelect(v->b);
}

std::optional<SelParts> ExtractSelect(const ir::Val& v) {
  auto is_select = [](const ir::Val& x) {
    return x && x->kind == ir::ValKind::kSelect && !x->conds.empty() && x->a && x->b;
  };
  if (is_select(v)) {
    return SelParts{&v->conds, v->a, v->b};
  }
  if (v->kind == ir::ValKind::kMul && v->a && v->b) {
    if (is_select(v->a) && !ContainsSelect(v->b)) {
      return SelParts{&v->a->conds, ir::VMul(v->a->a, v->b), ir::VMul(v->a->b, v->b)};
    }
    if (is_select(v->b) && !ContainsSelect(v->a)) {
      return SelParts{&v->b->conds, ir::VMul(v->a, v->b->a), ir::VMul(v->a, v->b->b)};
    }
  }
  return std::nullopt;
}

struct AffineBuilder {
  const ir::Program* program = nullptr;
  const BindingMap* bindings = nullptr;
  // Off for the generic engine: no access is analyzed, so every leaf is a
  // bytecode leaf and no loop carries bumps.
  bool analyze = true;
  Spec spec;
  // float* per spec buffer id: the array the native kernel receives.
  std::vector<float*> bufs;
  // Loop-variable slots, numbered in statement pre-order.
  VarSlotMap slots;
  // First error of a malformed program; what is built after it is a safe
  // placeholder that never runs.
  Status status = Status::Ok();
  // Enclosing loops, outermost first. When building a consumed leaf the leaf
  // loop is the last entry (with no loop instruction of its own).
  std::vector<ir::AffineLoop> loops;
  std::vector<int> loop_instrs;

  void Fail(const Status& s) {
    if (status.ok()) {
      status = s;
    }
  }

  CompiledExpr Compile(const ir::Expr& e) {
    auto compiled = CompiledExpr::Compile(e, slots);
    if (!compiled.ok()) {
      Fail(compiled.status());
      return CompiledExpr();
    }
    return std::move(*compiled);
  }

  // Analysis result not yet committed to an accumulator: classification may
  // abandon it (e.g. a sibling operand turns out non-affine).
  struct Pending {
    ir::AffineForm form;
    float* data = nullptr;
    int64_t size = 0;
  };

  int NewAcc(const ir::AffineForm& f, bool consumed) {
    int id = static_cast<int>(spec.acc_init.size());
    spec.acc_init.push_back(f.base);
    size_t outer = loops.size() - (consumed ? 1 : 0);
    for (size_t i = 0; i < outer; ++i) {
      if (f.coeffs[i] != 0) {
        spec.instrs[loop_instrs[i]].bumps.push_back({id, f.coeffs[i]});
      }
    }
    return id;
  }

  // A tensor's buffer id is the next free one when an access to it is first
  // committed; abandoned analyses number nothing.
  int BufferId(float* data) {
    auto it = std::find(bufs.begin(), bufs.end(), data);
    if (it == bufs.end()) {
      bufs.push_back(data);
      return static_cast<int>(bufs.size()) - 1;
    }
    return static_cast<int>(it - bufs.begin());
  }

  // A load whose offset needs the unfold clamp split (ir::DecomposeClamped):
  // affine on each side of the clamp boundary, so the leaf becomes a guarded
  // two-branch kernel instead of degrading to per-element evaluation.
  struct ClampedPending {
    ir::ClampedForm cf;
    float* data = nullptr;
    int64_t size = 0;
  };

  // An access's row-major linearized offset and its binding.
  struct Linear {
    ir::Expr offset;
    float* data = nullptr;
    int64_t size = 0;
  };

  // InvalidArgument when the program declares no such buffer or the rank is
  // wrong. Every declared buffer is bound.
  StatusOr<Linear> Linearize(int tensor_id, const std::vector<ir::Expr>& indices) const {
    const ir::BufferDecl* decl = program->FindBuffer(tensor_id);
    if (decl == nullptr) {
      return Status::InvalidArgument("no buffer decl for tensor " + std::to_string(tensor_id));
    }
    auto strides = ir::RowMajorStrides(decl->tensor.shape);
    if (indices.size() != strides.size()) {
      std::ostringstream oss;
      oss << "index rank mismatch on tensor " << tensor_id << ": " << indices.size()
          << " vs " << strides.size();
      return Status::InvalidArgument(oss.str());
    }
    const BufferBinding& b = bindings->at(tensor_id);
    return Linear{LinearIndexExpr(indices, strides), b.buffer->data(), b.size};
  }

  std::optional<Pending> Analyze(int tensor_id, const std::vector<ir::Expr>& indices,
                                 const ir::AffineAnalyzer& az) const {
    auto lin = Linearize(tensor_id, indices);
    if (!lin.ok()) {
      return std::nullopt;
    }
    auto f = az.Decompose(lin->offset);
    if (!f) {
      return std::nullopt;
    }
    return Pending{std::move(*f), lin->data, lin->size};
  }

  std::optional<ClampedPending> AnalyzeClamped(int tensor_id,
                                               const std::vector<ir::Expr>& indices,
                                               const ir::AffineAnalyzer& az) const {
    auto lin = Linearize(tensor_id, indices);
    if (!lin.ok()) {
      return std::nullopt;
    }
    auto cf = az.DecomposeClamped(lin->offset);
    if (!cf) {
      return std::nullopt;
    }
    return ClampedPending{std::move(*cf), lin->data, lin->size};
  }

  Spec::Access Commit(const Pending& p, bool consumed) {
    Spec::Access a;
    a.buffer = BufferId(p.data);
    a.size = p.size;
    a.inner = consumed ? p.form.coeffs.back() : 0;
    a.acc = NewAcc(p.form, consumed);
    return a;
  }

  // A classified branch whose loads are not committed yet.
  struct PendingBranch {
    Spec::Branch k;  // complete but for the accesses `a` and `b`
    std::optional<Pending> a, b;
  };

  std::optional<PendingBranch> Classify(const ir::Val& v, const ir::AffineAnalyzer& az) {
    switch (v->kind) {
      case ir::ValKind::kImm: {
        PendingBranch br;
        br.k.kind = Spec::BranchKind::kFill;
        br.k.imm = v->imm;
        return br;
      }
      case ir::ValKind::kLoad: {
        auto p = Analyze(v->tensor_id, v->indices, az);
        if (!p) {
          return std::nullopt;
        }
        PendingBranch br;
        br.k.kind = Spec::BranchKind::kCopy;
        br.a = std::move(p);
        return br;
      }
      case ir::ValKind::kMul: {
        if (!v->a || !v->b) {
          return std::nullopt;
        }
        PendingBranch br;
        br.k.kind = Spec::BranchKind::kMulAcc;
        auto operand = [&](const ir::Val& o, bool* is_imm, double* imm,
                           std::optional<Pending>* acc) {
          if (o->kind == ir::ValKind::kImm) {
            *is_imm = true;
            *imm = o->imm;
            return true;
          }
          if (o->kind == ir::ValKind::kLoad) {
            *acc = Analyze(o->tensor_id, o->indices, az);
            return acc->has_value();
          }
          return false;
        };
        if (!operand(v->a, &br.k.a_is_imm, &br.k.imm_a, &br.a) ||
            !operand(v->b, &br.k.b_is_imm, &br.k.imm_b, &br.b)) {
          return std::nullopt;
        }
        if (br.k.a_is_imm && br.k.b_is_imm) {
          PendingBranch fill;
          fill.k.kind = Spec::BranchKind::kFill;
          fill.k.imm = br.k.imm_a * br.k.imm_b;
          return fill;
        }
        return br;
      }
      default:
        return std::nullopt;
    }
  }

  // A kernel leaf, classified but not committed: its guards (each complete
  // but for its accumulator) and branches. Unguarded leaves have no conds
  // and no else branch.
  struct PendingKernel {
    std::vector<std::pair<ir::AffineForm, Spec::Cond>> conds;
    PendingBranch then_b, else_b;
  };

  // Classification of a store value whose only obstruction is one clamped
  // load: the exact then/else kernel pair plus the clamp guard g <= bound,
  // with the guard interval [min(g), bound + 1) — then where the clamp is
  // slack, else where it binds (both agree at g == bound). Covers the shapes
  // a clamped unfold read appears in — a bare copy and a product with an
  // immediate or affine co-operand.
  std::optional<PendingKernel> ClassifyClamped(const ir::Val& v, bool consumed,
                                               const ir::AffineAnalyzer& az) {
    auto split_load = [&](const ir::Val& o) -> std::optional<ClampedPending> {
      if (o->kind != ir::ValKind::kLoad || Analyze(o->tensor_id, o->indices, az)) {
        return std::nullopt;
      }
      return AnalyzeClamped(o->tensor_id, o->indices, az);
    };
    PendingKernel pk;
    PendingBranch& then_b = pk.then_b;
    PendingBranch& else_b = pk.else_b;
    std::optional<ir::ClampedForm> clamp;
    switch (v->kind) {
      case ir::ValKind::kLoad: {
        auto cp = split_load(v);
        if (!cp) {
          return std::nullopt;
        }
        clamp = cp->cf;
        then_b.k.kind = Spec::BranchKind::kCopy;
        then_b.a = Pending{cp->cf.then_form, cp->data, cp->size};
        else_b.k.kind = Spec::BranchKind::kCopy;
        else_b.a = Pending{cp->cf.else_form, cp->data, cp->size};
        break;
      }
      case ir::ValKind::kMul: {
        if (!v->a || !v->b) {
          return std::nullopt;
        }
        then_b.k.kind = else_b.k.kind = Spec::BranchKind::kMulAcc;
        auto operand = [&](const ir::Val& o, bool* is_imm, double* imm_t, double* imm_e,
                           std::optional<Pending>* then_acc,
                           std::optional<Pending>* else_acc) {
          if (o->kind == ir::ValKind::kImm) {
            *is_imm = true;
            *imm_t = *imm_e = o->imm;
            return true;
          }
          if (o->kind != ir::ValKind::kLoad) {
            return false;
          }
          if (auto p = Analyze(o->tensor_id, o->indices, az)) {
            *then_acc = *p;
            *else_acc = std::move(*p);
            return true;
          }
          auto cp = split_load(o);
          if (!cp || clamp) {
            return false;  // unresolved residue, or a second clamp
          }
          clamp = cp->cf;
          *then_acc = Pending{cp->cf.then_form, cp->data, cp->size};
          *else_acc = Pending{cp->cf.else_form, cp->data, cp->size};
          return true;
        };
        if (!operand(v->a, &then_b.k.a_is_imm, &then_b.k.imm_a, &else_b.k.imm_a, &then_b.a,
                     &else_b.a) ||
            !operand(v->b, &then_b.k.b_is_imm, &then_b.k.imm_b, &else_b.k.imm_b, &then_b.b,
                     &else_b.b) ||
            !clamp) {
          return std::nullopt;
        }
        else_b.k.a_is_imm = then_b.k.a_is_imm;
        else_b.k.b_is_imm = then_b.k.b_is_imm;
        break;
      }
      default:
        return std::nullopt;
    }
    const int64_t cv = consumed ? clamp->guard.coeffs.back() : 0;
    pk.conds.push_back({clamp->guard,
                        {-1, cv, clamp->guard.MinValue(az.loops()), clamp->bound + 1,
                         /*modulus=*/1, /*rem=*/0}});
    return pk;
  }

  // The whole store value as kernels, or nullopt when some branch is not a
  // fill, copy or mul-acc.
  std::optional<PendingKernel> ClassifyValue(const ir::Val& value, bool consumed,
                                             const ir::AffineAnalyzer& az) {
    auto sel = ExtractSelect(value);
    if (!sel) {
      if (auto k = Classify(value, az)) {
        PendingKernel pk;
        pk.then_b = std::move(*k);
        return pk;
      }
      return ClassifyClamped(value, consumed, az);
    }
    // A split select: every guard contiguous along the leaf, and both sides
    // kernels.
    PendingKernel pk;
    for (const ir::IntervalCond& c : *sel->conds) {
      auto f = az.Decompose(c.expr);
      if (!f) {
        return std::nullopt;
      }
      const int64_t cv = consumed ? f->coeffs.back() : 0;
      if (c.modulus > 1 && cv % c.modulus != 0) {
        // The guard selects a periodic subset of the leaf range (transposed
        // conv stride-divisibility with the guard var in the inner loop):
        // not a contiguous split.
        return std::nullopt;
      }
      pk.conds.push_back({std::move(*f), {-1, cv, c.lo, c.hi, c.modulus, c.rem}});
    }
    auto then_b = Classify(sel->then_v, az);
    auto else_b = Classify(sel->else_v, az);
    if (!then_b || !else_b) {
      return std::nullopt;
    }
    pk.then_b = std::move(*then_b);
    pk.else_b = std::move(*else_b);
    return pk;
  }

  Spec::Branch CommitBranch(PendingBranch&& p, bool consumed) {
    if (p.a) {
      p.k.a = Commit(*p.a, consumed);
    }
    if (p.b) {
      p.k.b = Commit(*p.b, consumed);
    }
    return p.k;
  }

  void BuildLeaf(const ir::StmtNode* st, bool consumed, int vslot) {
    Spec::Leaf leaf;
    leaf.extent = consumed ? loops.back().extent : 1;
    leaf.vslot = consumed ? vslot : -1;
    leaf.accumulate = st->mode == ir::StoreMode::kAccumulate;
    leaf.bytecode = !analyze;
    if (leaf.bytecode || !ClassifyLeaf(st, consumed, leaf)) {
      BuildStoreTrees(*st, leaf);
    }
    EmitLeaf(std::move(leaf));
  }

  // A store leaf's pointer-free trees: its linearized store offset as an
  // index program, and its value as a value tree over spec buffer ids and
  // env slots.
  void BuildStoreTrees(const ir::StmtNode& st, Spec::Leaf& leaf) {
    auto lin = Linearize(st.tensor_id, st.indices);
    if (!lin.ok()) {
      Fail(lin.status());
      return;
    }
    leaf.out_buffer = BufferId(lin->data);
    leaf.out_size = lin->size;
    leaf.store_offset = Compile(lin->offset);
    leaf.value = ValueTree(st.value);
  }

  // A load's access, a select's guards, and every operand present.
  int ValueTree(const ir::Val& v) {
    Spec::ValueNode node;
    node.kind = v->kind;
    node.imm = v->imm;
    if (v->kind == ir::ValKind::kLoad) {
      auto lin = Linearize(v->tensor_id, v->indices);
      if (lin.ok()) {
        node.buffer = BufferId(lin->data);
        node.size = lin->size;
        node.offset = Compile(lin->offset);
      } else {
        Fail(lin.status());
      }
    } else if (v->kind == ir::ValKind::kSelect) {
      for (const ir::IntervalCond& c : v->conds) {
        node.guards.push_back({Compile(c.expr), c.lo, c.hi, c.modulus, c.rem});
      }
    }
    if (v->a) {
      node.a = ValueTree(v->a);
    }
    if (v->b) {
      node.b = ValueTree(v->b);
    }
    spec.value_nodes.push_back(std::move(node));
    return static_cast<int>(spec.value_nodes.size()) - 1;
  }

  // Classifies the whole leaf from the affine analysis before committing
  // anything. False, committing nothing, when the store offset is not affine
  // (a bytecode leaf). Otherwise commits the store accumulator and returns
  // whether every branch is a kernel; only then are the guard accumulators
  // and the branches' loads committed, in that order. A leaf with an affine
  // store but no kernel is an eval leaf.
  bool ClassifyLeaf(const ir::StmtNode* st, bool consumed, Spec::Leaf& leaf) {
    ir::AffineAnalyzer az(loops);
    auto sp = Analyze(st->tensor_id, st->indices, az);
    if (!sp) {
      leaf.bytecode = true;
      return false;
    }
    auto kernel = ClassifyValue(st->value, consumed, az);
    const Spec::Access out = Commit(*sp, consumed);
    leaf.out_buffer = out.buffer;
    leaf.out_size = out.size;
    leaf.store_acc = out.acc;
    leaf.store_inner = out.inner;
    if (!kernel) {
      return false;
    }
    for (auto& [form, cond] : kernel->conds) {
      cond.acc = NewAcc(form, consumed);
      leaf.conds.push_back(cond);
    }
    leaf.guarded = !leaf.conds.empty();
    leaf.then_k = CommitBranch(std::move(kernel->then_b), consumed);
    if (leaf.guarded) {
      leaf.else_k = CommitBranch(std::move(kernel->else_b), consumed);
    }
    return true;
  }

  void EmitLeaf(Spec::Leaf&& leaf) {
    Spec::Instr ins;
    ins.kind = Spec::Instr::kLeaf;
    ins.leaf = static_cast<int>(spec.leaves.size());
    spec.leaves.push_back(std::move(leaf));
    spec.instrs.push_back(std::move(ins));
  }

  // Loop slots are numbered in statement pre-order, at each loop before its
  // body builds.
  void Build(const ir::Stmt& s) {
    switch (s->kind) {
      case ir::StmtKind::kFor: {
        const int slot = slots.AddVar(s->loop_var->var_id);
        // Unwrap single-statement blocks to see whether this loop's body is
        // exactly one store — if so, consume the loop into a leaf.
        const ir::StmtNode* body = s->body.get();
        while (body->kind == ir::StmtKind::kBlock && body->stmts.size() == 1) {
          body = body->stmts[0].get();
        }
        if (body->kind == ir::StmtKind::kStore) {
          loops.push_back({s->loop_var->var_id, s->extent});
          loop_instrs.push_back(-1);
          BuildLeaf(body, /*consumed=*/true, slot);
          loops.pop_back();
          loop_instrs.pop_back();
          return;
        }
        int begin = static_cast<int>(spec.instrs.size());
        Spec::Instr ins;
        ins.kind = Spec::Instr::kLoopBegin;
        ins.slot = slot;
        ins.extent = s->extent;
        spec.instrs.push_back(std::move(ins));
        loops.push_back({s->loop_var->var_id, s->extent});
        loop_instrs.push_back(begin);
        Build(s->body);
        loops.pop_back();
        loop_instrs.pop_back();
        int end = static_cast<int>(spec.instrs.size());
        Spec::Instr endi;
        endi.kind = Spec::Instr::kLoopEnd;
        endi.match = begin;
        spec.instrs.push_back(std::move(endi));
        spec.instrs[begin].match = end;
        return;
      }
      case ir::StmtKind::kBlock: {
        for (const auto& child : s->stmts) {
          Build(child);
        }
        return;
      }
      case ir::StmtKind::kStore: {
        BuildLeaf(s.get(), /*consumed=*/false, -1);
        return;
      }
    }
  }
};

// True when offsets o0 + stride * i, i in [0, n), all lie in [0, size).
// Offsets are linear in i, so both segment endpoints bound every element.
bool SegmentInBounds(int64_t o0, int64_t stride, int64_t n, int64_t size) {
  const int64_t last = o0 + stride * (n - 1);
  return o0 >= 0 && o0 < size && last >= 0 && last < size;
}

// Records the first out-of-range endpoint of a segment that failed
// SegmentInBounds. Kept out of line: it only runs on a malformed program.
[[gnu::noinline]] void FailBounds(const char* what, int64_t o0, int64_t stride, int64_t n,
                                  int64_t size, ExecContext& ctx) {
  const int64_t bad = (o0 < 0 || o0 >= size) ? o0 : o0 + stride * (n - 1);
  std::ostringstream oss;
  oss << what << " out of bounds: " << bad << " size " << size;
  ctx.Fail(oss.str());
}

// Runs one kernel branch of a leaf over leaf positions [v0, v1). Leaves are
// often a few elements long, so this call's fixed cost is the engine's
// per-leaf overhead: the arguments every kernel reads come first, where they
// travel in registers, and the bounds-failure path is out of line.
void RunBranch(const Spec::Leaf& lf, const Spec::Branch& k, float* const* bufs,
               const int64_t* acc, int64_t v0, int64_t v1, ExecContext& ctx) {
  const int64_t n = v1 - v0;
  if (n <= 0 || ctx.failed) {
    return;
  }
  const int64_t si = lf.store_inner;
  const int64_t so = acc[lf.store_acc] + si * v0;
  if (!SegmentInBounds(so, si, n, lf.out_size)) {
    FailBounds("store", so, si, n, lf.out_size, ctx);
    return;
  }
  auto check_load = [&](const Spec::Access& a, int64_t* off0) {
    const int64_t o0 = acc[a.acc] + a.inner * v0;
    if (!SegmentInBounds(o0, a.inner, n, a.size)) {
      FailBounds("load", o0, a.inner, n, a.size, ctx);
      return false;
    }
    *off0 = o0;
    return true;
  };
  float* out = bufs[lf.out_buffer];
  const bool accumulate = lf.accumulate;
  switch (k.kind) {
    case Spec::BranchKind::kFill: {
      const float f = static_cast<float>(k.imm);
      if (!accumulate) {
        if (si == 1) {
          std::fill_n(out + so, n, f);
        } else if (si == 0) {
          out[so] = f;  // n identical assigns collapse to one
        } else {
          for (int64_t i = 0; i < n; ++i) {
            out[so + si * i] = f;
          }
        }
      } else {
        for (int64_t i = 0; i < n; ++i) {
          out[so + si * i] += f;
        }
      }
      return;
    }
    case Spec::BranchKind::kCopy: {
      int64_t io = 0;
      if (!check_load(k.a, &io)) {
        return;
      }
      const float* in = bufs[k.a.buffer];
      const int64_t ai = k.a.inner;
      if (!accumulate) {
        for (int64_t i = 0; i < n; ++i) {
          out[so + si * i] = in[io + ai * i];
        }
      } else {
        for (int64_t i = 0; i < n; ++i) {
          out[so + si * i] += in[io + ai * i];
        }
      }
      return;
    }
    case Spec::BranchKind::kMulAcc: {
      int64_t ia = 0, ib = 0;
      if (!k.a_is_imm && !check_load(k.a, &ia)) {
        return;
      }
      if (!k.b_is_imm && !check_load(k.b, &ib)) {
        return;
      }
      const float* A = k.a_is_imm ? nullptr : bufs[k.a.buffer];
      const float* B = k.b_is_imm ? nullptr : bufs[k.b.buffer];
      if (!k.a_is_imm && !k.b_is_imm) {
        const int64_t sa = k.a.inner, sb = k.b.inner;
        if (accumulate) {
          if (si == 0) {
            // Reduction into one element (e.g. the GMM dot product).
            // Sequential float accumulation preserves bit-identity.
            float* o = out + so;
            for (int64_t i = 0; i < n; ++i) {
              *o += static_cast<float>(static_cast<double>(A[ia + sa * i]) *
                                       static_cast<double>(B[ib + sb * i]));
            }
          } else {
            for (int64_t i = 0; i < n; ++i) {
              out[so + si * i] += static_cast<float>(static_cast<double>(A[ia + sa * i]) *
                                                     static_cast<double>(B[ib + sb * i]));
            }
          }
        } else {
          for (int64_t i = 0; i < n; ++i) {
            out[so + si * i] = static_cast<float>(static_cast<double>(A[ia + sa * i]) *
                                                  static_cast<double>(B[ib + sb * i]));
          }
        }
        return;
      }
      for (int64_t i = 0; i < n; ++i) {
        double x = k.a_is_imm ? k.imm_a : static_cast<double>(A[ia + k.a.inner * i]);
        double y = k.b_is_imm ? k.imm_b : static_cast<double>(B[ib + k.b.inner * i]);
        float p = static_cast<float>(x * y);
        if (accumulate) {
          out[so + si * i] += p;
        } else {
          out[so + si * i] = p;
        }
      }
      return;
    }
  }
}

// Value-tree node `n` of one element, in double. A load is bounds-checked
// before it is read, and a select evaluates only the branch its guards take.
double EvalValue(const Spec::ValueNode* nodes, int n, float* const* bufs, const int64_t* env,
                 ExecContext& ctx) {
  const Spec::ValueNode& v = nodes[n];
  switch (v.kind) {
    case ir::ValKind::kImm:
      return v.imm;
    case ir::ValKind::kLoad: {
      const int64_t off = v.offset.Eval(env);
      if (off < 0 || off >= v.size) {
        FailBounds("load", off, 0, 1, v.size, ctx);
        return 0.0;
      }
      return bufs[v.buffer][off];
    }
    case ir::ValKind::kAdd:
      return EvalValue(nodes, v.a, bufs, env, ctx) + EvalValue(nodes, v.b, bufs, env, ctx);
    case ir::ValKind::kSub:
      return EvalValue(nodes, v.a, bufs, env, ctx) - EvalValue(nodes, v.b, bufs, env, ctx);
    case ir::ValKind::kMul:
      return EvalValue(nodes, v.a, bufs, env, ctx) * EvalValue(nodes, v.b, bufs, env, ctx);
    case ir::ValKind::kDiv:
      return EvalValue(nodes, v.a, bufs, env, ctx) / EvalValue(nodes, v.b, bufs, env, ctx);
    case ir::ValKind::kMax:
      return std::max(EvalValue(nodes, v.a, bufs, env, ctx),
                      EvalValue(nodes, v.b, bufs, env, ctx));
    case ir::ValKind::kMin:
      return std::min(EvalValue(nodes, v.a, bufs, env, ctx),
                      EvalValue(nodes, v.b, bufs, env, ctx));
    case ir::ValKind::kExp:
      return std::exp(EvalValue(nodes, v.a, bufs, env, ctx));
    case ir::ValKind::kTanh:
      return std::tanh(EvalValue(nodes, v.a, bufs, env, ctx));
    case ir::ValKind::kSqrt:
      return std::sqrt(EvalValue(nodes, v.a, bufs, env, ctx));
    case ir::ValKind::kSelect: {
      for (const Spec::Guard& g : v.guards) {
        const int64_t e = g.expr.Eval(env);
        if (e < g.lo || e >= g.hi) {
          return EvalValue(nodes, v.b, bufs, env, ctx);
        }
        if (g.modulus > 1) {
          int64_t m = e % g.modulus;
          if (m < 0) {
            m += g.modulus;
          }
          if (m != g.rem) {
            return EvalValue(nodes, v.b, bufs, env, ctx);
          }
        }
      }
      return EvalValue(nodes, v.a, bufs, env, ctx);
    }
  }
  return 0.0;
}

// Runs a store leaf: per element, the store offset — an eval leaf's from its
// accumulator, a bytecode leaf's from its index program — its bounds check,
// the value, then the conversion to float. The native kernel emits the same
// loop (codegen/cpp_emitter.h).
void RunStoreLeaf(const Spec& spec, const Spec::Leaf& lf, float* const* bufs,
                  const int64_t* acc, int64_t* env, ExecContext& ctx) {
  const Spec::ValueNode* nodes = spec.value_nodes.data();
  float* out = bufs[lf.out_buffer];
  int64_t so = lf.bytecode ? 0 : acc[lf.store_acc];
  for (int64_t v = 0; v < lf.extent; ++v, so += lf.store_inner) {
    if (lf.vslot >= 0) {
      env[lf.vslot] = v;
    }
    const int64_t off = lf.bytecode ? lf.store_offset.Eval(env) : so;
    if (off < 0 || off >= lf.out_size) {
      FailBounds("store", off, 0, 1, lf.out_size, ctx);
      return;
    }
    const double val = EvalValue(nodes, lf.value, bufs, env, ctx);
    if (ctx.failed) {
      return;
    }
    if (lf.accumulate) {
      out[off] += static_cast<float>(val);
    } else {
      out[off] = static_cast<float>(val);
    }
  }
}

// Translates a native kernel return code into the ExecContext.
void ApplyNativeRc(int64_t rc, ExecContext& ctx) {
  switch (rc) {
    case codegen::kOk:
      break;
    case codegen::kStoreOutOfBounds:
      ctx.Fail("store out of bounds (native kernel)");
      break;
    case codegen::kLoadOutOfBounds:
      ctx.Fail("load out of bounds (native kernel)");
      break;
    default:
      ctx.Fail("internal: native kernel error code " + std::to_string(rc));
      break;
  }
}

// RAII TryAcquire/Release around one Run. `threads` is non-null only when
// this Run won the session's intra-op budget and may shard.
struct PoolLease {
  IntraOpPool* pool = nullptr;
  ThreadPool* threads = nullptr;
  explicit PoolLease(IntraOpPool* p) {
    if (p != nullptr) {
      threads = p->TryAcquire();
      if (threads != nullptr) {
        pool = p;
      }
    }
  }
  ~PoolLease() {
    if (pool != nullptr) {
      pool->Release();
    }
  }
  PoolLease(const PoolLease&) = delete;
  PoolLease& operator=(const PoolLease&) = delete;
};

void RunLeaf(const Spec& spec, float* const* bufs, int li, const int64_t* acc, int64_t* env,
             ExecContext& ctx) {
  const Spec::Leaf& lf = spec.leaves[li];
  if (lf.IsStoreLeaf()) {
    RunStoreLeaf(spec, lf, bufs, acc, env, ctx);
    return;
  }
  auto run_then = [&](int64_t v0, int64_t v1) {
    RunBranch(lf, lf.then_k, bufs, acc, v0, v1, ctx);
  };
  auto run_else = [&](int64_t v0, int64_t v1) {
    RunBranch(lf, lf.else_k, bufs, acc, v0, v1, ctx);
  };
  if (!lf.guarded) {
    run_then(0, lf.extent);
    return;
  }
  int64_t tb = 0, te = lf.extent;
  for (const Spec::Cond& c : lf.conds) {
    auto r = ir::GuardRange(acc[c.acc], c.cv, c.lo, c.hi, c.modulus, c.rem, lf.extent);
    if (!r) {
      ctx.Fail("internal: unsplittable guard reached affine executor");
      return;
    }
    tb = std::max(tb, r->first);
    te = std::min(te, r->second);
  }
  if (tb >= te) {
    run_else(0, lf.extent);
    return;
  }
  // Same element order as the generic engine: prefix else, then, suffix else.
  run_else(0, tb);
  run_then(tb, te);
  run_else(te, lf.extent);
}

// Executes the instruction range [from, to). `acc` must hold the accumulator
// values at instruction `from`; on successful return it is restored to those
// entry values — every kLoopEnd un-bumps its accumulators on exit — so a
// range can be re-entered with fresh loop state. `iters` is caller-owned
// scratch (one slot per instruction) so shard loops don't reallocate it.
void RunAffineRange(const Spec& spec, float* const* bufs, size_t from, size_t to,
                    int64_t* acc, int64_t* env, int64_t* iters, ExecContext& ctx) {
  size_t ip = from;
  while (ip < to && !ctx.failed) {
    const Spec::Instr& ins = spec.instrs[ip];
    switch (ins.kind) {
      case Spec::Instr::kLoopBegin: {
        if (ins.extent <= 0) {
          ip = static_cast<size_t>(ins.match) + 1;
          break;
        }
        iters[ip] = 0;
        env[ins.slot] = 0;
        ++ip;
        break;
      }
      case Spec::Instr::kLoopEnd: {
        const Spec::Instr& begin = spec.instrs[ins.match];
        int64_t i = ++iters[ins.match];
        if (i < begin.extent) {
          env[begin.slot] = i;
          for (const auto& [a, s] : begin.bumps) {
            acc[a] += s;
          }
          ip = static_cast<size_t>(ins.match) + 1;
        } else {
          for (const auto& [a, s] : begin.bumps) {
            acc[a] -= s * (begin.extent - 1);
          }
          ++ip;
        }
        break;
      }
      case Spec::Instr::kLeaf: {
        RunLeaf(spec, bufs, ins.leaf, acc, env, ctx);
        ++ip;
        break;
      }
    }
  }
}

void RunAffine(const Spec& spec, float* const* bufs, std::vector<int64_t>& acc,
               int64_t* env, ExecContext& ctx) {
  std::vector<int64_t> iters(spec.instrs.size(), 0);
  RunAffineRange(spec, bufs, 0, spec.instrs.size(), acc.data(), env, iters.data(), ctx);
}

// Executes iterations [begin, end) of the root loop of `spec` with private
// accumulator/env/iteration state. Preconditions (established by Prepare's
// shardability analysis): instrs[0] is the root kLoopBegin, its matching end
// is the last instruction, and 0 <= begin <= end <= extent. The incremental
// offset state is re-based in closed form — acc = acc_init + stride·begin —
// so a shard starts with exactly the accumulator values serial execution
// would have reached, and the body range restores them after each iteration.
void RunAffineShard(const Spec& spec, float* const* bufs, int64_t begin, int64_t end,
                    ExecContext& ctx) {
  const Spec::Instr& root = spec.instrs[0];
  // The shard's loop state, written on every iteration, in one allocation
  // with a cache line of padding at each end, so no other allocation shares
  // a line with it. Without the padding, where the allocator happened to put
  // these vectors decided whether gmm/canonical scaled at all at 4 threads
  // (bench_interpreter_throughput).
  constexpr size_t kPad = 64 / sizeof(int64_t);
  const size_t n_acc = spec.acc_init.size();
  const size_t n_env = static_cast<size_t>(spec.env_size);
  std::vector<int64_t> state(kPad + n_acc + n_env + spec.instrs.size() + kPad, 0);
  int64_t* acc = state.data() + kPad;
  int64_t* env = acc + n_acc;
  int64_t* iters = env + n_env;
  std::copy(spec.acc_init.begin(), spec.acc_init.end(), acc);
  for (const auto& [a, s] : root.bumps) {
    acc[a] += s * begin;
  }
  const size_t body_end = static_cast<size_t>(root.match);
  for (int64_t i = begin; i < end && !ctx.failed; ++i) {
    env[root.slot] = i;
    RunAffineRange(spec, bufs, 1, body_end, acc, env, iters, ctx);
    for (const auto& [a, s] : root.bumps) {
      acc[a] += s;
    }
  }
}

// In-order (= execution-order) first store per tensor id: a tensor whose
// first write plainly assigns needs no zero-fill; only accumulate-first
// (reduction) outputs rely on a zeroed buffer.
void CollectFirstStores(const ir::Stmt& s, std::unordered_map<int, ir::StoreMode>& out) {
  switch (s->kind) {
    case ir::StmtKind::kFor:
      CollectFirstStores(s->body, out);
      break;
    case ir::StmtKind::kBlock:
      for (const auto& child : s->stmts) {
        CollectFirstStores(child, out);
      }
      break;
    case ir::StmtKind::kStore:
      out.try_emplace(s->tensor_id, s->mode);
      break;
  }
}

}  // namespace

IntraOpPool::IntraOpPool(int threads) {
  threads_ = threads > 0 ? threads : HardwareThreads();
  if (threads_ < 1) {
    threads_ = 1;
  }
}

IntraOpPool::~IntraOpPool() = default;

ThreadPool* IntraOpPool::TryAcquire() {
  if (threads_ <= 1) {
    return nullptr;
  }
  bool expected = false;
  if (!busy_.compare_exchange_strong(expected, true)) {
    return nullptr;
  }
  // Workers spawn on the first successful acquire only; a serial-only session
  // never pays for threads it doesn't use.
  std::call_once(once_, [this] { pool_ = std::make_unique<ThreadPool>(threads_); });
  return pool_.get();
}

void IntraOpPool::Release() { busy_.store(false); }

// All compiled state for one prepared program.
struct PreparedProgram::Impl {
  struct InputCheck {
    const std::vector<float>* buffer = nullptr;
    int64_t size = 0;
    std::string name;
  };
  struct ZeroFill {
    std::vector<float>* buffer = nullptr;
  };
  // Inputs/constants re-validated on every Run (the caller owns their fill).
  std::vector<InputCheck> input_checks;
  // Accumulate-first outputs/intermediates re-zeroed on every Run.
  std::vector<ZeroFill> zero_fills;
  bool has_root = false;
  // The plan, analyzed unless kGeneric, and float* per spec buffer id: the
  // array every engine, the native kernel included, runs it on.
  codegen::KernelSpec spec;
  std::vector<float*> bufs;
  // The compiled `spec`: set when the program was prepared with kNative AND
  // its kernel compiled (or was already cached); otherwise Run executes the
  // spec on the host.
  std::shared_ptr<codegen::NativeKernel> native;
  // kNative: the kernel-cache key of the spec's emitted source.
  std::string kernel_key;
  // Counts Runs under the engine that executes them.
  Counter* runs = nullptr;
  // Intra-op sharding: set when the root loop is kParallel, spans the whole
  // instruction array, and every iteration provably writes a disjoint region
  // (ir::ParallelRootWritesDisjoint). `intra` is non-null only when sharding
  // is both provable and enabled (a caller pool of > 1 threads).
  bool shardable = false;
  int64_t root_extent = 0;
  std::shared_ptr<IntraOpPool> intra;
};

PreparedProgram::PreparedProgram() = default;
PreparedProgram::PreparedProgram(PreparedProgram&&) noexcept = default;
PreparedProgram& PreparedProgram::operator=(PreparedProgram&&) noexcept = default;
PreparedProgram::~PreparedProgram() = default;

StatusOr<PreparedProgram> PreparedProgram::Prepare(const ir::Program& program,
                                                   BufferStore& store,
                                                   const ExecOptions& options) {
  PreparedProgram prepared;
  prepared.impl_ = std::make_unique<Impl>();
  Impl& impl = *prepared.impl_;
  std::unordered_map<int, ir::StoreMode> first_store;
  if (program.root) {
    CollectFirstStores(program.root, first_store);
  }
  // Allocate / validate every declared buffer up front, in one pass, before
  // any compilation: compiled plans capture raw pointers, so allocation and
  // pointer capture must not interleave.
  BindingMap bindings;
  bindings.reserve(program.buffers.size());
  for (const auto& decl : program.buffers) {
    int64_t n = decl.tensor.NumElements();
    auto& buf = store.Get(decl.tensor.id);
    switch (decl.role) {
      case ir::BufferRole::kInput:
      case ir::BufferRole::kConstant:
        if (static_cast<int64_t>(buf.size()) != n) {
          return Status::FailedPrecondition("input buffer " + decl.tensor.name +
                                            " missing or mis-sized");
        }
        impl.input_checks.push_back({&buf, n, decl.tensor.name});
        break;
      case ir::BufferRole::kOutput:
      case ir::BufferRole::kIntermediate: {
        auto it = first_store.find(decl.tensor.id);
        if (it != first_store.end() && it->second == ir::StoreMode::kAssign) {
          // First write is a plain store: skip the redundant zero-fill
          // (fresh elements from growth are value-initialized anyway).
          buf.resize(n);
        } else {
          buf.assign(n, 0.0f);
          impl.zero_fills.push_back({&buf});
        }
        break;
      }
    }
    bindings[decl.tensor.id] = {&buf, n};
  }
  if (!program.root) {
    return prepared;
  }
  AffineBuilder builder;
  builder.program = &program;
  builder.bindings = &bindings;
  builder.analyze = options.engine != ExecEngine::kGeneric;
  builder.Build(program.root);
  if (!builder.status.ok()) {
    return builder.status;
  }
  impl.has_root = true;
  impl.spec = std::move(builder.spec);
  impl.spec.env_size = builder.slots.size();
  impl.bufs = std::move(builder.bufs);
  // Each leaf counts once, by what runs it: kernels (every branch fill, copy
  // or mul-acc), or a per-element value tree whose store offset comes from
  // an accumulator (eval) or from an index program (bytecode).
  static Counter& kernel_leaves = MetricsRegistry::Global().counter("interp.kernel_leaves");
  static Counter& eval_leaves = MetricsRegistry::Global().counter("interp.eval_leaves");
  static Counter& bytecode_leaves = MetricsRegistry::Global().counter("interp.bytecode_leaves");
  for (const Spec::Leaf& lf : impl.spec.leaves) {
    if (lf.bytecode) {
      bytecode_leaves.Add();
    } else if (lf.IsStoreLeaf()) {
      eval_leaves.Add();
    } else {
      kernel_leaves.Add();
    }
  }
  if (builder.analyze) {
    // Intra-op sharding analysis. The root loop is shardable when the
    // schedule marked it kParallel AND the conservative disjointness proof
    // holds; a kParallel root that fails the proof (e.g. a parallel
    // reduction axis) degrades to serial execution, counted so schedules
    // that promise parallelism without delivering it stay visible.
    if (program.root->kind == ir::StmtKind::kFor &&
        program.root->for_kind == ir::ForKind::kParallel && program.root->extent > 1 &&
        !impl.spec.instrs.empty() && impl.spec.instrs[0].kind == Spec::Instr::kLoopBegin &&
        impl.spec.instrs[0].match == static_cast<int>(impl.spec.instrs.size()) - 1) {
      if (ir::ParallelRootWritesDisjoint(program)) {
        impl.shardable = true;
        impl.root_extent = impl.spec.instrs[0].extent;
      } else {
        static Counter& degraded =
            MetricsRegistry::Global().counter("interp.parallel_degraded");
        degraded.Add();
      }
    }
    // Slice the emitted root loop iff the proof allows sharding.
    // Deliberately independent of the thread options, so sessions with
    // different budgets emit one source and share one cached kernel.
    impl.spec.sliced = impl.shardable;
    if (impl.shardable && options.intra_pool && options.intra_pool->threads() > 1) {
      impl.intra = options.intra_pool;
    }
  }
  if (options.engine == ExecEngine::kNative) {
    static Counter& native_programs =
        MetricsRegistry::Global().counter("codegen.native_programs");
    static Counter& fallback_programs =
        MetricsRegistry::Global().counter("codegen.fallback_programs");
    const std::string source = codegen::EmitKernelSource(impl.spec);
    impl.kernel_key = codegen::KernelCache::KeyOf(source);
    auto kernel = codegen::KernelCache::Global().GetOrCompile(source);
    if (kernel.ok()) {
      impl.native = std::move(*kernel);
      native_programs.Add();
    } else {
      // Compile/load failed (e.g. no host toolchain): Prepare still
      // succeeds and Run serves through the affine engine. The failure
      // Status stays cached in the KernelCache for inspection.
      fallback_programs.Add();
    }
  }
  static Counter& generic_runs = MetricsRegistry::Global().counter("interp.generic_programs");
  static Counter& affine_runs = MetricsRegistry::Global().counter("interp.affine_programs");
  static Counter& native_runs = MetricsRegistry::Global().counter("interp.native_programs");
  impl.runs = impl.native ? &native_runs : builder.analyze ? &affine_runs : &generic_runs;
  return prepared;
}

Status PreparedProgram::Run() {
  Impl& impl = *impl_;
  static Counter& executions = MetricsRegistry::Global().counter("interp.programs");
  executions.Add();
  for (const auto& c : impl.input_checks) {
    if (static_cast<int64_t>(c.buffer->size()) != c.size) {
      return Status::FailedPrecondition("input buffer " + c.name + " missing or mis-sized");
    }
  }
  // std::fill (not assign) so the buffer provably never reallocates — the
  // compiled plans hold its data() pointer.
  for (const auto& z : impl.zero_fills) {
    std::fill(z.buffer->begin(), z.buffer->end(), 0.0f);
  }
  if (!impl.has_root) {
    return Status::Ok();
  }
  impl.runs->Add();
  ExecContext ctx;
  // Shard dispatch: split [0, root_extent) into one contiguous slice per
  // pool member and run each with private acc/env/error state. The zero
  // fills above already ran serially, and disjointness was proven at
  // Prepare, so shards never touch the same element. Errors merge lowest
  // shard first — the reported failure is the one serial execution would
  // have hit first, whatever the thread timing.
  const auto run_sharded = [&](ThreadPool& pool,
                               const std::function<void(int64_t, int64_t, ExecContext&)>&
                                   shard) {
    static Counter& parallel =
        MetricsRegistry::Global().counter("interp.parallel_programs");
    parallel.Add();
    const int shards = static_cast<int>(
        std::min<int64_t>(static_cast<int64_t>(pool.size()), impl.root_extent));
    std::vector<ExecContext> shard_ctx(static_cast<size_t>(shards));
    const Status pool_status = pool.ParallelFor(shards, [&](int s) {
      const int64_t b = impl.root_extent * s / shards;
      const int64_t e = impl.root_extent * (s + 1) / shards;
      shard(b, e, shard_ctx[static_cast<size_t>(s)]);
    });
    for (ExecContext& sc : shard_ctx) {
      if (sc.failed) {
        ctx = std::move(sc);
        break;
      }
    }
    if (!ctx.failed && !pool_status.ok()) {
      ctx.failed = true;
      ctx.error = pool_status;
    }
  };
  PoolLease lease(impl.intra.get());
  if (impl.native) {
    if (lease.threads != nullptr) {
      run_sharded(*lease.threads, [&](int64_t b, int64_t e, ExecContext& sc) {
        ApplyNativeRc(impl.native->fn()(impl.bufs.data(), b, e), sc);
      });
    } else {
      // A sliced kernel runs the whole root loop as the slice (0, extent).
      ApplyNativeRc(impl.native->fn()(impl.bufs.data(), 0,
                                      impl.shardable ? impl.root_extent : 0),
                    ctx);
    }
    return ctx.error;
  }
  if (lease.threads != nullptr) {
    run_sharded(*lease.threads, [&](int64_t b, int64_t e, ExecContext& sc) {
      RunAffineShard(impl.spec, impl.bufs.data(), b, e, sc);
    });
  } else {
    std::vector<int64_t> acc = impl.spec.acc_init;
    std::vector<int64_t> env(static_cast<size_t>(impl.spec.env_size), 0);
    RunAffine(impl.spec, impl.bufs.data(), acc, env.data(), ctx);
  }
  return ctx.error;
}

StatusOr<std::string> EnsureNativeKernel(const ir::Program& program) {
  BufferStore scratch;
  for (const auto& decl : program.buffers) {
    if (decl.role == ir::BufferRole::kInput || decl.role == ir::BufferRole::kConstant) {
      scratch.Get(decl.tensor.id).assign(static_cast<size_t>(decl.tensor.NumElements()),
                                         0.0f);
    }
  }
  ExecOptions options;
  options.engine = ExecEngine::kNative;
  auto prepared = PreparedProgram::Prepare(program, scratch, options);
  if (!prepared.ok()) {
    return prepared.status();
  }
  return prepared->impl_->kernel_key;
}

Status Execute(const ir::Program& program, BufferStore& store, const ExecOptions& options) {
  TraceSpan span("interp.execute");
  auto prepared = PreparedProgram::Prepare(program, store, options);
  if (!prepared.ok()) {
    return prepared.status();
  }
  return prepared->Run();
}

}  // namespace alt::runtime
