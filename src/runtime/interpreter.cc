#include "src/runtime/interpreter.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <optional>
#include <sstream>
#include <utility>

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

// A value expression compiled against buffer pointers and var slots.
struct CompiledVal {
  ir::ValKind kind;
  double imm = 0.0;
  const std::vector<float>* buffer = nullptr;  // kLoad
  CompiledExpr offset;                         // kLoad: linearized element offset
  int64_t buffer_size = 0;
  std::unique_ptr<CompiledVal> a;
  std::unique_ptr<CompiledVal> b;
  struct Cond {
    CompiledExpr expr;
    int64_t lo, hi, modulus, rem;
  };
  std::vector<Cond> conds;
};

struct CompiledStore {
  std::vector<float>* buffer = nullptr;
  int64_t buffer_size = 0;
  CompiledExpr offset;
  CompiledVal value;
  ir::StoreMode mode;
};

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

struct Compiler {
  // Loop-variable slots, numbered by AffineBuilder::Build.
  VarSlotMap slots;
  const BindingMap* bindings = nullptr;
  const ir::Program* program = nullptr;
  // First compile error; what is compiled after that is a safe placeholder.
  Status status = Status::Ok();

  void Fail(const std::string& msg) {
    if (status.ok()) {
      status = Status::InvalidArgument(msg);
    }
  }

  CompiledExpr CompileExpr(const ir::Expr& e) {
    auto compiled = CompiledExpr::Compile(e, slots);
    if (!compiled.ok()) {
      Fail(compiled.status().message());
      return CompiledExpr();
    }
    return std::move(*compiled);
  }

  std::vector<float>* Binding(int tensor_id, int64_t* size_out) {
    auto it = bindings->find(tensor_id);
    if (it == bindings->end()) {
      Fail("no buffer binding for tensor " + std::to_string(tensor_id));
      *size_out = 0;
      return nullptr;
    }
    *size_out = it->second.size;
    return it->second.buffer;
  }

  CompiledExpr LinearOffset(int tensor_id, const std::vector<ir::Expr>& indices,
                            int64_t* size_out) {
    *size_out = 0;
    const ir::BufferDecl* decl = program->FindBuffer(tensor_id);
    if (decl == nullptr) {
      Fail("no buffer decl for tensor " + std::to_string(tensor_id));
      return CompiledExpr();
    }
    auto strides = ir::RowMajorStrides(decl->tensor.shape);
    if (indices.size() != strides.size()) {
      std::ostringstream oss;
      oss << "index rank mismatch on tensor " << tensor_id << ": " << indices.size()
          << " vs " << strides.size();
      Fail(oss.str());
      return CompiledExpr();
    }
    *size_out = decl->tensor.NumElements();
    return CompileExpr(LinearIndexExpr(indices, strides));
  }

  CompiledVal CompileVal(const ir::Val& v) {
    CompiledVal out;
    out.kind = v->kind;
    out.imm = v->imm;
    if (v->kind == ir::ValKind::kLoad) {
      int64_t size = 0;
      out.buffer = Binding(v->tensor_id, &size);
      out.offset = LinearOffset(v->tensor_id, v->indices, &out.buffer_size);
      return out;
    }
    for (const auto& c : v->conds) {
      out.conds.push_back({CompileExpr(c.expr), c.lo, c.hi, c.modulus, c.rem});
    }
    if (v->a) {
      out.a = std::make_unique<CompiledVal>(CompileVal(v->a));
    }
    if (v->b) {
      out.b = std::make_unique<CompiledVal>(CompileVal(v->b));
    }
    return out;
  }

  CompiledStore CompileStore(const ir::StmtNode& st) {
    CompiledStore out;
    int64_t size = 0;
    out.buffer = Binding(st.tensor_id, &size);
    out.offset = LinearOffset(st.tensor_id, st.indices, &out.buffer_size);
    out.value = CompileVal(st.value);
    out.mode = st.mode;
    return out;
  }
};

double EvalVal(const CompiledVal& v, const int64_t* env, ExecContext& ctx) {
  switch (v.kind) {
    case ir::ValKind::kImm:
      return v.imm;
    case ir::ValKind::kLoad: {
      int64_t off = v.offset.Eval(env);
      if (off < 0 || off >= v.buffer_size) {
        std::ostringstream oss;
        oss << "load out of bounds: " << off << " size " << v.buffer_size;
        ctx.Fail(oss.str());
        return 0.0;
      }
      return (*v.buffer)[off];
    }
    case ir::ValKind::kAdd:
      return EvalVal(*v.a, env, ctx) + EvalVal(*v.b, env, ctx);
    case ir::ValKind::kSub:
      return EvalVal(*v.a, env, ctx) - EvalVal(*v.b, env, ctx);
    case ir::ValKind::kMul:
      return EvalVal(*v.a, env, ctx) * EvalVal(*v.b, env, ctx);
    case ir::ValKind::kDiv:
      return EvalVal(*v.a, env, ctx) / EvalVal(*v.b, env, ctx);
    case ir::ValKind::kMax:
      return std::max(EvalVal(*v.a, env, ctx), EvalVal(*v.b, env, ctx));
    case ir::ValKind::kMin:
      return std::min(EvalVal(*v.a, env, ctx), EvalVal(*v.b, env, ctx));
    case ir::ValKind::kExp:
      return std::exp(EvalVal(*v.a, env, ctx));
    case ir::ValKind::kTanh:
      return std::tanh(EvalVal(*v.a, env, ctx));
    case ir::ValKind::kSqrt:
      return std::sqrt(EvalVal(*v.a, env, ctx));
    case ir::ValKind::kSelect: {
      for (const auto& c : v.conds) {
        int64_t e = c.expr.Eval(env);
        if (e < c.lo || e >= c.hi) {
          return EvalVal(*v.b, env, ctx);
        }
        if (c.modulus > 1) {
          int64_t m = e % c.modulus;
          if (m < 0) {
            m += c.modulus;
          }
          if (m != c.rem) {
            return EvalVal(*v.b, env, ctx);
          }
        }
      }
      return EvalVal(*v.a, env, ctx);
    }
  }
  return 0.0;
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
// a leaf that runs the innermost loop as a tight kernel (fill / copy /
// mul-accumulate) or evaluates a general value per element (kEval), offsets
// still bumped; top-level pad/unfold Selects whose guards are affine in the
// leaf variable are split into contiguous [else)[then)[else) ranges so the
// condition check leaves the inner loop. Stores with a non-affine offset
// become bytecode leaves that run the generic CompiledStore. A bytecode or
// eval leaf also carries its store as offset and value trees, which the
// native kernel runs per element. The spec holds only indices; the HostTable
// beside it holds what they name in this process.
// The affine engine runs the spec below and the native engine compiles the
// same spec, and every kernel performs the exact double→float conversion
// sequence of the generic evaluator, in the same element order, so the three
// engines are bit-identical by construction.
//
// The generic engine builds its spec with the analysis off: plain loops with
// no bumps, and every store a bytecode leaf. Its offsets come from
// CompiledExpr and its values from EvalVal, with no accumulator, guard or
// clamp split, kernel or shard, so it stays an independent oracle for the
// other two.
// ===========================================================================

using Spec = codegen::KernelSpec;

struct HostLeaf {
  // The leaf's generic compiled store, compiled for bytecode leaves only;
  // the affine and generic engines run it per element.
  std::unique_ptr<CompiledStore> store;
  // Per-element values of the leaf's kEval branches (null for other kinds),
  // owned by HostTable::evals: the store's whole value, or a split select
  // branch.
  const CompiledVal* then_eval = nullptr;
  const CompiledVal* else_eval = nullptr;
};

struct HostTable {
  std::vector<float*> bufs;      // by spec buffer id; the native kernel's `bufs`
  std::vector<HostLeaf> leaves;  // by spec leaf index
  std::vector<std::unique_ptr<CompiledVal>> evals;  // values run as kEval
};

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
  Compiler* compiler = nullptr;
  // Off for the generic engine: no access is analyzed, so every leaf is a
  // bytecode leaf and no loop carries bumps.
  bool analyze = true;
  Spec spec;
  HostTable host;
  // Enclosing loops, outermost first. When building a consumed leaf the leaf
  // loop is the last entry (with no loop instruction of its own).
  std::vector<ir::AffineLoop> loops;
  std::vector<int> loop_instrs;

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
    auto it = std::find(host.bufs.begin(), host.bufs.end(), data);
    if (it == host.bufs.end()) {
      host.bufs.push_back(data);
      return static_cast<int>(host.bufs.size()) - 1;
    }
    return static_cast<int>(it - host.bufs.begin());
  }

  // A load whose offset needs the unfold clamp split (ir::DecomposeClamped):
  // affine on each side of the clamp boundary, so the leaf becomes a guarded
  // two-branch kernel instead of degrading to per-element evaluation.
  struct ClampedPending {
    ir::ClampedForm cf;
    float* data = nullptr;
    int64_t size = 0;
  };

  // An access's row-major linearized offset and its binding; nullopt when
  // the program declares or binds no such buffer, or the rank is wrong.
  struct Linear {
    ir::Expr offset;
    float* data = nullptr;
    int64_t size = 0;
  };

  std::optional<Linear> Linearize(int tensor_id, const std::vector<ir::Expr>& indices) const {
    const ir::BufferDecl* decl = compiler->program->FindBuffer(tensor_id);
    if (decl == nullptr) {
      return std::nullopt;
    }
    auto strides = ir::RowMajorStrides(decl->tensor.shape);
    if (indices.size() != strides.size()) {
      return std::nullopt;
    }
    auto it = compiler->bindings->find(tensor_id);
    if (it == compiler->bindings->end()) {
      return std::nullopt;
    }
    return Linear{LinearIndexExpr(indices, strides), it->second.buffer->data(),
                  it->second.size};
  }

  std::optional<Pending> Analyze(int tensor_id, const std::vector<ir::Expr>& indices,
                                 const ir::AffineAnalyzer& az) const {
    auto lin = Linearize(tensor_id, indices);
    if (!lin) {
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
    if (!lin) {
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

  // Classification of a store value whose only obstruction is one clamped
  // load: yields the exact then/else kernel pair plus the clamp guard. Covers
  // the shapes a clamped unfold read appears in — a bare copy and a product
  // with an immediate or affine co-operand.
  struct PendingClamp {
    PendingBranch then_b, else_b;
    ir::AffineForm guard;
    int64_t bound = 0;
  };

  std::optional<PendingClamp> ClassifyClamped(const ir::Val& v,
                                              const ir::AffineAnalyzer& az) {
    auto split_load = [&](const ir::Val& o) -> std::optional<ClampedPending> {
      if (o->kind != ir::ValKind::kLoad || Analyze(o->tensor_id, o->indices, az)) {
        return std::nullopt;
      }
      return AnalyzeClamped(o->tensor_id, o->indices, az);
    };
    switch (v->kind) {
      case ir::ValKind::kLoad: {
        auto cp = split_load(v);
        if (!cp) {
          return std::nullopt;
        }
        PendingClamp pc;
        pc.guard = cp->cf.guard;
        pc.bound = cp->cf.bound;
        pc.then_b.k.kind = Spec::BranchKind::kCopy;
        pc.then_b.a = Pending{cp->cf.then_form, cp->data, cp->size};
        pc.else_b.k.kind = Spec::BranchKind::kCopy;
        pc.else_b.a = Pending{cp->cf.else_form, cp->data, cp->size};
        return pc;
      }
      case ir::ValKind::kMul: {
        if (!v->a || !v->b) {
          return std::nullopt;
        }
        PendingClamp pc;
        pc.then_b.k.kind = pc.else_b.k.kind = Spec::BranchKind::kMulAcc;
        bool have_clamp = false;
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
          if (!cp || have_clamp) {
            return false;  // unresolved residue, or a second clamp
          }
          have_clamp = true;
          pc.guard = cp->cf.guard;
          pc.bound = cp->cf.bound;
          *then_acc = Pending{cp->cf.then_form, cp->data, cp->size};
          *else_acc = Pending{cp->cf.else_form, cp->data, cp->size};
          return true;
        };
        if (!operand(v->a, &pc.then_b.k.a_is_imm, &pc.then_b.k.imm_a, &pc.else_b.k.imm_a,
                     &pc.then_b.a, &pc.else_b.a) ||
            !operand(v->b, &pc.then_b.k.b_is_imm, &pc.then_b.k.imm_b, &pc.else_b.k.imm_b,
                     &pc.then_b.b, &pc.else_b.b) ||
            !have_clamp) {
          return std::nullopt;
        }
        pc.else_b.k.a_is_imm = pc.then_b.k.a_is_imm;
        pc.else_b.k.b_is_imm = pc.then_b.k.b_is_imm;
        return pc;
      }
      default:
        return std::nullopt;
    }
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

  // A value no kernel covers: the host evaluates it per element.
  static Spec::Branch EvalBranch() {
    Spec::Branch k;
    k.kind = Spec::BranchKind::kEval;
    return k;
  }

  // One side of a split select: a kernel, or else the side compiled for eval.
  Spec::Branch BranchFor(const ir::Val& v, const ir::AffineAnalyzer& az, bool consumed,
                         const CompiledVal** eval) {
    if (auto k = Classify(v, az)) {
      return CommitBranch(std::move(*k), consumed);
    }
    host.evals.push_back(std::make_unique<CompiledVal>(compiler->CompileVal(v)));
    *eval = host.evals.back().get();
    return EvalBranch();
  }

  void BuildLeaf(const ir::StmtNode* st, bool consumed, int vslot) {
    Spec::Leaf leaf;
    HostLeaf hl;
    leaf.extent = consumed ? loops.back().extent : 1;
    leaf.vslot = consumed ? vslot : -1;
    leaf.accumulate = st->mode == ir::StoreMode::kAccumulate;
    // Unanalyzed, or a non-affine store offset: the host runs the generic
    // compiled store.
    leaf.bytecode = !analyze || !ClassifyLeaf(st, consumed, leaf, hl);
    if (leaf.bytecode) {
      hl.store = std::make_unique<CompiledStore>(compiler->CompileStore(*st));
    } else if (leaf.then_k.kind == Spec::BranchKind::kEval && hl.then_eval == nullptr) {
      // The whole store value, per element.
      host.evals.push_back(std::make_unique<CompiledVal>(compiler->CompileVal(st->value)));
      hl.then_eval = host.evals.back().get();
    }
    // After the compile above, so a malformed store reports the compiler's
    // error first.
    if (leaf.IsStoreLeaf()) {
      BuildStoreTrees(*st, leaf);
    }
    EmitLeaf(std::move(leaf), std::move(hl));
  }

  // The spec's pointer-free copy of a store leaf: its linearized offset and
  // its value as trees over spec buffer ids and env slots.
  void BuildStoreTrees(const ir::StmtNode& st, Spec::Leaf& leaf) {
    auto lin = Linearize(st.tensor_id, st.indices);
    if (!lin) {
      return;  // reported by CompileStore
    }
    leaf.out_buffer = BufferId(lin->data);
    leaf.out_size = lin->size;
    leaf.store_offset = IndexTree(lin->offset);
    leaf.value = ValueTree(st.value);
  }

  int IndexTree(const ir::Expr& e) {
    const ir::ExprNode* n = e.get();
    Spec::IndexNode node;
    node.op = n->kind;
    if (n->kind == ir::ExprKind::kConst) {
      node.value = n->value;
    } else if (n->kind == ir::ExprKind::kVar) {
      node.value = compiler->slots.SlotOf(n->var_id);
    } else {
      node.a = IndexTree(n->a);
      node.b = IndexTree(n->b);
    }
    spec.index_nodes.push_back(node);
    return static_cast<int>(spec.index_nodes.size()) - 1;
  }

  // Mirrors CompileVal: a load's access, a select's guards, and every
  // operand present.
  int ValueTree(const ir::Val& v) {
    Spec::ValueNode node;
    node.kind = v->kind;
    node.imm = v->imm;
    if (v->kind == ir::ValKind::kLoad) {
      if (auto lin = Linearize(v->tensor_id, v->indices)) {
        node.buffer = BufferId(lin->data);
        node.size = lin->size;
        node.offset = IndexTree(lin->offset);
      }  // else reported by CompileVal
    } else if (v->kind == ir::ValKind::kSelect) {
      for (const ir::IntervalCond& c : v->conds) {
        node.guards.push_back({IndexTree(c.expr), c.lo, c.hi, c.modulus, c.rem});
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

  // Fills the kernel fields of `leaf` (and `hl`'s split-branch values) from
  // the affine analysis. False, committing nothing, when the store offset is
  // not affine.
  bool ClassifyLeaf(const ir::StmtNode* st, bool consumed, Spec::Leaf& leaf, HostLeaf& hl) {
    ir::AffineAnalyzer az(loops);
    auto sp = Analyze(st->tensor_id, st->indices, az);
    if (!sp) {
      return false;
    }
    const Spec::Access out = Commit(*sp, consumed);
    leaf.out_buffer = out.buffer;
    leaf.out_size = out.size;
    leaf.store_acc = out.acc;
    leaf.store_inner = out.inner;

    auto sel = ExtractSelect(st->value);
    struct PendingCond {
      ir::AffineForm form;
      Spec::Cond cond;  // complete but for the accumulator
    };
    std::vector<PendingCond> pconds;
    bool split = sel.has_value();
    if (split) {
      for (const ir::IntervalCond& c : *sel->conds) {
        auto f = az.Decompose(c.expr);
        if (!f) {
          split = false;
          break;
        }
        int64_t cv = consumed ? f->coeffs.back() : 0;
        if (c.modulus > 1 && cv % c.modulus != 0) {
          // The guard selects a periodic subset of the leaf range (transposed
          // conv stride-divisibility with the guard var in the inner loop):
          // not a contiguous split — evaluate per element instead.
          split = false;
          break;
        }
        pconds.push_back({std::move(*f), {-1, cv, c.lo, c.hi, c.modulus, c.rem}});
      }
    }
    if (split) {
      leaf.guarded = true;
      for (auto& pc : pconds) {
        pc.cond.acc = NewAcc(pc.form, consumed);
        leaf.conds.push_back(pc.cond);
      }
      leaf.then_k = BranchFor(sel->then_v, az, consumed, &hl.then_eval);
      leaf.else_k = BranchFor(sel->else_v, az, consumed, &hl.else_eval);
    } else if (auto k = Classify(st->value, az)) {
      leaf.then_k = CommitBranch(std::move(*k), consumed);
    } else if (auto ck = ClassifyClamped(st->value, az)) {
      // Unfold clamp split: the load is affine on each side of the boundary
      // g <= bound, so run it as a guarded two-branch kernel with the guard
      // interval [min(g), bound + 1) — then where the clamp is slack, else
      // where it binds (both agree at g == bound).
      leaf.guarded = true;
      int64_t cv = consumed ? ck->guard.coeffs.back() : 0;
      leaf.conds.push_back({NewAcc(ck->guard, consumed), cv,
                            ck->guard.MinValue(az.loops()), ck->bound + 1,
                            /*modulus=*/1, /*rem=*/0});
      leaf.then_k = CommitBranch(std::move(ck->then_b), consumed);
      leaf.else_k = CommitBranch(std::move(ck->else_b), consumed);
    } else {
      leaf.then_k = EvalBranch();
    }
    return true;
  }

  void EmitLeaf(Spec::Leaf&& leaf, HostLeaf&& hl) {
    Spec::Instr ins;
    ins.kind = Spec::Instr::kLeaf;
    ins.leaf = static_cast<int>(spec.leaves.size());
    spec.leaves.push_back(std::move(leaf));
    host.leaves.push_back(std::move(hl));
    spec.instrs.push_back(std::move(ins));
  }

  // Loop slots are numbered in statement pre-order, at each loop before its
  // body compiles, so a spec's env slots are a function of program structure.
  void Build(const ir::Stmt& s) {
    switch (s->kind) {
      case ir::StmtKind::kFor: {
        const int slot = compiler->slots.AddVar(s->loop_var->var_id);
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

// Runs one branch of a leaf over leaf positions [v0, v1). `eval` is the
// branch's value when it is kEval. Leaves are often a few elements long, so
// this call's fixed cost is the engine's per-leaf overhead: the arguments
// every kernel reads come first, where they travel in registers, and the
// bounds-failure path is out of line.
void RunBranch(const Spec::Leaf& lf, const Spec::Branch& k, float* const* bufs,
               const int64_t* acc, int64_t v0, int64_t v1, const CompiledVal* eval,
               int64_t* env, ExecContext& ctx) {
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
    case Spec::BranchKind::kEval: {
      int64_t o = so;
      for (int64_t i = 0; i < n; ++i, o += si) {
        if (lf.vslot >= 0) {
          env[lf.vslot] = v0 + i;
        }
        double v = EvalVal(*eval, env, ctx);
        if (ctx.failed) {
          return;
        }
        if (accumulate) {
          out[o] += static_cast<float>(v);
        } else {
          out[o] = static_cast<float>(v);
        }
      }
      return;
    }
  }
}

// Env-only store loop: evaluates `st` for every leaf position. Runs every
// bytecode leaf (all of the generic engine's); the native kernel emits the
// same loop for its store leaves (codegen/cpp_emitter.h).
void RunStoreLoop(const CompiledStore& st, int64_t extent, int vslot, int64_t* env,
                  ExecContext& ctx) {
  for (int64_t v = 0; v < extent && !ctx.failed; ++v) {
    if (vslot >= 0) {
      env[vslot] = v;
    }
    int64_t off = st.offset.Eval(env);
    if (off < 0 || off >= st.buffer_size) {
      std::ostringstream oss;
      oss << "store out of bounds: " << off << " size " << st.buffer_size;
      ctx.Fail(oss.str());
      return;
    }
    double val = EvalVal(st.value, env, ctx);
    if (ctx.failed) {
      return;
    }
    if (st.mode == ir::StoreMode::kAssign) {
      (*st.buffer)[off] = static_cast<float>(val);
    } else {
      (*st.buffer)[off] += static_cast<float>(val);
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

void RunLeaf(const Spec& spec, const HostTable& host, int li,
             const std::vector<int64_t>& acc, int64_t* env, ExecContext& ctx) {
  const Spec::Leaf& lf = spec.leaves[li];
  const HostLeaf& hl = host.leaves[li];
  if (lf.bytecode) {
    RunStoreLoop(*hl.store, lf.extent, lf.vslot, env, ctx);
    return;
  }
  auto run_then = [&](int64_t v0, int64_t v1) {
    RunBranch(lf, lf.then_k, host.bufs.data(), acc.data(), v0, v1, hl.then_eval, env, ctx);
  };
  auto run_else = [&](int64_t v0, int64_t v1) {
    RunBranch(lf, lf.else_k, host.bufs.data(), acc.data(), v0, v1, hl.else_eval, env, ctx);
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
void RunAffineRange(const Spec& spec, const HostTable& host, size_t from, size_t to,
                    std::vector<int64_t>& acc, int64_t* env, std::vector<int64_t>& iters,
                    ExecContext& ctx) {
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
        RunLeaf(spec, host, ins.leaf, acc, env, ctx);
        ++ip;
        break;
      }
    }
  }
}

void RunAffine(const Spec& spec, const HostTable& host, std::vector<int64_t>& acc,
               int64_t* env, ExecContext& ctx) {
  std::vector<int64_t> iters(spec.instrs.size(), 0);
  RunAffineRange(spec, host, 0, spec.instrs.size(), acc, env, iters, ctx);
}

// Executes iterations [begin, end) of the root loop of `spec` with private
// accumulator/env/iteration state. Preconditions (established by Prepare's
// shardability analysis): instrs[0] is the root kLoopBegin, its matching end
// is the last instruction, and 0 <= begin <= end <= extent. The incremental
// offset state is re-based in closed form — acc = acc_init + stride·begin —
// so a shard starts with exactly the accumulator values serial execution
// would have reached, and the body range restores them after each iteration.
void RunAffineShard(const Spec& spec, const HostTable& host, int64_t begin, int64_t end,
                    ExecContext& ctx) {
  const Spec::Instr& root = spec.instrs[0];
  std::vector<int64_t> acc = spec.acc_init;
  for (const auto& [a, s] : root.bumps) {
    acc[a] += s * begin;
  }
  std::vector<int64_t> env(static_cast<size_t>(spec.env_size), 0);
  std::vector<int64_t> iters(spec.instrs.size(), 0);
  const size_t body_end = static_cast<size_t>(root.match);
  for (int64_t i = begin; i < end && !ctx.failed; ++i) {
    env[root.slot] = i;
    RunAffineRange(spec, host, 1, body_end, acc, env.data(), iters, ctx);
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
  // The plan and what its indices name; analyzed unless kGeneric.
  codegen::KernelSpec spec;
  HostTable host;
  // The compiled `spec`: set when the program was prepared with kNative AND
  // its kernel compiled (or was already cached); otherwise Run executes the
  // spec on the host.
  std::shared_ptr<codegen::NativeKernel> native;
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
  Compiler compiler;
  compiler.bindings = &bindings;
  compiler.program = &program;
  AffineBuilder builder;
  builder.compiler = &compiler;
  builder.analyze = options.engine != ExecEngine::kGeneric;
  builder.Build(program.root);
  if (!compiler.status.ok()) {
    return compiler.status;
  }
  impl.has_root = true;
  impl.spec = std::move(builder.spec);
  impl.spec.env_size = compiler.slots.size();
  impl.host = std::move(builder.host);
  // Each leaf counts once, by what runs it: a kernel (every branch fill,
  // copy or mul-acc — exactly what the native kernel compiles), a
  // per-element value tree, or the generic store.
  static Counter& kernel_leaves = MetricsRegistry::Global().counter("interp.kernel_leaves");
  static Counter& eval_leaves = MetricsRegistry::Global().counter("interp.eval_leaves");
  static Counter& bytecode_leaves = MetricsRegistry::Global().counter("interp.bytecode_leaves");
  for (const Spec::Leaf& lf : impl.spec.leaves) {
    if (lf.bytecode) {
      bytecode_leaves.Add();
    } else if (lf.HasEval()) {
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
    // Slice the emitted root loop iff the structure proof allows sharding.
    // Deliberately independent of the thread options: the flag — like the
    // proof it reflects — is a pure function of ProgramStructureKey, so
    // cached kernels stay shareable across sessions with different budgets.
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
    const std::string key =
        codegen::KernelCache::KeyForStructure(ir::ProgramStructureKey(program));
    auto kernel = codegen::KernelCache::Global().GetOrCompile(key, impl.spec);
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
        ApplyNativeRc(impl.native->fn()(impl.host.bufs.data(), b, e), sc);
      });
    } else {
      // A sliced kernel runs the whole root loop as the slice (0, extent).
      ApplyNativeRc(impl.native->fn()(impl.host.bufs.data(), 0,
                                      impl.shardable ? impl.root_extent : 0),
                    ctx);
    }
    return ctx.error;
  }
  if (lease.threads != nullptr) {
    run_sharded(*lease.threads, [&](int64_t b, int64_t e, ExecContext& sc) {
      RunAffineShard(impl.spec, impl.host, b, e, sc);
    });
  } else {
    std::vector<int64_t> acc = impl.spec.acc_init;
    std::vector<int64_t> env(static_cast<size_t>(impl.spec.env_size), 0);
    RunAffine(impl.spec, impl.host, acc, env.data(), ctx);
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
  return codegen::KernelCache::KeyForStructure(ir::ProgramStructureKey(program));
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
