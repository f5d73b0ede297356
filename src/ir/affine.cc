#include "src/ir/affine.h"

#include <algorithm>

#include "src/ir/value.h"

namespace alt::ir {

namespace {

int64_t FloorDivI(int64_t a, int64_t b) {
  int64_t q = a / b;
  if ((a % b != 0) && ((a < 0) != (b < 0))) {
    --q;
  }
  return q;
}

int64_t CeilDivI(int64_t a, int64_t b) { return -FloorDivI(-a, b); }

int64_t FloorModI(int64_t a, int64_t b) { return a - FloorDivI(a, b) * b; }

}  // namespace

int64_t AffineForm::MinValue(const std::vector<AffineLoop>& loops) const {
  int64_t v = base;
  for (size_t i = 0; i < coeffs.size() && i < loops.size(); ++i) {
    if (coeffs[i] < 0) {
      v += coeffs[i] * std::max<int64_t>(loops[i].extent - 1, 0);
    }
  }
  return v;
}

int64_t AffineForm::MaxValue(const std::vector<AffineLoop>& loops) const {
  int64_t v = base;
  for (size_t i = 0; i < coeffs.size() && i < loops.size(); ++i) {
    if (coeffs[i] > 0) {
      v += coeffs[i] * std::max<int64_t>(loops[i].extent - 1, 0);
    }
  }
  return v;
}

AffineAnalyzer::AffineAnalyzer(std::vector<AffineLoop> loops) : loops_(std::move(loops)) {
  for (size_t i = 0; i < loops_.size(); ++i) {
    // Inner bindings shadow outer ones for duplicate var ids (which a
    // well-formed program never has anyway).
    var_pos_[loops_[i].var_id] = static_cast<int>(i);
  }
}

std::optional<AffineAnalyzer::Ranged> AffineAnalyzer::Dec(const ExprNode* n) const {
  const size_t nl = loops_.size();
  switch (n->kind) {
    case ExprKind::kConst: {
      Ranged r;
      r.form.base = n->value;
      r.form.coeffs.assign(nl, 0);
      r.lo = r.hi = n->value;
      return r;
    }
    case ExprKind::kVar: {
      auto it = var_pos_.find(n->var_id);
      if (it == var_pos_.end()) {
        return std::nullopt;  // not an enclosing loop: non-affine residue
      }
      Ranged r;
      r.form.coeffs.assign(nl, 0);
      r.form.coeffs[it->second] = 1;
      r.lo = 0;
      r.hi = std::max<int64_t>(loops_[it->second].extent - 1, 0);
      return r;
    }
    default:
      break;
  }
  auto a = Dec(n->a.get());
  if (!a) {
    return std::nullopt;
  }
  auto b = Dec(n->b.get());
  if (!b) {
    return std::nullopt;
  }
  auto range_of = [&](const AffineForm& f) -> std::pair<int64_t, int64_t> {
    return {f.MinValue(loops_), f.MaxValue(loops_)};
  };
  switch (n->kind) {
    case ExprKind::kAdd: {
      Ranged r;
      r.form.base = a->form.base + b->form.base;
      r.form.coeffs.resize(nl);
      for (size_t i = 0; i < nl; ++i) {
        r.form.coeffs[i] = a->form.coeffs[i] + b->form.coeffs[i];
      }
      std::tie(r.lo, r.hi) = range_of(r.form);
      return r;
    }
    case ExprKind::kSub: {
      Ranged r;
      r.form.base = a->form.base - b->form.base;
      r.form.coeffs.resize(nl);
      for (size_t i = 0; i < nl; ++i) {
        r.form.coeffs[i] = a->form.coeffs[i] - b->form.coeffs[i];
      }
      std::tie(r.lo, r.hi) = range_of(r.form);
      return r;
    }
    case ExprKind::kMul: {
      // One side must be a pure constant.
      const Ranged* c = nullptr;
      const Ranged* x = nullptr;
      auto is_const = [](const Ranged& r) {
        for (int64_t co : r.form.coeffs) {
          if (co != 0) {
            return false;
          }
        }
        return true;
      };
      if (is_const(*a)) {
        c = &*a;
        x = &*b;
      } else if (is_const(*b)) {
        c = &*b;
        x = &*a;
      } else {
        return std::nullopt;
      }
      Ranged r;
      int64_t k = c->form.base;
      r.form.base = x->form.base * k;
      r.form.coeffs.resize(nl);
      for (size_t i = 0; i < nl; ++i) {
        r.form.coeffs[i] = x->form.coeffs[i] * k;
      }
      std::tie(r.lo, r.hi) = range_of(r.form);
      return r;
    }
    case ExprKind::kFloorDiv:
    case ExprKind::kMod: {
      // Divisor must be a positive constant.
      bool b_const = true;
      for (int64_t co : b->form.coeffs) {
        b_const = b_const && co == 0;
      }
      if (!b_const || b->form.base <= 0) {
        return std::nullopt;
      }
      int64_t d = b->form.base;
      // Divisibility split: a = div_part + rem_part where every term of
      // div_part is divisible by d. If rem_part's range lies in [0, d), the
      // floor division drops rem_part exactly and the mod keeps it exactly.
      AffineForm div_part, rem_part;
      div_part.coeffs.assign(nl, 0);
      rem_part.coeffs.assign(nl, 0);
      rem_part.base = FloorModI(a->form.base, d);
      div_part.base = a->form.base - rem_part.base;
      for (size_t i = 0; i < nl; ++i) {
        if (a->form.coeffs[i] % d == 0) {
          div_part.coeffs[i] = a->form.coeffs[i];
        } else {
          rem_part.coeffs[i] = a->form.coeffs[i];
        }
      }
      int64_t rlo = rem_part.MinValue(loops_);
      int64_t rhi = rem_part.MaxValue(loops_);
      if (rlo >= 0 && rhi < d) {
        Ranged r;
        if (n->kind == ExprKind::kFloorDiv) {
          r.form.base = div_part.base / d;
          r.form.coeffs.resize(nl);
          for (size_t i = 0; i < nl; ++i) {
            r.form.coeffs[i] = div_part.coeffs[i] / d;
          }
        } else {
          r.form = rem_part;
        }
        std::tie(r.lo, r.hi) = range_of(r.form);
        return r;
      }
      // Whole-range single quotient: a's range maps into one multiple of d.
      int64_t qlo = FloorDivI(a->lo, d);
      int64_t qhi = FloorDivI(a->hi, d);
      if (qlo == qhi) {
        Ranged r;
        if (n->kind == ExprKind::kFloorDiv) {
          r.form.base = qlo;
          r.form.coeffs.assign(nl, 0);
          r.lo = r.hi = qlo;
        } else {
          // a mod d == a - qlo * d, exactly, over the whole domain.
          r.form = a->form;
          r.form.base -= qlo * d;
          std::tie(r.lo, r.hi) = range_of(r.form);
        }
        return r;
      }
      return std::nullopt;
    }
    case ExprKind::kMin:
    case ExprKind::kMax: {
      // Difference-range comparison: d(v) = b(v) - a(v) is affine and exact,
      // so a sign-definite difference picks one operand at EVERY point of the
      // domain (this resolves the unfold clamps when tile sizes line up).
      AffineForm diff;
      diff.base = b->form.base - a->form.base;
      diff.coeffs.resize(nl);
      for (size_t i = 0; i < nl; ++i) {
        diff.coeffs[i] = b->form.coeffs[i] - a->form.coeffs[i];
      }
      int64_t dlo = diff.MinValue(loops_);
      int64_t dhi = diff.MaxValue(loops_);
      if (n->kind == ExprKind::kMin) {
        if (dlo >= 0) {
          return a;  // a <= b everywhere
        }
        if (dhi <= 0) {
          return b;
        }
      } else {
        if (dhi <= 0) {
          return a;  // a >= b everywhere
        }
        if (dlo >= 0) {
          return b;
        }
      }
      return std::nullopt;
    }
    default:
      return std::nullopt;
  }
}

std::optional<AffineForm> AffineAnalyzer::Decompose(const Expr& e) const {
  if (!e) {
    return std::nullopt;
  }
  auto r = Dec(e.get());
  if (!r) {
    return std::nullopt;
  }
  return r->form;
}

namespace {

// Collects the distinct Min(affine, const) nodes the plain rules cannot
// resolve — the unfold clamps whose boundary falls inside the domain.
void CollectClamps(const Expr& e, const AffineAnalyzer& az,
                   std::vector<Expr>& clamps) {
  if (!e) {
    return;
  }
  if (e->kind == ExprKind::kMin && !az.Decompose(e)) {
    auto a = az.Decompose(e->a);
    auto b = az.Decompose(e->b);
    auto is_const = [](const std::optional<AffineForm>& f) {
      if (!f) {
        return false;
      }
      for (int64_t c : f->coeffs) {
        if (c != 0) {
          return false;
        }
      }
      return true;
    };
    if ((a && is_const(b)) || (b && is_const(a))) {
      for (const Expr& seen : clamps) {
        if (seen.get() == e.get() || ExprEquals(seen, e)) {
          return;  // the shared tile node (or an equal spelling)
        }
      }
      clamps.push_back(e);
      return;  // operands are affine: nothing unresolved below
    }
  }
  CollectClamps(e->a, az, clamps);
  CollectClamps(e->b, az, clamps);
}

// Rebuilds `e` with every occurrence of `target` (by identity or structure)
// replaced by `repl`. Folding constructors may simplify the result; that only
// helps the subsequent decomposition.
Expr ReplaceNode(const Expr& e, const Expr& target, const Expr& repl) {
  if (!e) {
    return e;
  }
  if (e.get() == target.get() || ExprEquals(e, target)) {
    return repl;
  }
  if (!e->a && !e->b) {
    return e;
  }
  Expr a = ReplaceNode(e->a, target, repl);
  Expr b = ReplaceNode(e->b, target, repl);
  if (a.get() == e->a.get() && b.get() == e->b.get()) {
    return e;
  }
  switch (e->kind) {
    case ExprKind::kAdd:
      return Add(a, b);
    case ExprKind::kSub:
      return Sub(a, b);
    case ExprKind::kMul:
      return Mul(a, b);
    case ExprKind::kFloorDiv:
      return FloorDiv(a, b);
    case ExprKind::kMod:
      return Mod(a, b);
    case ExprKind::kMin:
      return Min(a, b);
    case ExprKind::kMax:
      return Max(a, b);
    default:
      return e;
  }
}

}  // namespace

std::optional<ClampedForm> AffineAnalyzer::DecomposeClamped(const Expr& e) const {
  if (!e || Decompose(e)) {
    return std::nullopt;  // empty, or no clamp needed — callers use Decompose
  }
  std::vector<Expr> clamps;
  CollectClamps(e, *this, clamps);
  if (clamps.size() != 1) {
    return std::nullopt;
  }
  const Expr& clamp = clamps[0];
  auto fa = Decompose(clamp->a);
  auto fb = Decompose(clamp->b);
  if (!fa || !fb) {
    return std::nullopt;
  }
  auto is_const = [](const AffineForm& f) {
    for (int64_t c : f.coeffs) {
      if (c != 0) {
        return false;
      }
    }
    return true;
  };
  // Orient as Min(guard, bound).
  Expr guard_e = clamp->a;
  ClampedForm out;
  if (is_const(*fb)) {
    out.guard = *fa;
    out.bound = fb->base;
  } else if (is_const(*fa)) {
    guard_e = clamp->b;
    out.guard = *fb;
    out.bound = fa->base;
  } else {
    return std::nullopt;
  }
  auto then_f = Decompose(ReplaceNode(e, clamp, guard_e));
  auto else_f = Decompose(ReplaceNode(e, clamp, Const(out.bound)));
  if (!then_f || !else_f) {
    return std::nullopt;  // residue beyond the clamp
  }
  out.then_form = *std::move(then_f);
  out.else_form = *std::move(else_f);
  return out;
}

std::optional<std::pair<int64_t, int64_t>> GuardRange(int64_t c0, int64_t cv, int64_t lo,
                                                      int64_t hi, int64_t modulus,
                                                      int64_t rem, int64_t extent) {
  int64_t begin = 0;
  int64_t end = extent;
  if (cv == 0) {
    bool ok = c0 >= lo && c0 < hi;
    if (modulus > 1) {
      ok = ok && FloorModI(c0, modulus) == rem;
    }
    return ok ? std::make_pair<int64_t, int64_t>(0, int64_t{extent})
              : std::make_pair<int64_t, int64_t>(0, 0);
  }
  if (modulus > 1) {
    if (cv % modulus != 0) {
      return std::nullopt;  // periodic subset: not a contiguous range
    }
    // The residue is constant along v.
    if (FloorModI(c0, modulus) != rem) {
      return std::make_pair<int64_t, int64_t>(0, 0);
    }
  }
  if (cv > 0) {
    begin = CeilDivI(lo - c0, cv);
    end = CeilDivI(hi - c0, cv);
  } else {
    // c0 + cv*v decreasing in v.
    begin = FloorDivI(c0 - hi, -cv) + 1;
    end = FloorDivI(c0 - lo, -cv) + 1;
  }
  begin = std::max<int64_t>(begin, 0);
  end = std::min<int64_t>(end, extent);
  if (begin >= end) {
    begin = end = 0;
  }
  return std::make_pair(begin, end);
}

namespace {

// Union of one index expression's values over every access, relative to
// the root loop: value(i0, inner...) = coeff * i0 + r with r in [lo, hi].
struct RootFootprint {
  bool provable = true;  // every access decomposed with one root coefficient
  bool any = false;
  int64_t coeff = 0;
  int64_t lo = 0, hi = 0;  // inclusive residual range at root iteration 0

  void Add(const std::optional<AffineForm>& form, const std::vector<AffineLoop>& loops) {
    if (!provable) {
      return;
    }
    if (!form) {
      provable = false;
      return;
    }
    // Residual range over every loop but the root (coeff index 0).
    int64_t flo = form->base;
    int64_t fhi = form->base;
    for (size_t i = 1; i < form->coeffs.size(); ++i) {
      int64_t span = form->coeffs[i] * std::max<int64_t>(loops[i].extent - 1, 0);
      if (span < 0) {
        flo += span;
      } else {
        fhi += span;
      }
    }
    if (!any) {
      any = true;
      coeff = form->coeffs[0];
      lo = flo;
      hi = fhi;
      return;
    }
    if (form->coeffs[0] != coeff) {
      provable = false;  // mixed root strides: footprints shear apart
      return;
    }
    lo = std::min(lo, flo);
    hi = std::max(hi, fhi);
  }

  // True when the footprint translates by a nonzero coeff per root
  // iteration and spans fewer than |coeff| values, so it never overlaps
  // itself.
  bool Disjoint() const {
    const int64_t step = coeff < 0 ? -coeff : coeff;
    return provable && any && coeff != 0 && hi - lo < step;
  }
};

// Per-tensor footprints of every access: of the flat offset, and of each
// dimension index.
struct TensorFootprint {
  bool written = false;
  RootFootprint flat;
  std::vector<RootFootprint> dims;
  // Every dimension index of every access stays inside [0, shape_d) over
  // the domain, so distinct multi-indices are distinct elements.
  bool dims_in_bounds = true;

  bool Disjoint() const {
    return flat.Disjoint() ||
           (dims_in_bounds && std::any_of(dims.begin(), dims.end(),
                                          [](const RootFootprint& d) { return d.Disjoint(); }));
  }
};

struct FootprintScan {
  const Program* program = nullptr;
  std::vector<AffineLoop> loops;  // enclosing loops, root first
  std::unordered_map<int, TensorFootprint> tensors;

  void AddAccess(int tensor_id, const std::vector<Expr>& indices, bool is_write) {
    TensorFootprint& fp = tensors[tensor_id];
    fp.written = fp.written || is_write;
    const BufferDecl* decl = program->FindBuffer(tensor_id);
    if (decl == nullptr || indices.size() != decl->tensor.shape.size()) {
      fp.flat.provable = false;
      fp.dims_in_bounds = false;
      return;
    }
    const auto strides = RowMajorStrides(decl->tensor.shape);
    Expr linear = Const(0);
    for (size_t d = 0; d < indices.size(); ++d) {
      linear = Add(linear, Mul(indices[d], strides[d]));
    }
    AffineAnalyzer az(loops);
    fp.flat.Add(az.Decompose(linear), loops);
    fp.dims.resize(indices.size());
    for (size_t d = 0; d < indices.size(); ++d) {
      auto form = az.Decompose(indices[d]);
      fp.dims[d].Add(form, loops);
      fp.dims_in_bounds = fp.dims_in_bounds && form && form->MinValue(loops) >= 0 &&
                          form->MaxValue(loops) < decl->tensor.shape[d];
    }
  }

  void ScanVal(const Val& v) {
    if (!v) {
      return;
    }
    if (v->kind == ValKind::kLoad) {
      AddAccess(v->tensor_id, v->indices, /*is_write=*/false);
      return;
    }
    // Select guard expressions index loops, not memory — only the value
    // operands can carry loads.
    ScanVal(v->a);
    ScanVal(v->b);
  }

  void Scan(const Stmt& s) {
    switch (s->kind) {
      case StmtKind::kFor:
        loops.push_back({s->loop_var->var_id, s->extent});
        Scan(s->body);
        loops.pop_back();
        return;
      case StmtKind::kBlock:
        for (const auto& child : s->stmts) {
          Scan(child);
        }
        return;
      case StmtKind::kStore:
        AddAccess(s->tensor_id, s->indices, /*is_write=*/true);
        ScanVal(s->value);
        return;
    }
  }
};

}  // namespace

bool ParallelRootWritesDisjoint(const Program& program) {
  if (!program.root || program.root->kind != StmtKind::kFor) {
    return false;
  }
  const StmtNode* root = program.root.get();
  FootprintScan scan;
  scan.program = &program;
  scan.loops.push_back({root->loop_var->var_id, root->extent});
  scan.Scan(root->body);
  for (const auto& [tensor_id, fp] : scan.tensors) {
    if (fp.written && !fp.Disjoint()) {
      return false;  // read-only tensors never conflict
    }
  }
  return true;
}

}  // namespace alt::ir
