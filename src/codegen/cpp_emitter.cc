#include "src/codegen/cpp_emitter.h"

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

namespace alt::codegen {

namespace {

// Signed 64-bit literal. INT64_MIN has no direct literal form, so it is
// spelled as an expression; negatives are parenthesized so they can follow
// a `*` or `+` without reparsing surprises.
std::string ILit(int64_t v) {
  if (v == INT64_MIN) {
    return "(-9223372036854775807LL - 1)";
  }
  if (v < 0) {
    return "(" + std::to_string(v) + "LL)";
  }
  return std::to_string(v) + "LL";
}

// Doubles are transported as bit patterns: exact for every value including
// -0.0 and the non-finite ones a decimal literal cannot spell.
std::string DLit(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%016" PRIx64 "ULL", bits);
  return std::string("alt_imm(") + buf + ")";
}

// No standard headers: the preamble declares what it uses, which keeps the
// compile of each small kernel short. Its text, comments included, is part of
// every kernel's source and so of every cache key: editing it recompiles
// every kernel. exp and tanh are the process's libm
// functions; kernels are compiled with -fno-builtin-exp -fno-builtin-tanh
// (jit.cc), so a constant argument is not folded at compile time to a value
// the host's libm does not return. sqrt stays a builtin: IEEE rounds it
// exactly.
const char* kPreamble = R"(// Generated by alt::codegen. Do not edit.
typedef __INT64_TYPE__ i64;
typedef __UINT64_TYPE__ u64;
extern "C" double exp(double);
extern "C" double tanh(double);
extern "C" double sqrt(double);
static inline double alt_imm(u64 bits) {
  double d;
  __builtin_memcpy(&d, &bits, sizeof(d));
  return d;
}
static inline i64 alt_floordiv(i64 a, i64 b) {
  i64 q = a / b;
  if ((a % b != 0) && ((a < 0) != (b < 0))) {
    --q;
  }
  return q;
}
static inline i64 alt_ceildiv(i64 a, i64 b) { return -alt_floordiv(-a, b); }
static inline i64 alt_floormod(i64 a, i64 b) { return a - alt_floordiv(a, b) * b; }
// std::min / std::max, as CompiledExpr and EvalVal call them.
static inline i64 alt_imin(i64 a, i64 b) { return (b < a) ? b : a; }
static inline i64 alt_imax(i64 a, i64 b) { return (a < b) ? b : a; }
static inline double alt_fmin(double a, double b) { return (b < a) ? b : a; }
static inline double alt_fmax(double a, double b) { return (a < b) ? b : a; }
// Mirror of EvalVal's select guard: lo <= e < hi and, for modulus > 1,
// e % modulus == rem with the remainder moved into [0, modulus).
static inline bool alt_guard(i64 e, i64 lo, i64 hi, i64 modulus, i64 rem) {
  if (e < lo || e >= hi) {
    return false;
  }
  if (modulus > 1) {
    i64 m = e % modulus;
    if (m < 0) {
      m += modulus;
    }
    if (m != rem) {
      return false;
    }
  }
  return true;
}
// Mirror of ir::GuardRange: the contiguous [begin,end) of v in [0,extent)
// satisfying lo <= c0 + cv*v < hi and c0 + cv*v == rem (mod modulus).
// Returns false for a periodic (non-contiguous) subset — the planner never
// emits such guards into a native leaf, so reaching it is an internal error.
static inline bool alt_guard_range(i64 c0, i64 cv, i64 lo, i64 hi, i64 modulus, i64 rem,
                                   i64 extent, i64* begin_out, i64* end_out) {
  i64 begin = 0;
  i64 end = extent;
  if (cv == 0) {
    bool ok = c0 >= lo && c0 < hi;
    if (modulus > 1) {
      ok = ok && alt_floormod(c0, modulus) == rem;
    }
    *begin_out = 0;
    *end_out = ok ? extent : 0;
    return true;
  }
  if (modulus > 1) {
    if (cv % modulus != 0) {
      return false;
    }
    if (alt_floormod(c0, modulus) != rem) {
      *begin_out = 0;
      *end_out = 0;
      return true;
    }
  }
  if (cv > 0) {
    begin = alt_ceildiv(lo - c0, cv);
    end = alt_ceildiv(hi - c0, cv);
  } else {
    begin = alt_floordiv(c0 - hi, -cv) + 1;
    end = alt_floordiv(c0 - lo, -cv) + 1;
  }
  if (begin < 0) {
    begin = 0;
  }
  if (end > extent) {
    end = extent;
  }
  if (begin >= end) {
    begin = 0;
    end = 0;
  }
  *begin_out = begin;
  *end_out = end;
  return true;
}
)";

class Emitter {
 public:
  explicit Emitter(const KernelSpec& spec) : spec_(spec) {}

  std::string Emit() {
    out_ << kPreamble;
    out_ << "extern \"C\" i64 " << kKernelSymbol
         << "(float** bufs, i64 begin, i64 end) {\n"
            "  (void)bufs; (void)begin; (void)end;\n";
    EmitRange(0, spec_.instrs.size(), 1);
    out_ << "  return 0;\n}\n";
    return out_.str();
  }

 private:
  void Indent(int depth) {
    for (int i = 0; i < depth; ++i) {
      out_ << "  ";
    }
  }

  // Value of accumulator `acc` at the current loop state: base plus the
  // closed-form contribution of every active enclosing loop that bumps it.
  std::string AccExpr(int acc) const {
    std::ostringstream oss;
    oss << ILit(spec_.acc_init[acc]);
    for (int l : active_loops_) {
      for (const auto& [a, stride] : spec_.instrs[l].bumps) {
        if (a == acc) {
          oss << " + " << ILit(stride) << "*i" << l;
        }
      }
    }
    return oss.str();
  }

  void EmitRange(size_t from, size_t to, int depth) {
    size_t ip = from;
    while (ip < to) {
      const KernelSpec::Instr& ins = spec_.instrs[ip];
      switch (ins.kind) {
        case KernelSpec::Instr::kLoopBegin: {
          // A sliced spec's outermost loop runs the caller's [begin, end)
          // shard; every accumulator below reaches it through the closed-form
          // AccExpr, which is exact for any start index.
          const bool sliced_root = spec_.sliced && ip == 0;
          Indent(depth);
          out_ << "for (i64 i" << ip << " = " << (sliced_root ? "begin" : "0") << "; i"
               << ip << " < " << (sliced_root ? std::string("end") : ILit(ins.extent))
               << "; ++i" << ip
               << ") {\n";
          active_loops_.push_back(static_cast<int>(ip));
          EmitRange(ip + 1, static_cast<size_t>(ins.match), depth + 1);
          active_loops_.pop_back();
          Indent(depth);
          out_ << "}\n";
          ip = static_cast<size_t>(ins.match) + 1;
          break;
        }
        case KernelSpec::Instr::kLeaf: {
          EmitLeaf(spec_.leaves[ins.leaf], ins.leaf, depth);
          ++ip;
          break;
        }
        case KernelSpec::Instr::kLoopEnd:
          ++ip;  // unreachable: loop bodies are walked via `match`
          break;
      }
    }
  }

  // True when the store buffer cannot alias any load of `br`, so `out` may
  // legally carry __restrict.
  static bool NoAlias(const KernelSpec::Leaf& lf, const KernelSpec::Branch& br) {
    if (br.kind == KernelSpec::BranchKind::kCopy && br.a.buffer == lf.out_buffer) {
      return false;
    }
    if (br.kind == KernelSpec::BranchKind::kMulAcc) {
      if (!br.a_is_imm && br.a.buffer == lf.out_buffer) {
        return false;
      }
      if (!br.b_is_imm && br.b.buffer == lf.out_buffer) {
        return false;
      }
    }
    return true;
  }

  // One RunBranch replica as a local lambda running leaf positions [v0, v1).
  // Bounds checks mirror the interpreter exactly: store endpoints first,
  // then each load's endpoints, before any element is touched.
  void EmitSegment(const KernelSpec::Leaf& lf, const KernelSpec::Branch& br,
                   const std::string& name, int depth) {
    const std::string si = ILit(lf.store_inner);
    Indent(depth);
    out_ << "auto " << name << " = [&](i64 v0, i64 v1) -> i64 {\n";
    Indent(depth + 1);
    out_ << "const i64 n = v1 - v0;\n";
    Indent(depth + 1);
    out_ << "if (n <= 0) return 0;\n";
    Indent(depth + 1);
    out_ << "const i64 so = so0_ + " << si << "*v0;\n";
    Indent(depth + 1);
    out_ << "{ const i64 last = so + " << si << "*(n - 1);\n";
    Indent(depth + 2);
    out_ << "if (so < 0 || so >= " << ILit(lf.out_size) << " || last < 0 || last >= "
         << ILit(lf.out_size) << ") return " << kStoreOutOfBounds << "; }\n";
    Indent(depth + 1);
    out_ << "float*" << (NoAlias(lf, br) ? " __restrict" : "") << " out = bufs["
         << lf.out_buffer << "];\n";

    auto emit_load_check = [&](const KernelSpec::Access& a, const char* base,
                               const char* ptr) {
      Indent(depth + 1);
      out_ << "const i64 " << base << " = (" << AccExpr(a.acc) << ") + " << ILit(a.inner)
           << "*v0;\n";
      Indent(depth + 1);
      out_ << "{ const i64 last = " << base << " + " << ILit(a.inner) << "*(n - 1);\n";
      Indent(depth + 2);
      out_ << "if (" << base << " < 0 || " << base << " >= " << ILit(a.size)
           << " || last < 0 || last >= " << ILit(a.size) << ") return " << kLoadOutOfBounds
           << "; }\n";
      Indent(depth + 1);
      out_ << "const float* __restrict " << ptr << " = bufs[" << a.buffer << "];\n";
    };
    const char* assign = lf.accumulate ? "+=" : "=";

    switch (br.kind) {
      case KernelSpec::BranchKind::kFill: {
        Indent(depth + 1);
        out_ << "const float f = (float)" << DLit(br.imm) << ";\n";
        Indent(depth + 1);
        out_ << "for (i64 i = 0; i < n; ++i) out[so + " << si << "*i] " << assign
             << " f;\n";
        break;
      }
      case KernelSpec::BranchKind::kCopy: {
        emit_load_check(br.a, "ia", "A");
        Indent(depth + 1);
        out_ << "for (i64 i = 0; i < n; ++i) out[so + " << si << "*i] " << assign
             << " A[ia + " << ILit(br.a.inner) << "*i];\n";
        break;
      }
      case KernelSpec::BranchKind::kMulAcc: {
        if (!br.a_is_imm) {
          emit_load_check(br.a, "ia", "A");
        }
        if (!br.b_is_imm) {
          emit_load_check(br.b, "ib", "B");
        }
        Indent(depth + 1);
        out_ << "for (i64 i = 0; i < n; ++i) {\n";
        Indent(depth + 2);
        if (br.a_is_imm) {
          out_ << "const double x = " << DLit(br.imm_a) << ";\n";
        } else {
          out_ << "const double x = (double)A[ia + " << ILit(br.a.inner) << "*i];\n";
        }
        Indent(depth + 2);
        if (br.b_is_imm) {
          out_ << "const double y = " << DLit(br.imm_b) << ";\n";
        } else {
          out_ << "const double y = (double)B[ib + " << ILit(br.b.inner) << "*i];\n";
        }
        Indent(depth + 2);
        out_ << "out[so + " << si << "*i] " << assign << " (float)(x * y);\n";
        Indent(depth + 1);
        out_ << "}\n";
        break;
      }
    }
    Indent(depth + 1);
    out_ << "return 0;\n";
    Indent(depth);
    out_ << "};\n";
  }

  // The C++ name of env slot `slot` inside a store leaf: the leaf variable
  // `v`, else the innermost enclosing loop bound to it. A slot no enclosing
  // loop binds (a malformed program reading another loop's variable) names
  // no variable, so the kernel fails to compile and the program runs on the
  // affine engine, as the generic engine would run it.
  std::string SlotName(int64_t slot, const KernelSpec::Leaf& lf) const {
    if (slot == lf.vslot) {
      return "v";
    }
    for (auto it = active_loops_.rbegin(); it != active_loops_.rend(); ++it) {
      if (spec_.instrs[*it].slot == slot) {
        return "i" + std::to_string(*it);
      }
    }
    return "alt_unbound_slot_" + std::to_string(slot);
  }

  // Index program `e` as one C++ expression with CompiledExpr's arithmetic,
  // rebuilt infix from its postfix ops.
  std::string IndexExpr(const ir::CompiledExpr& e, const KernelSpec::Leaf& lf) const {
    using Code = ir::CompiledExpr::OpCode;
    std::vector<std::string> stack;
    for (const ir::CompiledExpr::Op& op : e.ops()) {
      if (op.code == Code::kPushConst) {
        stack.push_back(ILit(op.imm));
        continue;
      }
      if (op.code == Code::kPushVar) {
        stack.push_back(SlotName(op.imm, lf));
        continue;
      }
      std::string b = std::move(stack.back());
      stack.pop_back();
      std::string& a = stack.back();
      auto call = [&](const char* fn) { a = std::string(fn) + "(" + a + ", " + b + ")"; };
      auto infix = [&](const char* sym) { a = "(" + a + " " + sym + " " + b + ")"; };
      switch (op.code) {
        case Code::kAdd:
          infix("+");
          break;
        case Code::kSub:
          infix("-");
          break;
        case Code::kMul:
          infix("*");
          break;
        case Code::kFloorDiv:
          call("alt_floordiv");
          break;
        case Code::kMod:
          call("alt_floormod");
          break;
        case Code::kMin:
          call("alt_imin");
          break;
        default:  // kMax; the pushes continued above
          call("alt_imax");
          break;
      }
    }
    return stack.back();
  }

  // Emits the statements that evaluate value tree `node` as the host's
  // EvalValue does — a load's offset is bounds-checked before it is read,
  // and a select evaluates only the branch its guards take — and returns the
  // C++ expression that holds the value.
  std::string EmitValue(int node, const KernelSpec::Leaf& lf, int depth) {
    const KernelSpec::ValueNode& n = spec_.value_nodes[node];
    if (n.kind == ir::ValKind::kImm) {
      return DLit(n.imm);
    }
    const std::string t = "t" + std::to_string(temps_++);
    if (n.kind == ir::ValKind::kLoad) {
      const std::string o = "o" + t;
      Indent(depth);
      out_ << "const i64 " << o << " = " << IndexExpr(n.offset, lf) << ";\n";
      Indent(depth);
      out_ << "if (" << o << " < 0 || " << o << " >= " << ILit(n.size) << ") return "
           << kLoadOutOfBounds << ";\n";
      Indent(depth);
      out_ << "const double " << t << " = (double)bufs[" << n.buffer << "][" << o << "];\n";
      return t;
    }
    if (n.kind == ir::ValKind::kSelect) {
      Indent(depth);
      out_ << "double " << t << ";\n";
      Indent(depth);
      out_ << "if (";
      for (size_t g = 0; g < n.guards.size(); ++g) {
        const KernelSpec::Guard& c = n.guards[g];
        out_ << (g > 0 ? " && " : "") << "alt_guard(" << IndexExpr(c.expr, lf) << ", "
             << ILit(c.lo) << ", " << ILit(c.hi) << ", " << ILit(c.modulus) << ", "
             << ILit(c.rem) << ")";
      }
      out_ << (n.guards.empty() ? "true" : "") << ") {\n";
      const std::string then_v = EmitValue(n.a, lf, depth + 1);
      Indent(depth + 1);
      out_ << t << " = " << then_v << ";\n";
      Indent(depth);
      out_ << "} else {\n";
      const std::string else_v = EmitValue(n.b, lf, depth + 1);
      Indent(depth + 1);
      out_ << t << " = " << else_v << ";\n";
      Indent(depth);
      out_ << "}\n";
      return t;
    }
    const std::string a = EmitValue(n.a, lf, depth);
    std::string expr;
    switch (n.kind) {
      case ir::ValKind::kExp:
        expr = "exp(" + a + ")";
        break;
      case ir::ValKind::kTanh:
        expr = "tanh(" + a + ")";
        break;
      case ir::ValKind::kSqrt:
        expr = "sqrt(" + a + ")";
        break;
      default: {
        const std::string b = EmitValue(n.b, lf, depth);
        switch (n.kind) {
          case ir::ValKind::kAdd:
            expr = "(" + a + " + " + b + ")";
            break;
          case ir::ValKind::kSub:
            expr = "(" + a + " - " + b + ")";
            break;
          case ir::ValKind::kMul:
            expr = "(" + a + " * " + b + ")";
            break;
          case ir::ValKind::kDiv:
            expr = "(" + a + " / " + b + ")";
            break;
          case ir::ValKind::kMax:
            expr = "alt_fmax(" + a + ", " + b + ")";
            break;
          default:  // kMin; the other kinds returned above
            expr = "alt_fmin(" + a + ", " + b + ")";
            break;
        }
      }
    }
    Indent(depth);
    out_ << "const double " << t << " = " << expr << ";\n";
    return t;
  }

  // A store leaf, run as the host's RunStoreLeaf runs it: per element, the
  // offset, its bounds check, the value, then the conversion to float.
  void EmitStoreLeaf(const KernelSpec::Leaf& lf, int index, int depth) {
    Indent(depth);
    out_ << "for (i64 v = 0; v < " << ILit(lf.extent) << "; ++v) {  // leaf " << index
         << "\n";
    Indent(depth + 1);
    out_ << "const i64 so = " << IndexExpr(lf.store_offset, lf) << ";\n";
    Indent(depth + 1);
    out_ << "if (so < 0 || so >= " << ILit(lf.out_size) << ") return " << kStoreOutOfBounds
         << ";\n";
    temps_ = 0;
    const std::string value = EmitValue(lf.value, lf, depth + 1);
    Indent(depth + 1);
    out_ << "bufs[" << lf.out_buffer << "][so] " << (lf.accumulate ? "+=" : "=")
         << " (float)" << value << ";\n";
    Indent(depth);
    out_ << "}\n";
  }

  void EmitLeaf(const KernelSpec::Leaf& lf, int index, int depth) {
    if (lf.IsStoreLeaf()) {
      EmitStoreLeaf(lf, index, depth);
      return;
    }
    Indent(depth);
    out_ << "{  // leaf " << index << "\n";
    Indent(depth + 1);
    out_ << "const i64 so0_ = " << AccExpr(lf.store_acc) << ";\n";
    EmitSegment(lf, lf.then_k, "seg_then", depth + 1);
    if (!lf.guarded) {
      Indent(depth + 1);
      out_ << "{ const i64 rc = seg_then(0, " << ILit(lf.extent)
           << "); if (rc != 0) return rc; }\n";
    } else {
      EmitSegment(lf, lf.else_k, "seg_else", depth + 1);
      Indent(depth + 1);
      out_ << "i64 tb = 0, te = " << ILit(lf.extent) << ";\n";
      for (const KernelSpec::Cond& c : lf.conds) {
        Indent(depth + 1);
        out_ << "{ i64 gb, ge;\n";
        Indent(depth + 2);
        out_ << "if (!alt_guard_range(" << AccExpr(c.acc) << ", " << ILit(c.cv) << ", "
             << ILit(c.lo) << ", " << ILit(c.hi) << ", " << ILit(c.modulus) << ", "
             << ILit(c.rem) << ", " << ILit(lf.extent) << ", &gb, &ge)) return "
             << kInternalGuard << ";\n";
        Indent(depth + 2);
        out_ << "if (gb > tb) tb = gb;\n";
        Indent(depth + 2);
        out_ << "if (ge < te) te = ge; }\n";
      }
      // Same segment discipline as RunLeaf: an empty then-range runs the
      // else branch over the whole extent (NOT three segments — overlapping
      // else segments would double-accumulate).
      Indent(depth + 1);
      out_ << "if (tb >= te) {\n";
      Indent(depth + 2);
      out_ << "const i64 rc = seg_else(0, " << ILit(lf.extent)
           << "); if (rc != 0) return rc;\n";
      Indent(depth + 1);
      out_ << "} else {\n";
      Indent(depth + 2);
      out_ << "i64 rc = seg_else(0, tb); if (rc != 0) return rc;\n";
      Indent(depth + 2);
      out_ << "rc = seg_then(tb, te); if (rc != 0) return rc;\n";
      Indent(depth + 2);
      out_ << "rc = seg_else(te, " << ILit(lf.extent) << "); if (rc != 0) return rc;\n";
      Indent(depth + 1);
      out_ << "}\n";
    }
    Indent(depth);
    out_ << "}\n";
  }

  const KernelSpec& spec_;
  std::vector<int> active_loops_;  // instr indices of enclosing loops
  int temps_ = 0;  // value temporaries of the current store leaf
  std::ostringstream out_;
};

}  // namespace

std::string EmitKernelSource(const KernelSpec& spec) { return Emitter(spec).Emit(); }

}  // namespace alt::codegen
