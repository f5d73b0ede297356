// Fast evaluation of index expressions.
//
// The interpreter and the trace-driven cache simulator evaluate access
// expressions millions of times; recursing over shared_ptr trees with a hash
// map environment is far too slow. CompiledExpr flattens an Expr into a
// postfix program over a dense slot array of loop-variable values.

#ifndef ALT_IR_EVAL_H_
#define ALT_IR_EVAL_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/ir/expr.h"
#include "src/support/status.h"

namespace alt::ir {

// Maps var ids to dense slots. The owner (interpreter / tracer) keeps a
// parallel vector<int64_t> of current loop values.
class VarSlotMap {
 public:
  int AddVar(int var_id) {
    auto it = slots_.find(var_id);
    if (it != slots_.end()) {
      return it->second;
    }
    int slot = static_cast<int>(slots_.size());
    slots_.emplace(var_id, slot);
    return slot;
  }

  // Returns -1 when the var is unknown.
  int SlotOf(int var_id) const {
    auto it = slots_.find(var_id);
    return it == slots_.end() ? -1 : it->second;
  }

  int size() const { return static_cast<int>(slots_.size()); }

 private:
  std::unordered_map<int, int> slots_;
};

class CompiledExpr {
 public:
  enum class OpCode : uint8_t {
    kPushConst,
    kPushVar,
    kAdd,
    kSub,
    kMul,
    kFloorDiv,
    kMod,
    kMin,
    kMax,
  };
  struct Op {
    OpCode code;
    int64_t imm = 0;  // const value or slot index
  };

  // Compiles `e`. A var without a slot in `slots` is a malformed program
  // (e.g. a corrupt artifact lowered to IR referencing a loop variable
  // that no loop binds) — it returns InvalidArgument rather than aborting, so
  // one bad candidate can never take down a tuning process.
  static StatusOr<CompiledExpr> Compile(const Expr& e, const VarSlotMap& slots);

  // Default-constructed: evaluates to 0 (a single push-const op), so callers
  // that record a Status and keep a placeholder expression stay well-defined.
  CompiledExpr() : ops_{{OpCode::kPushConst, 0}} {}

  // Thread-safe: the operand stack lives on the caller's stack (with a heap
  // spill for pathologically deep expressions), so one CompiledExpr may be
  // evaluated concurrently from intra-op shards sharing a prepared program.
  int64_t Eval(const int64_t* env) const;

  // True when the expression is a constant (no ops besides one push-const).
  bool IsConstant() const { return ops_.size() == 1 && ops_[0].code == OpCode::kPushConst; }

  // The postfix program, read-only: the native emitter prints it back as C++
  // (codegen/cpp_emitter.h).
  const std::vector<Op>& ops() const { return ops_; }

 private:
  // Operand slots Eval keeps inline on its own stack; expressions needing
  // more (never seen from real lowerings) spill to a per-call heap buffer.
  static constexpr size_t kInlineStack = 64;

  std::vector<Op> ops_;
};

}  // namespace alt::ir

#endif  // ALT_IR_EVAL_H_
