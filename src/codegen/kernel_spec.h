// The flattened execution plan of one lowered program, shared by every
// interpreter engine and the native backend.
//
// The runtime's plan builder (runtime/interpreter.cc) writes a KernelSpec
// straight from the statement tree: loops become begin/end instructions that
// bump offset accumulators, and each innermost store becomes a leaf. For the
// generic engine it skips the affine analysis, so loops carry no bumps and
// every leaf is a bytecode leaf; such a spec is never compiled. The spec
// holds no pointers: buffers are ids into a table the caller passes at run
// time, numbered in the order the builder commits accesses, and loop
// variables are env slots numbered in statement pre-order. A leaf the
// kernels cannot run (a bytecode leaf, or one with a kEval branch) is a
// store leaf: it also carries its store offset as an integer tree and its
// value as a value tree, both over those ids and slots. That makes the spec a
// pure function of the program's STRUCTURE — two programs with equal
// `ir::ProgramStructureKey` build byte-identical specs — which is what lets
// compiled kernels be cached and shared across sessions, artifacts, and
// hot-swaps (kernel_cache.h).
//
// The affine engine executes the spec directly. The generated function
// (cpp_emitter.h) executes it with the same arithmetic: the same
// double→float conversion sequences, the same element order, the same
// guard-range splitting, and the same segment-endpoint bounds checks; it
// runs every store leaf element by element from its trees, exactly as the
// generic engine runs a compiled store. Bit-identity between the two is a
// contract, not an aspiration — the randomized differential corpora in
// tests/affine_exec_test.cc enforce it three ways.

#ifndef ALT_CODEGEN_KERNEL_SPEC_H_
#define ALT_CODEGEN_KERNEL_SPEC_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "src/ir/value.h"

namespace alt::codegen {

// The generated entry point.
//   bufs      — float* per spec buffer id.
//   begin/end — iteration slice [begin, end) of the outermost loop when the
//               spec was built `sliced` (a kParallel root with proven
//               write-disjointness — ir::ParallelRootWritesDisjoint): the
//               runtime dispatches one invocation per shard. Non-sliced
//               kernels ignore both (callers pass 0, 0); sliced kernels run
//               the full program when called with (0, root extent).
// Returns 0 on success or one of the KernelError codes below. The kernel
// keeps its loop variables in locals: it reads and writes nothing but
// `bufs`.
using KernelFn = int64_t (*)(float** bufs, int64_t begin, int64_t end);

// Nonzero return codes of a generated kernel.
enum KernelError : int64_t {
  kOk = 0,
  kStoreOutOfBounds = 1,
  kLoadOutOfBounds = 2,
  kInternalGuard = 4,  // unsplittable guard reached the native executor
};

struct KernelSpec {
  // One affine load/store offset: value(acc) + inner * v, where acc is an
  // accumulator (base value + per-loop bumps) and v the leaf loop variable.
  struct Access {
    int buffer = -1;      // index into the buffer table
    int64_t size = 0;     // element count, for endpoint bounds checks
    int acc = -1;         // accumulator id
    int64_t inner = 0;    // stride along the leaf variable
  };

  enum class BranchKind {
    kFill,    // splat an immediate
    kCopy,    // copy one affine load
    kMulAcc,  // load*load, load*imm or imm*load
    kEval,    // any other value, evaluated per element from the value tree
  };

  struct Branch {
    BranchKind kind = BranchKind::kFill;
    double imm = 0.0;  // kFill splat value
    bool a_is_imm = false, b_is_imm = false;  // kMulAcc operand forms
    double imm_a = 0.0, imm_b = 0.0;
    Access a, b;
  };

  // One ANDed guard along the leaf loop: e(v) = acc + cv * v must satisfy
  // lo <= e < hi and (when modulus > 1) e ≡ rem (mod modulus).
  struct Cond {
    int acc = -1;
    int64_t cv = 0, lo = 0, hi = 0, modulus = 1, rem = 0;
  };

  // One node of an integer offset tree, evaluated as ir::CompiledExpr
  // evaluates the expression: floor-div and mod round toward negative
  // infinity. A kVar node reads an env slot.
  struct IndexNode {
    ir::ExprKind op = ir::ExprKind::kConst;
    int64_t value = 0;  // kConst: the constant; kVar: the env slot
    int a = -1, b = -1;  // operands (index_nodes) of the binary ops
  };

  // One ANDed select guard, as the generic engine evaluates it: the offset
  // tree e must satisfy lo <= e < hi and (when modulus > 1) e ≡ rem
  // (mod modulus).
  struct Guard {
    int expr = -1;  // root in index_nodes
    int64_t lo = 0, hi = 0, modulus = 1, rem = 0;
  };

  // One node of a store leaf's value tree, evaluated in double.
  struct ValueNode {
    ir::ValKind kind = ir::ValKind::kImm;
    double imm = 0.0;    // kImm
    int buffer = -1;     // kLoad: buffer id
    int64_t size = 0;    // kLoad: element count, for the bounds check
    int offset = -1;     // kLoad: root in index_nodes
    std::vector<Guard> guards;  // kSelect: all must hold to take `a`
    int a = -1, b = -1;  // operands (value_nodes); a select's then / else
  };

  struct Leaf {
    int64_t extent = 1;  // leaf loop trip count (1 for singleton stores)
    int vslot = -1;      // env slot of the consumed loop (-1: singleton)
    // True when the store offset is not affine, or the spec is the generic
    // engine's: the host runs the leaf's generic compiled store per element,
    // and the kernel fields below are unused.
    bool bytecode = false;
    int out_buffer = -1;
    int64_t out_size = 0;
    // Store leaves only (IsStoreLeaf): roots of the linearized store offset
    // in index_nodes and of the store value in value_nodes.
    int store_offset = -1;
    int value = -1;
    int store_acc = -1;
    int64_t store_inner = 0;
    bool accumulate = false;
    bool guarded = false;
    std::vector<Cond> conds;
    Branch then_k, else_k;  // else_k only when guarded

    // True for an eval leaf: some branch is a per-element value tree.
    bool HasEval() const {
      return then_k.kind == BranchKind::kEval ||
             (guarded && else_k.kind == BranchKind::kEval);
    }

    // True when no kernel runs the leaf: the native kernel evaluates its
    // trees per element, as the generic engine runs a compiled store.
    bool IsStoreLeaf() const { return bytecode || HasEval(); }
  };

  // Flattened loop program.
  struct Instr {
    enum Kind { kLoopBegin, kLoopEnd, kLeaf };
    Kind kind = kLeaf;
    int slot = -1;       // kLoopBegin: env slot
    int64_t extent = 0;  // kLoopBegin
    int match = -1;      // kLoopBegin: index of matching end (and vice versa)
    int leaf = -1;       // kLeaf: index into `leaves`
    // kLoopBegin: accumulator bumps per iteration (accumulator id, stride).
    std::vector<std::pair<int, int64_t>> bumps;
  };

  int env_size = 0;
  // True when instrs[0] is the program's outermost loop AND that loop is a
  // kParallel root with proven cross-iteration write-disjointness: the
  // emitted outer loop then runs `for (i = begin; i < end; ++i)` so the
  // runtime can shard it. Pure function of program structure (the proof
  // consults only extents/strides/guards, all part of ProgramStructureKey),
  // so cache sharing by structure key stays sound.
  bool sliced = false;
  std::vector<int64_t> acc_init;  // accumulator base values
  std::vector<Instr> instrs;
  std::vector<Leaf> leaves;
  // The store leaves' trees; nodes are numbered children first.
  std::vector<IndexNode> index_nodes;
  std::vector<ValueNode> value_nodes;
};

}  // namespace alt::codegen

#endif  // ALT_CODEGEN_KERNEL_SPEC_H_
