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
// variables are env slots numbered in statement pre-order. A leaf is either a
// kernel leaf, whose every branch is a fill, copy or mul-acc kernel, or a
// store leaf, which carries its store offset as an index program and its
// value as a value tree, both over those ids and slots.
//
// The spec is the only description of what runs. The affine and generic
// engines execute it directly, and the generated function (cpp_emitter.h)
// executes it with the same arithmetic: the same double→float conversion
// sequences, the same element order, the same guard-range splitting, and the
// same segment-endpoint bounds checks; every engine runs a store leaf
// element by element from its trees. Bit-identity between them is a
// contract, not an aspiration — the randomized differential corpora in
// tests/affine_exec_test.cc enforce it three ways.

#ifndef ALT_CODEGEN_KERNEL_SPEC_H_
#define ALT_CODEGEN_KERNEL_SPEC_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "src/ir/eval.h"
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

  // One ANDed select guard of a value tree: the index program e must satisfy
  // lo <= e < hi and (when modulus > 1) e ≡ rem (mod modulus).
  struct Guard {
    ir::CompiledExpr expr;
    int64_t lo = 0, hi = 0, modulus = 1, rem = 0;
  };

  // One node of a store leaf's value tree, evaluated in double.
  struct ValueNode {
    ir::ValKind kind = ir::ValKind::kImm;
    double imm = 0.0;            // kImm
    int buffer = -1;             // kLoad: buffer id
    int64_t size = 0;            // kLoad: element count, for the bounds check
    ir::CompiledExpr offset;     // kLoad: linearized element offset
    std::vector<Guard> guards;   // kSelect: all must hold to take `a`
    int a = -1, b = -1;  // operands (value_nodes); a select's then / else
  };

  struct Leaf {
    int64_t extent = 1;  // leaf loop trip count (1 for singleton stores)
    int vslot = -1;      // env slot of the consumed loop (-1: singleton)
    // True when the store offset is not affine, or the spec is the generic
    // engine's: a store leaf with no store accumulator.
    bool bytecode = false;
    int out_buffer = -1;
    int64_t out_size = 0;
    // Store leaves only: the linearized store offset, and the root of the
    // store value in value_nodes.
    ir::CompiledExpr store_offset;
    int value = -1;
    // Every leaf but a bytecode one: the store offset's accumulator.
    int store_acc = -1;
    int64_t store_inner = 0;
    bool accumulate = false;
    // Kernel leaves only: the guard split and the branch kernels.
    bool guarded = false;
    std::vector<Cond> conds;
    Branch then_k, else_k;  // else_k only when guarded

    // True when no kernel runs the leaf: every engine evaluates its trees
    // per element.
    bool IsStoreLeaf() const { return value >= 0; }
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
  // runtime can shard it. Independent of thread options, so serial and
  // sharded sessions emit one source and share one kernel.
  bool sliced = false;
  std::vector<int64_t> acc_init;  // accumulator base values
  std::vector<Instr> instrs;
  std::vector<Leaf> leaves;
  // The store leaves' value trees; nodes are numbered children first.
  std::vector<ValueNode> value_nodes;
};

}  // namespace alt::codegen

#endif  // ALT_CODEGEN_KERNEL_SPEC_H_
