// Program interpreter: executes lowered programs on real float buffers.
//
// This is the ground truth that keeps the layout machinery honest — every
// transformed program must produce the same numbers as the canonical
// reference implementation (reference.h), whatever primitive sequences and
// schedules were applied.
//
// Every engine flattens the program into one codegen::KernelSpec (loop
// begin/end instructions and leaves) and runs it one of three ways:
//   - kAffine (default): loads/stores get offsets base + Σ stride_i · loop_i
//     (ir/affine.h), run by the iterative loop-nest executor with incremental
//     offset bumping, guard-range splitting and tight inner-loop kernels. A
//     value no kernel covers is evaluated per element (an eval leaf); a store
//     with a non-affine offset runs the generic compiled store (a bytecode
//     leaf).
//   - kGeneric: the same executor on a spec built without the affine
//     analysis — every store a bytecode leaf, every offset and value
//     evaluated per element — kept as the oracle for differential testing.
//   - kNative: the affine spec emitted as C++ (src/codegen), JIT-compiled
//     into a dlopened shared object and cached process-wide by program
//     structure. Eval and bytecode leaves call back into the interpreter per
//     leaf; if the kernel cannot be compiled at all (no host compiler),
//     Prepare degrades to the affine engine and still succeeds.
// All engines produce bit-identical buffers.

#ifndef ALT_RUNTIME_INTERPRETER_H_
#define ALT_RUNTIME_INTERPRETER_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "src/ir/stmt.h"
#include "src/support/status.h"
#include "src/support/thread_pool.h"

namespace alt::runtime {

// Storage keyed by tensor id. Buffers persist across program executions so a
// lowered network can run group by group.
class BufferStore {
 public:
  std::vector<float>& Get(int tensor_id) { return buffers_[tensor_id]; }
  const std::vector<float>* Find(int tensor_id) const {
    auto it = buffers_.find(tensor_id);
    return it == buffers_.end() ? nullptr : &it->second;
  }
  bool Has(int tensor_id) const { return buffers_.count(tensor_id) > 0; }

 private:
  std::unordered_map<int, std::vector<float>> buffers_;
};

enum class ExecEngine {
  kAffine,   // affine engine with per-store generic fallback (the default)
  kGeneric,  // every store evaluated per element, without the affine analysis
  kNative,   // JIT-compiled kernels with per-leaf interpreter fallback;
             // degrades to kAffine when compilation is unavailable
};

// Intra-op worker pool with a built-in thread budget. One pool is shared by
// every prepared program of a session: a Run that wants to shard a kParallel
// root TryAcquire()s the pool and runs serially (bit-identically) when
// another Run already holds it. That single-holder gate is the budget policy
// — with batch fan-out F and intra-op threads T, peak live threads are
// F + T - 1 (one sharded Run joins the pool's T - 1 workers), never F * T.
// Worker threads spawn lazily on the first successful acquire, so sessions
// whose programs never shard cost nothing.
class IntraOpPool {
 public:
  // `threads` is total intra-op parallelism for one sharded Run (the caller
  // participates). <= 0 selects HardwareThreads(); 1 disables sharding.
  explicit IntraOpPool(int threads = 0);
  ~IntraOpPool();

  IntraOpPool(const IntraOpPool&) = delete;
  IntraOpPool& operator=(const IntraOpPool&) = delete;

  int threads() const { return threads_; }

  // The pool when this caller may shard; nullptr when sharding is disabled
  // (threads() == 1) or another Run holds the pool. Non-blocking — a refused
  // caller executes serially rather than queueing. Pair with Release().
  ThreadPool* TryAcquire();
  void Release();

 private:
  int threads_ = 1;
  std::atomic<bool> busy_{false};
  std::once_flag once_;
  std::unique_ptr<ThreadPool> pool_;
};

struct ExecOptions {
  ExecEngine engine = ExecEngine::kAffine;
  // Intra-op pool for sharding a root ForKind::kParallel loop whose
  // iterations provably write disjoint regions (ir::ParallelRootWritesDisjoint)
  // on the affine and native engines. Null, or a 1-thread pool, keeps
  // execution serial; results are bit-identical at any thread count. Sessions
  // share one pool across their programs so concurrent Runs never stack
  // worker threads.
  std::shared_ptr<IntraOpPool> intra_pool;
};

// A program compiled once against a fixed BufferStore, executable many times.
//
// Prepare() performs everything Execute() used to do per call except the
// execution itself: buffer allocation/validation and plan construction. The
// compiled plan captures raw pointers into `store`'s buffers, so between
// Prepare() and the last Run() the store must stay alive and its buffers must
// never be erased or resized. Run() re-zeros
// only the accumulate-first output/intermediate buffers (via std::fill — no
// reallocation) and executes; repeated Runs on the same inputs are
// bit-identical to repeated one-shot Execute() calls.
class PreparedProgram {
 public:
  PreparedProgram(PreparedProgram&&) noexcept;
  PreparedProgram& operator=(PreparedProgram&&) noexcept;
  ~PreparedProgram();

  static StatusOr<PreparedProgram> Prepare(const ir::Program& program, BufferStore& store,
                                           const ExecOptions& options = ExecOptions());

  Status Run();

 private:
  PreparedProgram();

  struct Impl;
  std::unique_ptr<Impl> impl_;
};

// Executes `program` against `store` (Prepare + Run in one shot). Buffers for
// inputs/constants must be present and correctly sized; outputs and
// intermediates are allocated up front in one pass before plan compilation
// (zero-filled only when the program's first write to them accumulates).
Status Execute(const ir::Program& program, BufferStore& store,
               const ExecOptions& options = ExecOptions());

// Compiles (or fetches from the process-wide codegen::KernelCache) the
// native kernel for `program` against scratch buffers and returns its cache
// key. Used by artifact save to embed kernels without a live session; the
// key's object bytes are then available via KernelCache::ObjectBytes (which
// reports the compile failure when the toolchain was unavailable).
StatusOr<std::string> EnsureNativeKernel(const ir::Program& program);

}  // namespace alt::runtime

#endif  // ALT_RUNTIME_INTERPRETER_H_
