// Serving-side execution of a lowered network.
//
// InferenceSession is the one-time-setup / many-runs split: construction
// compiles every program into a PreparedProgram, pre-sizes a buffer arena,
// and caches the canonical<->physical conversion plans for every graph
// input, constant, store_at host, and the network output. Run() then only
// converts inputs, executes the prepared plans, and converts the output —
// no per-call allocation of intermediates, plan compilation, or layout
// analysis.
//
// Threading model: Run() is safe to call concurrently. Each in-flight call
// borrows a complete arena (BufferStore + prepared programs) from a
// mutex-guarded pool; a new arena is built lazily when all existing ones are
// busy, so the pool grows with concurrency and is reused afterwards. The pool
// is BOUNDED by SessionOptions::max_arenas — once every arena is in flight a
// borrower blocks until one is returned (counted in session.arena_waits /
// session.arena_wait_us), so a request burst costs queueing, not unbounded
// memory. RunBatchDetailed() fans a vector of requests across a caller's
// ThreadPool with exactly that mechanism.

#ifndef ALT_RUNTIME_SESSION_H_
#define ALT_RUNTIME_SESSION_H_

#include <memory>
#include <vector>

#include "src/graph/layout_assignment.h"
#include "src/loop/lowering.h"
#include "src/runtime/interpreter.h"
#include "src/runtime/reference.h"
#include "src/support/thread_pool.h"

namespace alt::runtime {

struct SessionOptions {
  // Engine for every prepared program (runtime/interpreter.h).
  ExecEngine engine = ExecEngine::kAffine;
  // Upper bound on arenas the session may materialize (i.e. on concurrent
  // in-flight Run calls before borrowers block). <= 0 selects the default:
  // 2x hardware threads (at least 2) — enough that a worker-per-core server
  // never waits, while a burst of N >> cores callers queues instead of
  // allocating N full buffer arenas.
  int max_arenas = 0;
  // Intra-op threads for sharding provably-parallel root loops (see
  // ExecOptions::intra_pool). <= 0 selects HardwareThreads(); 1 keeps
  // every program serial. All arenas share ONE IntraOpPool built at Create,
  // whose single-holder budget keeps batch fan-out from multiplying with
  // intra-op sharding: with fan-out F, peak live threads are F +
  // intra_threads - 1, never F * intra_threads.
  int intra_threads = 0;
};

class InferenceSession {
 public:
  // Builds a session for `net` (lowered from `graph` under `assignment`).
  // All three are copied in, so the session is self-contained. Plan
  // compilation happens here: a malformed network fails at Create, not at
  // the first Run. Fails with InvalidArgument on an empty network.
  static StatusOr<InferenceSession> Create(const graph::Graph& graph,
                                           const graph::LayoutAssignment& assignment,
                                           const loop::LoweredNetwork& net,
                                           const SessionOptions& options = SessionOptions());

  // Serves one request: canonical graph inputs + constants in, the final
  // group output in CANONICAL layout out. Thread-safe; the same data gives
  // bit-identical outputs call after call, on every engine.
  StatusOr<std::vector<float>> Run(const TensorDataMap& canonical_data) const;

  // Runs every request concurrently on `pool` (caller-owned and reusable
  // across batches, so the per-batch cost is fan-out, not thread spawn) and
  // returns per-request results in request order: element i is request i's
  // output or its own failure Status. One malformed request never discards
  // the other requests' outputs — the caller rejects exactly the bad one.
  // Concurrent calls are fine as long as each caller passes its own pool
  // (ThreadPool::ParallelFor is not reentrant on one pool).
  std::vector<StatusOr<std::vector<float>>> RunBatchDetailed(
      const std::vector<TensorDataMap>& requests, ThreadPool& pool) const;

  // Tensor id / canonical shape of the network output.
  int output_tensor() const;
  const std::vector<int64_t>& output_shape() const;

  // Arenas materialized so far (== peak concurrent Run calls; >= 1).
  int arena_count() const;

  // Arena cap this session resolved from SessionOptions::max_arenas.
  int max_arenas() const;

 private:
  InferenceSession() = default;

  struct Impl;
  std::shared_ptr<Impl> impl_;
};

}  // namespace alt::runtime

#endif  // ALT_RUNTIME_SESSION_H_
