// Crash-isolated out-of-process measurement workers.
//
// The measurement engine's in-process path evaluates candidates on a thread
// pool; a segfaulting, OOM-ing, or hanging candidate takes the whole tuning
// session down with it. WorkerPool moves candidate evaluation into FORKED
// child processes so the tuner survives anything a candidate can do:
//
//   * A worker that EXITS (crash, kill -9, clean death) is detected by pipe
//     EOF, killed/reaped, and respawned; the in-flight candidate is requeued
//     as a transient failure.
//   * A worker that writes a GARBLED frame (CRC mismatch, torn write,
//     protocol desync) is killed and respawned the same way — the corruption
//     never reaches the tuner.
//   * A worker that HANGS past the per-candidate `deadline_ms` watchdog is
//     SIGKILLed and respawned; the candidate retries.
//   * Candidates that fail persistently exhaust the RetryPolicy and surface
//     as a failed MeasureResult — the caller's quarantine machinery takes it
//     from there. The tuner process never dies and never loses a candidate.
//
// DETERMINISM. The parent is a single-threaded poll(2) scheduler that
// consults the FaultInjector itself (children never see injected faults) and
// reports per-candidate outcomes positionally, so the isolated path yields
// bit-identical results and budget accounting to the in-process path — and
// resuming from the tuning database works unchanged. Both paths run the
// engine's one evaluation; evaluation order across workers is
// nondeterministic, but outcome REDUCTION (in measure.cc) is slot-ordered.
//
// FORK CONTRACT. Children are forked per measurement batch and inherit the
// batch context (graph/assignment/group/schedules) by copy-on-write, so no
// graph serialization crosses the pipe. The child body runs only the pure
// lower+estimate evaluation and raw pipe I/O: no engine locks, no logging,
// no shared allocator state may be touched after fork. This is safe while
// the only threads that allocate during a batch are the engine's own pool
// threads, which are idle whenever the isolated path runs (it replaces
// ParallelFor rather than nesting inside it).

#ifndef ALT_AUTOTUNE_WORKER_POOL_H_
#define ALT_AUTOTUNE_WORKER_POOL_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "src/support/fault_injection.h"
#include "src/support/status.h"
#include "src/support/subprocess.h"

namespace alt::autotune {

struct RetryPolicy;  // measure.h; broken cycle — measure.h includes this header

// Wildcard site for WorkerFaultHooks: the hook fires for every candidate.
inline constexpr uint64_t kAnyMeasureSite = ~0ull;

// Test-only fault hooks executed INSIDE the worker child, keyed by the same
// 64-bit site fingerprint the FaultInjector uses. A hook fires when its site
// matches the candidate (or is kAnyMeasureSite) and the attempt number is
// below its `*_attempts` bound (0 bounds nothing: every attempt fires, which
// drives the candidate into quarantine).
struct WorkerFaultHooks {
  uint64_t crash_site = 0;  // raise(SIGKILL) before evaluating — kill -9
  int crash_attempts = 0;
  uint64_t hang_site = 0;  // sleep far past any deadline; the watchdog kills
  int hang_attempts = 0;
  uint64_t garble_site = 0;  // corrupt the reply frame's checksum
  int garble_attempts = 0;

  bool any() const { return crash_site != 0 || hang_site != 0 || garble_site != 0; }
};

// Knobs for the isolated measurement path (MeasureEngineConfig::isolate).
struct IsolateOptions {
  // Concurrent worker processes; isolation is on exactly when this is > 0.
  // Forked per batch; idle batches (fully answered from cache or database)
  // spawn nothing.
  int workers = 0;
  // Per-candidate watchdog: a worker that has not replied this many ms after
  // dispatch is killed and the candidate retries. <= 0 disables the watchdog
  // (a hung candidate then hangs the batch, as in-process evaluation would).
  int deadline_ms = 10000;
  WorkerFaultHooks faults;
};

// What the child-side evaluation returned for one candidate.
struct WorkerEval {
  Status status = Status::Ok();
  double latency_us = 0.0;
};

// Final per-candidate outcome after the retry policy ran its course: the one
// outcome record of both measurement back ends. WorkerPool::Run fills it here,
// the in-process path fills it on the engine's thread pool, and
// MeasureEngine::Measure reduces either in slot order.
struct WorkerOutcome {
  Status status = Status::Ok();
  double latency_us = 0.0;
  int attempts = 0;  // attempts charged (injected + dispatched), as in-process
  int retries = 0;
  int injected = 0;     // attempts failed by the parent-side FaultInjector
  int64_t eval_ns = 0;  // child-reported lower+estimate time, all attempts
};

class WorkerPool {
 public:
  // Runs in the CHILD; must be pure in `index` (see the fork contract above).
  using EvalFn = std::function<WorkerEval(int index)>;

  // Requires options.workers > 0. `retry`, `injector` (may be null), `sites`,
  // and `eval` are borrowed and must outlive the pool. `sites[index]` is the
  // candidate's stable fingerprint, consulted by the injector (parent) and
  // fault hooks (child).
  WorkerPool(const IsolateOptions& options, const RetryPolicy& retry,
             const FaultInjector* injector, const std::vector<uint64_t>& sites, EvalFn eval);
  ~WorkerPool();  // kills any workers still alive

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  // Evaluates candidates `work` (values are indices passed to `eval`/`sites`)
  // and returns outcomes aligned with `work`. Never throws and never blocks
  // past the watchdog: whatever the workers do, every candidate gets an
  // outcome. Not reentrant; one Run at a time.
  std::vector<WorkerOutcome> Run(const std::vector<int>& work);

  // Workers killed and respawned after a crash, garbled frame, or missed
  // deadline. Initial spawns do not count.
  int64_t restarts() const { return restarts_; }

 private:
  struct Slot {
    ChildProcess proc;
    bool busy = false;
    int item = -1;      // position in `work` currently in flight
    int attempt = 0;
    int64_t deadline_abs_ms = 0;  // 0: no watchdog armed
  };

  int ChildMain(int request_fd, int reply_fd);
  Status Spawn(Slot* slot);
  void Respawn(Slot* slot);  // kill + spawn, counting the restart

  IsolateOptions options_;
  const RetryPolicy& retry_;
  const FaultInjector* injector_;
  const std::vector<uint64_t>& sites_;
  EvalFn eval_;
  const std::vector<int>* work_ = nullptr;  // valid during Run (children fork then)
  std::vector<Slot> slots_;
  int64_t restarts_ = 0;
};

}  // namespace alt::autotune

#endif  // ALT_AUTOTUNE_WORKER_POOL_H_
