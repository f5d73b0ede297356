// Parallel measurement engine with a memoizing measurement cache, fault
// injection, retry/quarantine, and a persistent measurement store.
//
// "Measurement" in this code base is lowering a fused group under a schedule
// (loop::LowerGroup) and running the analytic performance model over the
// result (sim::EstimateProgram). Both are pure functions of their inputs —
// they share no mutable state beyond an atomic variable-id counter — so a
// batch of candidates can be evaluated concurrently and still produce
// bit-identical results. The engine exploits that in several ways:
//
//   * PARALLELISM — the cost-model top-k candidates of a tuning batch are
//     lowered and estimated on a fixed-size thread pool. Results are written
//     into positionally-aligned slots and the tuner reduces them in candidate
//     rank order, so a fixed seed reproduces the single-threaded tuning
//     trajectory bit-for-bit at any thread count.
//   * MEMOIZATION — results are cached under a key derived from the group's
//     structural signature (op kinds, attributes, shapes), the serialized
//     layout sequences of every tensor the group touches, and the serialized
//     schedule. A candidate revisited across rounds, layout proposals, or the
//     loop-only stage is returned from the cache and costs zero budget.
//   * FAULT TOLERANCE — an optional FaultInjector simulates transient
//     measurement failures; a failed attempt is retried at once, and
//     candidates that fail persistently (transient retries exhausted, or a
//     deterministic lowering error) are quarantined: their failure is
//     remembered and later requests short-circuit without re-measuring. Failures are never cached as latencies and never abort a
//     batch — the tuner sees a non-ok MeasureResult and moves on.
//   * PERSISTENCE — an optional MeasureDatabase (core::TuningDatabase on
//     disk) answers measurements recorded by earlier runs, consulted after
//     cache/quarantine and written through on every fresh outcome. Database
//     hits report cache_hit == false, so the run spends budget exactly as
//     the run that recorded them did; successful hits prime the cache and
//     failed ones quarantine, so later duplicates behave as in that run too.
//     A run against a populated database therefore walks the exact
//     trajectory of a cold run and issues zero redundant measurements: that
//     is both warm start and crash-safe resume.
//   * ISOLATION — with MeasureEngineConfig::isolate.workers > 0, fresh
//     candidates are evaluated in forked worker subprocesses (worker_pool.h)
//     instead of on the thread pool; a candidate that crashes, hangs, or
//     corrupts its reply costs a worker respawn and a retry, never the tuner
//     process, and persistent offenders land in the quarantine like any
//     other persistent failure. Both back ends run the same evaluation and
//     report the same WorkerOutcome record, which one slot-ordered
//     reduction turns into results and stats.
//
// The cache and quarantine set are thread-safe; lookups and inserts happen on
// the reducing thread, misses are measured by a back end.

#ifndef ALT_AUTOTUNE_MEASURE_H_
#define ALT_AUTOTUNE_MEASURE_H_

#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/autotune/worker_pool.h"
#include "src/graph/layout_assignment.h"
#include "src/loop/lowering.h"
#include "src/sim/perf_model.h"
#include "src/support/fault_injection.h"
#include "src/support/thread_pool.h"

namespace alt::autotune {

// Per-run counters, surfaced on CompiledNetwork and logged at the end of a
// tuning run so cache effectiveness, parallel speedup, and fault recovery are
// observable. Invariant: requested == measured + cache_hits + failed +
// db_hits (the four buckets are disjoint).
struct MeasureStats {
  int64_t requested = 0;   // candidates submitted to the engine
  int64_t measured = 0;    // actual lower+estimate executions that succeeded
  int64_t cache_hits = 0;  // candidates answered from the cache
  int64_t failed = 0;      // fresh failures (lowering errors, retries exhausted,
                           // quarantine short-circuits)
  int64_t db_hits = 0;     // candidates answered from the tuning database
  int64_t retries = 0;     // extra attempts after a transient failure
  int64_t quarantined = 0; // distinct keys placed in quarantine
  // Measurement workers killed and respawned by the isolated path (crash,
  // garbled frame, or missed deadline). 0 unless isolation is enabled.
  int64_t worker_restarts = 0;
  int64_t injected_failures = 0;  // attempts failed by the FaultInjector
  // Wall-clock of Measure() calls, accounted ONCE PER BATCH on the calling
  // thread. The engine's single-caller contract (ParallelFor is not
  // reentrant) means batches never overlap, so this is the true elapsed time
  // spent measuring; it is NOT the work performed — with N pool threads the
  // batch does up to N x wall_ms of lowering+estimation.
  double wall_ms = 0.0;
  // Lower+estimate time summed over every attempt across all pool threads
  // (the "CPU" view). cpu_ms / wall_ms approximates the parallel speedup;
  // with one thread cpu_ms <= wall_ms.
  double cpu_ms = 0.0;
};

struct MeasureResult {
  Status status = Status::Ok();
  double latency_us = 1e30;
  bool cache_hit = false;
  // Answered from the persistent tuning database. Reported with cache_hit ==
  // false so a warm-started or resumed run spends budget exactly as the run
  // that populated the database did.
  bool db_hit = false;
  // Lower+estimate attempts spent on this result (1 for a clean first try;
  // 0 for cache/database/quarantine answers).
  int attempts = 0;
};

// Retry policy for measurement failures. A transient failure is requeued at
// once, until the candidate has spent `max_attempts` attempts.
struct RetryPolicy {
  int max_attempts = 3;
  // Cap on the quarantine set: once this many keys are quarantined, the
  // OLDEST entry is evicted per insertion (it may then be re-measured and
  // re-quarantined — correctness is unaffected, only memoized failure
  // short-circuits are lost). <= 0: unbounded.
  int max_quarantine = 4096;
};

// Persistent store of measured outcomes, keyed by the 64-bit site fingerprint
// (Fnv1a64 of the full measurement cache key — the same identity the fault
// injector uses). Implemented by core::TuningDatabase; the interface lives
// here so autotune does not depend on core. Called only from the engine's
// reducing thread, never concurrently.
class MeasureDatabase {
 public:
  struct Entry {
    bool failed = false;     // the measurement failed persistently
    double latency_us = 0.0; // valid when !failed
  };

  virtual ~MeasureDatabase() = default;
  virtual std::optional<Entry> Lookup(uint64_t site) = 0;
  virtual void Record(uint64_t site, const Entry& entry) = 0;
};

// Every measurement setting, declared once: TuningOptions::measure and
// core::AltOptions::measure embed this struct.
struct MeasureEngineConfig {
  // Threads lowering + estimating a batch's fresh candidates (<= 0: one per
  // hardware core). Results are reduced in candidate order, so any count
  // reproduces the same tuning trajectory for a fixed seed.
  int threads = 1;
  // Simulated transient measurement failures (support/fault_injection.h).
  FaultInjector::Options faults;
  RetryPolicy retry;
  // Out-of-process measurement isolation (see worker_pool.h), on when
  // isolate.workers > 0: fresh candidates are evaluated in forked worker
  // processes instead of on the thread pool, so a crashing, hanging, or
  // garbling candidate costs a worker respawn and a retry, never the tuner
  // process. Both back ends run one evaluation, so results and every
  // MeasureStats count are identical; only worker_restarts and the timings
  // differ.
  IsolateOptions isolate;
};

// Structural cache-key prefix for one fused group under an assignment:
// op kinds + attributes + tensor shapes + serialized layout sequences of all
// tensors the group reads or writes. Two groups with equal keys lower to the
// same program for any given schedule.
std::string GroupCacheKey(const graph::Graph& graph,
                          const graph::LayoutAssignment& assignment,
                          const loop::FusedGroup& group);

class MeasureEngine {
 public:
  // `database`, when set, is the persistent measurement store: consulted
  // after cache/quarantine and written through on every fresh outcome. Not
  // owned; must outlive the engine.
  explicit MeasureEngine(const sim::Machine& machine, MeasureEngineConfig config = {},
                         MeasureDatabase* database = nullptr);

  // Lowers and estimates every schedule for `group`; result i corresponds to
  // schedules[i]. Duplicate schedules within one call are measured once and
  // later occurrences report as cache hits.
  std::vector<MeasureResult> Measure(const graph::Graph& graph,
                                     const graph::LayoutAssignment& assignment,
                                     const loop::FusedGroup& group,
                                     const std::vector<loop::LoopSchedule>& schedules);

  MeasureResult MeasureOne(const graph::Graph& graph,
                           const graph::LayoutAssignment& assignment,
                           const loop::FusedGroup& group,
                           const loop::LoopSchedule& schedule);

  const MeasureStats& stats() const { return stats_; }
  int threads() const { return pool_.size(); }
  int64_t cache_size() const;
  int64_t quarantine_size() const;

 private:
  const sim::Machine& machine_;
  MeasureEngineConfig config_;
  MeasureDatabase* database_;
  FaultInjector injector_;
  ThreadPool pool_;

  // Inserts `key` into the quarantine set, evicting the oldest entry when
  // RetryPolicy::max_quarantine is exceeded. Returns whether the key was
  // newly inserted. Requires cache_mu_ held.
  bool InsertQuarantine(const std::string& key);

  mutable std::mutex cache_mu_;
  std::unordered_map<std::string, double> cache_;  // key -> latency_us (ok only)
  std::unordered_set<std::string> quarantine_;     // keys that fail persistently
  std::deque<std::string> quarantine_order_;       // insertion order, for eviction

  MeasureStats stats_;
};

}  // namespace alt::autotune

#endif  // ALT_AUTOTUNE_MEASURE_H_
