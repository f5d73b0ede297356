#include "src/autotune/measure.h"

#include <algorithm>
#include <chrono>
#include <exception>
#include <sstream>

#include "src/ir/affine.h"
#include "src/ir/tensor.h"
#include "src/loop/serialization.h"
#include "src/support/crc32.h"
#include "src/support/metrics.h"
#include "src/support/thread_pool.h"
#include "src/support/trace.h"

namespace alt::autotune {

namespace {

int ResolveThreads(int threads) {
  return threads > 0 ? threads : HardwareThreads();
}

void AppendOpKey(const graph::Graph& g, const graph::LayoutAssignment& la, int op_id,
                 std::ostringstream& oss) {
  const graph::Op& op = g.op(op_id);
  oss << "k" << static_cast<int>(op.kind);
  // Every attribute the lowering consults must be part of the key; a missed
  // attribute would alias distinct programs onto one cache entry.
  oss << ";c" << op.conv.spatial_dims << "," << op.conv.groups;
  for (int d = 0; d < 3; ++d) {
    oss << "," << op.conv.stride[d] << "," << op.conv.dilation[d] << "," << op.conv.pad[d]
        << "," << op.conv.output_pad[d];
  }
  oss << ";p" << op.pool.window[0] << "," << op.pool.window[1] << "," << op.pool.stride[0]
      << "," << op.pool.stride[1] << "," << op.pool.pad[0] << "," << op.pool.pad[1] << ","
      << (op.pool.global ? 1 : 0);
  oss << ";z";
  for (size_t d = 0; d < op.pad.before.size(); ++d) {
    oss << op.pad.before[d] << "/" << op.pad.after[d] << ",";
  }
  oss << ";s" << op.scalar << ";b" << op.bias_axis;
  for (int in : op.inputs) {
    oss << ";i" << ir::ShapeToString(g.tensor(in).shape) << "@"
        << loop::EncodeLayoutSeq(la.Get(in));
  }
  oss << ";o" << ir::ShapeToString(g.tensor(op.output).shape) << "@"
      << loop::EncodeLayoutSeq(la.Get(op.output));
}

// Adds the lifetime of the enclosing scope (in nanoseconds) to `*sink`; used
// to charge lower+estimate attempt time to cpu_ms, whatever exit path the
// attempt takes.
class NsAccumulator {
 public:
  explicit NsAccumulator(int64_t* sink) : sink_(sink), start_(TraceRecorder::NowNs()) {}
  ~NsAccumulator() { *sink_ += TraceRecorder::NowNs() - start_; }

 private:
  int64_t* sink_;
  int64_t start_;
};

}  // namespace

std::string GroupCacheKey(const graph::Graph& graph,
                          const graph::LayoutAssignment& assignment,
                          const loop::FusedGroup& group) {
  std::ostringstream oss;
  AppendOpKey(graph, assignment, group.anchor_op, oss);
  for (int fused : group.fused_ops) {
    oss << "|";
    AppendOpKey(graph, assignment, fused, oss);
  }
  return oss.str();
}

MeasureEngine::MeasureEngine(const sim::Machine& machine, MeasureEngineConfig config,
                             MeasureDatabase* database)
    : machine_(machine),
      config_(std::move(config)),
      database_(database),
      injector_(config_.faults),
      pool_(ResolveThreads(config_.threads)) {}

int64_t MeasureEngine::cache_size() const {
  std::lock_guard<std::mutex> lock(cache_mu_);
  return static_cast<int64_t>(cache_.size());
}

int64_t MeasureEngine::quarantine_size() const {
  std::lock_guard<std::mutex> lock(cache_mu_);
  return static_cast<int64_t>(quarantine_.size());
}

int64_t MeasureEngine::analysis_cache_size() const {
  std::lock_guard<std::mutex> lock(analysis_mu_);
  return static_cast<int64_t>(analysis_cache_.size());
}

bool MeasureEngine::InsertQuarantine(const std::string& key) {
  if (!quarantine_.insert(key).second) {
    return false;
  }
  quarantine_order_.push_back(key);
  const int cap = config_.retry.max_quarantine;
  if (cap > 0) {
    while (static_cast<int>(quarantine_order_.size()) > cap) {
      quarantine_.erase(quarantine_order_.front());
      quarantine_order_.pop_front();
    }
  }
  return true;
}

std::vector<MeasureResult> MeasureEngine::Measure(
    const graph::Graph& graph, const graph::LayoutAssignment& assignment,
    const loop::FusedGroup& group, const std::vector<loop::LoopSchedule>& schedules) {
  auto start = std::chrono::steady_clock::now();
  TraceSpan batch_span("measure.batch");
  const MeasureStats stats_before = stats_;
  const int n = static_cast<int>(schedules.size());
  std::vector<MeasureResult> results(n);
  stats_.requested += n;

  // Resolve cache hits, quarantined keys, database hits, and intra-batch
  // duplicates up front so only genuine misses reach the pool.
  // `measure_slot[i]` marks slots that need work; `alias_of[i]` points a
  // duplicate at the slot that measures its key.
  std::vector<std::string> keys(n);
  std::vector<uint64_t> sites(n, 0);
  std::vector<bool> measure_slot(n, true);
  std::vector<int> alias_of(n, -1);
  {
    const std::string group_key = GroupCacheKey(graph, assignment, group);
    std::unordered_map<std::string, int> first_slot;
    std::lock_guard<std::mutex> lock(cache_mu_);
    for (int i = 0; i < n; ++i) {
      keys[i] = group_key + "#" + loop::EncodeSchedule(schedules[i]);
      sites[i] = Fnv1a64(keys[i]);
      auto cached = cache_.find(keys[i]);
      if (cached != cache_.end()) {
        results[i].latency_us = cached->second;
        results[i].cache_hit = true;
        measure_slot[i] = false;
        continue;
      }
      if (quarantine_.count(keys[i]) > 0) {
        results[i].status = Status::Unavailable("candidate quarantined");
        measure_slot[i] = false;
        continue;
      }
      if (database_ != nullptr) {
        // Measurements persisted by earlier runs (warm start) or by an
        // interrupted run of this one (resume). Consulted after cache and
        // quarantine so in-run memoization keeps priority; hits report
        // cache_hit == false so the run spends budget exactly as the run
        // that recorded them did, and prime the cache (or quarantine) so
        // later duplicates behave as they did in that run.
        auto entry = database_->Lookup(sites[i]);
        if (entry.has_value()) {
          results[i].db_hit = true;
          measure_slot[i] = false;
          if (!entry->failed) {
            results[i].latency_us = entry->latency_us;
            cache_.emplace(keys[i], entry->latency_us);
          } else {
            results[i].status =
                Status::Unavailable("measurement failed in a previous run (tuning database)");
            InsertQuarantine(keys[i]);
          }
          continue;
        }
      }
      auto [it, inserted] = first_slot.try_emplace(keys[i], i);
      if (!inserted) {
        alias_of[i] = it->second;
        measure_slot[i] = false;
      }
    }
  }

  std::vector<int> work;
  for (int i = 0; i < n; ++i) {
    if (measure_slot[i]) {
      work.push_back(i);
    }
  }

  // Lower + estimate the misses concurrently, retrying transient (injected)
  // failures at once. Each task writes only its own slots — result and retry
  // tallies — so the reduction below is deterministic.
  // LowerGroup/EstimateProgram are pure; a deterministic failure (bad
  // schedule, lowering error) is never retried.
  const int w_count = static_cast<int>(work.size());
  std::vector<int> slot_retries(w_count, 0);
  std::vector<int> slot_injected(w_count, 0);
  std::vector<int64_t> slot_cpu_ns(w_count, 0);
  std::vector<char> slot_done(w_count, 0);
  std::vector<char> slot_analysis_hit(w_count, 0);
  const int max_attempts = std::max(1, config_.retry.max_attempts);
  Histogram& queue_wait_hist = MetricsRegistry::Global().histogram("measure.queue_wait_us");
  Histogram& candidate_hist = MetricsRegistry::Global().histogram("measure.candidate_us");
  const int64_t submit_ns = TraceRecorder::NowNs();
  Status pool_status = Status::Ok();
  if (config_.isolate.workers > 0 && w_count > 0) {
    // Out-of-process evaluation: a WorkerPool schedules the misses onto
    // forked worker subprocesses, handling retries and injected faults
    // itself with the same accounting as the loop below; the engine keeps
    // only the slot-ordered reduction. The analysis cache is skipped —
    // children cannot publish into the parent's cache — which changes
    // analysis_cache_hits but never a latency (EstimateProgram is pure).
    auto eval = [&](int i) -> WorkerEval {
      auto program = loop::LowerGroup(graph, assignment, group, schedules[i]);
      if (!program.ok()) {
        return {program.status(), 0.0};
      }
      return {Status::Ok(), sim::EstimateProgram(*program, machine_).latency_us};
    };
    WorkerPool workers(config_.isolate, config_.retry,
                       injector_.enabled() ? &injector_ : nullptr, sites, eval);
    std::vector<WorkerOutcome> outcomes = workers.Run(work);
    for (int w = 0; w < w_count; ++w) {
      const int i = work[w];
      const WorkerOutcome& o = outcomes[w];
      results[i].status = o.status;
      if (o.status.ok()) {
        results[i].latency_us = o.latency_us;
      }
      results[i].attempts = o.attempts;
      slot_retries[w] = o.retries;
      slot_injected[w] = o.injected;
      slot_cpu_ns[w] = o.eval_ns;
      slot_done[w] = 1;
      candidate_hist.Observe(static_cast<double>(o.eval_ns) * 1e-3);
    }
    stats_.worker_restarts += workers.restarts();
  } else {
    pool_status = pool_.ParallelFor(w_count, [&](int w) {
      int i = work[w];
      // Time from batch submission until a pool thread picked this slot up.
      queue_wait_hist.Observe(static_cast<double>(TraceRecorder::NowNs() - submit_ns) *
                              1e-3);
      TraceSpan candidate_span("measure.candidate");
      for (int attempt = 0; attempt < max_attempts; ++attempt) {
        if (attempt > 0) {
          ++slot_retries[w];
        }
        NsAccumulator attempt_timer(&slot_cpu_ns[w]);
        ++results[i].attempts;
        if (injector_.enabled() && injector_.ShouldFail(sites[i], attempt)) {
          ++slot_injected[w];
          results[i].status = Status::Unavailable("injected transient measurement fault");
          continue;  // transient: retry
        }
        try {
          auto program = loop::LowerGroup(graph, assignment, group, schedules[i]);
          if (!program.ok()) {
            results[i].status = program.status();  // deterministic: no retry
            break;
          }
          // Structurally identical programs (e.g. schedules differing only
          // in omitted unit loops) analyze once; EstimateProgram is pure in
          // the structure + buffer shapes the key captures, so a hit returns
          // the exact latency a fresh analysis would.
          std::string akey = ir::ProgramStructureKey(*program);
          bool hit = false;
          double latency = 0.0;
          {
            std::lock_guard<std::mutex> lock(analysis_mu_);
            auto it = analysis_cache_.find(akey);
            if (it != analysis_cache_.end()) {
              hit = true;
              latency = it->second;
            }
          }
          if (hit) {
            slot_analysis_hit[w] = 1;
          } else {
            latency = sim::EstimateProgram(*program, machine_).latency_us;
            std::lock_guard<std::mutex> lock(analysis_mu_);
            analysis_cache_.emplace(std::move(akey), latency);
          }
          results[i].latency_us = latency;
          results[i].status = Status::Ok();
          break;
        } catch (const std::exception& e) {
          results[i].status =
              Status::Internal(std::string("measurement threw: ") + e.what());
          break;
        }
      }
      candidate_hist.Observe(static_cast<double>(slot_cpu_ns[w]) * 1e-3);
      slot_done[w] = 1;
    });
  }

  // Reduce in deterministic slot order on the calling thread.
  for (int w = 0; w < w_count; ++w) {
    int i = work[w];
    if (!slot_done[w] && results[i].status.ok()) {
      // A pool-level fault (task exception escaping the engine's own
      // try/catch) must not masquerade as a successful measurement.
      results[i].status = pool_status.ok() ? Status::Internal("measurement never ran")
                                           : pool_status;
    }
    stats_.retries += slot_retries[w];
    stats_.injected_failures += slot_injected[w];
    stats_.analysis_cache_hits += slot_analysis_hit[w];
    stats_.cpu_ms += static_cast<double>(slot_cpu_ns[w]) * 1e-6;
    {
      std::lock_guard<std::mutex> lock(cache_mu_);
      if (results[i].status.ok()) {
        ++stats_.measured;
        cache_.emplace(keys[i], results[i].latency_us);
      } else {
        ++stats_.failed;
        if (InsertQuarantine(keys[i])) {
          ++stats_.quarantined;
        }
      }
    }
    if (database_ != nullptr) {
      // Write-through: persist this measurement so a later run against the
      // same database (and machine) never re-measures the candidate.
      MeasureDatabase::Entry entry;
      entry.failed = !results[i].status.ok();
      entry.latency_us = entry.failed ? 0.0 : results[i].latency_us;
      database_->Record(sites[i], entry);
    }
  }
  for (int i = 0; i < n; ++i) {
    if (alias_of[i] >= 0) {
      results[i] = results[alias_of[i]];
      // The first occurrence paid the measurement; this one is free.
      results[i].attempts = 0;
      results[i].db_hit = false;
      if (results[i].status.ok()) {
        results[i].cache_hit = true;
        ++stats_.cache_hits;
      } else {
        ++stats_.failed;  // duplicate of a failing candidate
      }
    } else if (results[i].cache_hit) {
      ++stats_.cache_hits;
    } else if (results[i].db_hit) {
      ++stats_.db_hits;
    } else if (!measure_slot[i] && !results[i].status.ok()) {
      ++stats_.failed;  // quarantine short-circuit
    }
  }

  // Batch wall time is charged exactly once, on the calling thread (see the
  // wall_ms comment in measure.h: batches never overlap, so summing per-batch
  // wall clocks cannot double-count).
  stats_.wall_ms +=
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
          .count();

  // Mirror this batch's stats deltas into the global metrics registry so a
  // MetricsSnapshot of a run always agrees with its MeasureStats.
  auto& registry = MetricsRegistry::Global();
  static Counter& c_requested = registry.counter("measure.requested");
  static Counter& c_measured = registry.counter("measure.measured");
  static Counter& c_cache_hits = registry.counter("measure.cache_hits");
  static Counter& c_failed = registry.counter("measure.failed");
  static Counter& c_retries = registry.counter("measure.retries");
  static Counter& c_quarantined = registry.counter("measure.quarantined");
  static Counter& c_injected = registry.counter("measure.injected_failures");
  static Counter& c_analysis_hits = registry.counter("measure.analysis_cache_hits");
  static Counter& c_db_hits = registry.counter("measure.db_hits");
  static Counter& c_worker_restarts = registry.counter("measure.worker_restarts");
  c_requested.Add(stats_.requested - stats_before.requested);
  c_measured.Add(stats_.measured - stats_before.measured);
  c_cache_hits.Add(stats_.cache_hits - stats_before.cache_hits);
  c_failed.Add(stats_.failed - stats_before.failed);
  c_retries.Add(stats_.retries - stats_before.retries);
  c_quarantined.Add(stats_.quarantined - stats_before.quarantined);
  c_injected.Add(stats_.injected_failures - stats_before.injected_failures);
  c_analysis_hits.Add(stats_.analysis_cache_hits - stats_before.analysis_cache_hits);
  c_db_hits.Add(stats_.db_hits - stats_before.db_hits);
  c_worker_restarts.Add(stats_.worker_restarts - stats_before.worker_restarts);
  registry.gauge("measure.quarantine_size").Set(static_cast<double>(quarantine_size()));
  return results;
}

MeasureResult MeasureEngine::MeasureOne(const graph::Graph& graph,
                                        const graph::LayoutAssignment& assignment,
                                        const loop::FusedGroup& group,
                                        const loop::LoopSchedule& schedule) {
  return Measure(graph, assignment, group, {schedule})[0];
}

}  // namespace alt::autotune
