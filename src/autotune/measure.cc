#include "src/autotune/measure.h"

#include <algorithm>
#include <chrono>
#include <exception>
#include <sstream>

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
  // duplicates up front so only genuine misses reach a back end.
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

  // The one candidate evaluation, run by both back ends. LowerGroup and
  // EstimateProgram are pure, so a lowering error is deterministic and never
  // retried; only injected faults and worker deaths are transient.
  auto evaluate = [&](int i) -> WorkerEval {
    auto program = loop::LowerGroup(graph, assignment, group, schedules[i]);
    if (!program.ok()) {
      return {program.status(), 0.0};
    }
    return {Status::Ok(), sim::EstimateProgram(*program, machine_).latency_us};
  };
  // One outcome per work item, in `work` order.
  std::vector<WorkerOutcome> outcomes;
  if (config_.isolate.workers > 0 && !work.empty()) {
    // Forked worker subprocesses; WorkerPool applies the retry policy and
    // the injected faults parent-side, with the same accounting as below.
    WorkerPool workers(config_.isolate, config_.retry,
                       injector_.enabled() ? &injector_ : nullptr, sites, evaluate);
    outcomes = workers.Run(work);
    stats_.worker_restarts += workers.restarts();
  } else {
    // The thread pool, retrying injected faults at once. Each slot starts
    // failed and only a finished attempt overwrites it, so a task that dies
    // outside the catch below never reads as a measurement.
    outcomes.assign(work.size(), WorkerOutcome{Status::Internal("measurement never ran")});
    const int max_attempts = std::max(1, config_.retry.max_attempts);
    Histogram& queue_wait_hist = MetricsRegistry::Global().histogram("measure.queue_wait_us");
    const int64_t submit_ns = TraceRecorder::NowNs();
    const Status pool_status = pool_.ParallelFor(static_cast<int>(work.size()), [&](int w) {
      const int i = work[w];
      // Time from batch submission until a pool thread picked this slot up.
      queue_wait_hist.Observe(static_cast<double>(TraceRecorder::NowNs() - submit_ns) *
                              1e-3);
      TraceSpan candidate_span("measure.candidate");
      WorkerOutcome& o = outcomes[w];
      for (int attempt = 0; attempt < max_attempts; ++attempt) {
        if (attempt > 0) {
          ++o.retries;
        }
        ++o.attempts;
        if (injector_.enabled() && injector_.ShouldFail(sites[i], attempt)) {
          ++o.injected;
          o.status = Status::Unavailable("injected transient measurement fault");
          continue;  // transient: retry
        }
        const int64_t start_ns = TraceRecorder::NowNs();
        try {
          WorkerEval eval = evaluate(i);
          o.status = std::move(eval.status);
          o.latency_us = eval.latency_us;
        } catch (const std::exception& e) {
          o.status = Status::Internal(std::string("measurement threw: ") + e.what());
        } catch (...) {
          o.status = Status::Internal("measurement threw");
        }
        o.eval_ns += TraceRecorder::NowNs() - start_ns;
        break;
      }
    });
    for (WorkerOutcome& o : outcomes) {
      if (o.attempts == 0 && !pool_status.ok()) {
        o.status = pool_status;  // the pool refused the batch or lost the task
      }
    }
  }

  // Reduce in deterministic slot order on the calling thread.
  Histogram& candidate_hist = MetricsRegistry::Global().histogram("measure.candidate_us");
  for (size_t w = 0; w < work.size(); ++w) {
    const int i = work[w];
    const WorkerOutcome& o = outcomes[w];
    results[i].status = o.status;
    if (o.status.ok()) {
      results[i].latency_us = o.latency_us;
    }
    results[i].attempts = o.attempts;
    stats_.retries += o.retries;
    stats_.injected_failures += o.injected;
    stats_.cpu_ms += static_cast<double>(o.eval_ns) * 1e-6;
    candidate_hist.Observe(static_cast<double>(o.eval_ns) * 1e-3);
    {
      std::lock_guard<std::mutex> lock(cache_mu_);
      if (o.status.ok()) {
        ++stats_.measured;
        cache_.emplace(keys[i], o.latency_us);
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
      entry.failed = !o.status.ok();
      entry.latency_us = entry.failed ? 0.0 : o.latency_us;
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
  static Counter& c_db_hits = registry.counter("measure.db_hits");
  static Counter& c_worker_restarts = registry.counter("measure.worker_restarts");
  c_requested.Add(stats_.requested - stats_before.requested);
  c_measured.Add(stats_.measured - stats_before.measured);
  c_cache_hits.Add(stats_.cache_hits - stats_before.cache_hits);
  c_failed.Add(stats_.failed - stats_before.failed);
  c_retries.Add(stats_.retries - stats_before.retries);
  c_quarantined.Add(stats_.quarantined - stats_before.quarantined);
  c_injected.Add(stats_.injected_failures - stats_before.injected_failures);
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
