// Tests for the parallel measurement engine: the determinism guarantee (a
// fixed seed produces an identical tuning trajectory at any thread count),
// the memoizing measurement cache, the cache key, fault handling, and how
// answers from a persistent measurement store are accounted.

#include <gtest/gtest.h>

#include <optional>
#include <set>
#include <unordered_map>

#include "src/autotune/measure.h"
#include "src/autotune/tuner.h"
#include "src/core/alt.h"
#include "src/graph/networks.h"
#include "src/loop/serialization.h"
#include "src/support/crc32.h"
#include "src/support/metrics.h"

namespace alt {
namespace {

graph::Graph SmallConvGraph() {
  graph::Graph g("measure_target");
  int x = g.AddInput("x", {1, 16, 14, 14});
  graph::PadAttrs pad;
  pad.before = {0, 0, 1, 1};
  pad.after = {0, 0, 1, 1};
  int p = g.AddPad(x, pad, "pad");
  int w = g.AddConstant("w", {32, 16, 3, 3});
  graph::ConvAttrs attrs;
  int c = g.AddConv(graph::OpKind::kConv2d, p, w, attrs, "conv");
  g.AddRelu(c, "relu");
  return g;
}

// The group anchored at the convolution (groups also include the pad op).
loop::FusedGroup ComplexGroup(const graph::Graph& g,
                              const std::vector<loop::FusedGroup>& groups) {
  for (const auto& grp : groups) {
    if (graph::IsComplex(g.op(grp.anchor_op).kind)) {
      return grp;
    }
  }
  return groups.front();
}

core::AltOptions BaseOptions() {
  core::AltOptions options;
  options.budget = 160;
  options.method = autotune::SearchMethod::kRandom;
  options.seed = 7;
  return options;
}

TEST(MeasureEngine, TrajectoryIsIdenticalAcrossThreadCounts) {
  graph::Graph g = SmallConvGraph();
  const auto& machine = sim::Machine::IntelCpu();

  core::AltOptions one = BaseOptions();
  one.measure.threads = 1;
  auto r1 = core::Compile(g, machine, one);
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();

  core::AltOptions four = BaseOptions();
  four.measure.threads = 4;
  auto r4 = core::Compile(g, machine, four);
  ASSERT_TRUE(r4.ok()) << r4.status().ToString();

  // Best latency, budget spend, the full tuning curve, and every chosen
  // schedule must match bit-for-bit.
  EXPECT_EQ(r1->perf.latency_us, r4->perf.latency_us);
  EXPECT_EQ(r1->measurements_used, r4->measurements_used);
  ASSERT_EQ(r1->history_us.size(), r4->history_us.size());
  for (size_t i = 0; i < r1->history_us.size(); ++i) {
    ASSERT_EQ(r1->history_us[i], r4->history_us[i]) << "tuning curve diverges at " << i;
  }
  ASSERT_EQ(r1->schedules.size(), r4->schedules.size());
  for (size_t i = 0; i < r1->schedules.size(); ++i) {
    EXPECT_EQ(loop::EncodeSchedule(r1->schedules[i]), loop::EncodeSchedule(r4->schedules[i]));
  }
}

TEST(MeasureEngine, RepeatedMeasurementHitsCache) {
  graph::Graph g = SmallConvGraph();
  const auto& machine = sim::Machine::IntelCpu();
  graph::LayoutAssignment la;
  auto groups = loop::PartitionGraph(g, la, true);
  ASSERT_FALSE(groups.empty());
  loop::FusedGroup group = ComplexGroup(g, groups);
  auto sig = loop::GroupSignature(g, la, group);
  ASSERT_TRUE(sig.ok());
  loop::LoopSchedule sched =
      loop::LoopSchedule::Naive(sig->spatial_extents, sig->reduction_extents);

  autotune::MeasureEngineConfig config;
  config.threads = 1;
  autotune::MeasureEngine engine(machine, config);
  auto first = engine.MeasureOne(g, la, group, sched);
  ASSERT_TRUE(first.status.ok()) << first.status.ToString();
  EXPECT_FALSE(first.cache_hit);

  auto second = engine.MeasureOne(g, la, group, sched);
  ASSERT_TRUE(second.status.ok());
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(second.latency_us, first.latency_us);
  EXPECT_EQ(engine.stats().measured, 1);
  EXPECT_EQ(engine.stats().cache_hits, 1);
  EXPECT_EQ(engine.cache_size(), 1);
}

TEST(MeasureEngine, DuplicateCandidatesInOneBatchMeasureOnce) {
  graph::Graph g = SmallConvGraph();
  const auto& machine = sim::Machine::IntelCpu();
  graph::LayoutAssignment la;
  auto groups = loop::PartitionGraph(g, la, true);
  loop::FusedGroup group = ComplexGroup(g, groups);
  auto sig = loop::GroupSignature(g, la, group);
  ASSERT_TRUE(sig.ok());
  loop::LoopSchedule sched =
      loop::LoopSchedule::Naive(sig->spatial_extents, sig->reduction_extents);

  autotune::MeasureEngineConfig config;
  config.threads = 2;
  autotune::MeasureEngine engine(machine, config);
  auto results = engine.Measure(g, la, group, {sched, sched, sched});
  ASSERT_EQ(results.size(), 3u);
  EXPECT_FALSE(results[0].cache_hit);
  EXPECT_TRUE(results[1].cache_hit);
  EXPECT_TRUE(results[2].cache_hit);
  EXPECT_EQ(results[1].latency_us, results[0].latency_us);
  EXPECT_EQ(engine.stats().measured, 1);
  EXPECT_EQ(engine.stats().cache_hits, 2);
}

TEST(MeasureEngine, ParallelBatchMatchesSequentialBatch) {
  graph::Graph g = SmallConvGraph();
  const auto& machine = sim::Machine::IntelCpu();
  graph::LayoutAssignment la;
  auto groups = loop::PartitionGraph(g, la, true);
  loop::FusedGroup group = ComplexGroup(g, groups);
  auto sig = loop::GroupSignature(g, la, group);
  ASSERT_TRUE(sig.ok());

  // A spread of schedules from the loop space.
  auto space = autotune::LoopSpace::ForSignature(*sig, machine, false);
  Rng rng(13);
  std::vector<loop::LoopSchedule> scheds;
  for (int i = 0; i < 12; ++i) {
    scheds.push_back(space.Decode(autotune::RandomPoint(space.num_knobs(), rng)));
  }

  autotune::MeasureEngineConfig config;
  config.threads = 1;
  autotune::MeasureEngine seq(machine, config);
  config.threads = 4;
  autotune::MeasureEngine par(machine, config);
  auto rs = seq.Measure(g, la, group, scheds);
  auto rp = par.Measure(g, la, group, scheds);
  ASSERT_EQ(rs.size(), rp.size());
  for (size_t i = 0; i < rs.size(); ++i) {
    EXPECT_EQ(rs[i].status.ok(), rp[i].status.ok());
    EXPECT_EQ(rs[i].latency_us, rp[i].latency_us) << "slot " << i;
  }
}

TEST(MeasureEngine, CacheKeySeparatesLayoutsAndGroups) {
  graph::Graph g = SmallConvGraph();
  auto groups = loop::PartitionGraph(g, graph::LayoutAssignment{}, true);
  ASSERT_FALSE(groups.empty());

  graph::LayoutAssignment canonical;
  graph::LayoutAssignment blocked;
  blocked.Set(g.op(groups[0].anchor_op).output,
              layout::LayoutSeq().Append(layout::Primitive::Split(1, {2, 16})));

  std::string key_canonical = autotune::GroupCacheKey(g, canonical, groups[0]);
  std::string key_blocked = autotune::GroupCacheKey(g, blocked, groups[0]);
  EXPECT_NE(key_canonical, key_blocked);
  // Deterministic for identical inputs.
  EXPECT_EQ(key_canonical, autotune::GroupCacheKey(g, canonical, groups[0]));
}

// One measurable candidate (group + naive schedule) for the fault tests.
struct Candidate {
  graph::Graph g;
  graph::LayoutAssignment la;
  loop::FusedGroup group;
  loop::LoopSchedule sched;
};

Candidate MakeCandidate() {
  Candidate c{SmallConvGraph(), {}, {}, {}};
  auto groups = loop::PartitionGraph(c.g, c.la, true);
  c.group = ComplexGroup(c.g, groups);
  auto sig = loop::GroupSignature(c.g, c.la, c.group);
  EXPECT_TRUE(sig.ok());
  c.sched = loop::LoopSchedule::Naive(sig->spatial_extents, sig->reduction_extents);
  return c;
}

TEST(MeasureEngine, TransientFailureRetriesThenCaches) {
  Candidate c = MakeCandidate();
  const auto& machine = sim::Machine::IntelCpu();

  autotune::MeasureEngineConfig config;
  config.threads = 1;
  config.faults.always_fail_first = 1;  // first attempt of every key fails
  config.retry.max_attempts = 3;
  autotune::MeasureEngine engine(machine, config);

  auto result = engine.MeasureOne(c.g, c.la, c.group, c.sched);
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_EQ(result.attempts, 2);  // one injected failure, then success
  EXPECT_LT(result.latency_us, 1e30);
  EXPECT_EQ(engine.stats().retries, 1);
  EXPECT_EQ(engine.stats().injected_failures, 1);
  EXPECT_EQ(engine.stats().measured, 1);
  EXPECT_EQ(engine.stats().failed, 0);
  EXPECT_EQ(engine.cache_size(), 1);

  // The recovered value is a real measurement: it hits the cache like any
  // other, and matches a fault-free engine's answer.
  auto again = engine.MeasureOne(c.g, c.la, c.group, c.sched);
  EXPECT_TRUE(again.cache_hit);
  EXPECT_EQ(again.latency_us, result.latency_us);
  autotune::MeasureEngineConfig clean_config;
  clean_config.threads = 1;
  autotune::MeasureEngine clean(machine, clean_config);
  auto reference = clean.MeasureOne(c.g, c.la, c.group, c.sched);
  EXPECT_EQ(reference.latency_us, result.latency_us);
}

TEST(MeasureEngine, PersistentFailureQuarantinesAndIsNeverCached) {
  Candidate c = MakeCandidate();
  const auto& machine = sim::Machine::IntelCpu();

  autotune::MeasureEngineConfig config;
  config.threads = 1;
  config.faults.always_fail_first = 100;  // outlasts any retry budget
  config.retry.max_attempts = 3;
  autotune::MeasureEngine engine(machine, config);

  auto result = engine.MeasureOne(c.g, c.la, c.group, c.sched);
  EXPECT_FALSE(result.status.ok());
  EXPECT_EQ(result.attempts, 3);
  EXPECT_EQ(engine.stats().failed, 1);
  EXPECT_EQ(engine.stats().retries, 2);
  EXPECT_EQ(engine.stats().quarantined, 1);
  EXPECT_EQ(engine.quarantine_size(), 1);
  EXPECT_EQ(engine.cache_size(), 0);  // failures are never cached as latencies

  // Second request short-circuits in quarantine: zero attempts, still failed.
  auto again = engine.MeasureOne(c.g, c.la, c.group, c.sched);
  EXPECT_FALSE(again.status.ok());
  EXPECT_EQ(again.attempts, 0);
  EXPECT_FALSE(again.cache_hit);
  EXPECT_EQ(engine.stats().failed, 2);
  EXPECT_EQ(engine.stats().retries, 2);  // no new attempts were spent
  EXPECT_EQ(engine.stats().quarantined, 1);
}

TEST(MeasureEngine, FaultyBatchStillFillsEverySlot) {
  // A batch under a 30% transient failure rate must come back fully
  // populated: every slot either a real latency or a non-ok status, no
  // aborts, and accounting intact.
  Candidate c = MakeCandidate();
  const auto& machine = sim::Machine::IntelCpu();
  auto sig = loop::GroupSignature(c.g, c.la, c.group);
  ASSERT_TRUE(sig.ok());
  auto space = autotune::LoopSpace::ForSignature(*sig, machine, false);
  Rng rng(29);
  std::vector<loop::LoopSchedule> scheds;
  for (int i = 0; i < 16; ++i) {
    scheds.push_back(space.Decode(autotune::RandomPoint(space.num_knobs(), rng)));
  }

  autotune::MeasureEngineConfig config;
  config.threads = 4;
  config.faults.failure_rate = 0.3;
  config.faults.seed = 11;
  config.retry.max_attempts = 2;
  autotune::MeasureEngine engine(machine, config);

  auto results = engine.Measure(c.g, c.la, c.group, scheds);
  ASSERT_EQ(results.size(), scheds.size());
  for (const auto& r : results) {
    if (r.status.ok()) {
      EXPECT_LT(r.latency_us, 1e30);
    }
  }
  const auto& st = engine.stats();
  EXPECT_EQ(st.requested, static_cast<int64_t>(scheds.size()));
  EXPECT_EQ(st.requested, st.measured + st.cache_hits + st.failed + st.db_hits);
}

// In-memory MeasureDatabase that counts write-backs.
class FakeDatabase : public autotune::MeasureDatabase {
 public:
  std::optional<Entry> Lookup(uint64_t site) override {
    auto it = entries.find(site);
    if (it == entries.end()) {
      return std::nullopt;
    }
    return it->second;
  }
  void Record(uint64_t site, const Entry& entry) override {
    ++recorded;
    entries.emplace(site, entry);
  }

  std::unordered_map<uint64_t, Entry> entries;
  int recorded = 0;
};

// The database site of a candidate: Fnv1a64 of GroupCacheKey + "#" + schedule.
uint64_t SiteOf(const Candidate& c) {
  return Fnv1a64(autotune::GroupCacheKey(c.g, c.la, c.group) + "#" +
                 loop::EncodeSchedule(c.sched));
}

TEST(MeasureEngine, DatabaseHitAnswersWithoutMeasuring) {
  Candidate c = MakeCandidate();
  const auto& machine = sim::Machine::IntelCpu();
  FakeDatabase db;
  db.entries[SiteOf(c)] = {false, 42.5};

  autotune::MeasureEngineConfig config;
  config.threads = 1;
  autotune::MeasureEngine engine(machine, config, &db);

  auto result = engine.MeasureOne(c.g, c.la, c.group, c.sched);
  ASSERT_TRUE(result.status.ok());
  EXPECT_TRUE(result.db_hit);
  EXPECT_FALSE(result.cache_hit);  // budget accounting must match the recording run
  EXPECT_EQ(result.latency_us, 42.5);
  EXPECT_EQ(result.attempts, 0);
  EXPECT_EQ(engine.stats().measured, 0);
  EXPECT_EQ(engine.stats().db_hits, 1);
  EXPECT_EQ(db.recorded, 0);  // a hit is not written back

  // Successful hits prime the cache, so a revisit is a plain cache hit —
  // exactly what the run that recorded the database saw.
  auto again = engine.MeasureOne(c.g, c.la, c.group, c.sched);
  EXPECT_TRUE(again.cache_hit);
  EXPECT_FALSE(again.db_hit);
  EXPECT_EQ(again.latency_us, 42.5);
  EXPECT_EQ(engine.cache_size(), 1);
  EXPECT_EQ(db.recorded, 0);
}

TEST(MeasureEngine, DatabaseFailureQuarantines) {
  Candidate c = MakeCandidate();
  const auto& machine = sim::Machine::IntelCpu();
  FakeDatabase db;
  db.entries[SiteOf(c)] = {true, 0.0};

  autotune::MeasureEngineConfig config;
  config.threads = 1;
  autotune::MeasureEngine engine(machine, config, &db);

  auto result = engine.MeasureOne(c.g, c.la, c.group, c.sched);
  EXPECT_FALSE(result.status.ok());
  EXPECT_TRUE(result.db_hit);
  EXPECT_EQ(result.attempts, 0);
  EXPECT_EQ(engine.stats().db_hits, 1);
  EXPECT_EQ(engine.stats().measured, 0);
  EXPECT_EQ(engine.quarantine_size(), 1);
  EXPECT_EQ(db.recorded, 0);

  // A revisit short-circuits in quarantine: never re-measured.
  auto again = engine.MeasureOne(c.g, c.la, c.group, c.sched);
  EXPECT_FALSE(again.status.ok());
  EXPECT_FALSE(again.db_hit);
  EXPECT_EQ(again.attempts, 0);
  EXPECT_EQ(engine.stats().failed, 1);
  EXPECT_EQ(engine.stats().measured, 0);
}

// Every batch must account for every requested candidate exactly once:
// requested == measured + cache_hits + failed + db_hits.
void ExpectStatsInvariant(const autotune::MeasureStats& s) {
  EXPECT_EQ(s.requested, s.measured + s.cache_hits + s.failed + s.db_hits)
      << "requested=" << s.requested << " measured=" << s.measured
      << " cache_hits=" << s.cache_hits << " failed=" << s.failed
      << " db_hits=" << s.db_hits;
}

TEST(MeasureEngine, StatsInvariantHoldsAcrossConfigurations) {
  graph::Graph g = SmallConvGraph();
  const auto& machine = sim::Machine::IntelCpu();
  for (int threads : {1, 4}) {
    for (bool faults : {false, true}) {
      core::AltOptions options = BaseOptions();
      options.measure.threads = threads;
      if (faults) {
        options.measure.faults.always_fail_first = 1;
        options.measure.retry.max_attempts = 3;
      }
      auto result = core::Compile(g, machine, options);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      const autotune::MeasureStats& s = result->measure_stats;
      SCOPED_TRACE("threads=" + std::to_string(threads) + " faults=" + std::to_string(faults));
      ExpectStatsInvariant(s);
      EXPECT_GT(s.requested, 0);
      EXPECT_GT(s.cache_hits, 0);
    }
  }
}

TEST(MeasureEngine, FaultInjectedTuningCompletesAndIsDeterministic) {
  // A 10% transient failure rate must not abort tuning; retries absorb the
  // faults and the whole run stays deterministic (the injector is stateless).
  graph::Graph g = SmallConvGraph();
  const auto& machine = sim::Machine::IntelCpu();
  core::AltOptions options = BaseOptions();
  options.measure.faults.failure_rate = 0.1;
  options.measure.faults.seed = 5;

  auto r1 = core::Compile(g, machine, options);
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  EXPECT_GT(r1->measure_stats.injected_failures, 0);
  EXPECT_GT(r1->measure_stats.retries, 0);

  auto r2 = core::Compile(g, machine, options);
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();
  EXPECT_EQ(r1->perf.latency_us, r2->perf.latency_us);
  EXPECT_EQ(r1->measurements_used, r2->measurements_used);
  EXPECT_EQ(r1->history_us, r2->history_us);
  ASSERT_EQ(r1->schedules.size(), r2->schedules.size());
  for (size_t i = 0; i < r1->schedules.size(); ++i) {
    EXPECT_EQ(loop::EncodeSchedule(r1->schedules[i]), loop::EncodeSchedule(r2->schedules[i]));
  }
  EXPECT_EQ(r1->measure_stats.injected_failures, r2->measure_stats.injected_failures);
  EXPECT_EQ(r1->measure_stats.retries, r2->measure_stats.retries);
}

TEST(MeasureEngine, WallTimeIsPerBatchAndCpuTimeIsPerAttempt) {
  graph::Graph g = SmallConvGraph();
  const auto& machine = sim::Machine::IntelCpu();

  // Single-threaded: attempt time is a subset of the batch wall interval on
  // the same clock, so cpu_ms can never exceed wall_ms.
  core::AltOptions one = BaseOptions();
  one.measure.threads = 1;
  auto r1 = core::Compile(g, machine, one);
  ASSERT_TRUE(r1.ok());
  EXPECT_GT(r1->measure_stats.wall_ms, 0.0);
  EXPECT_GT(r1->measure_stats.cpu_ms, 0.0);
  EXPECT_LE(r1->measure_stats.cpu_ms, r1->measure_stats.wall_ms);

  // Parallel: wall_ms is charged once per batch on the calling thread. The
  // elapsed batch interval is (serial bookkeeping + the parallel span), and
  // the parallel span is itself covered by attempt time on some thread, so
  // wall can exceed cpu only by the serial bookkeeping — never by a
  // per-thread multiple, which is what double-counted accounting produced.
  core::AltOptions four = BaseOptions();
  four.measure.threads = 4;
  auto r4 = core::Compile(g, machine, four);
  ASSERT_TRUE(r4.ok());
  EXPECT_GT(r4->measure_stats.wall_ms, 0.0);
  EXPECT_LE(r4->measure_stats.wall_ms, r4->measure_stats.cpu_ms + 100.0);
  ExpectStatsInvariant(r4->measure_stats);
}

TEST(MeasureEngine, MetricsSnapshotMirrorsMeasureStats) {
  graph::Graph g = SmallConvGraph();
  const auto& machine = sim::Machine::IntelCpu();
  core::AltOptions options = BaseOptions();
  options.measure.faults.always_fail_first = 1;  // exercise the retry counters too
  options.measure.retry.max_attempts = 3;
  auto result = core::Compile(g, machine, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  // The per-run metrics delta attached to the result must agree exactly with
  // the engine's own counters — one source of truth, two views.
  const autotune::MeasureStats& s = result->measure_stats;
  const MetricsSnapshot& m = result->metrics;
  EXPECT_EQ(m.counter("measure.requested"), s.requested);
  EXPECT_EQ(m.counter("measure.measured"), s.measured);
  EXPECT_EQ(m.counter("measure.cache_hits"), s.cache_hits);
  EXPECT_EQ(m.counter("measure.failed"), s.failed);
  EXPECT_EQ(m.counter("measure.db_hits"), s.db_hits);
  EXPECT_EQ(m.counter("measure.retries"), s.retries);
  EXPECT_EQ(m.counter("measure.quarantined"), s.quarantined);
  EXPECT_EQ(m.counter("measure.injected_failures"), s.injected_failures);
  // One latency sample per pool slot that actually did work. In this
  // configuration every slot succeeds (after its injected-failure retry) and
  // nothing quarantines, so slots == measured exactly.
  EXPECT_EQ(s.failed, 0);
  const HistogramSnapshot* candidate = m.histogram("measure.candidate_us");
  ASSERT_NE(candidate, nullptr);
  EXPECT_EQ(candidate->count, s.measured);
}

TEST(MeasureEngine, QuarantineIsCappedAndEvictsOldest) {
  // An adversarial run can fail an unbounded stream of distinct candidates;
  // RetryPolicy::max_quarantine keeps the blocklist from growing without
  // bound by evicting the OLDEST entry — recency beats history for a
  // blocklist whose purpose is "don't retry what just burned us".
  Candidate c = MakeCandidate();
  const auto& machine = sim::Machine::IntelCpu();
  auto sig = loop::GroupSignature(c.g, c.la, c.group);
  ASSERT_TRUE(sig.ok());
  auto space = autotune::LoopSpace::ForSignature(*sig, machine, false);
  Rng rng(31);
  std::vector<loop::LoopSchedule> scheds;
  std::set<std::string> unique;
  while (scheds.size() < 10) {
    auto s = space.Decode(autotune::RandomPoint(space.num_knobs(), rng));
    if (unique.insert(loop::EncodeSchedule(s)).second) {
      scheds.push_back(s);
    }
  }

  autotune::MeasureEngineConfig config;
  config.threads = 1;
  config.faults.always_fail_first = 100;  // every candidate fails persistently
  config.retry.max_attempts = 1;
  config.retry.max_quarantine = 4;
  autotune::MeasureEngine engine(machine, config);

  for (const auto& s : scheds) {
    auto r = engine.MeasureOne(c.g, c.la, c.group, s);
    EXPECT_FALSE(r.status.ok());
  }
  EXPECT_EQ(engine.stats().quarantined, 10);  // all were quarantined at some point
  EXPECT_EQ(engine.quarantine_size(), 4);     // only the newest 4 are still held
  EXPECT_EQ(MetricsRegistry::Global().gauge("measure.quarantine_size").value(), 4);

  // The oldest entry was evicted: measuring schedule 0 again RE-ATTEMPTS it
  // (and re-quarantines, evicting again) while the newest short-circuits.
  auto oldest = engine.MeasureOne(c.g, c.la, c.group, scheds[0]);
  EXPECT_EQ(oldest.attempts, 1);
  auto newest = engine.MeasureOne(c.g, c.la, c.group, scheds[9]);
  EXPECT_EQ(newest.attempts, 0);  // still quarantined: zero budget spent
  EXPECT_EQ(engine.quarantine_size(), 4);
}

}  // namespace
}  // namespace alt
