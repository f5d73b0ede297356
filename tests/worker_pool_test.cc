// Tests for crash-isolated out-of-process measurement: the frame protocol,
// bit-identity between the isolated and in-process paths, and the worker
// failure matrix — kill -9, hangs, garbled frames — ending with a full tuning
// run that loses a worker mid-measurement and still produces the same network
// as an undisturbed run.

#include <gtest/gtest.h>

#include <unistd.h>

#include <set>
#include <string>
#include <vector>

#include "src/autotune/measure.h"
#include "src/autotune/tuner.h"
#include "src/core/alt.h"
#include "src/graph/networks.h"
#include "src/loop/serialization.h"
#include "src/support/crc32.h"
#include "src/support/subprocess.h"

namespace alt {
namespace {

graph::Graph SmallConvGraph() {
  graph::Graph g("worker_target");
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

loop::FusedGroup ComplexGroup(const graph::Graph& g,
                              const std::vector<loop::FusedGroup>& groups) {
  for (const auto& grp : groups) {
    if (graph::IsComplex(g.op(grp.anchor_op).kind)) {
      return grp;
    }
  }
  return groups.front();
}

struct Candidate {
  graph::Graph g;
  graph::LayoutAssignment la;
  loop::FusedGroup group;
  std::vector<loop::LoopSchedule> scheds;
};

Candidate MakeCandidates(int n, uint64_t seed) {
  Candidate c{SmallConvGraph(), {}, {}, {}};
  auto groups = loop::PartitionGraph(c.g, c.la, true);
  c.group = ComplexGroup(c.g, groups);
  auto sig = loop::GroupSignature(c.g, c.la, c.group);
  EXPECT_TRUE(sig.ok());
  auto space = autotune::LoopSpace::ForSignature(*sig, sim::Machine::IntelCpu(), false);
  Rng rng(seed);
  std::set<std::string> unique;
  while (static_cast<int>(c.scheds.size()) < n) {
    auto s = space.Decode(autotune::RandomPoint(space.num_knobs(), rng));
    if (unique.insert(loop::EncodeSchedule(s)).second) {
      c.scheds.push_back(s);
    }
  }
  return c;
}

// The site fingerprint the engine derives for one candidate, so tests can aim
// fault hooks at a specific schedule.
uint64_t SiteOf(const Candidate& c, const loop::LoopSchedule& sched) {
  return Fnv1a64(autotune::GroupCacheKey(c.g, c.la, c.group) + "#" +
                 loop::EncodeSchedule(sched));
}

// Both back ends run one evaluation and one reduction, so every count agrees;
// only worker_restarts and the timings may differ.
void ExpectSameCounts(const autotune::MeasureStats& got,
                      const autotune::MeasureStats& expected) {
  EXPECT_EQ(got.requested, expected.requested);
  EXPECT_EQ(got.measured, expected.measured);
  EXPECT_EQ(got.cache_hits, expected.cache_hits);
  EXPECT_EQ(got.failed, expected.failed);
  EXPECT_EQ(got.db_hits, expected.db_hits);
  EXPECT_EQ(got.retries, expected.retries);
  EXPECT_EQ(got.injected_failures, expected.injected_failures);
  EXPECT_EQ(got.quarantined, expected.quarantined);
}

TEST(Subprocess, FrameRoundTripAndCorruptionDetection) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  const std::string payload = "r 3 0 123.456 789";
  ASSERT_TRUE(WriteFrame(fds[1], payload).ok());
  std::string back;
  ASSERT_EQ(ReadFrame(fds[0], &back, 1000), FrameReadResult::kOk);
  EXPECT_EQ(back, payload);

  // A single flipped payload bit must trip the CRC, not parse as data.
  std::string frame = EncodeFrame(payload);
  frame.back() ^= 0x5a;
  ASSERT_TRUE(WriteAll(fds[1], frame).ok());
  EXPECT_EQ(ReadFrame(fds[0], &back, 1000), FrameReadResult::kCorrupt);

  // A torn frame (header promises more than arrives before EOF) is corrupt,
  // never a clean EOF; a true EOF on a frame boundary is clean.
  frame = EncodeFrame(payload);
  ASSERT_TRUE(WriteAll(fds[1], frame.substr(0, frame.size() - 3)).ok());
  ::close(fds[1]);
  EXPECT_EQ(ReadFrame(fds[0], &back, 1000), FrameReadResult::kCorrupt);
  EXPECT_EQ(ReadFrame(fds[0], &back, 1000), FrameReadResult::kEof);
  ::close(fds[0]);
}

TEST(Subprocess, ReadFrameHonorsDeadline) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  std::string payload;
  EXPECT_EQ(ReadFrame(fds[0], &payload, 50), FrameReadResult::kTimeout);
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(WorkerPool, IsolatedMatchesInProcessBitForBit) {
  Candidate c = MakeCandidates(12, 17);
  const auto& machine = sim::Machine::IntelCpu();

  autotune::MeasureEngineConfig in_proc;
  in_proc.threads = 2;
  autotune::MeasureEngine inproc_engine(machine, in_proc);
  auto expected = inproc_engine.Measure(c.g, c.la, c.group, c.scheds);

  autotune::MeasureEngineConfig iso;
  iso.isolate.workers = 3;
  autotune::MeasureEngine iso_engine(machine, iso);
  auto got = iso_engine.Measure(c.g, c.la, c.group, c.scheds);

  ASSERT_EQ(got.size(), expected.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].status.ok(), expected[i].status.ok());
    EXPECT_EQ(got[i].latency_us, expected[i].latency_us) << "slot " << i;
    EXPECT_EQ(got[i].attempts, expected[i].attempts);
  }
  ExpectSameCounts(iso_engine.stats(), inproc_engine.stats());
  EXPECT_EQ(iso_engine.stats().worker_restarts, 0);
}

TEST(WorkerPool, InjectedFaultsMatchInProcessAccounting) {
  // The parent consults the FaultInjector before dispatching, so (site,
  // attempt) fates — and therefore retries/attempts/failures — must be
  // identical to the in-process path.
  Candidate c = MakeCandidates(8, 23);
  const auto& machine = sim::Machine::IntelCpu();

  autotune::MeasureEngineConfig in_proc;
  in_proc.threads = 2;
  in_proc.faults.failure_rate = 0.4;
  in_proc.faults.seed = 5;
  in_proc.retry.max_attempts = 3;
  autotune::MeasureEngine inproc_engine(machine, in_proc);
  auto expected = inproc_engine.Measure(c.g, c.la, c.group, c.scheds);

  autotune::MeasureEngineConfig iso = in_proc;
  iso.isolate.workers = 2;
  autotune::MeasureEngine iso_engine(machine, iso);
  auto got = iso_engine.Measure(c.g, c.la, c.group, c.scheds);

  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].status.ok(), expected[i].status.ok()) << "slot " << i;
    EXPECT_EQ(got[i].latency_us, expected[i].latency_us);
    EXPECT_EQ(got[i].attempts, expected[i].attempts);
  }
  ExpectSameCounts(iso_engine.stats(), inproc_engine.stats());
}

TEST(WorkerPool, CrashedWorkerIsRespawnedAndCandidateRetries) {
  Candidate c = MakeCandidates(6, 41);
  const auto& machine = sim::Machine::IntelCpu();
  const uint64_t victim = SiteOf(c, c.scheds[2]);

  autotune::MeasureEngineConfig config;
  config.isolate.workers = 2;
  config.isolate.faults.crash_site = victim;
  config.isolate.faults.crash_attempts = 1;  // kill -9 on the first attempt only
  config.retry.max_attempts = 3;
  autotune::MeasureEngine engine(machine, config);

  auto results = engine.Measure(c.g, c.la, c.group, c.scheds);
  for (size_t i = 0; i < results.size(); ++i) {
    EXPECT_TRUE(results[i].status.ok()) << "slot " << i << ": "
                                        << results[i].status.ToString();
  }
  EXPECT_EQ(results[2].attempts, 2);  // crashed once, succeeded on retry
  EXPECT_GE(engine.stats().worker_restarts, 1);
  EXPECT_EQ(engine.stats().measured, 6);
  EXPECT_EQ(engine.stats().failed, 0);

  // The crash must not have poisoned the recovered value: it matches a
  // fault-free engine bit-for-bit.
  autotune::MeasureEngineConfig clean_config;
  autotune::MeasureEngine clean(machine, clean_config);
  auto reference = clean.MeasureOne(c.g, c.la, c.group, c.scheds[2]);
  EXPECT_EQ(results[2].latency_us, reference.latency_us);
}

TEST(WorkerPool, PersistentlyCrashingCandidateIsQuarantined) {
  Candidate c = MakeCandidates(4, 43);
  const auto& machine = sim::Machine::IntelCpu();
  const uint64_t victim = SiteOf(c, c.scheds[0]);

  autotune::MeasureEngineConfig config;
  config.isolate.workers = 2;
  config.isolate.faults.crash_site = victim;
  config.isolate.faults.crash_attempts = 0;  // every attempt crashes
  config.retry.max_attempts = 2;
  autotune::MeasureEngine engine(machine, config);

  auto results = engine.Measure(c.g, c.la, c.group, c.scheds);
  EXPECT_FALSE(results[0].status.ok());
  EXPECT_EQ(results[0].attempts, 2);
  for (size_t i = 1; i < results.size(); ++i) {
    EXPECT_TRUE(results[i].status.ok()) << "slot " << i;
  }
  EXPECT_GE(engine.stats().worker_restarts, 2);
  EXPECT_EQ(engine.stats().quarantined, 1);
  EXPECT_EQ(engine.quarantine_size(), 1);

  // Re-requesting the offender short-circuits in quarantine: no fresh
  // attempt, no worker churn.
  const int64_t restarts_before = engine.stats().worker_restarts;
  auto again = engine.MeasureOne(c.g, c.la, c.group, c.scheds[0]);
  EXPECT_FALSE(again.status.ok());
  EXPECT_EQ(again.attempts, 0);
  EXPECT_EQ(engine.stats().worker_restarts, restarts_before);
}

TEST(WorkerPool, HungWorkerIsKilledByWatchdog) {
  Candidate c = MakeCandidates(4, 47);
  const auto& machine = sim::Machine::IntelCpu();
  const uint64_t victim = SiteOf(c, c.scheds[1]);

  autotune::MeasureEngineConfig config;
  config.isolate.workers = 2;
  config.isolate.deadline_ms = 200;  // watchdog fires fast
  config.isolate.faults.hang_site = victim;
  config.isolate.faults.hang_attempts = 1;  // hangs once, then behaves
  config.retry.max_attempts = 3;
  autotune::MeasureEngine engine(machine, config);

  auto results = engine.Measure(c.g, c.la, c.group, c.scheds);
  for (size_t i = 0; i < results.size(); ++i) {
    EXPECT_TRUE(results[i].status.ok()) << "slot " << i << ": "
                                        << results[i].status.ToString();
  }
  EXPECT_EQ(results[1].attempts, 2);  // timed out once, succeeded on retry
  EXPECT_GE(engine.stats().worker_restarts, 1);
}

TEST(WorkerPool, GarbledReplyIsCaughtByCrcAndRetried) {
  Candidate c = MakeCandidates(4, 53);
  const auto& machine = sim::Machine::IntelCpu();
  const uint64_t victim = SiteOf(c, c.scheds[3]);

  autotune::MeasureEngineConfig config;
  config.isolate.workers = 2;
  config.isolate.faults.garble_site = victim;
  config.isolate.faults.garble_attempts = 1;  // corrupts its reply once
  config.retry.max_attempts = 3;
  autotune::MeasureEngine engine(machine, config);

  auto results = engine.Measure(c.g, c.la, c.group, c.scheds);
  for (size_t i = 0; i < results.size(); ++i) {
    EXPECT_TRUE(results[i].status.ok()) << "slot " << i;
  }
  EXPECT_EQ(results[3].attempts, 2);
  EXPECT_GE(engine.stats().worker_restarts, 1);

  // The corrupted frame never became a latency: the retried value matches a
  // fault-free engine.
  autotune::MeasureEngineConfig clean_config;
  autotune::MeasureEngine clean(machine, clean_config);
  auto reference = clean.MeasureOne(c.g, c.la, c.group, c.scheds[3]);
  EXPECT_EQ(results[3].latency_us, reference.latency_us);
}

TEST(WorkerPool, FullTunerSurvivesWorkerKillMidMeasurement) {
  // The acceptance scenario: a full tuning run whose workers get kill -9'd
  // mid-measurement (first attempt of EVERY candidate crashes) must stay
  // alive, restart workers, and land on the SAME network as an undisturbed
  // run — crash recovery is invisible in the result.
  graph::Graph g = SmallConvGraph();
  const auto& machine = sim::Machine::IntelCpu();

  core::AltOptions base;
  base.budget = 120;
  base.method = autotune::SearchMethod::kRandom;
  base.seed = 7;
  base.measure.retry.max_attempts = 3;

  core::AltOptions faultfree = base;
  faultfree.measure.isolate.workers = 2;
  auto clean = core::Compile(g, machine, faultfree);
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();

  core::AltOptions crashy = base;
  crashy.measure.isolate.workers = 2;
  crashy.measure.isolate.faults.crash_site = autotune::kAnyMeasureSite;
  crashy.measure.isolate.faults.crash_attempts = 1;  // first attempt of every site dies
  auto survived = core::Compile(g, machine, crashy);
  ASSERT_TRUE(survived.ok()) << survived.status().ToString();

  EXPECT_EQ(survived->perf.latency_us, clean->perf.latency_us);
  EXPECT_EQ(survived->measurements_used, clean->measurements_used);
  ASSERT_EQ(survived->schedules.size(), clean->schedules.size());
  for (size_t i = 0; i < clean->schedules.size(); ++i) {
    EXPECT_EQ(loop::EncodeSchedule(survived->schedules[i]),
              loop::EncodeSchedule(clean->schedules[i]));
  }
  EXPECT_GT(survived->measure_stats.worker_restarts, 0);
  EXPECT_EQ(clean->measure_stats.worker_restarts, 0);
}

}  // namespace
}  // namespace alt
