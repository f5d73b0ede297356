// Tests for the persistent tuning database: warm start (a second run against
// the same database issues ZERO fresh measurements while spending its budget
// identically), crash-safe resume (a run killed half way, or a file with a
// flipped byte, resumes to the uninterrupted result), machine scoping,
// failure records feeding quarantine, and the corruption corpus — truncation,
// bit flips, bad framing, bad fields, duplicate keys, forged trailers — that
// tolerant load must skip without losing the surrounding records.

#include <gtest/gtest.h>

#include <cctype>
#include <string>
#include <vector>

#include "src/core/alt.h"
#include "src/core/tuning_database.h"
#include "src/graph/networks.h"
#include "src/loop/serialization.h"
#include "src/support/crc32.h"
#include "src/support/fileio.h"
#include "src/support/string_util.h"

namespace alt {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

graph::Graph SmallConvGraph() {
  graph::Graph g("db_target");
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

core::AltOptions BaseOptions() {
  core::AltOptions options;
  options.budget = 120;
  options.method = autotune::SearchMethod::kRandom;
  options.seed = 7;
  return options;
}

// Every observable piece of a compilation result that warm start and resume
// promise to reproduce.
void ExpectIdenticalResults(const autotune::CompiledNetwork& a,
                            const autotune::CompiledNetwork& b) {
  EXPECT_EQ(a.perf.latency_us, b.perf.latency_us);
  EXPECT_EQ(a.measurements_used, b.measurements_used);
  ASSERT_EQ(a.history_us.size(), b.history_us.size());
  for (size_t i = 0; i < a.history_us.size(); ++i) {
    ASSERT_EQ(a.history_us[i], b.history_us[i]) << "tuning curve diverges at " << i;
  }
  ASSERT_EQ(a.schedules.size(), b.schedules.size());
  for (size_t i = 0; i < a.schedules.size(); ++i) {
    EXPECT_EQ(loop::EncodeSchedule(a.schedules[i]), loop::EncodeSchedule(b.schedules[i]));
  }
  ASSERT_EQ(a.graph.tensors().size(), b.graph.tensors().size());
  for (const auto& t : a.graph.tensors()) {
    EXPECT_EQ(loop::EncodeLayoutSeq(a.assignment.Get(t.id)),
              loop::EncodeLayoutSeq(b.assignment.Get(t.id)))
        << "layout diverges on tensor " << t.name;
  }
}

// How an interrupted run can leave its database behind.
enum class Damage {
  kCutMidLine,      // killed half way, in the middle of appending a record
  kFlipMiddleByte,  // one byte in the middle of the file went bad
};

// Tunes with `options` against a fresh database, damages a copy of the file,
// reruns the same compile against the copy, and requires the resumed result
// to equal the uninterrupted one while taking part of it from the copy.
void ExpectResumeMatchesUninterrupted(core::AltOptions options, Damage damage,
                                      const std::string& name) {
  graph::Graph g = SmallConvGraph();
  const auto& machine = sim::Machine::IntelCpu();
  const std::string full_path = TempPath(name + "_full.altdb");
  RemoveFile(full_path);
  options.tuning_db = full_path;
  auto full_run = core::Compile(g, machine, options);
  ASSERT_TRUE(full_run.ok()) << full_run.status().ToString();

  auto bytes = ReadFile(full_path);
  ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
  std::string damaged = *bytes;
  const size_t middle = damaged.size() / 2;
  if (damage == Damage::kCutMidLine) {
    // Tuning is deterministic and every record is appended and flushed in
    // order, so the file of a run killed half way is a byte prefix of the
    // full run's file.
    ASSERT_NE(damaged[middle - 1], '\n') << "the cut must tear a record";
    damaged.resize(middle);
  } else {
    damaged[middle] ^= 0x01;
  }
  const std::string resumed_path = TempPath(name + "_resumed.altdb");
  ASSERT_TRUE(WriteFile(resumed_path, damaged).ok());
  options.tuning_db = resumed_path;
  auto resumed = core::Compile(g, machine, options);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();

  ExpectIdenticalResults(*full_run, *resumed);
  // The surviving records were answered from the database, not re-measured.
  const autotune::MeasureStats& s = resumed->measure_stats;
  EXPECT_GT(s.db_hits, 0);
  EXPECT_LT(s.measured, full_run->measure_stats.measured);
  EXPECT_EQ(s.requested, s.measured + s.cache_hits + s.failed + s.db_hits);
}

TEST(TuningDatabase, RecordsRoundTripAcrossReopen) {
  const std::string path = TempPath("db_roundtrip.altdb");
  RemoveFile(path);
  const auto& machine = sim::Machine::IntelCpu();

  {
    auto db = core::TuningDatabase::Open(path, machine);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    (*db)->Record(0x1111, {false, 123.456});
    (*db)->Record(0x2222, {true, 0.0});
    (*db)->Record(0x1111, {false, 999.0});  // duplicate: first record wins
    EXPECT_TRUE((*db)->Close().ok());
  }

  auto db = core::TuningDatabase::Open(path, machine);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_EQ((*db)->stats().loaded, 2);
  EXPECT_EQ((*db)->stats().skipped_records, 0);
  auto ok_entry = (*db)->Lookup(0x1111);
  ASSERT_TRUE(ok_entry.has_value());
  EXPECT_FALSE(ok_entry->failed);
  EXPECT_EQ(ok_entry->latency_us, 123.456);
  auto fail_entry = (*db)->Lookup(0x2222);
  ASSERT_TRUE(fail_entry.has_value());
  EXPECT_TRUE(fail_entry->failed);
  EXPECT_FALSE((*db)->Lookup(0x3333).has_value());
}

TEST(TuningDatabase, RecordsAreScopedToTheirMachine) {
  const std::string path = TempPath("db_machines.altdb");
  RemoveFile(path);

  {
    auto db = core::TuningDatabase::Open(path, sim::Machine::IntelCpu());
    ASSERT_TRUE(db.ok());
    (*db)->Record(0xabcd, {false, 42.0});
  }
  // A latency measured on the CPU means nothing on the GPU profile: same
  // site, different machine, no hit — but the record itself survives.
  auto gpu = core::TuningDatabase::Open(path, sim::Machine::NvidiaGpu());
  ASSERT_TRUE(gpu.ok());
  EXPECT_FALSE((*gpu)->Lookup(0xabcd).has_value());
  EXPECT_EQ((*gpu)->stats().loaded, 0);
  EXPECT_EQ((*gpu)->stats().total_records, 1);
  (*gpu)->Record(0xabcd, {false, 7.0});
  ASSERT_TRUE((*gpu)->Close().ok());

  auto cpu = core::TuningDatabase::Open(path, sim::Machine::IntelCpu());
  ASSERT_TRUE(cpu.ok());
  auto entry = (*cpu)->Lookup(0xabcd);
  ASSERT_TRUE(entry.has_value());
  EXPECT_EQ(entry->latency_us, 42.0);
}

TEST(TuningDatabase, WarmStartIssuesZeroFreshMeasurements) {
  const std::string path = TempPath("db_warmstart.altdb");
  RemoveFile(path);
  graph::Graph g = SmallConvGraph();
  const auto& machine = sim::Machine::IntelCpu();

  core::AltOptions options = BaseOptions();
  options.tuning_db = path;
  auto cold = core::Compile(g, machine, options);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_GT(cold->measure_stats.measured, 0);
  EXPECT_EQ(cold->measure_stats.db_hits, 0);

  // Second run, same database: every measurement is answered from disk.
  auto warm = core::Compile(g, machine, options);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  EXPECT_EQ(warm->measure_stats.measured, 0);
  EXPECT_GT(warm->measure_stats.db_hits, 0);
  // Every request is a db hit, an in-run cache hit primed by one, or a
  // quarantine short-circuit — never a fresh measurement.
  EXPECT_EQ(warm->measure_stats.db_hits + warm->measure_stats.cache_hits +
                warm->measure_stats.failed,
            warm->measure_stats.requested);

  // Warm start must not bend the trajectory: identical result, identical
  // budget spend, identical tuning curve, schedules and layouts.
  ExpectIdenticalResults(*cold, *warm);
}

TEST(TuningDatabase, ColdRunWritingADatabaseMatchesPlainCompile) {
  // Writing measurements through to a database only observes the run.
  const std::string path = TempPath("db_observer.altdb");
  RemoveFile(path);
  graph::Graph g = SmallConvGraph();
  const auto& machine = sim::Machine::IntelCpu();

  auto plain = core::Compile(g, machine, BaseOptions());
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  core::AltOptions options = BaseOptions();
  options.tuning_db = path;
  auto recorded = core::Compile(g, machine, options);
  ASSERT_TRUE(recorded.ok()) << recorded.status().ToString();
  ExpectIdenticalResults(*plain, *recorded);
  EXPECT_EQ(recorded->measure_stats.db_hits, 0);
}

// THE crash-safety scenario: a run killed half way, its database cut in the
// middle of a record, resumes by rerunning the same compile against it.
TEST(TuningDatabase, ResumeAfterKillMidLineMatchesUninterrupted) {
  ExpectResumeMatchesUninterrupted(BaseOptions(), Damage::kCutMidLine, "db_kill");
}

TEST(TuningDatabase, ResumeUnderInjectedFaultsMatchesUninterrupted) {
  // Resume and fault injection compose: the injector is a pure function of
  // (site, attempt), so the continuation sees the same faults.
  core::AltOptions options = BaseOptions();
  options.measure.faults.failure_rate = 0.1;
  options.measure.faults.seed = 5;
  ExpectResumeMatchesUninterrupted(options, Damage::kCutMidLine, "db_kill_faults");
}

TEST(TuningDatabase, ResumeAfterBitFlipMatchesUninterrupted) {
  // The CRC catches the flipped byte; only the damaged record is lost and
  // re-measured, every record around it still answers.
  ExpectResumeMatchesUninterrupted(BaseOptions(), Damage::kFlipMiddleByte, "db_flip");
}

TEST(TuningDatabase, ResumeWithIsolatedWorkersMatchesUninterrupted) {
  core::AltOptions options = BaseOptions();
  options.measure.isolate.workers = 2;
  ExpectResumeMatchesUninterrupted(options, Damage::kCutMidLine, "db_kill_isolated");
}

TEST(TuningDatabase, FailureRecordsQuarantineOnWarmStart) {
  const std::string path = TempPath("db_fail_quarantine.altdb");
  RemoveFile(path);
  graph::Graph g = SmallConvGraph();
  const auto& machine = sim::Machine::IntelCpu();

  // Cold run under persistent faults: some candidates fail for good and are
  // recorded as failures.
  core::AltOptions options = BaseOptions();
  options.tuning_db = path;
  options.measure.faults.failure_rate = 0.3;
  options.measure.faults.seed = 11;
  options.measure.retry.max_attempts = 1;  // any injected failure is persistent
  auto cold = core::Compile(g, machine, options);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  ASSERT_GT(cold->measure_stats.failed, 0);

  // Warm run WITHOUT fault injection: the recorded failures must come back
  // as db-hit failures that feed quarantine — never silently retried as if
  // the previous run hadn't learned they were bad.
  core::AltOptions warm_options = BaseOptions();
  warm_options.tuning_db = path;
  auto warm = core::Compile(g, machine, warm_options);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  EXPECT_EQ(warm->measure_stats.measured, 0);
  EXPECT_GT(warm->measure_stats.db_hits, 0);
}

TEST(TuningDatabase, CorruptionCorpusIsSkippedNotFatal) {
  const std::string path = TempPath("db_corruption.altdb");
  RemoveFile(path);
  const auto& machine = sim::Machine::IntelCpu();

  {
    auto db = core::TuningDatabase::Open(path, machine);
    ASSERT_TRUE(db.ok());
    for (uint64_t site = 1; site <= 8; ++site) {
      (*db)->Record(site, {false, static_cast<double>(site) * 10.0});
    }
    ASSERT_TRUE((*db)->Close().ok());
  }
  auto data_or = ReadFile(path);
  ASSERT_TRUE(data_or.ok());
  const std::string clean = *data_or;

  const std::string machine_hex = FormatU64Hex(core::MachineFingerprint(machine));
  // The clean file line by line: header, the records of sites 1..8, trailer.
  const std::vector<std::string> lines = Split(clean.substr(0, clean.size() - 1), '\n');
  ASSERT_EQ(lines.size(), 10u);
  // The clean file with the checksum of record line `k` replaced by `crc`.
  auto with_record_crc = [&](size_t k, const std::string& crc) {
    std::string out;
    for (size_t i = 0; i < lines.size(); ++i) {
      out += (i == k ? crc + lines[i].substr(8) : lines[i]) + "\n";
    }
    return out;
  };
  // Uppercasing a checksum changes it only where it has a hex letter.
  size_t lettered = 1;
  while (lettered <= 8 && lines[lettered].find_first_of("abcdef") >= 8) {
    ++lettered;
  }
  ASSERT_LE(lettered, 8u) << "no record checksum has a hex letter";
  std::string upper_crc = lines[lettered].substr(0, 8);
  for (char& ch : upper_crc) {
    ch = static_cast<char>(std::toupper(static_cast<unsigned char>(ch)));
  }

  struct Case {
    const char* name;
    std::string data;
    int64_t expect_loaded;
    int64_t expect_skipped;
  };
  std::vector<Case> cases;

  // Bit flip in the middle of one record line: that line dies, all eight
  // minus one survive, and the trailer no longer matches its count.
  {
    std::string flipped = clean;
    size_t second_line = flipped.find('\n', flipped.find('\n') + 1) + 10;
    flipped[second_line] ^= 0x20;
    cases.push_back({"bit-flip", flipped, 7, 2});
  }
  // Truncation mid-record: the torn tail is skipped and cut, earlier records
  // survive. Cutting 30 bytes removes the trailer and tears the final record.
  cases.push_back({"truncated", clean.substr(0, clean.size() - 30), 7, 1});
  // Forged trailer claiming the wrong count: skipped, records intact.
  {
    std::string forged = clean;
    size_t tpos = forged.rfind("trailer records=");
    ASSERT_NE(tpos, std::string::npos);
    // Rewrite the whole trailer line with a lying count, re-framed so the
    // CRC passes — the count check, not the checksum, must reject it.
    size_t line_start = forged.rfind('\n', tpos);
    line_start = line_start == std::string::npos ? 0 : line_start + 1;
    size_t line_end = forged.find('\n', tpos);
    forged.replace(line_start, line_end - line_start, FrameLine("trailer records=999"));
    cases.push_back({"forged-trailer", forged, 8, 1});
  }
  // Garbage prepended AND appended: both skipped, everything real loads.
  cases.push_back({"garbage-wrapped", "not a framed line\n" + clean + "zzzz", 8, 2});
  // An empty file, and blank lines: nothing to load, but the file is usable.
  cases.push_back({"empty", "", 0, 0});
  cases.push_back({"blank-lines", "\n\n\n" + clean, 8, 3});
  // Unframed text and nothing else: no header, no records.
  cases.push_back({"unframed", "garbage with no checksum at all\n", 0, 1});
  // A record whose checksum is wrong, or written in uppercase hex (the
  // framing is lowercase only): that record dies, the trailer count too.
  ASSERT_NE(lines[1].substr(0, 8), "deadbeef");
  cases.push_back({"wrong-checksum", with_record_crc(1, "deadbeef"), 7, 2});
  cases.push_back({"uppercase-checksum", with_record_crc(lettered, upper_crc), 7, 2});
  // Well-framed records with bad fields are skipped.
  cases.push_back({"short-site",
                   clean + FrameLine("record " + machine_hex + " 0123456789abcde ok 1.5") + "\n",
                   8, 1});
  cases.push_back({"non-hex-site",
                   clean + FrameLine("record " + machine_hex + " not-16-hex-chars ok 1.5") +
                       "\n",
                   8, 1});
  cases.push_back({"unknown-outcome",
                   clean + FrameLine("record " + machine_hex + " 0000000000000009 zap") + "\n",
                   8, 1});
  // Fields must be exactly what the writer produces: a latency with trailing
  // text, and 16-character site fields that are signed or 0x-prefixed.
  cases.push_back({"latency-trailing-text",
                   clean + FrameLine("record " + machine_hex + " 0000000000000009 ok 12.5junk") +
                       "\n",
                   8, 1});
  cases.push_back({"signed-hex-site",
                   clean + FrameLine("record " + machine_hex + " -000000000000009 ok 1.5") + "\n",
                   8, 1});
  cases.push_back({"0x-prefixed-site",
                   clean + FrameLine("record " + machine_hex + " 0x00000000000009 ok 1.5") + "\n",
                   8, 1});
  // An unknown record kind (a newer writer) is ignored, not corruption.
  cases.push_back({"unknown-kind", clean + FrameLine("future-kind anything goes") + "\n", 8, 0});
  // A NUL first byte breaks the header line; the records still load.
  cases.push_back({"nul-first-byte", std::string(1, '\0') + clean, 8, 1});

  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    ASSERT_TRUE(WriteFile(path, c.data).ok());
    {
      auto db = core::TuningDatabase::Open(path, machine);
      ASSERT_TRUE(db.ok()) << db.status().ToString();
      EXPECT_EQ((*db)->stats().loaded, c.expect_loaded);
      EXPECT_EQ((*db)->stats().skipped_records, c.expect_skipped);
      // Whatever survived is still correct data.
      int64_t found = 0;
      for (uint64_t site = 1; site <= 8; ++site) {
        if (auto entry = (*db)->Lookup(site)) {
          ++found;
          EXPECT_EQ(entry->latency_us, static_cast<double>(site) * 10.0);
        }
      }
      EXPECT_EQ(found, c.expect_loaded);
      // And the handle still appends cleanly after the damage.
      (*db)->Record(0x999, {false, 1.0});
      ASSERT_TRUE((*db)->Close().ok());
    }
    auto reopened = core::TuningDatabase::Open(path, machine);
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    EXPECT_EQ((*reopened)->stats().loaded, c.expect_loaded + 1);
    auto appended = (*reopened)->Lookup(0x999);
    ASSERT_TRUE(appended.has_value());
    EXPECT_EQ(appended->latency_us, 1.0);
  }
}

TEST(TuningDatabase, DuplicateRecordsKeepFirstOccurrence) {
  const std::string path = TempPath("db_dupes.altdb");
  RemoveFile(path);
  const auto& machine = sim::Machine::IntelCpu();

  // Write the same site twice by concatenating two sessions' records (the
  // in-memory handle dedupes its own appends, so forge the second copy by
  // appending the file to itself minus the header).
  {
    auto db = core::TuningDatabase::Open(path, machine);
    ASSERT_TRUE(db.ok());
    (*db)->Record(0x77, {false, 11.0});
    ASSERT_TRUE((*db)->Close().ok());
  }
  auto data = ReadFile(path);
  ASSERT_TRUE(data.ok());
  std::string doubled = *data + *data;
  ASSERT_TRUE(WriteFile(path, doubled).ok());

  auto db = core::TuningDatabase::Open(path, machine);
  ASSERT_TRUE(db.ok());
  EXPECT_EQ((*db)->stats().loaded, 1);
  EXPECT_EQ((*db)->stats().duplicate_records, 1);
  auto entry = (*db)->Lookup(0x77);
  ASSERT_TRUE(entry.has_value());
  EXPECT_EQ(entry->latency_us, 11.0);
}

TEST(TuningDatabase, MachineFingerprintSeparatesProfiles) {
  sim::Machine a = sim::Machine::IntelCpu();
  sim::Machine b = a;
  EXPECT_EQ(core::MachineFingerprint(a), core::MachineFingerprint(b));
  b.cores += 1;
  EXPECT_NE(core::MachineFingerprint(a), core::MachineFingerprint(b));
  b = a;
  b.caches[0].size_bytes *= 2;
  EXPECT_NE(core::MachineFingerprint(a), core::MachineFingerprint(b));
}

}  // namespace
}  // namespace alt
