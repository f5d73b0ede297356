#include <atomic>
#include <cmath>
#include <limits>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "src/support/crc32.h"
#include "src/support/fault_injection.h"
#include "src/support/fileio.h"
#include "src/support/metrics.h"
#include "src/support/rng.h"
#include "src/support/status.h"
#include "src/support/string_util.h"
#include "src/support/thread_pool.h"
#include "src/support/trace.h"

namespace alt {
namespace {

TEST(StatusTest, OkAndErrors) {
  EXPECT_TRUE(Status::Ok().ok());
  Status s = Status::InvalidArgument("bad factor");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.ToString().find("bad factor"), std::string::npos);
}

TEST(StatusTest, StatusOrValueAndError) {
  StatusOr<int> v = 42;
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 42);
  StatusOr<int> e = Status::NotFound("nope");
  EXPECT_FALSE(e.ok());
  EXPECT_EQ(e.status().code(), StatusCode::kNotFound);
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    same += a.NextU64() == b.NextU64();
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, NextBelowInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    uint64_t v = rng.NextBelow(13);
    EXPECT_LT(v, 13u);
  }
}

TEST(RngTest, NextDoubleUniformish) {
  Rng rng(11);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(5);
  double sum = 0, sq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double v = rng.NextGaussian();
    sum += v;
    sq += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(9);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto orig = v;
  rng.Shuffle(v);
  std::multiset<int> a(v.begin(), v.end()), b(orig.begin(), orig.end());
  EXPECT_EQ(a, b);
}

TEST(StringUtilTest, JoinAndSplit) {
  std::vector<int> v{1, 2, 3};
  EXPECT_EQ(Join(v, ", "), "1, 2, 3");
  auto parts = Split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[2], "");
}

TEST(StringUtilTest, FormatMicros) {
  EXPECT_EQ(FormatMicros(12.3), "12.3 us");
  EXPECT_EQ(FormatMicros(4567.0), "4.567 ms");
  EXPECT_EQ(FormatMicros(2.5e6), "2.500 s");
}

TEST(StringUtilTest, DivisorsSortedAndComplete) {
  auto d = Divisors(36);
  EXPECT_EQ(d, (std::vector<int64_t>{1, 2, 3, 4, 6, 9, 12, 18, 36}));
  EXPECT_EQ(Divisors(1), (std::vector<int64_t>{1}));
  EXPECT_EQ(Divisors(7), (std::vector<int64_t>{1, 7}));
}

class DivisorsProperty : public ::testing::TestWithParam<int64_t> {};

TEST_P(DivisorsProperty, EveryDivisorDivides) {
  int64_t n = GetParam();
  for (int64_t d : Divisors(n)) {
    EXPECT_EQ(n % d, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(Values, DivisorsProperty,
                         ::testing::Values(2, 12, 16, 97, 128, 210, 1000, 2048));

TEST(StringUtilTest, CheckedIntParsing) {
  ASSERT_TRUE(ParseInt64("123").ok());
  EXPECT_EQ(*ParseInt64("123"), 123);
  EXPECT_EQ(*ParseInt64("-7"), -7);
  EXPECT_FALSE(ParseInt64("").ok());
  EXPECT_FALSE(ParseInt64("1.5").ok());
  EXPECT_FALSE(ParseInt64("12 ").ok());
  EXPECT_FALSE(ParseInt64("0x10").ok());
  EXPECT_FALSE(ParseInt64("9223372036854775808").ok());   // INT64_MAX + 1
  ASSERT_TRUE(ParseInt64("9223372036854775807").ok());
  EXPECT_FALSE(ParseInt32("4000000000").ok());
  EXPECT_EQ(*ParseInt32("-17"), -17);
  EXPECT_FALSE(ParseInt64("12x").ok());
  EXPECT_FALSE(ParseInt64("x12").ok());
  EXPECT_FALSE(ParseInt64("99999999999999999999999").ok());
  EXPECT_FALSE(ParseInt64("-99999999999999999999999").ok());
  EXPECT_FALSE(ParseInt32("2147483648").ok());
  EXPECT_FALSE(ParseInt32("-2147483649").ok());
  ASSERT_TRUE(ParseInt32("2147483647").ok());
  EXPECT_EQ(*ParseInt32("2147483647"), 2147483647);
}

// The field readers of the framed text formats accept exactly what
// FormatU64Hex / FormatDouble / decimal writers produce, whole field only.
TEST(StringUtilTest, StrictFieldParsersAcceptOnlyTheWrittenForm) {
  for (uint64_t v : {uint64_t{0}, uint64_t{0x1234abcd}, ~uint64_t{0}}) {
    auto back = ParseU64Hex(FormatU64Hex(v));
    ASSERT_TRUE(back.ok()) << FormatU64Hex(v);
    EXPECT_EQ(*back, v);
  }
  for (const char* bad : {"", "0", "123456789abcdef", "0123456789abcdef0",
                          "0123456789ABCDEF", "0x0123456789abcd", "-123456789abcdef",
                          "+123456789abcdef", " 123456789abcdef", "0123456789abcdeg"}) {
    EXPECT_FALSE(ParseU64Hex(bad).ok()) << "accepted hex: '" << bad << "'";
  }

  ASSERT_TRUE(ParseU64Dec("18446744073709551615").ok());
  EXPECT_EQ(*ParseU64Dec("18446744073709551615"), ~uint64_t{0});
  EXPECT_EQ(*ParseU64Dec("0"), 0u);
  for (const char* bad : {"", "-1", "+1", " 1", "1 ", "1x", "0x10",
                          "18446744073709551616"}) {
    EXPECT_FALSE(ParseU64Dec(bad).ok()) << "accepted decimal: '" << bad << "'";
  }

  for (double v : {0.0, -1.5, 123.456, 1e-300, 6.02214076e23,
                   std::numeric_limits<double>::denorm_min(),
                   std::numeric_limits<double>::infinity()}) {
    auto back = ParseDouble(FormatDouble(v));
    ASSERT_TRUE(back.ok()) << FormatDouble(v);
    EXPECT_EQ(*back, v);
  }
  auto nan = ParseDouble(FormatDouble(std::nan("")));
  ASSERT_TRUE(nan.ok());
  EXPECT_TRUE(std::isnan(*nan));
  for (const char* bad : {"", "12.5junk", "12.5 ", " 12.5", "1e999", "x"}) {
    EXPECT_FALSE(ParseDouble(bad).ok()) << "accepted float: '" << bad << "'";
  }

  std::string s = "record 12";
  EXPECT_FALSE(ConsumePrefix(s, "trailer "));
  EXPECT_EQ(s, "record 12");
  EXPECT_TRUE(ConsumePrefix(s, "record "));
  EXPECT_EQ(s, "12");
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4);
  std::vector<std::atomic<int>> counts(1000);
  pool.ParallelFor(1000, [&](int i) { counts[i].fetch_add(1); });
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(counts[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, SingleThreadRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 1);
  std::vector<int> order;
  pool.ParallelFor(5, [&](int i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ThreadPoolTest, ReusableAcrossBatches) {
  ThreadPool pool(3);
  for (int round = 0; round < 50; ++round) {
    std::atomic<int> sum{0};
    pool.ParallelFor(round % 7, [&](int i) { sum.fetch_add(i + 1); });
    int n = round % 7;
    EXPECT_EQ(sum.load(), n * (n + 1) / 2);
  }
}

TEST(ThreadPoolTest, ZeroAndNegativeCountsAreNoops) {
  ThreadPool pool(2);
  bool ran = false;
  pool.ParallelFor(0, [&](int) { ran = true; });
  pool.ParallelFor(-3, [&](int) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPoolTest, TaskExceptionDoesNotKillThePool) {
  // A throwing task must surface as a Status, not terminate the process or
  // deadlock the join, and the pool must stay fully usable afterwards.
  ThreadPool pool(4);
  std::atomic<int> completed{0};
  Status s = pool.ParallelFor(100, [&](int i) {
    if (i == 37) {
      throw std::runtime_error("simulated worker crash");
    }
    completed.fetch_add(1);
  });
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.ToString().find("simulated worker crash"), std::string::npos);

  // Next batch starts clean: the error is not sticky and every index runs.
  std::atomic<int> sum{0};
  Status ok = pool.ParallelFor(50, [&](int i) { sum.fetch_add(i); });
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(sum.load(), 49 * 50 / 2);
}

TEST(ThreadPoolTest, InlineTaskExceptionIsAlsoCaptured) {
  ThreadPool pool(1);  // single-thread pools run the closure inline
  Status s = pool.ParallelFor(3, [&](int i) {
    if (i == 1) {
      throw std::runtime_error("inline crash");
    }
  });
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(pool.ParallelFor(3, [](int) {}).ok());
}

TEST(ThreadPoolTest, ReentrantParallelForFailsInsteadOfDeadlocking) {
  // A closure that calls back into ITS OWN pool used to deadlock (the inner
  // join waited on workers that were all busy running the outer batch). Now
  // the inner call is detected and refused with FailedPrecondition while the
  // outer batch completes; the pool stays usable afterwards.
  ThreadPool pool(4);
  std::atomic<int> inner_refused{0};
  std::atomic<int> outer_ran{0};
  Status outer = pool.ParallelFor(8, [&](int) {
    outer_ran.fetch_add(1);
    Status inner = pool.ParallelFor(2, [](int) {});
    if (!inner.ok()) {
      inner_refused.fetch_add(1);
      EXPECT_NE(inner.ToString().find("not reentrant"), std::string::npos);
    }
  });
  EXPECT_TRUE(outer.ok());
  EXPECT_EQ(outer_ran.load(), 8);
  EXPECT_EQ(inner_refused.load(), 8);

  // The guard clears with the batch: fresh top-level batches run fine...
  std::atomic<int> sum{0};
  EXPECT_TRUE(pool.ParallelFor(10, [&](int i) { sum.fetch_add(i); }).ok());
  EXPECT_EQ(sum.load(), 45);

  // ...and nesting onto a DIFFERENT pool is allowed (the serving pattern:
  // batch fan-out on one pool, intra-op sharding on another).
  ThreadPool inner_pool(2);
  std::atomic<int> nested{0};
  Status nested_status = pool.ParallelFor(4, [&](int) {
    // Only one outer index can hold the inner pool at a time, so serialize;
    // the point is that a distinct pool is not refused as reentrant.
    static std::mutex mu;
    std::lock_guard<std::mutex> lock(mu);
    ASSERT_TRUE(inner_pool.ParallelFor(3, [&](int) { nested.fetch_add(1); }).ok());
  });
  EXPECT_TRUE(nested_status.ok());
  EXPECT_EQ(nested.load(), 12);
}

TEST(ThreadPoolTest, InlinePathIsNotGuardedAsReentrant) {
  // n == 1 and single-thread pools run inline without touching the batch
  // state, so they are callable from inside another pool's closure.
  ThreadPool pool(4);
  Status s = pool.ParallelFor(6, [&](int) {
    ASSERT_TRUE(pool.ParallelFor(1, [](int) {}).ok());  // inline on same pool
  });
  EXPECT_TRUE(s.ok());
}

TEST(Crc32Test, KnownVectorsAndSensitivity) {
  // The IEEE CRC-32 check value (CRC of "123456789").
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32(""), 0u);
  EXPECT_NE(Crc32("tuningdb v1"), Crc32("tuningdb v2"));
}

TEST(Fnv1a64Test, StableAndDistinct) {
  EXPECT_EQ(Fnv1a64(""), 0xcbf29ce484222325ull);  // FNV offset basis
  EXPECT_EQ(Fnv1a64("abc"), Fnv1a64("abc"));
  EXPECT_NE(Fnv1a64("abc"), Fnv1a64("abd"));
}

TEST(FileIoTest, WriteReadTruncateRoundTrip) {
  std::string path = ::testing::TempDir() + "fileio_roundtrip.txt";
  RemoveFile(path);
  EXPECT_FALSE(FileExists(path));

  ASSERT_TRUE(WriteFile(path, "hello\nworld\n").ok());
  EXPECT_TRUE(FileExists(path));
  auto data = ReadFile(path);
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(*data, "hello\nworld\n");

  ASSERT_TRUE(TruncateFile(path, 6).ok());
  data = ReadFile(path);
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(*data, "hello\n");

  ASSERT_TRUE(RemoveFile(path).ok());
  EXPECT_FALSE(FileExists(path));
  EXPECT_FALSE(ReadFile(path).ok());
}

TEST(FileIoTest, AppendWriterFlushesLineByLine) {
  std::string path = ::testing::TempDir() + "fileio_append.txt";
  RemoveFile(path);
  {
    auto writer = AppendWriter::Open(path);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer->AppendLine("one").ok());
    // Flushed per line: the line is durable while the writer is still open.
    auto mid = ReadFile(path);
    ASSERT_TRUE(mid.ok());
    EXPECT_EQ(*mid, "one\n");
    ASSERT_TRUE(writer->AppendLine("two").ok());
  }
  // Reopening appends after the existing content.
  {
    auto writer = AppendWriter::Open(path);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer->AppendLine("three").ok());
  }
  auto data = ReadFile(path);
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(*data, "one\ntwo\nthree\n");
  RemoveFile(path);
}

TEST(FaultInjectorTest, DisabledByDefault) {
  FaultInjector off;
  EXPECT_FALSE(off.enabled());
  for (int a = 0; a < 4; ++a) {
    EXPECT_FALSE(off.ShouldFail(123, a));
  }
}

TEST(FaultInjectorTest, StatelessAndDeterministic) {
  FaultInjector::Options options;
  options.failure_rate = 0.5;
  options.seed = 42;
  FaultInjector a(options), b(options);
  // Decisions are a pure function of (seed, site, attempt): two injectors
  // agree, and interleaving unrelated queries changes nothing.
  for (uint64_t site = 0; site < 50; ++site) {
    for (int attempt = 0; attempt < 3; ++attempt) {
      bool expected = a.ShouldFail(site, attempt);
      b.ShouldFail(site * 7919 + 1, attempt);  // unrelated query in between
      EXPECT_EQ(b.ShouldFail(site, attempt), expected);
      EXPECT_EQ(a.ShouldFail(site, attempt), expected);  // re-asking agrees
    }
  }
}

TEST(FaultInjectorTest, RateIsApproximatelyHonored) {
  FaultInjector::Options options;
  options.failure_rate = 0.25;
  options.seed = 9;
  FaultInjector injector(options);
  int failures = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    failures += injector.ShouldFail(static_cast<uint64_t>(i) * 0x9e3779b97f4a7c15ull, 0);
  }
  EXPECT_NEAR(static_cast<double>(failures) / n, 0.25, 0.02);
}

TEST(FaultInjectorTest, AlwaysFailFirstOverridesRate) {
  FaultInjector::Options options;
  options.always_fail_first = 2;
  FaultInjector injector(options);
  EXPECT_TRUE(injector.enabled());
  for (uint64_t site = 0; site < 10; ++site) {
    EXPECT_TRUE(injector.ShouldFail(site, 0));
    EXPECT_TRUE(injector.ShouldFail(site, 1));
    EXPECT_FALSE(injector.ShouldFail(site, 2));  // rate 0: retries succeed
  }
}

// Structural JSON validation without a JSON library: tracks brace/bracket
// balance outside string literals (honoring escapes). Catches the failure
// modes a serializer can actually produce — unbalanced nesting, unterminated
// strings, raw control characters — without re-implementing a parser.
bool IsStructurallyValidJson(const std::string& s) {
  std::vector<char> stack;
  bool in_string = false;
  bool escaped = false;
  for (char c : s) {
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        return false;  // control characters must be escaped inside strings
      }
      continue;
    }
    switch (c) {
      case '"':
        in_string = true;
        break;
      case '{':
      case '[':
        stack.push_back(c);
        break;
      case '}':
        if (stack.empty() || stack.back() != '{') {
          return false;
        }
        stack.pop_back();
        break;
      case ']':
        if (stack.empty() || stack.back() != '[') {
          return false;
        }
        stack.pop_back();
        break;
      default:
        break;
    }
  }
  return !in_string && stack.empty();
}

TEST(TraceTest, DisabledTracingRecordsNothingAndRegistersNoBuffers) {
  TraceRecorder& recorder = TraceRecorder::Global();
  recorder.Stop();
  recorder.StopAndDrain();  // clear anything a prior test left behind
  const int buffers_before = recorder.thread_buffer_count();
  ThreadPool pool(4);  // fresh threads: any buffer they register is new
  Status s = pool.ParallelFor(64, [&](int i) {
    TraceSpan span("test.disabled_span");
    TraceSpan detail("test.disabled_detail", "i=" + std::to_string(i));
    TraceInstant("test.disabled_instant");
  });
  ASSERT_TRUE(s.ok());
  // Disabled spans never reach the recorder: no per-thread buffer is
  // registered and nothing is drained.
  EXPECT_EQ(recorder.thread_buffer_count(), buffers_before);
  EXPECT_TRUE(recorder.StopAndDrain().empty());
}

TEST(TraceTest, ConcurrentSpansNestStrictlyAndSerializeToValidJson) {
  constexpr int kTasks = 64;
  TraceRecorder& recorder = TraceRecorder::Global();
  recorder.Start();
  {
    TraceSpan outer("test.outer");
    ThreadPool pool(4);
    Status s = pool.ParallelFor(kTasks, [&](int i) {
      TraceSpan work("test.work", "i=" + std::to_string(i));
      {
        TraceSpan inner("test.inner");
        // A little real work so spans have nonzero extent.
        volatile double sink = 0.0;
        for (int k = 0; k < 500; ++k) {
          sink = sink + k * 0.5;
        }
      }
      TraceInstant("test.mark");
    });
    ASSERT_TRUE(s.ok());
  }
  std::vector<TraceEvent> events = recorder.StopAndDrain();

  int outer_n = 0, work_n = 0, inner_n = 0, mark_n = 0;
  for (const auto& e : events) {
    std::string name = e.name;
    outer_n += name == "test.outer";
    work_n += name == "test.work";
    inner_n += name == "test.inner";
    mark_n += name == "test.mark";
    EXPECT_GE(e.ts_us, 0.0);
    EXPECT_GE(e.dur_us, 0.0);
    if (e.instant) {
      EXPECT_EQ(e.dur_us, 0.0);
    }
  }
  EXPECT_EQ(outer_n, 1);
  EXPECT_EQ(work_n, kTasks);
  EXPECT_EQ(inner_n, kTasks);
  EXPECT_EQ(mark_n, kTasks);

  // Within one thread, RAII spans close in LIFO order, so any two spans on
  // the same tid are either disjoint or properly nested — never partially
  // overlapping.
  for (size_t a = 0; a < events.size(); ++a) {
    for (size_t b = a + 1; b < events.size(); ++b) {
      const TraceEvent& x = events[a];
      const TraceEvent& y = events[b];
      if (x.tid != y.tid || x.instant || y.instant) {
        continue;
      }
      double x0 = x.ts_us, x1 = x.ts_us + x.dur_us;
      double y0 = y.ts_us, y1 = y.ts_us + y.dur_us;
      bool disjoint = x1 <= y0 || y1 <= x0;
      bool x_contains_y = x0 <= y0 && y1 <= x1;
      bool y_contains_x = y0 <= x0 && x1 <= y1;
      ASSERT_TRUE(disjoint || x_contains_y || y_contains_x)
          << x.name << " [" << x0 << "," << x1 << ") and " << y.name << " [" << y0 << ","
          << y1 << ") partially overlap on tid " << x.tid;
    }
  }

  std::string path = ::testing::TempDir() + "trace_nesting_test.json";
  ASSERT_TRUE(WriteChromeTrace(events, path).ok());
  auto data = ReadFile(path);
  ASSERT_TRUE(data.ok());
  EXPECT_TRUE(IsStructurallyValidJson(*data));
  EXPECT_NE(data->find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(data->find("\"test.work\""), std::string::npos);
  EXPECT_NE(data->find("\"ph\":\"i\""), std::string::npos);  // the instants
  RemoveFile(path);
}

TEST(TraceTest, SpansOpenAcrossStopAreDroppedNotTruncated) {
  TraceRecorder& recorder = TraceRecorder::Global();
  recorder.Start();
  auto open_span = std::make_unique<TraceSpan>("test.open_across_stop");
  std::vector<TraceEvent> events = recorder.StopAndDrain();
  EXPECT_TRUE(events.empty());  // the span had not completed when we stopped
  open_span.reset();            // destructor fires after Stop(): dropped
  EXPECT_TRUE(recorder.StopAndDrain().empty());
}

TEST(TraceTest, DetailStringsAreJsonEscaped) {
  TraceRecorder& recorder = TraceRecorder::Global();
  recorder.Start();
  TraceInstant("test.escape", "quote=\" backslash=\\ newline=\n tab=\t");
  std::vector<TraceEvent> events = recorder.StopAndDrain();
  ASSERT_EQ(events.size(), 1u);
  std::string path = ::testing::TempDir() + "trace_escape_test.json";
  ASSERT_TRUE(WriteChromeTrace(events, path).ok());
  auto data = ReadFile(path);
  ASSERT_TRUE(data.ok());
  EXPECT_TRUE(IsStructurallyValidJson(*data));
  RemoveFile(path);
}

TEST(MetricsTest, CounterCountsPastInt32Range) {
  Counter c;
  const int64_t big = int64_t{3} << 30;  // ~3.2e9, already past INT32_MAX
  c.Add(big);
  c.Add(big);
  EXPECT_EQ(c.value(), 2 * big);  // no truncation or saturation at 2^31
  c.Reset();
  EXPECT_EQ(c.value(), 0);
}

TEST(MetricsTest, HistogramPercentilesAreWithinOneBucketOfExact) {
  Histogram h;
  for (int i = 1; i <= 1000; ++i) {
    h.Observe(static_cast<double>(i));
  }
  EXPECT_EQ(h.count(), 1000);
  EXPECT_NEAR(h.sum(), 1000.0 * 1001.0 / 2.0, 1e-6);
  EXPECT_EQ(h.max(), 1000.0);
  // Buckets grow by 2^(1/4) ~ 1.19x, and a percentile reports the upper
  // bound of the bucket holding the rank: the answer is never below the
  // exact value and at most ~19% above it.
  const double kBucketRatio = std::exp2(1.0 / Histogram::kSubBuckets);
  EXPECT_GE(h.Percentile(50), 500.0);
  EXPECT_LE(h.Percentile(50), 500.0 * kBucketRatio * 1.01);
  EXPECT_GE(h.Percentile(95), 950.0);
  EXPECT_LE(h.Percentile(95), 950.0 * kBucketRatio * 1.01);
  EXPECT_GE(h.Percentile(99), 990.0);
  EXPECT_LE(h.Percentile(99), 990.0 * kBucketRatio * 1.01);
  // Degenerate ranks stay in range.
  EXPECT_GE(h.Percentile(0), 1.0);
  EXPECT_LE(h.Percentile(100), 1000.0 * kBucketRatio * 1.01);
}

TEST(MetricsTest, HistogramAbsorbsHostileValues) {
  Histogram h;
  h.Observe(0.0);
  h.Observe(-5.0);
  h.Observe(std::numeric_limits<double>::quiet_NaN());
  h.Observe(1e300);  // far past the covered range: clamps to the last bucket
  EXPECT_EQ(h.count(), 4);
  EXPECT_TRUE(std::isfinite(h.Percentile(99)));
}

TEST(MetricsTest, ObserveIsThreadSafe) {
  Histogram& h = MetricsRegistry::Global().histogram("test.concurrent_hist");
  Counter& c = MetricsRegistry::Global().counter("test.concurrent_counter");
  const int64_t count_before = h.count();
  const int64_t value_before = c.value();
  ThreadPool pool(4);
  ASSERT_TRUE(pool.ParallelFor(1000, [&](int i) {
                    h.Observe(static_cast<double>(i % 97) + 1.0);
                    c.Add();
                  })
                  .ok());
  EXPECT_EQ(h.count() - count_before, 1000);
  EXPECT_EQ(c.value() - value_before, 1000);
}

TEST(MetricsTest, SnapshotDeltaIsolatesARun) {
  auto& registry = MetricsRegistry::Global();
  Counter& c = registry.counter("test.delta_counter");
  Histogram& h = registry.histogram("test.delta_hist");
  c.Add(5);
  h.Observe(10.0);  // pre-run noise the delta must subtract away

  MetricsSnapshot before = registry.Snapshot();
  c.Add(7);
  for (int i = 0; i < 100; ++i) {
    h.Observe(1000.0);
  }
  MetricsSnapshot delta = registry.Snapshot().DeltaSince(before);

  EXPECT_EQ(delta.counter("test.delta_counter"), 7);
  EXPECT_EQ(delta.counter("test.never_created"), 0);
  const HistogramSnapshot* hs = delta.histogram("test.delta_hist");
  ASSERT_NE(hs, nullptr);
  EXPECT_EQ(hs->count, 100);
  EXPECT_NEAR(hs->sum, 100 * 1000.0, 1e-6);
  // Percentiles are recomputed from the delta buckets: the pre-run 10.0
  // observation must not drag p50 down.
  EXPECT_GE(hs->p50, 1000.0);
  EXPECT_LE(hs->p50, 1000.0 * 1.2);
}

TEST(MetricsTest, SnapshotJsonIsStructurallyValid) {
  auto& registry = MetricsRegistry::Global();
  registry.counter("test.json_counter").Add(3);
  registry.histogram("test.json_hist").Observe(42.0);
  registry.gauge("test.json_gauge").Set(-4);
  std::string json = registry.Snapshot().ToJson();
  EXPECT_TRUE(IsStructurallyValidJson(json));
  EXPECT_NE(json.find("\"test.json_counter\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"test.json_hist\""), std::string::npos);
  EXPECT_NE(json.find("\"test.json_gauge\": -4"), std::string::npos);
}

TEST(MetricsTest, GaugeTracksALevelNotATotal) {
  auto& registry = MetricsRegistry::Global();
  Gauge& depth = registry.gauge("test.queue_depth");
  depth.Set(10);
  depth.Add(3);
  depth.Add(-5);  // levels go down; counters never do
  EXPECT_EQ(depth.value(), 8);

  MetricsSnapshot before = registry.Snapshot();
  depth.Set(2);
  MetricsSnapshot delta = registry.Snapshot().DeltaSince(before);
  // A gauge is a point-in-time reading: DeltaSince reports the end value
  // (2), not the 2 - 8 difference, and unknown gauges read as 0.
  EXPECT_EQ(delta.gauge("test.queue_depth"), 2);
  EXPECT_EQ(delta.gauge("test.never_created"), 0);
}

}  // namespace
}  // namespace alt
