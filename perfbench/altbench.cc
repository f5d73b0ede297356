// altbench: the repository benchmark program (see perfbench/README.md).
//
//   altbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            [--workdir <dir>] [--smoke]
//
// Runs one workload, checks every output it produces, and prints one JSON
// object as the last line of stdout:
//
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
//
// With --trace 0 the metrics are the end-to-end ones, measured with tracing
// off. With --trace 1 they are the per-layer ones: the benchmark times calls
// into each module's public functions itself and reads the spans and counters
// the program already records (TraceRecorder, MetricsRegistry).
//
// Workloads (all on the intel-cpu machine profile):
//   tune_r18             core::Compile of ResNet-18 with full ALT, budget 1000.
//   serve_bert_alt       BERT-tiny tuned with ALT (budget 600) at set-up, saved
//                        as a native artifact, loaded back, and served through
//                        one InferenceSession with one request outstanding.
//   serve_fl_ol_batched  The ResNet-18 first layer tuned with ALT-OL (budget
//                        600), served through serving::Server with one
//                        generator keeping hardware-threads requests
//                        outstanding.

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "src/autotune/gbt.h"
#include "src/codegen/kernel_cache.h"
#include "src/core/alt.h"
#include "src/graph/networks.h"
#include "src/ir/stmt.h"
#include "src/layout/relation.h"
#include "src/loop/lowering.h"
#include "src/runtime/interpreter.h"
#include "src/runtime/reference.h"
#include "src/runtime/session.h"
#include "src/serving/server.h"
#include "src/sim/perf_model.h"
#include "src/support/metrics.h"
#include "src/support/rng.h"
#include "src/support/thread_pool.h"
#include "src/support/trace.h"

namespace alt::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double MsSince(Clock::time_point start) { return SecondsSince(start) * 1e3; }

// ---------------------------------------------------------------------------
// Workloads and arguments.

enum class Mode { kTune, kSession, kServer };

struct Workload {
  const char* name;
  graph::Graph (*build)();
  core::AltVariant variant;
  int budget;
  Mode mode;
};

graph::Graph BuildR18() { return graph::BuildResNet18(1); }
graph::Graph BuildBertTiny() { return graph::BuildBert(1, 128, 2); }
graph::Graph BuildFirstLayer() { return graph::BuildResNetFirstLayer(1); }

constexpr Workload kWorkloads[] = {
    {"tune_r18", &BuildR18, core::AltVariant::kFull, 1000, Mode::kTune},
    {"serve_bert_alt", &BuildBertTiny, core::AltVariant::kFull, 600, Mode::kSession},
    {"serve_fl_ol_batched", &BuildFirstLayer, core::AltVariant::kLoopOnly, 600, Mode::kServer},
};

// Tuning budget of every workload under --smoke.
constexpr int kSmokeBudget = 48;

struct Args {
  const Workload* workload = nullptr;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Tiny budgets, one set-up, short loops: checks that every metric is
  // emitted, not how fast anything is.
  bool smoke = false;
  std::string workdir = ".";
};

// Set-ups per run, the median reported as setup_s: at least kMinSetups, and
// more while they total under kMinSetupSeconds (cheap set-ups are noisy). All
// but the last run in forked children; the last one, in this process,
// provides the session or server that is measured.
constexpr int kMinSetups = 3;
constexpr int kMaxSetups = 40;
constexpr double kMinSetupSeconds = 3.0;

// The serve workloads time tune_s over at least kMinServeTunes compiles and
// kServeTuneSeconds; tune_r18 times it over the whole window.
constexpr int kMinServeTunes = 5;
constexpr double kServeTuneSeconds = 4.0;

// Distinct request inputs per serve run; each is checked against the
// reference once, then every timed response must match its first response
// bit for bit.
constexpr int kPoolSize = 4;

// Served outputs must match runtime::ExecuteReference within this tolerance,
// scaled by the reference's largest magnitude when that exceeds 1.
constexpr double kReferenceTolerance = 5e-3;

// The serve_bert_alt accounting gate: per-group program time plus conversion
// time must come within this share of the traced request p50.
constexpr double kAccountingGate = 0.05;

// Tuner seed of every workload (the AltOptions default). It is fixed rather
// than drawn from --seed: across tuner seeds the tuned network, and with it
// the work measured, changes by up to 10x in tune time and 80x in served
// latency, which no per-run median can steady. --seed draws the request
// inputs and the rows of the cost-model replay instead.
constexpr uint64_t kTunerSeed = 1;

// Cost-model training rows as the tuner keeps them (autotune/tuner.cc): 56
// features wide, refit when the row count lands on a multiple of 24.
constexpr int kRefitRows = 24;
constexpr int kFeatureWidth = 56;
constexpr int kInformativeFeatures = 26;

core::AltOptions AltOptionsFor(const Args& args) {
  core::AltOptions options;
  options.budget = args.smoke ? kSmokeBudget : args.workload->budget;
  options.variant = args.workload->variant;
  options.seed = kTunerSeed;
  options.engine = runtime::ExecEngine::kNative;
  options.intra_threads = HardwareThreads();
  return options;
}

// ---------------------------------------------------------------------------
// Statistics and output.

// Exact percentile with linear interpolation between order statistics.
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}

double Median(const std::vector<double>& v) { return Percentile(v, 50.0); }

double Ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

// Kendall tau-a between two equally long series (0 when fewer than 2).
double KendallTau(const std::vector<double>& a, const std::vector<double>& b) {
  const size_t n = std::min(a.size(), b.size());
  if (n < 2) {
    return 0.0;
  }
  int64_t concordant = 0;
  int64_t discordant = 0;
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      const double s = (a[i] - a[j]) * (b[i] - b[j]);
      concordant += s > 0;
      discordant += s < 0;
    }
  }
  return static_cast<double>(concordant - discordant) / static_cast<double>(n * (n - 1) / 2);
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, std::isfinite(value) ? value : 0.0, unit});
  }

  std::string Json(bool correct, int64_t attempted, int64_t failed) const {
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
    for (size_t i = 0; i < metrics_.size(); ++i) {
      char value[64];
      std::snprintf(value, sizeof(value), "%.10g", metrics_[i].value);
      out += (i == 0 ? "\"" : ", \"") + metrics_[i].name + "\": {\"value\": " + value +
             ", \"unit\": \"" + metrics_[i].unit + "\"}";
    }
    return out + "}}";
  }

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
};

// Failure ledger: every checked operation is attempted; every mismatch fails.
struct Ledger {
  int64_t attempted = 0;
  int64_t failed = 0;

  void Check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      std::fprintf(stderr, "altbench: check failed: %s\n", what.c_str());
    }
  }
};

// ---------------------------------------------------------------------------
// Trace analysis.

bool Named(const TraceEvent& e, const char* name) { return std::strcmp(e.name, name) == 0; }

bool Contains(const TraceEvent& outer, const TraceEvent& inner) {
  return inner.tid == outer.tid && inner.ts_us >= outer.ts_us &&
         inner.ts_us + inner.dur_us <= outer.ts_us + outer.dur_us + 1e-3;
}

// Events sorted by thread, then start (outer spans before the spans they
// contain).
std::vector<TraceEvent> SortedSpans(std::vector<TraceEvent> events) {
  std::erase_if(events, [](const TraceEvent& e) { return e.instant; });
  std::sort(events.begin(), events.end(), [](const TraceEvent& a, const TraceEvent& b) {
    if (a.tid != b.tid) {
      return a.tid < b.tid;
    }
    if (a.ts_us != b.ts_us) {
      return a.ts_us < b.ts_us;
    }
    return a.dur_us > b.dur_us;
  });
  return events;
}

// Self time (duration minus directly nested spans on the same thread) summed
// per span name, in microseconds.
std::map<std::string, double> SelfTimesUs(const std::vector<TraceEvent>& sorted) {
  std::map<std::string, double> self;
  std::vector<const TraceEvent*> stack;
  for (const TraceEvent& e : sorted) {
    while (!stack.empty() && !Contains(*stack.back(), e)) {
      stack.pop_back();
    }
    self[e.name] += e.dur_us;
    if (!stack.empty()) {
      self[stack.back()->name] -= e.dur_us;
    }
    stack.push_back(&e);
  }
  return self;
}

// Per-request host time split by program index, from the session.run /
// session.program / session.convert spans the session records.
struct HostSplit {
  int64_t runs = 0;
  std::vector<double> group_us;  // summed over runs, by program index
  double program_us = 0.0;       // summed over runs
  double convert_us = 0.0;       // summed over runs
};

HostSplit SplitSessionRuns(const std::vector<TraceEvent>& sorted, size_t programs) {
  HostSplit split;
  split.group_us.assign(programs, 0.0);
  const TraceEvent* run = nullptr;
  size_t index = 0;
  for (const TraceEvent& e : sorted) {
    if (Named(e, "session.run")) {
      run = &e;
      index = 0;
      ++split.runs;
    } else if (run != nullptr && Contains(*run, e)) {
      if (Named(e, "session.program")) {
        if (index < programs) {
          split.group_us[index] += e.dur_us;
        }
        ++index;
        split.program_us += e.dur_us;
      } else if (Named(e, "session.convert")) {
        split.convert_us += e.dur_us;
      }
    }
  }
  return split;
}

// ---------------------------------------------------------------------------
// Set-up: graph build, pretraining, and for the serve workloads tuning,
// native compilation, artifact save/load and session or server creation.

struct Setup {
  autotune::CompiledNetwork tuned;
  std::optional<core::LoadedArtifact> loaded;
  std::optional<runtime::InferenceSession> session;
  std::unique_ptr<serving::Server> server;
  double total_s = 0.0;
  double tune_s = 0.0;
  double compile_s = 0.0;
  double save_ms = 0.0;
  double load_ms = 0.0;
  double create_s = 0.0;
  int64_t artifact_bytes = 0;
  int64_t native_compiles = 0;    // codegen.compiles during the native compiles
  MetricsSnapshot create_delta;   // registry delta over session/server creation
  std::vector<TraceEvent> tune_events;  // spans of the tune (traced runs only)
};

// The timings and tuning outcome of one set-up, as a forked child reports them.
struct SetupSample {
  double total_s = 0.0;
  double tune_s = 0.0;
  double compile_s = 0.0;
  double pred_us = 0.0;
  int measurements = 0;
  bool round_trip_ok = true;  // the loaded artifact predicts what was saved
  double rss_mb = 0.0;        // peak RSS of the process that ran the set-up
};

SetupSample SampleOf(const Setup& s) {
  SetupSample sample;
  sample.total_s = s.total_s;
  sample.tune_s = s.tune_s;
  sample.compile_s = s.compile_s;
  sample.pred_us = s.tuned.perf.latency_us;
  sample.measurements = s.tuned.measurements_used;
  sample.round_trip_ok =
      !s.loaded.has_value() || s.loaded->network.perf.latency_us == s.tuned.perf.latency_us;
  sample.rss_mb = PeakRssMb();
  return sample;
}

Status RunSetup(const Args& args, const sim::Machine& machine, bool trace_tune, Setup& s) {
  const Workload& w = *args.workload;
  const auto start = Clock::now();
  graph::Graph graph = w.build();
  // The same pretraining core::SharedPretrainedAgent memoizes, redone here so
  // every set-up pays for it.
  const std::vector<double> agent = autotune::PretrainLayoutAgent(machine);
  if (w.mode == Mode::kTune) {
    s.total_s = SecondsSince(start);
    return Status::Ok();
  }

  const core::AltOptions options = AltOptionsFor(args);
  autotune::TuningOptions tuning = core::ToTuningOptions(options, machine);
  if (tuning.pretrained_agent != nullptr) {
    tuning.pretrained_agent = &agent;
  }
  if (trace_tune) {
    TraceRecorder::Global().Start();
  }
  auto t0 = Clock::now();
  auto tuned = core::RunTuner(graph, machine, options, tuning);
  s.tune_s = SecondsSince(t0);
  if (trace_tune) {
    s.tune_events = TraceRecorder::Global().StopAndDrain();
  }
  if (!tuned.ok()) {
    return tuned.status();
  }
  s.tuned = std::move(*tuned);

  static Counter& compiles = MetricsRegistry::Global().counter("codegen.compiles");
  const int64_t compiles_before = compiles.value();
  t0 = Clock::now();
  for (const ir::Program& program : s.tuned.programs) {
    auto key = runtime::EnsureNativeKernel(program);
    if (!key.ok()) {
      return key.status();
    }
  }
  s.compile_s = SecondsSince(t0);
  s.native_compiles = compiles.value() - compiles_before;

  const std::string path = args.workdir + "/" + w.name + ".altart";
  t0 = Clock::now();
  ALT_RETURN_IF_ERROR(core::SaveArtifact(s.tuned, machine, options, path));
  s.save_ms = MsSince(t0);
  s.artifact_bytes = static_cast<int64_t>(std::filesystem::file_size(path));
  t0 = Clock::now();
  auto loaded = core::LoadArtifact(path);
  s.load_ms = MsSince(t0);
  if (!loaded.ok()) {
    return loaded.status();
  }
  s.loaded = std::move(*loaded);
  std::filesystem::remove(path);

  const runtime::SessionOptions session_options = core::ToSessionOptions(options);
  const autotune::CompiledNetwork& net = s.loaded->network;
  const MetricsSnapshot before = MetricsRegistry::Global().Snapshot();
  t0 = Clock::now();
  if (w.mode == Mode::kSession) {
    auto session = runtime::InferenceSession::Create(net.graph, net.assignment,
                                                     {net.groups, net.programs},
                                                     session_options);
    if (!session.ok()) {
      return session.status();
    }
    s.session.emplace(std::move(*session));
  } else {
    serving::ServerOptions server_options;
    server_options.session = session_options;
    s.server = std::make_unique<serving::Server>(server_options);
    ALT_RETURN_IF_ERROR(s.server->AddModel(w.name, *s.loaded));
  }
  s.create_s = SecondsSince(t0);
  s.create_delta = MetricsRegistry::Global().Snapshot().DeltaSince(before);
  s.total_s = SecondsSince(start);
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// Timed loops. Each records one latency per operation, from the moment the
// benchmark started it.

struct LoopStats {
  std::vector<double> latency_ms;
  double wall_s = 0.0;
  double child_rss_mb = 0.0;  // largest peak RSS a forked child reported

  double throughput() const { return Ratio(static_cast<double>(latency_ms.size()), wall_s); }
};

struct Request {
  runtime::TensorDataMap data;
  std::vector<float> reference;
  std::vector<float> golden;  // first served response
};

bool BitIdentical(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

bool NearReference(const std::vector<float>& out, const std::vector<float>& ref) {
  if (out.size() != ref.size()) {
    return false;
  }
  double scale = 1.0;
  for (float v : ref) {
    scale = std::max(scale, static_cast<double>(std::fabs(v)));
  }
  return runtime::MaxAbsDiff(out, ref) <= kReferenceTolerance * scale;
}

StatusOr<std::vector<Request>> MakePool(const autotune::CompiledNetwork& net, uint64_t seed) {
  const int out_id = net.groups.back().OutputTensor(net.graph);
  std::vector<Request> pool(kPoolSize);
  for (int i = 0; i < kPoolSize; ++i) {
    Rng rng(seed * 1000003ull + static_cast<uint64_t>(i) + 17);
    runtime::FillGraphInputs(net.graph, rng, pool[i].data);
    runtime::TensorDataMap reference = pool[i].data;
    ALT_RETURN_IF_ERROR(runtime::ExecuteReference(net.graph, reference));
    pool[i].reference = std::move(reference[out_id]);
  }
  return pool;
}

// Answers one request and checks it: against the reference on its first
// answer (which becomes the golden output), bit-identical to the golden one
// afterwards.
void CheckResponse(const serving::Response& response, Request& request, Ledger& ledger) {
  if (!response.ok()) {
    ledger.Check(false, "request failed: " + response.status().ToString());
    return;
  }
  if (request.golden.empty()) {
    ledger.Check(NearReference(*response, request.reference),
                 "served output differs from runtime::ExecuteReference");
    request.golden = *response;
    return;
  }
  ledger.Check(BitIdentical(*response, request.golden),
               "served output not bit-identical to the first response");
}

LoopStats ServeSession(const runtime::InferenceSession& session, std::vector<Request>& pool,
                       double seconds, Ledger& ledger) {
  LoopStats stats;
  const auto start = Clock::now();
  for (size_t i = 0; i == 0 || SecondsSince(start) < seconds; ++i) {
    Request& request = pool[i % pool.size()];
    const auto sent = Clock::now();
    serving::Response response = session.Run(request.data);
    stats.latency_ms.push_back(MsSince(sent));
    CheckResponse(response, request, ledger);
  }
  stats.wall_s = SecondsSince(start);
  return stats;
}

// Closed loop with `outstanding` requests in flight: each completion sends
// the next request until `seconds` have passed, then the loop drains.
LoopStats ServeServer(serving::Server& server, const std::string& model,
                      std::vector<Request>& pool, int outstanding, double seconds,
                      Ledger& ledger) {
  struct InFlight {
    std::future<serving::Response> response;
    Clock::time_point sent;
    size_t request;
  };
  LoopStats stats;
  std::deque<InFlight> in_flight;
  size_t next = 0;
  auto send = [&] {
    const size_t index = next++ % pool.size();
    const auto sent = Clock::now();
    in_flight.push_back({server.Submit(model, pool[index].data), sent, index});
  };
  const auto start = Clock::now();
  for (int i = 0; i < outstanding; ++i) {
    send();
  }
  while (!in_flight.empty()) {
    InFlight head = std::move(in_flight.front());
    in_flight.pop_front();
    serving::Response response = head.response.get();
    stats.latency_ms.push_back(MsSince(head.sent));
    CheckResponse(response, pool[head.request], ledger);
    if (SecondsSince(start) < seconds) {
      send();
    }
  }
  stats.wall_s = SecondsSince(start);
  return stats;
}

// Runs `fn` in a forked child and returns the value it produced (nullopt
// when the child failed). Work repeated inside one process slows down from
// one repetition to the next (four ResNet-18 compiles in one process took
// 8.5, 8.8, 9.2 and 9.6 s), which would tie a median to how many repetitions
// fit in the window; a fresh child per repetition starts each from the same
// state. The caller must be single-threaded.
template <typename T, typename Fn>
std::optional<T> RunInChild(Fn&& fn) {
  static_assert(std::is_trivially_copyable_v<T>);
  int fds[2];
  if (pipe(fds) != 0) {
    return std::nullopt;
  }
  std::fflush(nullptr);
  const pid_t pid = fork();
  if (pid == 0) {
    close(fds[0]);
    const std::optional<T> value = fn();
    const bool sent = value.has_value() &&
                      write(fds[1], &*value, sizeof(T)) == static_cast<ssize_t>(sizeof(T));
    _exit(sent ? 0 : 1);
  }
  close(fds[1]);
  T value{};
  const bool received =
      pid > 0 && read(fds[0], &value, sizeof(T)) == static_cast<ssize_t>(sizeof(T));
  close(fds[0]);
  int status = 0;
  if (pid > 0) {
    waitpid(pid, &status, 0);
  }
  if (!received || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    return std::nullopt;
  }
  return value;
}

// What a forked compile reports back.
struct CompileOutcome {
  double wall_s = 0.0;
  double pred_us = 0.0;
  int measurements = 0;
  double rss_mb = 0.0;
};

// Repeats core::Compile on the same seed, each in a fresh child; every result
// must reproduce the first one's predicted latency and measurement count
// exactly.
LoopStats TuneLoop(const graph::Graph& graph, const sim::Machine& machine,
                   const core::AltOptions& options, double seconds, int min_ops,
                   std::optional<CompileOutcome>& first, Ledger& ledger) {
  LoopStats stats;
  const auto start = Clock::now();
  double last_s = 0.0;
  while (static_cast<int>(stats.latency_ms.size()) < min_ops ||
         SecondsSince(start) + last_s <= seconds) {
    const auto t0 = Clock::now();
    const std::optional<CompileOutcome> outcome =
        RunInChild<CompileOutcome>([&]() -> std::optional<CompileOutcome> {
          const auto c0 = Clock::now();
          auto compiled = core::Compile(graph, machine, options);
          if (!compiled.ok()) {
            return std::nullopt;
          }
          return CompileOutcome{SecondsSince(c0), compiled->perf.latency_us,
                                compiled->measurements_used, PeakRssMb()};
        });
    last_s = outcome.has_value() ? outcome->wall_s : SecondsSince(t0);
    stats.latency_ms.push_back(last_s * 1e3);
    std::fprintf(stderr, "altbench: compile %zu: %.3f s\n", stats.latency_ms.size(), last_s);
    if (!outcome.has_value()) {
      ledger.Check(false, "compile failed");
      continue;
    }
    stats.child_rss_mb = std::max(stats.child_rss_mb, outcome->rss_mb);
    if (!first.has_value()) {
      ledger.Check(outcome->pred_us > 0.0, "tuned network has no predicted latency");
      first = outcome;
      continue;
    }
    ledger.Check(outcome->pred_us == first->pred_us &&
                     outcome->measurements == first->measurements,
                 "compile did not reproduce the predicted latency and measurement count");
  }
  stats.wall_s = SecondsSince(start);
  return stats;
}

// ---------------------------------------------------------------------------
// Per-layer metrics.

bool IsPurePermutation(const layout::LayoutRelation& relation) {
  if (!relation.exact() || !relation.IsBijective()) {
    return false;
  }
  for (size_t d = 0; d < relation.canonical_shape().size(); ++d) {
    if (relation.DigitExtents(static_cast<int>(d)).size() > 1) {
      return false;
    }
  }
  return true;
}

// Layers that are a function of the tuned network alone: layout, graph, loop
// lowering and the simulator. Returns the per-group predicted latencies.
std::vector<double> AddNetworkLayers(const autotune::CompiledNetwork& net,
                                     const sim::Machine& machine, Report& report) {
  int64_t tiled = 0;
  for (const auto& tensor : net.graph.tensors()) {
    const layout::LayoutSeq& seq = net.assignment.Get(tensor.id);
    if (seq.size() == 0) {
      continue;
    }
    auto relation = layout::LayoutRelation::FromSeq(seq, tensor.shape);
    tiled += !relation.ok() || !IsPurePermutation(*relation);
  }
  int64_t conversions = 0;
  for (const auto& op : net.graph.ops()) {
    conversions += op.kind == graph::OpKind::kLayoutConvert;
  }
  report.Add("layout.tiled_tensors", static_cast<double>(tiled), "count");
  report.Add("graph.groups", static_cast<double>(net.groups.size()), "count");
  report.Add("graph.conversion_ops", static_cast<double>(conversions), "count");

  auto t0 = Clock::now();
  for (size_t i = 0; i < net.groups.size(); ++i) {
    auto program = loop::LowerGroup(net.graph, net.assignment, net.groups[i], net.schedules[i]);
    if (!program.ok()) {
      program = loop::LowerGroupNaive(net.graph, net.assignment, net.groups[i]);
    }
  }
  report.Add("loop.lower_ms", MsSince(t0), "ms");
  int64_t stores = 0;
  for (const ir::Program& program : net.programs) {
    stores += ir::CountStoreExecutions(program.root);
  }
  report.Add("loop.store_execs", static_cast<double>(stores), "count");

  std::vector<double> predicted_us;
  t0 = Clock::now();
  for (const ir::Program& program : net.programs) {
    predicted_us.push_back(sim::EstimateProgram(program, machine).latency_us);
  }
  report.Add("sim.estimate_ms", Ratio(MsSince(t0), static_cast<double>(net.programs.size())),
             "ms");
  return predicted_us;
}

// Row counts at which the traced tune refit its cost model. The tuner adds
// one training row per fresh measurement of a loop batch and refits whenever
// the row count lands on a multiple of kRefitRows after a batch
// (autotune/tuner.cc), so the counts are recovered from the spans: fresh
// measurements are the measure.candidate spans inside the measure.batch of a
// tuner.loop_batch.
std::vector<int> RefitRowCounts(const std::vector<TraceEvent>& sorted) {
  std::vector<double> candidate_starts;
  for (const TraceEvent& e : sorted) {
    if (Named(e, "measure.candidate")) {
      candidate_starts.push_back(e.ts_us);
    }
  }
  std::sort(candidate_starts.begin(), candidate_starts.end());
  std::vector<std::pair<double, int>> batch_rows;  // (start, rows) per loop batch
  const TraceEvent* loop_batch = nullptr;
  for (const TraceEvent& e : sorted) {
    if (Named(e, "tuner.loop_batch")) {
      loop_batch = &e;
      batch_rows.push_back({e.ts_us, 0});
    } else if (Named(e, "measure.batch") && loop_batch != nullptr && Contains(*loop_batch, e)) {
      const auto first = std::lower_bound(candidate_starts.begin(), candidate_starts.end(),
                                          e.ts_us);
      const auto last = std::upper_bound(first, candidate_starts.end(), e.ts_us + e.dur_us);
      batch_rows.back().second += static_cast<int>(last - first);
    }
  }
  std::sort(batch_rows.begin(), batch_rows.end());
  std::vector<int> refits;
  int rows = 0;
  for (const auto& [start, added] : batch_rows) {
    rows += added;
    if (added > 0 && rows >= kRefitRows && rows % kRefitRows == 0) {
      refits.push_back(rows);
    }
  }
  return refits;
}

// Replays the tuner's cost-model refits: GradientBoostedTrees::Fit on seeded
// 56-wide rows at each of `refit_rows`.
double CostModelFitSeconds(const std::vector<int>& refit_rows, uint64_t seed) {
  Rng rng(seed ^ 0x6b7f3ull);
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  double total_s = 0.0;
  for (int refit : refit_rows) {
    while (static_cast<int>(x.size()) < refit) {
      // Shaped like a conv group's loop-stage features: the first
      // kInformativeFeatures hold log1p of power-of-two tile factors, the
      // rest are the tuner's zero padding.
      std::vector<double> row(kFeatureWidth, 0.0);
      for (int f = 0; f < kInformativeFeatures; ++f) {
        row[f] = std::log1p(static_cast<double>(int64_t{1} << rng.NextInt(0, 6)));
      }
      x.push_back(std::move(row));
      y.push_back(std::log1p(1.0 + 1000.0 * rng.NextDouble()));
    }
    const std::vector<std::vector<double>> rows(x.begin(), x.begin() + refit);
    const std::vector<double> targets(y.begin(), y.begin() + refit);
    autotune::GradientBoostedTrees model;
    const auto t0 = Clock::now();
    model.Fit(rows, targets);
    total_s += SecondsSince(t0);
  }
  return total_s;
}

// Tuner layers from one traced tune: its result, its registry delta and its
// spans.
void AddTunerLayers(const autotune::CompiledNetwork& tuned,
                      const std::vector<TraceEvent>& events, double tune_s, uint64_t seed,
                      Report& report) {
  const autotune::MeasureStats& ms = tuned.measure_stats;
  const std::vector<TraceEvent> sorted = SortedSpans(events);
  const std::map<std::string, double> self = SelfTimesUs(sorted);
  const std::vector<int> refits = RefitRowCounts(sorted);
  auto self_us = [&](const char* name) {
    auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second;
  };
  const double self_s =
      (self_us("tuner.loop_batch") + self_us("tuner.tune_op_layout") + self_us("ppo.update")) *
      1e-6;
  report.Add("autotune.self_s", self_s, "s");
  std::fprintf(stderr, "altbench: tune span self times (s):");
  for (const auto& [name, us] : self) {
    std::fprintf(stderr, " %s=%.3f", name.c_str(), us * 1e-6);
  }
  std::fprintf(stderr, "\naltbench: cost-model refits at rows:");
  for (int rows : refits) {
    std::fprintf(stderr, " %d", rows);
  }
  std::fprintf(stderr, "\n");
  report.Add("autotune.cost_model_fit_s", CostModelFitSeconds(refits, seed), "s");
  report.Add("autotune.refits", static_cast<double>(refits.size()), "count");
  report.Add("autotune.measure_wall_s", ms.wall_ms * 1e-3, "s");
  report.Add("autotune.measure_cpu_s", ms.cpu_ms * 1e-3, "s");
  report.Add("autotune.requested", static_cast<double>(ms.requested), "count");
  report.Add("autotune.measured", static_cast<double>(ms.measured), "count");
  report.Add("autotune.cache_hit_ratio",
             Ratio(static_cast<double>(ms.cache_hits), static_cast<double>(ms.requested)),
             "ratio");
  report.Add("autotune.loop_batches",
             static_cast<double>(tuned.metrics.counter("tuner.loop_batches")), "count");
  const double enumerated =
      static_cast<double>(tuned.metrics.counter("layout.candidates_enumerated"));
  report.Add("layout.candidates_enumerated", enumerated, "count");
  report.Add("layout.dedup_ratio",
             Ratio(static_cast<double>(tuned.metrics.counter("layout.relation_dedup")),
                   enumerated),
             "ratio");
  report.Add("sim.estimate_calls",
             static_cast<double>(tuned.metrics.counter("sim.estimate_program_calls")),
             "count");
  report.Add("check.tune_unexplained_share", 1.0 - Ratio(self_s + ms.wall_ms * 1e-3, tune_s),
             "ratio");
}

// Serving-side layers from the traced phase of a serve run.
void AddServeLayers(const Setup& s, const std::vector<double>& predicted_us,
                    const std::vector<TraceEvent>& events, const MetricsSnapshot& delta,
                    const LoopStats& untraced, const LoopStats& traced, bool gate,
                    Report& report) {
  const HostSplit split = SplitSessionRuns(SortedSpans(events), predicted_us.size());
  const double runs = static_cast<double>(std::max<int64_t>(split.runs, 1));
  const double run_ms = split.program_us / runs * 1e-3;
  const double convert_ms = split.convert_us / runs * 1e-3;
  std::vector<double> host_us;
  for (double us : split.group_us) {
    host_us.push_back(us / runs);
  }
  const double hottest = host_us.empty() ? 0.0 : *std::max_element(host_us.begin(), host_us.end());
  const double traced_p50 = Median(traced.latency_ms);
  const double untraced_p50 = Median(untraced.latency_ms);
  double predicted_total_us = 0.0;
  for (double us : predicted_us) {
    predicted_total_us += us;
  }

  report.Add("sim.host_over_pred", Ratio(run_ms * 1e3, predicted_total_us), "ratio");
  report.Add("sim.group_rank_tau", KendallTau(predicted_us, host_us), "tau");
  report.Add("codegen.compile_s", s.compile_s, "s");
  report.Add("codegen.compiles", static_cast<double>(s.native_compiles), "count");
  report.Add("codegen.fallback_programs",
             static_cast<double>(s.create_delta.counter("codegen.fallback_programs")), "count");
  report.Add("runtime.create_s", s.create_s, "s");
  report.Add("runtime.run_ms", run_ms, "ms");
  report.Add("runtime.convert_ms", convert_ms, "ms");
  report.Add("runtime.hot_group_share", Ratio(hottest, split.program_us / runs), "ratio");
  report.Add("runtime.kernel_leaves",
             static_cast<double>(s.create_delta.counter("interp.kernel_leaves")), "count");
  report.Add("runtime.bytecode_leaves",
             static_cast<double>(s.create_delta.counter("interp.bytecode_leaves")), "count");
  report.Add("runtime.parallel_programs",
             Ratio(static_cast<double>(delta.counter("interp.parallel_programs")), runs),
             "count");
  report.Add("runtime.parallel_degraded",
             static_cast<double>(s.create_delta.counter("interp.parallel_degraded")), "count");
  report.Add("runtime.arena_waits", static_cast<double>(delta.counter("session.arena_waits")),
             "count");
  auto hist_mean = [&](const char* name) {
    const HistogramSnapshot* h = delta.histogram(name);
    return h == nullptr ? 0.0 : h->mean();
  };
  report.Add("serving.queue_wait_ms", hist_mean("serving.queue_wait_us") * 1e-3, "ms");
  report.Add("serving.batch_size_mean", hist_mean("serving.batch_size"), "count");
  report.Add("serving.batch_ms", hist_mean("serving.batch_us") * 1e-3, "ms");
  report.Add("core.save_artifact_ms", s.save_ms, "ms");
  report.Add("core.load_artifact_ms", s.load_ms, "ms");
  report.Add("core.artifact_bytes", static_cast<double>(s.artifact_bytes), "bytes");

  const double share = Ratio(run_ms + convert_ms, traced_p50);
  report.Add("check.run_convert_share", share, "ratio");
  report.Add("trace.overhead_ms", traced_p50 - untraced_p50, "ms");
  report.Add("trace.overhead_share", Ratio(traced_p50 - untraced_p50, untraced_p50), "ratio");

  const auto& net = s.loaded->network;
  std::fprintf(stderr, "altbench: per-group host time over %lld traced requests\n",
               static_cast<long long>(split.runs));
  std::fprintf(stderr, "  %3s  %-24s %12s %12s\n", "grp", "anchor", "pred_us", "host_us");
  for (size_t i = 0; i < host_us.size() && i < net.groups.size(); ++i) {
    std::fprintf(stderr, "  %3zu  %-24s %12.1f %12.1f\n", i,
                 net.graph.op(net.groups[i].anchor_op).name.c_str(), predicted_us[i],
                 host_us[i]);
  }
  std::fprintf(stderr,
               "altbench: accounting: (run %.3f ms + convert %.3f ms) / traced p50 %.3f ms = "
               "%.4f\n",
               run_ms, convert_ms, traced_p50, share);
  if (gate) {
    const bool pass = std::fabs(share - 1.0) <= kAccountingGate;
    std::fprintf(stderr, "altbench: accounting gate (within %.0f%% of p50): %s\n",
                 kAccountingGate * 100, pass ? "PASS" : "FAIL");
  }
}

// Serve-only per-layer names, reported as 0 on tune_r18 so every run of every
// workload prints the same metric set.
void AddAbsentServeLayers(Report& report) {
  const std::pair<const char*, const char*> absent[] = {
      {"sim.host_over_pred", "ratio"},       {"sim.group_rank_tau", "tau"},
      {"codegen.compile_s", "s"},            {"codegen.compiles", "count"},
      {"codegen.fallback_programs", "count"}, {"runtime.create_s", "s"},
      {"runtime.run_ms", "ms"},              {"runtime.convert_ms", "ms"},
      {"runtime.hot_group_share", "ratio"},  {"runtime.kernel_leaves", "count"},
      {"runtime.bytecode_leaves", "count"},  {"runtime.parallel_programs", "count"},
      {"runtime.parallel_degraded", "count"}, {"runtime.arena_waits", "count"},
      {"serving.queue_wait_ms", "ms"},       {"serving.batch_size_mean", "count"},
      {"serving.batch_ms", "ms"},            {"core.save_artifact_ms", "ms"},
      {"core.load_artifact_ms", "ms"},       {"core.artifact_bytes", "bytes"},
      {"check.run_convert_share", "ratio"},
  };
  for (const auto& [name, unit] : absent) {
    report.Add(name, 0.0, unit);
  }
}

// ---------------------------------------------------------------------------

int Usage() {
  std::fprintf(stderr,
               "usage: altbench --workload <tune_r18|serve_bert_alt|serve_fl_ol_batched> "
               "--seed <n> --seconds <s> --trace <0|1> [--workdir <dir>] [--smoke]\n");
  return 2;
}

bool ParseArgs(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      args.smoke = true;
      continue;
    }
    if (i + 1 >= argc) {
      return false;
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      for (const Workload& w : kWorkloads) {
        if (value == w.name) {
          args.workload = &w;
        }
      }
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--workdir") {
      args.workdir = value;
    } else {
      return false;
    }
  }
  return args.workload != nullptr && args.seconds > 0.0;
}

int Fatal(const Status& status) {
  std::fprintf(stderr, "altbench: %s\n", status.ToString().c_str());
  return 1;
}

int Run(const Args& args) {
  const Workload& w = *args.workload;
  const sim::Machine& machine = sim::Machine::ByName("intel-cpu");
  const graph::Graph graph = w.build();
  const core::AltOptions options = AltOptionsFor(args);
  // Compile and ToTuningOptions read the memoized agent; fill it once,
  // untimed. Every timed set-up below redoes the pretraining itself.
  core::SharedPretrainedAgent(machine);

  Ledger ledger;
  Report report;
  double peak_rss_mb = 0.0;  // largest over this process and its children
  std::vector<SetupSample> samples;
  auto more_setups = [&] {
    const int total = static_cast<int>(samples.size()) + 1;
    double seconds = 0.0;
    for (const SetupSample& sample : samples) {
      seconds += sample.total_s;
    }
    return !args.smoke &&
           (total < kMinSetups || (total < kMaxSetups && seconds < kMinSetupSeconds));
  };
  while (more_setups()) {
    const std::optional<SetupSample> sample =
        RunInChild<SetupSample>([&]() -> std::optional<SetupSample> {
          Setup child;
          codegen::KernelCache::Global().ClearForTest();  // every set-up compiles cold
          if (!RunSetup(args, machine, false, child).ok()) {
            return std::nullopt;
          }
          return SampleOf(child);
        });
    if (!sample.has_value()) {
      return Fatal(Status::Internal("a set-up failed in its child process"));
    }
    samples.push_back(*sample);
  }

  // tune_s: core::Compile repeated in forked children. The serve workloads
  // time it here, before their in-process set-up starts threads (forking
  // then would be unsafe), for a fixed kServeTuneSeconds; tune_r18 times it
  // below for the whole window.
  std::optional<CompileOutcome> first;
  LoopStats tunes;
  if (w.mode != Mode::kTune) {
    tunes = TuneLoop(graph, machine, options, args.smoke ? 0.0 : kServeTuneSeconds,
                     args.smoke ? 1 : kMinServeTunes, first, ledger);
  }

  Setup s;
  codegen::KernelCache::Global().ClearForTest();
  if (Status status = RunSetup(args, machine, args.trace, s); !status.ok()) {
    return Fatal(status);
  }
  samples.push_back(SampleOf(s));
  std::vector<double> setup_s;
  for (const SetupSample& sample : samples) {
    setup_s.push_back(sample.total_s);
    peak_rss_mb = std::max(peak_rss_mb, sample.rss_mb);
    std::fprintf(stderr, "altbench: set-up: %.3f s (tune %.3f s, native compile %.3f s)\n",
                 sample.total_s, sample.tune_s, sample.compile_s);
    if (w.mode != Mode::kTune) {
      ledger.Check(sample.round_trip_ok, "artifact round trip changed the predicted latency");
      ledger.Check(sample.pred_us == first->pred_us && sample.measurements == first->measurements,
                   "set-up tune did not reproduce core::Compile");
    }
  }

  LoopStats timed;
  if (w.mode == Mode::kTune) {
    timed = TuneLoop(graph, machine, options, args.trace ? args.seconds / 2 : args.seconds,
                     args.trace || args.smoke ? 1 : 2, first, ledger);
    tunes = timed;
    if (args.trace) {
      // One traced compile, in this process (which has not compiled yet):
      // the tuner's own spans give autotune.self_s.
      TraceRecorder::Global().Start();
      const auto t0 = Clock::now();
      auto traced = core::Compile(graph, machine, options);
      const double traced_s = SecondsSince(t0);
      std::vector<TraceEvent> events = TraceRecorder::Global().StopAndDrain();
      if (!traced.ok()) {
        return Fatal(traced.status());
      }
      ledger.Check(traced->perf.latency_us == first->pred_us &&
                       traced->measurements_used == first->measurements,
                   "traced compile did not reproduce the untraced one");
      const double untraced_s = Median(tunes.latency_ms) * 1e-3;
      AddTunerLayers(*traced, events, traced_s, args.seed, report);
      AddNetworkLayers(*traced, machine, report);
      AddAbsentServeLayers(report);
      report.Add("trace.overhead_ms", (traced_s - untraced_s) * 1e3, "ms");
      report.Add("trace.overhead_share", Ratio(traced_s - untraced_s, untraced_s), "ratio");
    }
  } else {
    const autotune::CompiledNetwork& net = s.loaded->network;
    auto pool_or = MakePool(net, args.seed);
    if (!pool_or.ok()) {
      return Fatal(pool_or.status());
    }
    std::vector<Request> pool = std::move(*pool_or);
    const int outstanding = std::max(1, HardwareThreads());
    auto serve = [&](double seconds) {
      return w.mode == Mode::kSession
                 ? ServeSession(*s.session, pool, seconds, ledger)
                 : ServeServer(*s.server, w.name, pool, outstanding, seconds, ledger);
    };
    // Warm-up (untimed): check each input against the reference, then
    // materialize the arenas the timed loop will use.
    for (Request& request : pool) {
      serving::Response response = w.mode == Mode::kSession
                                       ? s.session->Run(request.data)
                                       : s.server->Infer(w.name, request.data);
      CheckResponse(response, request, ledger);
    }
    serve(0.0);
    if (!args.trace) {
      timed = serve(args.seconds);
    } else {
      const LoopStats untraced = serve(args.seconds / 2);
      const MetricsSnapshot before = MetricsRegistry::Global().Snapshot();
      TraceRecorder::Global().Start();
      timed = serve(args.seconds / 2);
      std::vector<TraceEvent> events = TraceRecorder::Global().StopAndDrain();
      const MetricsSnapshot delta = MetricsRegistry::Global().Snapshot().DeltaSince(before);
      AddTunerLayers(s.tuned, s.tune_events, s.tune_s, args.seed, report);
      const std::vector<double> predicted_us = AddNetworkLayers(net, machine, report);
      AddServeLayers(s, predicted_us, events, delta, untraced, timed,
                     w.mode == Mode::kSession, report);
    }
  }
  if (!first.has_value()) {
    return Fatal(Status::Internal("no compile succeeded"));
  }

  if (args.trace) {
    report.Add("sim.tuned_pred_us", first->pred_us, "us");
    report.Add("bench.failed_frac",
               Ratio(static_cast<double>(ledger.failed), static_cast<double>(ledger.attempted)),
               "ratio");
  } else {
    peak_rss_mb = std::max(peak_rss_mb, tunes.child_rss_mb);
    report.Add("setup_s", Median(setup_s), "s");
    report.Add("tune_s", Median(tunes.latency_ms) * 1e-3, "s");
    report.Add("request_p50_ms", Percentile(timed.latency_ms, 50.0), "ms");
    report.Add("request_p90_ms", Percentile(timed.latency_ms, 90.0), "ms");
    report.Add("throughput_rps", timed.throughput(), "1/s");
    report.Add("peak_rss_mb", std::max(peak_rss_mb, PeakRssMb()), "MB");
  }
  std::fprintf(stderr,
               "altbench: %s seed=%llu tuned_pred_us=%.3f ops=%zu wall=%.2fs failed=%lld/%lld\n",
               w.name, static_cast<unsigned long long>(args.seed), first->pred_us,
               timed.latency_ms.size(), timed.wall_s, static_cast<long long>(ledger.failed),
               static_cast<long long>(ledger.attempted));
  std::printf("%s\n", report.Json(ledger.failed == 0, ledger.attempted, ledger.failed).c_str());
  std::fflush(stdout);
  return ledger.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace alt::perfbench

int main(int argc, char** argv) {
  alt::perfbench::Args args;
  if (!alt::perfbench::ParseArgs(argc, argv, args)) {
    return alt::perfbench::Usage();
  }
  return alt::perfbench::Run(args);
}
