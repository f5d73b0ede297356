// ALT compiler facade: the single documented entry point for compiling,
// persisting, and deploying tuned networks.
//
//   COMPILE            core::Compile(graph, machine, options)
//                      (with options.tuning_db set, every measurement
//                      is persisted to a tuning database; re-running the same
//                      Compile against it resumes an interrupted run,
//                      bit-identical to an uninterrupted one)
//   SAVE / LOAD        core::SaveArtifact / core::LoadArtifact
//                      (core/artifact.h — versioned CRC-framed on-disk format;
//                      a loaded artifact re-lowers to the exact programs the
//                      tuner produced, no re-tuning)
//   SERVE              runtime::InferenceSession (runtime/session.h —
//                      compile-once / run-many execution of a CompiledNetwork
//                      or loaded artifact)
//   SERVE AT SCALE     serving::Server (serving/server.h — request queue with
//                      dynamic batching under a size/timeout policy, worker
//                      dispatch onto pooled sessions, per-model latency
//                      metrics, atomic hot-swap to a retuned artifact)
//   LAYOUT ALGEBRA     layout::LayoutRelation (layout/relation.h — the
//                      first-class invertible index relation a primitive
//                      sequence denotes: MapRead / MapInverse access maps,
//                      Compose / Inverse / ApplyToShape, canonical
//                      Fingerprint() for semantic equality and candidate
//                      dedup, DigitExtents divisibility queries)
//
//   graph::Graph g = graph::BuildResNet18(1);
//   core::AltOptions options;
//   auto compiled = core::Compile(g, sim::Machine::IntelCpu(), options);
//   core::SaveArtifact(*compiled, sim::Machine::IntelCpu(), options, "net.altart");
//   ...
//   auto loaded = core::LoadArtifact("net.altart");
//   auto session = runtime::InferenceSession::Create(
//       loaded->network.graph, loaded->network.assignment,
//       {loaded->network.groups, loaded->network.programs});
//
// Variants: every method the paper's evaluation (§7) compares, each a setting
// of the one joint tuner (ToTuningOptions):
//   * kFull — joint layout + loop tuning with full propagation (ALT).
//   * kLoopOnly — loop tuning only, NHWO/NDHWO layouts (ALT-OL, §7.2).
//   * kWithoutPropagation — joint tuning but only direct producer-side
//     conversion elimination, no multi-hop propagation, so fusion conflicts
//     remain (ALT-WP, §7.2).
//   * kInheritProducer / kForceProducer — a complex consumer reads its
//     complex producer's output layout (ALT-FP), or, tuned first, imposes
//     its input layout on the producer (ALT-BP) (§7.3.2).
//   * kVendor / kAutoTvm / kFlexTensor / kAnsor — the competitors: loop-only
//     tuning on a fixed layout, with zero budget (vendor libraries), a
//     restricted loop space (AutoTVM), no cost model (FlexTensor), or the
//     full loop space and cost model (Ansor).
// Artifacts store the enum's number: append new variants at the end.

#ifndef ALT_CORE_ALT_H_
#define ALT_CORE_ALT_H_

#include <optional>
#include <string_view>

#include "src/autotune/tuner.h"
#include "src/runtime/interpreter.h"
#include "src/runtime/session.h"

namespace alt::core {

enum class AltVariant {
  kFull, kLoopOnly, kWithoutPropagation, kInheritProducer, kForceProducer,
  kVendor, kAutoTvm, kFlexTensor, kAnsor
};

// The paper's name for a variant: "ALT", "ALT-OL", ..., "Vendor", "AutoTVM",
// "FlexTensor", "Ansor".
const char* VariantName(AltVariant variant);
// The variant VariantName calls `name`, compared case-insensitively ("alt-ol"
// and "ALT-OL" both name kLoopOnly); nullopt for any other name.
std::optional<AltVariant> VariantFromName(std::string_view name);

struct AltOptions {
  int budget = 600;
  double joint_fraction = 0.3;
  AltVariant variant = AltVariant::kFull;
  autotune::SearchMethod method = autotune::SearchMethod::kPpoPretrained;
  bool two_level_templates = false;
  uint64_t seed = 1;
  // Execution engine for serving the compiled network (runtime/interpreter.h).
  // kNative additionally makes SaveArtifact embed the JIT-compiled kernel
  // objects so a loaded artifact serves without recompiling.
  runtime::ExecEngine engine = runtime::ExecEngine::kAffine;
  // Intra-op threads for executing the compiled network: root loops the
  // schedule marked ForKind::kParallel shard across this many threads when
  // provably safe (runtime::SessionOptions::intra_threads). <= 0 selects
  // HardwareThreads(); 1 keeps execution serial.
  int intra_threads = 0;
  // Measurement engine settings (autotune/measure.h): candidate threads,
  // fault injection, retry policy, and crash isolation (isolate.workers > 0
  // evaluates candidates in forked worker processes, trajectory-identical to
  // in-process measurement for a fixed seed).
  autotune::MeasureEngineConfig measure;
  // Persistent tuning database path (see core/tuning_database.h). When
  // non-empty, measurements are looked up here before running and written
  // through after, so a rerun against the same database warm-starts with
  // zero redundant measurements, and a rerun after a crash resumes from
  // the measurements the interrupted run persisted.
  std::string tuning_db;
  // When non-empty, the run records a span trace (tuner phases, measurement
  // batches, PPO updates) and writes it to this path as Chrome trace-event
  // JSON (see autotune::TuningOptions::trace_path).
  std::string trace_path;
};

// Maps the facade options onto the tuner's options: the one place a variant
// becomes tuner switches (machine-dependent fixed layouts included), plus
// the shared pretrained agent and the measurement settings. Exposed so
// callers that drive RunTuner directly derive the exact options a plain
// Compile would use.
autotune::TuningOptions ToTuningOptions(const AltOptions& options,
                                        const sim::Machine& machine);

// Maps the facade options onto serving-session options (execution engine and
// intra-op thread budget), so embedders serving a CompiledNetwork or loaded
// artifact get the same execution behavior from one set of flags.
runtime::SessionOptions ToSessionOptions(const AltOptions& options);

StatusOr<autotune::CompiledNetwork> Compile(const graph::Graph& graph,
                                            const sim::Machine& machine,
                                            const AltOptions& options);

// Shared tail of every compile path and the only place a JointTuner is
// built: opens the tuning database when `options.tuning_db` is set (wiring
// it into `tuning`), runs the tuner, and closes the database. Callers that
// adjust `tuning` beyond what a variant expresses call this directly;
// Compile is just RunTuner(graph, machine, options,
// ToTuningOptions(options, machine)).
StatusOr<autotune::CompiledNetwork> RunTuner(const graph::Graph& graph,
                                             const sim::Machine& machine,
                                             const AltOptions& options,
                                             autotune::TuningOptions tuning);

// Lazily pretrained PPO layout agent shared across compilations (paper §6:
// the agent is pretrained once on C2D and GMM workloads).
const std::vector<double>& SharedPretrainedAgent(const sim::Machine& machine);

}  // namespace alt::core

// Aggregated facade: pulling in alt.h gives the full compile / persist
// surface. artifact.h includes alt.h itself, so it must come after the
// declarations above (the include guard makes the cycle benign).
#include "src/core/artifact.h"  // SaveArtifact / LoadArtifact
// serving::Server lives above the core facade: include "src/serving/server.h"
// (and link alt_serving) for the batching front-end — server.h includes this
// header, so aggregating it here would cycle.

#endif  // ALT_CORE_ALT_H_
