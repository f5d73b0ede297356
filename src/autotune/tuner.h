// Joint layout + loop auto-tuning (paper §5).
//
// The tuner implements the two-stage cross-exploration architecture:
//
//   * JOINT STAGE — for each complex operator in topological order, a layout
//     agent proposes a point in the pruned layout-template space; the loop
//     space is rebuilt for that layout and several rounds of loop tuning run
//     on it; the best latency found becomes the layout's reward (Eq. (3)).
//     The winning layouts are committed and propagated (Algorithm 1),
//     inserting conversion operators where the constraints demand them.
//   * LOOP-ONLY STAGE — with layouts frozen (so loop spaces never get
//     reconstructed again), the remaining budget tunes every fused group's
//     schedule.
//
// "Measurement" is a simulator estimate; budget accounting mirrors the paper
// (of each sampled batch only the cost model's top-k are run, and each costs
// one measurement; tuner.cc fixes the batch size and k).

#ifndef ALT_AUTOTUNE_TUNER_H_
#define ALT_AUTOTUNE_TUNER_H_

#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "src/autotune/gbt.h"
#include "src/autotune/measure.h"
#include "src/autotune/ppo.h"
#include "src/autotune/space.h"
#include "src/graph/layout_assignment.h"
#include "src/loop/lowering.h"
#include "src/sim/perf_model.h"
#include "src/support/metrics.h"

namespace alt::autotune {

enum class SearchMethod { kPpoPretrained, kPpo, kRandom };

// How a complex op's tuned input layout is satisfied when its producer is
// another complex op (paper §7.3.2, Fig. 12):
//   * kIndependent (ALT) — both ops keep their own layouts; a conversion
//     operator is inserted between them.
//   * kInheritProducer (ALT-FP) — the consumer reads the producer's output
//     layout directly; its own input-layout preference is discarded.
//   * kForceProducer (ALT-BP) — the consumer's input layout overrides the
//     producer's output layout; the joint stage tunes complex ops
//     consumer-first so the consumer's choice comes first.
enum class InputLayoutPolicy { kIndependent, kInheritProducer, kForceProducer };

// Fixed layout family used when layout tuning is disabled (ALT-OL, Ansor).
enum class FixedLayout { kCanonical, kChannelsLast, kBlocked };

struct TuningOptions {
  int total_budget = 600;     // total "measurements"
  double joint_fraction = 0.3;  // paper: 300/1000 single-op, 8k/20k networks

  SearchMethod method = SearchMethod::kPpoPretrained;
  bool tune_layout = true;            // false: ALT-OL / loop-only baselines
  bool propagate_multi_hop = true;    // false: ALT-WP (Fig. 5b only)
  bool two_level_templates = false;   // §7.3.3 ablation
  bool use_cost_model = true;         // false: FlexTensor-like
  bool restricted_loop_space = false; // true: AutoTVM-like template space
  FixedLayout fixed_layout = FixedLayout::kChannelsLast;
  InputLayoutPolicy input_policy = InputLayoutPolicy::kIndependent;
  // Assess canonical/blocked/channels-last template instances before RL
  // exploration. Disabled by the Fig. 13 ablation to expose the raw
  // space-size-vs-budget tradeoff.
  bool seed_layout_candidates = true;

  // Measurement engine settings (see measure.h): threads, fault injection,
  // retry policy, and crash isolation.
  MeasureEngineConfig measure;

  // Persistent tuning database (see measure.h / core/tuning_database.h).
  // Consulted before measuring and written through after, so a run against
  // a populated database — warm start, or resume after a crash — issues zero
  // redundant measurements. Borrowed; must outlive the tuner.
  MeasureDatabase* measure_database = nullptr;

  // When non-empty, Tune() records a span trace of the whole run (tuner
  // phases, loop batches, measurement batches and candidates, PPO updates)
  // and writes it to this path as Chrome trace-event JSON.
  // Tracing owns the global TraceRecorder for the duration of the run, so
  // only one traced tuner may run at a time; with the path empty the
  // instrumentation costs <1% (see bench_tuner_throughput).
  std::string trace_path;

  uint64_t seed = 1;
  const std::vector<double>* pretrained_agent = nullptr;  // PPO snapshot
  // When layout tuning is off, start from these layouts instead of
  // `fixed_layout` (used by Fig. 1 to loop-tune specific fixed layouts).
  const graph::LayoutAssignment* initial_assignment = nullptr;
};

struct CompiledNetwork {
  graph::Graph graph;  // tuned copy (may contain inserted conversion ops)
  graph::LayoutAssignment assignment;
  std::vector<loop::FusedGroup> groups;
  std::vector<loop::LoopSchedule> schedules;
  std::vector<ir::Program> programs;
  sim::PerfCounters perf;
  int measurements_used = 0;
  // Best latency discovered after each measurement (tuning curve, Fig. 11).
  // Starts at the first SUCCESSFUL complex-group measurement — the curve is
  // empty until one exists, never padded with a sentinel — and is monotone
  // non-increasing from there.
  std::vector<double> history_us;
  // Measurement-engine counters for this run (cache hits, wall time, ...).
  MeasureStats measure_stats;
  // Per-run delta of the global metrics registry (counters + latency
  // histograms; see support/metrics.h). The measure.* counters equal the
  // fields of `measure_stats` above.
  MetricsSnapshot metrics;
};

class JointTuner {
 public:
  JointTuner(const graph::Graph& graph, const sim::Machine& machine, TuningOptions options);

  StatusOr<CompiledNetwork> Tune();

 private:
  struct LoopTuneState {
    LoopSpace space;
    Point best_point;
    std::optional<loop::LoopSchedule> best_schedule;
    double best_latency = 1e30;
  };

  // One batch of loop tuning on a group; updates `state`, spends budget.
  // `rng` supplies the batch's random draws: the joint stage passes a
  // per-candidate generator seeded from the candidate's relation fingerprint
  // so a layout's brief assessment is a deterministic function of the layout
  // relation (what makes replaying fingerprint-equal candidates sound); the
  // loop-only stage passes the shared tuner rng.
  void LoopTuneBatch(const graph::Graph& g, const graph::LayoutAssignment& la,
                     const loop::FusedGroup& group, const std::vector<double>& layout_state,
                     LoopTuneState& state, Rng& rng);

  // Tunes the layouts of one complex op (joint stage); returns the winning
  // decoded layouts (nullopt when nothing beat the canonical seed).
  StatusOr<std::optional<DecodedLayouts>> TuneOpLayout(int op_id, int op_budget);

  // Applies decoded layouts to an op: weight offline, input via propagation
  // or a conversion op, output propagated per variant.
  void CommitLayouts(int op_id, const DecodedLayouts& layouts);

  std::vector<double> Features(const loop::LoopNestSignature& sig,
                               const loop::LoopSchedule& sched,
                               const std::vector<double>& layout_state) const;

  void RecordMeasurement(double latency_us, bool complex_group);

  // True once a complex-group measurement has succeeded; before that,
  // best_total_us_ still holds the kNoBest sentinel, which must never leak
  // into history_us_.
  bool has_best() const { return best_total_us_ < kNoBest; }

  // Marks the start of a tuner phase with a `tuner.phase` trace instant.
  void BeginPhase(const char* phase);

  static constexpr double kNoBest = 1e30;

  graph::Graph graph_;
  const sim::Machine& machine_;
  TuningOptions options_;
  MeasureEngine engine_;
  Rng rng_;
  graph::LayoutAssignment assignment_;
  std::unique_ptr<PpoAgent> layout_agent_;
  GradientBoostedTrees cost_model_;
  std::vector<std::vector<double>> train_x_;
  std::vector<double> train_y_;
  size_t fitted_rows_ = 0;  // train_x_.size() at the last cost-model fit
  int measurements_ = 0;
  double best_total_us_ = kNoBest;
  std::vector<double> history_us_;
  // Best loop schedule found while assessing the committed layout of each
  // complex op (joint stage); seeds the loop-only stage.
  std::unordered_map<int, loop::LoopSchedule> joint_best_schedules_;
};

// Pretrains a layout PPO agent on small C2D and GMM workloads (paper §6) and
// returns its snapshot.
std::vector<double> PretrainLayoutAgent(const sim::Machine& machine, uint64_t seed = 99,
                                        int budget = 120);

}  // namespace alt::autotune

#endif  // ALT_AUTOTUNE_TUNER_H_
