// Tests for the auto-tuning stack: GBT cost model, PPO agent, search spaces,
// and the joint tuner (including the headline property that joint layout +
// loop tuning beats loop-only tuning).

#include <algorithm>
#include <bit>
#include <cmath>
#include <numeric>

#include <gtest/gtest.h>

#include "src/autotune/gbt.h"
#include "src/autotune/ppo.h"
#include "src/autotune/space.h"
#include "src/autotune/tuner.h"
#include "src/core/alt.h"
#include "src/graph/networks.h"
#include "src/layout/relation.h"
#include "src/runtime/session.h"
#include "src/support/fileio.h"
#include "src/support/trace.h"
#include "tests/reference_check.h"

namespace alt {
namespace {

using autotune::Point;

TEST(Gbt, FitsSimpleFunction) {
  // y = 3*x0 + noise-free step on x1.
  Rng rng(3);
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  for (int i = 0; i < 200; ++i) {
    double a = rng.NextDouble();
    double b = rng.NextDouble();
    x.push_back({a, b});
    y.push_back(3.0 * a + (b > 0.5 ? 1.0 : 0.0));
  }
  autotune::GradientBoostedTrees gbt;
  gbt.Fit(x, y);
  double err = 0.0;
  for (int i = 0; i < 200; ++i) {
    err += std::abs(gbt.Predict(x[i]) - y[i]);
  }
  EXPECT_LT(err / 200, 0.15);
}

TEST(Gbt, RanksMonotoneData) {
  // The cost model's job is ranking; check order preservation.
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  for (int i = 0; i < 100; ++i) {
    x.push_back({static_cast<double>(i)});
    y.push_back(static_cast<double>(i) * 2.0);
  }
  autotune::GradientBoostedTrees gbt;
  gbt.Fit(x, y);
  EXPECT_LT(gbt.Predict({10.0}), gbt.Predict({80.0}));
}

// The sort-per-node GBT the presorted fit replaced, kept as its oracle: the
// same hyper-parameters (gbt.cc), node partition, node sums, gain formula and
// feature scan order, with each node's split found by sorting its
// (value, residual) pairs for every feature.
class SortPerNodeGbt {
 public:
  void Fit(const std::vector<std::vector<double>>& x, const std::vector<double>& y) {
    trees_.clear();
    base_ = std::accumulate(y.begin(), y.end(), 0.0) / y.size();
    std::vector<double> pred(y.size(), base_);
    for (int t = 0; t < kNumTrees; ++t) {
      std::vector<double> residual(y.size());
      for (size_t i = 0; i < y.size(); ++i) {
        residual[i] = y[i] - pred[i];
      }
      Tree tree;
      tree.nodes.push_back(Node{});
      std::vector<int> indices(x.size());
      std::iota(indices.begin(), indices.end(), 0);
      Split(tree, 0, x, residual, indices, 0, static_cast<int>(x.size()), 0);
      for (size_t i = 0; i < y.size(); ++i) {
        pred[i] += kLearningRate * tree.Predict(x[i]);
      }
      trees_.push_back(std::move(tree));
    }
  }

  double Predict(const std::vector<double>& x) const {
    double out = base_;
    for (const auto& tree : trees_) {
      out += kLearningRate * tree.Predict(x);
    }
    return out;
  }

 private:
  static constexpr int kNumTrees = 40;
  static constexpr int kMaxDepth = 4;
  static constexpr double kLearningRate = 0.3;
  static constexpr int kMinSamplesLeaf = 4;

  struct Node {
    int feature = -1;
    double threshold = 0.0;
    double value = 0.0;
    int left = -1;
    int right = -1;
  };
  struct Tree {
    std::vector<Node> nodes;
    double Predict(const std::vector<double>& x) const {
      int node = 0;
      while (nodes[node].feature >= 0) {
        const Node& n = nodes[node];
        double v = n.feature < static_cast<int>(x.size()) ? x[n.feature] : 0.0;
        node = v <= n.threshold ? n.left : n.right;
      }
      return nodes[node].value;
    }
  };

  void Split(Tree& tree, int node_id, const std::vector<std::vector<double>>& x,
             const std::vector<double>& residual, std::vector<int>& indices, int begin, int end,
             int depth) {
    int count = end - begin;
    double sum = 0.0;
    for (int i = begin; i < end; ++i) {
      sum += residual[indices[i]];
    }
    double mean = count > 0 ? sum / count : 0.0;
    tree.nodes[node_id].value = mean;
    if (depth >= kMaxDepth || count < 2 * kMinSamplesLeaf) {
      return;
    }

    int num_features = static_cast<int>(x[0].size());
    double best_gain = 1e-12;
    int best_feature = -1;
    double best_threshold = 0.0;

    std::vector<std::pair<double, double>> vals(count);  // (feature value, residual)
    for (int f = 0; f < num_features; ++f) {
      for (int i = 0; i < count; ++i) {
        int idx = indices[begin + i];
        vals[i] = {x[idx][f], residual[idx]};
      }
      std::sort(vals.begin(), vals.end());
      double left_sum = 0.0;
      for (int i = 0; i + 1 < count; ++i) {
        left_sum += vals[i].second;
        if (vals[i].first == vals[i + 1].first) {
          continue;
        }
        int nl = i + 1;
        int nr = count - nl;
        if (nl < kMinSamplesLeaf || nr < kMinSamplesLeaf) {
          continue;
        }
        double right_sum = sum - left_sum;
        double gain = left_sum * left_sum / nl + right_sum * right_sum / nr - sum * sum / count;
        if (gain > best_gain) {
          best_gain = gain;
          best_feature = f;
          best_threshold = 0.5 * (vals[i].first + vals[i + 1].first);
        }
      }
    }
    if (best_feature < 0) {
      return;
    }

    auto mid_it = std::partition(indices.begin() + begin, indices.begin() + end,
                                 [&](int idx) { return x[idx][best_feature] <= best_threshold; });
    int mid = static_cast<int>(mid_it - indices.begin());
    if (mid == begin || mid == end) {
      return;
    }
    tree.nodes[node_id].feature = best_feature;
    tree.nodes[node_id].threshold = best_threshold;
    int left = static_cast<int>(tree.nodes.size());
    tree.nodes.push_back(Node{});
    int right = static_cast<int>(tree.nodes.size());
    tree.nodes.push_back(Node{});
    tree.nodes[node_id].left = left;
    tree.nodes[node_id].right = right;
    Split(tree, left, x, residual, indices, begin, mid, depth + 1);
    Split(tree, right, x, residual, indices, mid, end, depth + 1);
  }

  double base_ = 0.0;
  std::vector<Tree> trees_;
};

// Fits the model and the oracle on (x, y) and counts the rows on which their
// predictions differ in any bit: every training row, and per training row a
// copy with each feature moved to the midpoint between its value and another
// row's (a split threshold whenever the two values are adjacent) or just past
// it.
int PredictionMismatches(const std::vector<std::vector<double>>& x, const std::vector<double>& y,
                         Rng& rng) {
  autotune::GradientBoostedTrees model;
  model.Fit(x, y);
  SortPerNodeGbt oracle;
  oracle.Fit(x, y);
  std::vector<std::vector<double>> probes = x;
  for (const auto& row : x) {
    std::vector<double> probe = row;
    for (size_t f = 0; f < probe.size(); ++f) {
      const double mid = 0.5 * (probe[f] + x[rng.NextBelow(x.size())][f]);
      const uint64_t move = rng.NextBelow(3);  // to the midpoint, just past it, or not
      if (move == 0) {
        probe[f] = mid;
      } else if (move == 1) {
        probe[f] = std::nextafter(mid, HUGE_VAL);
      }
    }
    probes.push_back(std::move(probe));
  }
  int mismatches = 0;
  for (const auto& probe : probes) {
    if (std::bit_cast<uint64_t>(model.Predict(probe)) !=
        std::bit_cast<uint64_t>(oracle.Predict(probe))) {
      ++mismatches;
    }
  }
  return mismatches;
}

TEST(Gbt, PresortedFitMatchesPerNodeSortOracle) {
  Rng rng(19);
  // Edge cases: a single row, fewer rows than two leaves need, all targets
  // equal (every residual ties).
  EXPECT_EQ(PredictionMismatches({{0.5, 1.0}}, {2.0}, rng), 0) << "n = 1";
  EXPECT_EQ(PredictionMismatches({{1.0}, {2.0}, {3.0}, {4.0}, {5.0}, {6.0}, {7.0}},
                                 {0.1, 0.9, 0.2, 0.8, 0.3, 0.7, 0.4}, rng),
            0)
      << "n < 2 * min_samples_leaf";
  {
    std::vector<std::vector<double>> x;
    for (int i = 0; i < 40; ++i) {
      x.push_back({static_cast<double>(i % 5), rng.NextDouble()});
    }
    EXPECT_EQ(PredictionMismatches(x, std::vector<double>(40, 0.3), rng), 0)
        << "all targets equal";
  }

  // Seeded corpus over the column kinds the tuner's features take (constant
  // padding, few-level knob encodings, many-level ones, continuous values),
  // with duplicate rows and tied or continuous targets.
  for (int c = 0; c < 200; ++c) {
    const int n = static_cast<int>(rng.NextInt(1, 120));
    const int width = static_cast<int>(rng.NextInt(1, 8));
    std::vector<std::vector<double>> x(n, std::vector<double>(width));
    for (int f = 0; f < width; ++f) {
      const uint64_t kind = rng.NextBelow(4);  // constant, few-, many-level, continuous
      const uint64_t levels = kind == 1 ? rng.NextInt(2, 4) : rng.NextInt(8, 40);
      const double constant = rng.NextDouble();
      for (int i = 0; i < n; ++i) {
        if (kind == 0) {
          x[i][f] = constant;
        } else if (kind == 3) {
          x[i][f] = 10.0 * rng.NextDouble() - 5.0;
        } else {
          x[i][f] = std::log1p(static_cast<double>(rng.NextBelow(levels)));
        }
      }
    }
    for (int i = 1; i < n; ++i) {
      if (rng.NextBelow(5) == 0) {
        x[i] = x[rng.NextBelow(i)];  // duplicate row
      }
    }
    const bool tied = rng.NextBelow(2) == 0;
    const std::vector<double> tied_values = {0.1, 0.3, 0.7, 1.1};
    std::vector<double> y(n);
    for (int i = 0; i < n; ++i) {
      y[i] = tied ? tied_values[rng.NextBelow(tied_values.size())]
                  : x[i][0] + rng.NextGaussian();
    }
    EXPECT_EQ(PredictionMismatches(x, y, rng), 0)
        << "case " << c << ": n = " << n << ", width = " << width
        << (tied ? ", tied targets" : "");
  }
}

TEST(Ppo, LearnsBanditTarget) {
  // Reward peaks when action[0] is near 0.8: the agent should move there.
  Rng rng(11);
  autotune::PpoOptions options;
  options.batch_before_update = 8;
  options.action_dim = 2;
  options.log_std = -1.2;  // low noise so the mean shift dominates the reward
  autotune::PpoAgent agent(options, rng);
  double early = 0.0;
  double late = 0.0;
  const int steps = 600;
  for (int i = 0; i < steps; ++i) {
    auto a = agent.Act({});
    double reward = -std::abs(a[0] - 0.8);
    agent.Reward(reward);
    if (i < 100) {
      early += reward;
    }
    if (i >= steps - 100) {
      late += reward;
    }
  }
  EXPECT_GT(late / 100, early / 100 + 0.02);
}

TEST(LayoutSpaceTest, DecodeProducesValidTemplates) {
  graph::ConvConfig cfg;
  cfg.in_channels = 16;
  cfg.out_channels = 32;
  cfg.spatial[0] = cfg.spatial[1] = 24;
  cfg.kernel[0] = cfg.kernel[1] = 3;
  cfg.pad = 0;
  graph::Graph g = graph::BuildSingleConv(graph::OpKind::kConv2d, cfg);
  auto space = autotune::LayoutSpace::ForOp(g, 0, false);
  ASSERT_TRUE(space.ok());
  EXPECT_GE(space->num_knobs(), 6);  // paper: six tunable parameters for C2D
  Rng rng(5);
  for (int i = 0; i < 50; ++i) {
    Point p = autotune::RandomPoint(space->num_knobs(), rng);
    auto decoded = space->Decode(g, p);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    // Shapes must transform cleanly.
    std::vector<int64_t> shape = g.tensor(g.op(0).output).shape;
    EXPECT_TRUE(decoded->output.ApplyToShape(shape).ok());
  }
}

TEST(LayoutSpaceTest, GmmSpaceSmallerThanConv) {
  graph::Graph gm = graph::BuildSingleMatmul(64, 64, 64);
  auto gmm_space = autotune::LayoutSpace::ForOp(gm, 0, false);
  ASSERT_TRUE(gmm_space.ok());
  EXPECT_EQ(gmm_space->num_knobs(), 3);  // mt, kt, nt as in §5.1
}

TEST(LayoutSpaceTest, TemplateCanonicalStatesArePinned) {
  // LayoutRelation::CanonicalState is the PPO agent's input, so these values
  // are part of every tuning trajectory. The conv template covers the
  // synthesized-steps encoding (bijective output and weight) and the flat
  // digit-form encoding (input with overlapped unfolds); the GMM template's
  // three tiled operands are all bijective.
  auto states = [](const graph::Graph& g, const graph::Op& op, const layout::LayoutSeq& out,
                   const layout::LayoutSeq& in, const layout::LayoutSeq& weight) {
    std::vector<std::vector<double>> s;
    const int ids[] = {op.output, op.inputs[0], op.inputs[1]};
    const layout::LayoutSeq* seqs[] = {&out, &in, &weight};
    for (int i = 0; i < 3; ++i) {
      auto rel = layout::LayoutRelation::FromSeq(*seqs[i], g.tensor(ids[i]).shape);
      EXPECT_TRUE(rel.ok()) << rel.status().ToString();
      s.push_back(rel.ok() ? rel->CanonicalState() : std::vector<double>());
    }
    return s;
  };

  graph::Graph conv("conv");
  int x = conv.AddInput("x", {1, 16, 18, 18});
  int w = conv.AddConstant("w", {32, 16, 3, 3});
  int c = conv.AddConv(graph::OpKind::kConv2d, x, w, graph::ConvAttrs(), "conv");
  autotune::ConvLayoutParams cp;
  cp.spatial_tiles = {4, 8};
  cp.out_tile = 8;
  cp.in_tile = 4;
  cp.w_in_tile = 4;
  cp.w_out_tile = 8;
  const graph::Op& conv_op = conv.op(conv.ProducerOf(c));
  auto ct = autotune::MakeConvTemplates(conv, conv_op, cp);
  ASSERT_TRUE(ct.ok()) << ct.status().ToString();
  EXPECT_EQ(states(conv, conv_op, ct->output, ct->input, ct->weight),
            (std::vector<std::vector<double>>{
                {0, 1, 4, 8, 0, 3, 4, 4, 0, 5, 2, 8, 1, 0, 0, 3, 5, 1, 4, 6, 2},
                {1, 0, 4, 1, 2, 4, 4, 2, 1, 3, 2, 8, 4, 1, 1, 4, 4, 6, 1,
                 2, 6, 1, 10, 1, 3, 10, 1, 4, 1, 1, 4, 1, -1, 0, 0, 0, 0},
                {0, 0, 4, 8, 0, 2, 4, 4, 1, 0, 0, 2, 4, 5, 3, 1}}));

  graph::Graph gmm("gmm");
  int a = gmm.AddInput("A", {16, 32});
  int b = gmm.AddConstant("B", {32, 24});
  const graph::Op& gmm_op = gmm.op(gmm.ProducerOf(gmm.AddMatmul(a, b, "gmm")));
  autotune::GmmLayoutParams gp;
  gp.mt = 4;
  gp.nt = 8;
  gp.kt = 8;
  auto gt = autotune::MakeGmmTemplates(gmm, gmm_op, gp);
  ASSERT_TRUE(gt.ok()) << gt.status().ToString();
  EXPECT_EQ(states(gmm, gmm_op, gt->c, gt->a, gt->b),
            (std::vector<std::vector<double>>{{0, 0, 4, 4, 0, 2, 3, 8, 1, 0, 0, 2, 1, 3},
                                              {0, 0, 4, 4, 0, 2, 4, 8, 1, 0, 0, 2, 1, 3},
                                              {0, 0, 4, 8, 0, 2, 3, 8, 1, 0, 0, 2, 1, 3}}));
}

TEST(LoopSpaceTest, DecodeAlwaysValid) {
  loop::LoopNestSignature sig;
  sig.spatial_extents = {2, 36, 24, 64};
  sig.reduction_extents = {16, 3, 3};
  auto space = autotune::LoopSpace::ForSignature(sig, sim::Machine::IntelCpu());
  Rng rng(17);
  for (int i = 0; i < 100; ++i) {
    Point p = autotune::RandomPoint(space.num_knobs(), rng);
    loop::LoopSchedule s = space.Decode(p);
    ASSERT_EQ(s.spatial.size(), 4u);
    for (size_t j = 0; j < 4; ++j) {
      EXPECT_EQ(s.spatial[j].outer * s.spatial[j].mid * s.spatial[j].inner * s.spatial[j].vec,
                sig.spatial_extents[j]);
    }
    for (size_t r = 0; r < 3; ++r) {
      EXPECT_EQ(s.reduction[r].outer * s.reduction[r].inner, sig.reduction_extents[r]);
    }
  }
}

TEST(LoopSpaceTest, RestrictedSpaceIsSmaller) {
  loop::LoopNestSignature sig;
  sig.spatial_extents = {4, 32, 32, 32};
  sig.reduction_extents = {64};
  auto full = autotune::LoopSpace::ForSignature(sig, sim::Machine::IntelCpu(), false);
  auto restricted = autotune::LoopSpace::ForSignature(sig, sim::Machine::IntelCpu(), true);
  EXPECT_LT(restricted.NumPoints(), full.NumPoints());
}

// ---------------------------------------------------------------------------
// Joint tuner end-to-end.
// ---------------------------------------------------------------------------

graph::Graph SmallConvGraph() {
  graph::Graph g("tune_target");
  int x = g.AddInput("x", {1, 16, 28, 28});
  graph::PadAttrs pad;
  pad.before = {0, 0, 1, 1};
  pad.after = {0, 0, 1, 1};
  int p = g.AddPad(x, pad, "pad");
  int w = g.AddConstant("w", {32, 16, 3, 3});
  graph::ConvAttrs attrs;
  int c = g.AddConv(graph::OpKind::kConv2d, p, w, attrs, "conv");
  int b = g.AddConstant("b", {32});
  int biased = g.AddBiasAdd(c, b, 1, "bias");
  g.AddRelu(biased, "relu");
  return g;
}

TEST(JointTuner, TunedBeatsDefaultSchedules) {
  graph::Graph g = SmallConvGraph();
  const auto& machine = sim::Machine::IntelCpu();

  core::AltOptions vendor_options;
  vendor_options.variant = core::AltVariant::kVendor;
  auto vendor = core::Compile(g, machine, vendor_options);
  ASSERT_TRUE(vendor.ok()) << vendor.status().ToString();

  core::AltOptions options;
  options.budget = 200;
  options.method = autotune::SearchMethod::kRandom;  // deterministic-ish, fast
  auto tuned = core::Compile(g, machine, options);
  ASSERT_TRUE(tuned.ok()) << tuned.status().ToString();

  EXPECT_LT(tuned->perf.latency_us, vendor->perf.latency_us * 1.05);
  EXPECT_GT(tuned->measurements_used, 50);
}

TEST(JointTuner, JointBeatsLoopOnly) {
  // The headline claim: joint layout+loop tuning finds faster programs than
  // loop-only tuning with the same budget.
  graph::Graph g = SmallConvGraph();
  const auto& machine = sim::Machine::IntelCpu();

  core::AltOptions full;
  full.budget = 240;
  full.method = autotune::SearchMethod::kRandom;
  full.seed = 3;
  auto alt = core::Compile(g, machine, full);
  ASSERT_TRUE(alt.ok());

  core::AltOptions ol = full;
  ol.variant = core::AltVariant::kLoopOnly;
  auto alt_ol = core::Compile(g, machine, ol);
  ASSERT_TRUE(alt_ol.ok());

  EXPECT_LE(alt->perf.latency_us, alt_ol->perf.latency_us * 1.10);
}

TEST(JointTuner, HistoryIsSentinelFreeAndMonotoneNonIncreasing) {
  graph::Graph g = SmallConvGraph();
  core::AltOptions options;
  options.budget = 120;
  options.method = autotune::SearchMethod::kRandom;
  auto result = core::Compile(g, sim::Machine::ArmCpu(), options);
  ASSERT_TRUE(result.ok());
  ASSERT_FALSE(result->history_us.empty());
  for (size_t i = 0; i < result->history_us.size(); ++i) {
    // The curve starts at the first successful measurement: every entry is a
    // real latency, never the tuner's internal "no best yet" sentinel.
    EXPECT_LT(result->history_us[i], 1e29) << "sentinel leaked at " << i;
    EXPECT_GT(result->history_us[i], 0.0);
    if (i > 0) {
      EXPECT_LE(result->history_us[i], result->history_us[i - 1]);
    }
  }
}

TEST(JointTuner, AllFailingMeasurementsLeaveHistoryEmpty) {
  // Every measurement attempt fails, so a best latency never exists: the
  // tuning curve must stay empty rather than carry the internal 1e30
  // "no best yet" sentinel.
  graph::Graph g = SmallConvGraph();
  core::AltOptions options;
  options.budget = 60;
  options.method = autotune::SearchMethod::kRandom;
  options.measure.faults.always_fail_first = 1000;  // beyond any retry count
  options.measure.retry.max_attempts = 1;

  auto result = core::Compile(g, sim::Machine::IntelCpu(), options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->history_us.empty());
}

TEST(JointTuner, TracedRunWritesChromeTraceAndMatchingMetrics) {
  graph::Graph g = SmallConvGraph();
  core::AltOptions options;
  options.budget = 120;
  options.method = autotune::SearchMethod::kRandom;
  const std::string trace_path = ::testing::TempDir() + "tuner_trace_test.json";
  RemoveFile(trace_path);
  options.trace_path = trace_path;

  auto result = core::Compile(g, sim::Machine::IntelCpu(), options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  auto trace = ReadFile(trace_path);
  ASSERT_TRUE(trace.ok()) << "trace file missing: " << trace.status().ToString();
  EXPECT_NE(trace->find("\"traceEvents\""), std::string::npos);
  for (const char* span : {"tuner.tune", "tuner.joint_stage", "tuner.loop_stage",
                           "measure.batch", "measure.candidate"}) {
    EXPECT_NE(trace->find(std::string("\"") + span + "\""), std::string::npos)
        << "trace is missing span " << span;
  }
  // Each phase is announced once, in order, as a tuner.phase instant whose
  // detail names it.
  std::vector<std::string> phases;
  const std::string phase_event = "\"name\":\"tuner.phase\"";
  const std::string detail_field = "\"detail\":\"";
  for (size_t pos = trace->find(phase_event); pos != std::string::npos;
       pos = trace->find(phase_event, pos + 1)) {
    const size_t detail = trace->find(detail_field, pos);
    ASSERT_LT(detail, trace->find('}', pos)) << "tuner.phase instant without a detail";
    const size_t begin = detail + detail_field.size();
    phases.push_back(trace->substr(begin, trace->find('"', begin) - begin));
  }
  EXPECT_EQ(phases, (std::vector<std::string>{"joint", "loop", "lower"}));
  RemoveFile(trace_path);

  // The per-run metrics snapshot rides on the result and agrees with the
  // engine's counters.
  EXPECT_EQ(result->metrics.counter("measure.requested"), result->measure_stats.requested);
  EXPECT_EQ(result->metrics.counter("measure.measured"), result->measure_stats.measured);
  EXPECT_GT(result->metrics.counter("sim.estimate_program_calls"), 0);
  EXPECT_GT(result->metrics.counter("tuner.loop_batches"), 0);

  // The recorder is session-scoped: a later untraced compile records nothing.
  core::AltOptions untraced = options;
  untraced.trace_path.clear();
  auto again = core::Compile(g, sim::Machine::IntelCpu(), untraced);
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(TraceRecorder::Global().enabled());
}

TEST(JointTuner, PinnedBertTinyTrajectory) {
  // BERT-tiny at sequence length 8, full ALT, budget 200, seed 1: the tuned
  // network's predicted latency, the budget spent and the whole tuning curve,
  // bit for bit. The cost model ranks most of its batches; it is fit at two
  // distinct training-row counts, and a refit of unchanged rows is skipped.
  const graph::Graph g = graph::BuildBert(1, 128, 2, /*seq_len=*/8);
  core::AltOptions options;
  options.budget = 200;
  options.seed = 1;
  auto compiled = core::Compile(g, sim::Machine::IntelCpu(), options);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  EXPECT_EQ(compiled->perf.latency_us, 0x1.006dafb340041p+6);  // 64.10711556 us
  EXPECT_EQ(compiled->measurements_used, 184);
  // The curve, run-length encoded as (best latency so far, measurements).
  const std::vector<std::pair<double, int>> runs = {{0x1.084d1887ce1eap+3, 12},
                                                    {0x1.0688f861a60d4p+2, 5},
                                                    {0x1.58965e63d9f3ep+1, 4},
                                                    {0x1.8fcf364b7519ap-1, 13},
                                                    {0x1.564c2f837b4a2p-1, 150}};
  std::vector<double> curve;
  for (const auto& [best_us, measurements] : runs) {
    curve.insert(curve.end(), measurements, best_us);
  }
  EXPECT_EQ(compiled->history_us, curve);
  EXPECT_EQ(compiled->metrics.counter("autotune.fits"), 2);
  const HistogramSnapshot* fit_us = compiled->metrics.histogram("autotune.fit_us");
  ASSERT_NE(fit_us, nullptr);
  EXPECT_EQ(fit_us->count, 2);
  EXPECT_GT(compiled->metrics.counter("autotune.rank_concordant") +
                compiled->metrics.counter("autotune.rank_discordant"),
            0);
}

TEST(JointTuner, BudgetIsRespected) {
  graph::Graph g = SmallConvGraph();
  core::AltOptions options;
  options.budget = 100;
  options.method = autotune::SearchMethod::kRandom;
  auto result = core::Compile(g, sim::Machine::IntelCpu(), options);
  ASSERT_TRUE(result.ok());
  // Default-schedule seeding adds one measurement per group beyond the knob
  // budget; allow modest slack only.
  EXPECT_LE(result->measurements_used, options.budget + 24);
}

TEST(JointTuner, TunedNetworkStaysNumericallyCorrect) {
  graph::Graph g = SmallConvGraph();
  core::AltOptions options;
  options.budget = 80;
  options.method = autotune::SearchMethod::kRandom;
  auto result = core::Compile(g, sim::Machine::IntelCpu(), options);
  ASSERT_TRUE(result.ok());

  // Execute the tuned programs and compare against the reference on the
  // TUNED graph (which may contain conversion ops).
  auto diff = testutil::ServedDiffVsReference(result->graph, result->assignment,
                                              {result->groups, result->programs}, 21);
  ASSERT_TRUE(diff.ok()) << diff.status().ToString();
  EXPECT_LT(*diff, 2e-3);
}

// The four competitors are variants of the one tuner, compiled through
// core::Compile. Each pins the budget it spent and its tuned latency, bit
// for bit.
struct PinnedRun {
  core::AltVariant variant;
  int measurements;
  double latency_us;
};

void ExpectPinnedRuns(const graph::Graph& g, const sim::Machine& machine,
                      const std::vector<PinnedRun>& pins) {
  for (const PinnedRun& pin : pins) {
    core::AltOptions options;
    options.budget = 60;
    options.seed = 2;
    options.variant = pin.variant;
    auto result = core::Compile(g, machine, options);
    ASSERT_TRUE(result.ok()) << core::VariantName(pin.variant) << ": "
                             << result.status().ToString();
    EXPECT_EQ(result->measurements_used, pin.measurements) << core::VariantName(pin.variant);
    EXPECT_EQ(result->perf.latency_us, pin.latency_us) << core::VariantName(pin.variant);
  }
}

TEST(Baselines, AllRunOnGmm) {
  ExpectPinnedRuns(graph::BuildSingleMatmul(64, 128, 64), sim::Machine::NvidiaGpu(),
                   {{core::AltVariant::kVendor, 1, 0x1.01cb825dcb826p+5},
                    {core::AltVariant::kAutoTvm, 28, 0x1.3b3d402d28c55p+2},
                    {core::AltVariant::kFlexTensor, 62, 0x1.ed8c73953a881p+3},
                    {core::AltVariant::kAnsor, 53, 0x1.1db9720ee05b9p+2}});
}

// On a CPU the vendor library, AutoTVM and Ansor tune convolutions on
// blocked NCHWc layouts and FlexTensor on canonical ones.
TEST(Baselines, AllRunOnFirstLayer) {
  ExpectPinnedRuns(graph::BuildResNetFirstLayer(1), sim::Machine::IntelCpu(),
                   {{core::AltVariant::kVendor, 2, 0x1.a301db61dc5e9p+11},
                    {core::AltVariant::kAutoTvm, 62, 0x1.a301db61dc5e9p+11},
                    {core::AltVariant::kFlexTensor, 79, 0x1.0333ee1f732bbp+11},
                    {core::AltVariant::kAnsor, 55, 0x1.6767d96d01384p+10}});
}

TEST(Pretraining, SnapshotRoundTrips) {
  auto snapshot = autotune::PretrainLayoutAgent(sim::Machine::ArmCpu(), 7, 24);
  EXPECT_FALSE(snapshot.empty());
  Rng rng(1);
  autotune::PpoAgent agent(autotune::PpoOptions{}, rng);
  agent.Restore(snapshot);
  EXPECT_EQ(agent.Snapshot().size(), snapshot.size());
}

}  // namespace
}  // namespace alt
