// InferenceSession: equivalence of reused and fresh sessions, repeated-run
// determinism over reused arenas, and concurrent serving (exercised under
// TSan in CI).

#include <gtest/gtest.h>

#include <cstring>
#include <thread>
#include <vector>

#include "src/graph/networks.h"
#include "src/loop/lowering.h"
#include "src/runtime/session.h"

namespace alt::runtime {
namespace {

using graph::Graph;
using graph::LayoutAssignment;

Graph SmallWorkload() {
  Graph g("serving_target");
  int x = g.AddInput("x", {1, 4, 10, 10});
  graph::PadAttrs pad;
  pad.before = {0, 0, 1, 1};
  pad.after = {0, 0, 1, 1};
  int p = g.AddPad(x, pad, "pad");
  int w = g.AddConstant("w", {8, 4, 3, 3});
  graph::ConvAttrs attrs;
  int c = g.AddConv(graph::OpKind::kConv2d, p, w, attrs, "conv");
  int b = g.AddConstant("b", {8});
  g.AddRelu(g.AddBiasAdd(c, b, 1, "bias"), "relu");
  return g;
}

// A layouted variant so feeds and output go through real conversion plans.
void AssignSplitLayouts(const Graph& g, LayoutAssignment& la) {
  for (const auto& t : g.tensors()) {
    if (t.shape.size() == 4 && t.shape[1] % 4 == 0) {
      layout::LayoutSeq seq;
      seq.Append(layout::Primitive::Split(1, {t.shape[1] / 4, 4}));
      la.Set(t.id, seq);
    }
  }
}

TensorDataMap MakeRequest(const Graph& g, uint64_t seed) {
  Rng rng(seed);
  TensorDataMap data;
  FillGraphInputs(g, rng, data);
  return data;
}

TEST(InferenceSession, MatchesFreshSession) {
  Graph g = SmallWorkload();
  LayoutAssignment la;
  AssignSplitLayouts(g, la);
  auto net = loop::LowerNetworkNaive(g, la, true);
  ASSERT_TRUE(net.ok()) << net.status().ToString();
  TensorDataMap data = MakeRequest(g, 11);

  auto session = InferenceSession::Create(g, la, *net);
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  ASSERT_TRUE(session->Run(MakeRequest(g, 12)).ok());  // dirty the arena first
  auto via_session = session->Run(data);
  ASSERT_TRUE(via_session.ok()) << via_session.status().ToString();
  auto fresh = InferenceSession::Create(g, la, *net);
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  auto via_fresh = fresh->Run(data);
  ASSERT_TRUE(via_fresh.ok()) << via_fresh.status().ToString();
  ASSERT_EQ(via_session->size(), via_fresh->size());
  EXPECT_EQ(0, std::memcmp(via_session->data(), via_fresh->data(),
                           via_fresh->size() * sizeof(float)));
  EXPECT_EQ(session->output_tensor(), net->groups.back().OutputTensor(g));
  EXPECT_EQ(session->output_shape(), g.tensor(session->output_tensor()).shape);
}

TEST(InferenceSession, RepeatedRunsOnReusedArenaAreBitIdentical) {
  Graph g = SmallWorkload();
  LayoutAssignment la;
  AssignSplitLayouts(g, la);
  auto net = loop::LowerNetworkNaive(g, la, true);
  ASSERT_TRUE(net.ok());
  auto session = InferenceSession::Create(g, la, *net);
  ASSERT_TRUE(session.ok());

  TensorDataMap a = MakeRequest(g, 21);
  TensorDataMap b = MakeRequest(g, 22);
  auto first_a = session->Run(a);
  ASSERT_TRUE(first_a.ok());
  // Interleave a different request so stale arena contents would show up.
  ASSERT_TRUE(session->Run(b).ok());
  auto again_a = session->Run(a);
  ASSERT_TRUE(again_a.ok());
  EXPECT_EQ(0, std::memcmp(first_a->data(), again_a->data(),
                           first_a->size() * sizeof(float)));
  // Sequential calls reuse the single arena instead of growing the pool.
  EXPECT_EQ(session->arena_count(), 1);
}

TEST(InferenceSession, ReportsMissingAndMisSizedInputs) {
  Graph g = SmallWorkload();
  LayoutAssignment la;
  auto net = loop::LowerNetworkNaive(g, la, true);
  ASSERT_TRUE(net.ok());
  auto session = InferenceSession::Create(g, la, *net);
  ASSERT_TRUE(session.ok());

  TensorDataMap data = MakeRequest(g, 31);
  TensorDataMap missing = data;
  missing.erase(missing.begin()->first);
  EXPECT_FALSE(session->Run(missing).ok());
  TensorDataMap missized = data;
  missized.begin()->second.pop_back();
  EXPECT_FALSE(session->Run(missized).ok());
  // The session still serves correct requests afterwards (arena returned).
  EXPECT_TRUE(session->Run(data).ok());
  EXPECT_EQ(session->arena_count(), 1);
}

TEST(InferenceSession, CreateRejectsEmptyNetwork) {
  Graph g = SmallWorkload();
  LayoutAssignment la;
  EXPECT_FALSE(InferenceSession::Create(g, la, loop::LoweredNetwork{}).ok());
}

TEST(InferenceSession, ConcurrentRunsAreDeterministic) {
  Graph g = SmallWorkload();
  LayoutAssignment la;
  AssignSplitLayouts(g, la);
  auto net = loop::LowerNetworkNaive(g, la, true);
  ASSERT_TRUE(net.ok());
  auto session = InferenceSession::Create(g, la, *net);
  ASSERT_TRUE(session.ok());

  constexpr int kThreads = 4;
  constexpr int kRunsPerThread = 8;
  std::vector<TensorDataMap> requests;
  std::vector<std::vector<float>> expected;
  for (int t = 0; t < kThreads; ++t) {
    requests.push_back(MakeRequest(g, 100 + t));
    auto out = session->Run(requests.back());
    ASSERT_TRUE(out.ok());
    expected.push_back(std::move(*out));
  }

  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int r = 0; r < kRunsPerThread; ++r) {
        auto out = session->Run(requests[t]);
        if (!out.ok() || *out != expected[t]) {
          ++mismatches[t];
        }
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[t], 0) << "thread " << t;
  }
  EXPECT_GE(session->arena_count(), 1);
  EXPECT_LE(session->arena_count(), kThreads + 1);
}

TEST(InferenceSession, RunBatchDetailedMatchesSequentialRuns) {
  Graph g = SmallWorkload();
  LayoutAssignment la;
  AssignSplitLayouts(g, la);
  auto net = loop::LowerNetworkNaive(g, la, true);
  ASSERT_TRUE(net.ok());
  auto session = InferenceSession::Create(g, la, *net);
  ASSERT_TRUE(session.ok());

  std::vector<TensorDataMap> requests;
  for (int i = 0; i < 10; ++i) {
    requests.push_back(MakeRequest(g, 200 + i));
  }
  ThreadPool pool(4);
  auto batch = session->RunBatchDetailed(requests, pool);
  ASSERT_EQ(batch.size(), requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    ASSERT_TRUE(batch[i].ok()) << batch[i].status().ToString();
    auto one = session->Run(requests[i]);
    ASSERT_TRUE(one.ok());
    EXPECT_EQ(*batch[i], *one) << "request " << i;
  }
}

TEST(InferenceSession, RunBatchDetailedKeepsGoodResultsOfMixedBatch) {
  Graph g = SmallWorkload();
  LayoutAssignment la;
  AssignSplitLayouts(g, la);
  auto net = loop::LowerNetworkNaive(g, la, true);
  ASSERT_TRUE(net.ok());
  auto session = InferenceSession::Create(g, la, *net);
  ASSERT_TRUE(session.ok());

  std::vector<TensorDataMap> requests;
  requests.push_back(MakeRequest(g, 300));
  TensorDataMap bad = MakeRequest(g, 301);
  bad.erase(bad.begin()->first);  // malformed: missing feed
  requests.push_back(std::move(bad));
  requests.push_back(MakeRequest(g, 302));

  ThreadPool pool(2);
  auto results = session->RunBatchDetailed(requests, pool);
  ASSERT_EQ(results.size(), 3u);
  ASSERT_TRUE(results[0].ok()) << results[0].status().ToString();
  EXPECT_FALSE(results[1].ok());  // only the malformed request fails...
  ASSERT_TRUE(results[2].ok()) << results[2].status().ToString();
  auto expect_0 = session->Run(requests[0]);
  auto expect_2 = session->Run(requests[2]);
  ASSERT_TRUE(expect_0.ok() && expect_2.ok());
  EXPECT_EQ(*results[0], *expect_0);  // ...and the good outputs survive
  EXPECT_EQ(*results[2], *expect_2);
}

TEST(InferenceSession, ArenaPoolIsCappedAndBorrowersBlock) {
  Graph g = SmallWorkload();
  LayoutAssignment la;
  AssignSplitLayouts(g, la);
  auto net = loop::LowerNetworkNaive(g, la, true);
  ASSERT_TRUE(net.ok());
  SessionOptions options;
  options.max_arenas = 1;
  auto session = InferenceSession::Create(g, la, *net, options);
  ASSERT_TRUE(session.ok());
  EXPECT_EQ(session->max_arenas(), 1);

  // 4 threads hammer the single-arena session: the cap means borrowers queue
  // (blocking in Run) instead of materializing more arenas, and every run
  // still produces the right bits.
  constexpr int kThreads = 4;
  constexpr int kRunsPerThread = 6;
  std::vector<TensorDataMap> requests;
  std::vector<std::vector<float>> expected;
  for (int t = 0; t < kThreads; ++t) {
    requests.push_back(MakeRequest(g, 400 + t));
    auto out = session->Run(requests.back());
    ASSERT_TRUE(out.ok());
    expected.push_back(std::move(*out));
  }
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int r = 0; r < kRunsPerThread; ++r) {
        auto out = session->Run(requests[t]);
        if (!out.ok() || *out != expected[t]) {
          ++mismatches[t];
        }
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[t], 0) << "thread " << t;
  }
  EXPECT_EQ(session->arena_count(), 1);  // the cap held under contention
}

TEST(InferenceSession, DefaultArenaCapIsAtLeastTwo) {
  Graph g = SmallWorkload();
  LayoutAssignment la;
  auto net = loop::LowerNetworkNaive(g, la, true);
  ASSERT_TRUE(net.ok());
  auto session = InferenceSession::Create(g, la, *net);
  ASSERT_TRUE(session.ok());
  // Default: 2x hardware threads, floored at 2 even when
  // hardware_concurrency() reports 0.
  EXPECT_GE(session->max_arenas(), 2);
}

}  // namespace
}  // namespace alt::runtime
