#include "src/runtime/session.h"

#include <algorithm>
#include <condition_variable>
#include <mutex>
#include <utility>

#include "src/support/logging.h"
#include "src/support/metrics.h"
#include "src/support/thread_pool.h"
#include "src/support/trace.h"

namespace alt::runtime {

namespace {

// One complete execution context: private buffers plus the programs prepared
// against them. Exactly one in-flight Run owns an arena at a time.
struct Arena {
  BufferStore store;
  std::vector<PreparedProgram> programs;
};

// Canonical data fed into the arena at the start of every Run.
struct FeedSpec {
  int tensor_id = -1;
  std::string name;
  ConversionPlan plan;
};

// store_at materialization (layout::HostedStoreAt): a host tensor carries
// the source's values in its appended slice. `host_offsets[i]` is the host
// physical offset of source element i.
struct StoreAtSpec {
  int host_id = -1;
  int src_id = -1;
  std::vector<int64_t> host_offsets;
};

}  // namespace

struct InferenceSession::Impl {
  graph::Graph graph;
  graph::LayoutAssignment assignment;
  loop::LoweredNetwork net;
  SessionOptions options;

  std::vector<FeedSpec> feeds;
  std::vector<StoreAtSpec> store_ats;
  int out_id = -1;
  ConversionPlan out_plan;

  // Arena pool: idle arenas, guarded by `mu`. Grows to peak concurrency but
  // never past `max_arenas`; borrowers past the cap block on `arena_cv`.
  mutable std::mutex mu;
  mutable std::condition_variable arena_cv;
  mutable std::vector<std::unique_ptr<Arena>> free_arenas;
  mutable int total_arenas = 0;
  int max_arenas = 1;

  // One intra-op pool for the whole session (every arena, every program):
  // its single-holder TryAcquire is the thread budget — at most one Run in
  // the session shards at a time, so batch fan-out and intra-op threads add
  // instead of multiplying.
  std::shared_ptr<IntraOpPool> intra_pool;

  StatusOr<std::unique_ptr<Arena>> NewArena() const {
    auto arena = std::make_unique<Arena>();
    // Pre-size every feed buffer so PreparedProgram::Prepare sees correctly
    // sized inputs/constants; values are written per Run.
    for (const FeedSpec& f : feeds) {
      arena->store.Get(f.tensor_id).assign(f.plan.physical_size, 0.0f);
    }
    ExecOptions exec;
    exec.engine = options.engine;
    exec.intra_pool = intra_pool;
    // Prepare in execution order: each program allocates its outputs, which
    // later programs validate as their inputs.
    for (const auto& program : net.programs) {
      auto prepared = PreparedProgram::Prepare(program, arena->store, exec);
      if (!prepared.ok()) {
        return prepared.status();
      }
      arena->programs.push_back(std::move(*prepared));
    }
    return arena;
  }
};

StatusOr<InferenceSession> InferenceSession::Create(const graph::Graph& graph,
                                                    const graph::LayoutAssignment& assignment,
                                                    const loop::LoweredNetwork& net,
                                                    const SessionOptions& options) {
  // An empty lowering is invalid: fail fast, before net.groups.back() below
  // would be UB.
  if (net.groups.empty()) {
    return Status::InvalidArgument("empty network");
  }
  auto impl = std::make_shared<Impl>();
  impl->graph = graph;
  impl->assignment = assignment;
  impl->net = net;
  impl->options = options;

  // Cache a conversion plan per graph input / constant, in tensor order (the
  // order Run reports missing data in).
  for (const auto& t : graph.tensors()) {
    if (!graph.IsGraphInput(t.id) && !graph.IsConstant(t.id)) {
      continue;
    }
    auto plan = BuildConversionPlan(t.shape, assignment.Get(t.id));
    if (!plan.ok()) {
      return plan.status();
    }
    impl->feeds.push_back({t.id, t.name, std::move(*plan)});
  }

  // Precompute host offsets for store_at slices.
  for (const auto& t : graph.tensors()) {
    const layout::Primitive* store = layout::HostedStoreAt(assignment.Get(t.id));
    if (store == nullptr) {
      continue;
    }
    StoreAtSpec spec;
    spec.host_id = t.id;
    spec.src_id = store->store_src_tensor;
    int dim = store->dim;
    std::vector<int64_t> phys_shape = t.shape;
    phys_shape[dim] += 1;
    auto strides = ir::RowMajorStrides(phys_shape);
    // Iterate the source domain (host canonical shape minus `dim`) in the
    // exact order of the original materialization loop.
    std::vector<int64_t> src_shape = t.shape;
    src_shape.erase(src_shape.begin() + dim);
    std::vector<int64_t> idx(src_shape.size(), 0);
    for (;;) {
      int64_t host_off = t.shape[dim] * strides[dim];
      int sd = 0;
      for (size_t d = 0; d < phys_shape.size(); ++d) {
        if (static_cast<int>(d) == dim) {
          continue;
        }
        host_off += idx[sd++] * strides[d];
      }
      spec.host_offsets.push_back(host_off);
      int d = static_cast<int>(idx.size()) - 1;
      while (d >= 0 && ++idx[d] == src_shape[d]) {
        idx[d--] = 0;
      }
      if (d < 0) {
        break;
      }
    }
    impl->store_ats.push_back(std::move(spec));
  }

  impl->out_id = net.groups.back().OutputTensor(graph);
  const auto& out_tensor = graph.tensor(impl->out_id);
  auto out_plan = BuildConversionPlan(out_tensor.shape, assignment.Get(impl->out_id));
  if (!out_plan.ok()) {
    return out_plan.status();
  }
  impl->out_plan = std::move(*out_plan);

  // Resolve the arena cap: an explicit positive cap wins, otherwise twice the
  // hardware threads (HardwareThreads clamps to >= 1 so the cap — and with it
  // peak concurrency — is never below the eager first arena).
  impl->max_arenas =
      options.max_arenas > 0 ? options.max_arenas : std::max(2, 2 * HardwareThreads());

  // Resolve the intra-op budget before the first arena so its programs bind
  // the shared pool. The gauge reports the resolved per-session width even
  // when no program ever shards (workers spawn lazily on first use).
  impl->intra_pool = std::make_shared<IntraOpPool>(options.intra_threads);
  MetricsRegistry::Global()
      .gauge("session.intra_threads")
      .Set(impl->intra_pool->threads());

  // Build the first arena eagerly so plan-compilation errors surface here.
  auto arena = impl->NewArena();
  if (!arena.ok()) {
    return arena.status();
  }
  impl->free_arenas.push_back(std::move(*arena));
  impl->total_arenas = 1;

  InferenceSession session;
  session.impl_ = std::move(impl);
  return session;
}

StatusOr<std::vector<float>> InferenceSession::Run(const TensorDataMap& canonical_data) const {
  TraceSpan session_span("session.run");
  static Counter& runs = MetricsRegistry::Global().counter("session.runs");
  static Histogram& run_us = MetricsRegistry::Global().histogram("session.run_us");
  static Counter& arena_waits = MetricsRegistry::Global().counter("session.arena_waits");
  static Histogram& arena_wait_us =
      MetricsRegistry::Global().histogram("session.arena_wait_us");
  const int64_t start_ns = TraceRecorder::NowNs();
  Impl& impl = *impl_;

  // Borrow an idle arena; build a fresh one (outside the lock) while below
  // the cap, otherwise block until a returning Run frees one. The blocked
  // path is the bounded-memory trade: a burst past max_arenas queues here
  // instead of materializing an arena per caller.
  std::unique_ptr<Arena> arena;
  bool build_fresh = false;
  {
    std::unique_lock<std::mutex> lock(impl.mu);
    while (impl.free_arenas.empty() && impl.total_arenas >= impl.max_arenas) {
      arena_waits.Add();
      const int64_t wait_start_ns = TraceRecorder::NowNs();
      impl.arena_cv.wait(lock, [&impl] {
        return !impl.free_arenas.empty() || impl.total_arenas < impl.max_arenas;
      });
      arena_wait_us.Observe(static_cast<double>(TraceRecorder::NowNs() - wait_start_ns) *
                            1e-3);
    }
    if (!impl.free_arenas.empty()) {
      arena = std::move(impl.free_arenas.back());
      impl.free_arenas.pop_back();
    } else {
      // Reserve a slot under the lock so concurrent borrowers cannot
      // collectively overshoot the cap while this one builds.
      ++impl.total_arenas;
      build_fresh = true;
    }
  }
  if (build_fresh) {
    auto fresh = impl.NewArena();
    if (!fresh.ok()) {
      std::lock_guard<std::mutex> lock(impl.mu);
      --impl.total_arenas;
      impl.arena_cv.notify_one();
      return fresh.status();
    }
    arena = std::move(*fresh);
  }
  struct Release {
    Impl* impl;
    std::unique_ptr<Arena>* arena;
    ~Release() {
      {
        std::lock_guard<std::mutex> lock(impl->mu);
        impl->free_arenas.push_back(std::move(*arena));
      }
      impl->arena_cv.notify_one();
    }
  } release{&impl, &arena};

  {
    TraceSpan convert_span("session.convert");
    for (const FeedSpec& f : impl.feeds) {
      auto it = canonical_data.find(f.tensor_id);
      if (it == canonical_data.end()) {
        return Status::FailedPrecondition("missing canonical data for tensor " + f.name);
      }
      if (static_cast<int64_t>(it->second.size()) != f.plan.canonical_size) {
        return Status::FailedPrecondition("canonical data for tensor " + f.name +
                                          " mis-sized");
      }
      PhysicalizeWithPlan(f.plan, it->second.data(), arena->store.Get(f.tensor_id).data());
    }
    for (const StoreAtSpec& s : impl.store_ats) {
      auto it = canonical_data.find(s.src_id);
      if (it == canonical_data.end()) {
        return Status::FailedPrecondition("store_at source data missing");
      }
      if (it->second.size() < s.host_offsets.size()) {
        return Status::FailedPrecondition("store_at source data mis-sized");
      }
      auto& host = arena->store.Get(s.host_id);
      for (size_t i = 0; i < s.host_offsets.size(); ++i) {
        host[s.host_offsets[i]] = it->second[i];
      }
    }
  }

  for (auto& program : arena->programs) {
    TraceSpan program_span("session.program");
    ALT_RETURN_IF_ERROR(program.Run());
  }

  std::vector<float> out(impl.out_plan.canonical_size);
  {
    TraceSpan convert_span("session.convert");
    CanonicalizeWithPlan(impl.out_plan, arena->store.Get(impl.out_id).data(), out.data());
  }
  runs.Add();
  run_us.Observe(static_cast<double>(TraceRecorder::NowNs() - start_ns) * 1e-3);
  return out;
}

std::vector<StatusOr<std::vector<float>>> InferenceSession::RunBatchDetailed(
    const std::vector<TensorDataMap>& requests, ThreadPool& pool) const {
  std::vector<StatusOr<std::vector<float>>> results(
      requests.size(), Status::Internal("request not executed"));
  Status fanout = pool.ParallelFor(static_cast<int>(requests.size()),
                                   [&](int i) { results[i] = Run(requests[i]); });
  if (!fanout.ok()) {
    // ParallelFor only fails on an escaping exception; every index still ran,
    // so surface the failure on slots that kept the placeholder status.
    for (auto& r : results) {
      if (!r.ok() && r.status().message() == "request not executed") {
        r = fanout;
      }
    }
  }
  return results;
}

int InferenceSession::output_tensor() const { return impl_->out_id; }

const std::vector<int64_t>& InferenceSession::output_shape() const {
  return impl_->graph.tensor(impl_->out_id).shape;
}

int InferenceSession::arena_count() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->total_arenas;
}

int InferenceSession::max_arenas() const { return impl_->max_arenas; }

}  // namespace alt::runtime
