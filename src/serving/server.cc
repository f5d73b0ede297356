#include "src/serving/server.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <map>
#include <mutex>
#include <thread>
#include <utility>

#include "src/support/thread_pool.h"
#include "src/support/trace.h"

namespace alt::serving {

namespace {

using Clock = std::chrono::steady_clock;

int64_t MicrosBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration_cast<std::chrono::microseconds>(to - from).count();
}

// One queued request: its payload, its answer slot, and its dispatch
// deadline under the batch policy.
struct Pending {
  runtime::TensorDataMap data;
  std::promise<Response> promise;
  Clock::time_point enqueued;
  Clock::time_point deadline;
  // Shed deadline: a request still QUEUED at this point is failed with
  // kDeadlineExceeded instead of claimed (Server::SubmitOptions::deadline_us).
  // Unset when the caller gave no deadline.
  bool has_shed_deadline = false;
  Clock::time_point shed_deadline;
};

// A registered model: the hot-swappable session plus its own FIFO queue.
// Batches never mix models, so batching state lives here.
struct Model {
  std::string name;
  uint64_t interface_sig = 0;
  std::vector<int64_t> output_shape;
  // Flipped by SwapModel under the server lock; workers copy it out before
  // running so an in-flight batch keeps the session it started with alive.
  std::shared_ptr<runtime::InferenceSession> session;
  std::deque<Pending> queue;
  // Per-model end-to-end latency (submit -> response), the operator's
  // p50/p95/p99 surface.
  Histogram* request_us = nullptr;
};

}  // namespace

struct Server::Impl {
  ServerOptions options;
  MetricsSnapshot start;

  // One lock for admission, batching state, and model registry: every
  // critical section is short (queue splicing and pointer flips; execution
  // happens outside it).
  mutable std::mutex mu;
  std::condition_variable work_cv;
  std::map<std::string, std::unique_ptr<Model>> models;
  bool draining = false;
  int64_t queued = 0;  // across all models; mirrored in serving.queue_depth

  std::vector<std::thread> workers;

  // Instruments (global registry; cached once).
  Counter& requests = MetricsRegistry::Global().counter("serving.requests");
  Counter& rejected = MetricsRegistry::Global().counter("serving.rejected");
  Counter& completed = MetricsRegistry::Global().counter("serving.completed");
  Counter& failed = MetricsRegistry::Global().counter("serving.failed");
  Counter& batches = MetricsRegistry::Global().counter("serving.batches");
  Counter& swaps = MetricsRegistry::Global().counter("serving.swaps");
  Counter& deadline_rejected = MetricsRegistry::Global().counter("serving.deadline_rejected");
  Gauge& queue_depth = MetricsRegistry::Global().gauge("serving.queue_depth");
  Gauge& model_count = MetricsRegistry::Global().gauge("serving.models");
  Histogram& batch_size = MetricsRegistry::Global().histogram("serving.batch_size");
  Histogram& queue_wait_us = MetricsRegistry::Global().histogram("serving.queue_wait_us");
  Histogram& batch_us = MetricsRegistry::Global().histogram("serving.batch_us");

  int IntraBatchThreads() const {
    if (options.intra_batch_threads > 0) {
      return options.intra_batch_threads;
    }
    return std::max(1, HardwareThreads() / std::max(1, options.workers));
  }

  // Builds a session + interface identity for AddModel/SwapModel.
  StatusOr<std::unique_ptr<Model>> BuildModel(const std::string& name,
                                              const graph::Graph& graph,
                                              const graph::LayoutAssignment& assignment,
                                              const loop::LoweredNetwork& net) {
    auto session = runtime::InferenceSession::Create(graph, assignment, net, options.session);
    if (!session.ok()) {
      return session.status();
    }
    auto model = std::make_unique<Model>();
    model->name = name;
    model->interface_sig = core::InterfaceSignature(graph);
    model->output_shape = session->output_shape();
    model->session = std::make_shared<runtime::InferenceSession>(std::move(*session));
    model->request_us = &MetricsRegistry::Global().histogram("serving." + name + ".request_us");
    return model;
  }

  // Under `mu`: the model whose queue must be dispatched now, or nullptr.
  // Ready means a full batch, an expired oldest-request deadline, or any
  // backlog while draining.
  Model* FindReadyModel(Clock::time_point now) {
    for (auto& [name, model] : models) {
      if (model->queue.empty()) {
        continue;
      }
      if (static_cast<int>(model->queue.size()) >= options.policy.max_batch_size ||
          model->queue.front().deadline <= now || draining) {
        return model.get();
      }
    }
    return nullptr;
  }

  // Under `mu`: earliest dispatch deadline across queued requests; false
  // when nothing is queued.
  bool EarliestDeadline(Clock::time_point* deadline) const {
    bool any = false;
    for (const auto& [name, model] : models) {
      if (!model->queue.empty() &&
          (!any || model->queue.front().deadline < *deadline)) {
        *deadline = model->queue.front().deadline;
        any = true;
      }
    }
    return any;
  }

  void WorkerLoop() {
    // The worker's reusable pool: intra-batch fan-out costs a wakeup, never
    // a thread spawn (each worker owns one because ParallelFor is not
    // reentrant on a shared pool).
    ThreadPool pool(IntraBatchThreads());
    std::unique_lock<std::mutex> lock(mu);
    for (;;) {
      Model* ready = FindReadyModel(Clock::now());
      if (ready == nullptr) {
        if (draining && queued == 0) {
          return;
        }
        Clock::time_point deadline;
        if (EarliestDeadline(&deadline)) {
          work_cv.wait_until(lock, deadline);
        } else {
          work_cv.wait(lock);
        }
        continue;
      }

      // Claim up to one policy batch from this model's queue. Requests that
      // outlived their per-request submit deadline are shed here — they fail
      // fast with kDeadlineExceeded instead of occupying a batch slot.
      std::vector<Pending> batch;
      std::vector<std::promise<Response>> shed;
      const Clock::time_point claim_now = Clock::now();
      int popped = 0;
      while (!ready->queue.empty() &&
             static_cast<int>(batch.size()) < options.policy.max_batch_size) {
        Pending p = std::move(ready->queue.front());
        ready->queue.pop_front();
        ++popped;
        if (p.has_shed_deadline && claim_now > p.shed_deadline) {
          deadline_rejected.Add();
          shed.push_back(std::move(p.promise));
          continue;
        }
        batch.push_back(std::move(p));
      }
      queued -= popped;
      queue_depth.Add(-popped);
      // Another model (or the rest of this queue) may be ready too — hand it
      // to a sibling worker while this one executes.
      if (FindReadyModel(Clock::now()) != nullptr) {
        work_cv.notify_one();
      }
      std::shared_ptr<runtime::InferenceSession> session = ready->session;
      Histogram* request_us = ready->request_us;
      lock.unlock();

      for (auto& promise : shed) {
        promise.set_value(
            Status::DeadlineExceeded("request deadline elapsed before a worker claimed it"));
      }
      if (batch.empty()) {  // everything claimed this round was shed
        lock.lock();
        continue;
      }

      TraceSpan batch_span("serving.batch");
      const Clock::time_point run_start = Clock::now();
      batch_size.Observe(static_cast<double>(batch.size()));
      for (const Pending& p : batch) {
        queue_wait_us.Observe(static_cast<double>(MicrosBetween(p.enqueued, run_start)));
      }
      std::vector<runtime::TensorDataMap> requests;
      requests.reserve(batch.size());
      for (Pending& p : batch) {
        requests.push_back(std::move(p.data));
      }
      auto results = session->RunBatchDetailed(requests, pool);
      const Clock::time_point run_end = Clock::now();
      batches.Add();
      batch_us.Observe(static_cast<double>(MicrosBetween(run_start, run_end)));
      for (size_t i = 0; i < batch.size(); ++i) {
        if (results[i].ok()) {
          completed.Add();
        } else {
          failed.Add();
        }
        request_us->Observe(static_cast<double>(MicrosBetween(batch[i].enqueued, run_end)));
        batch[i].promise.set_value(std::move(results[i]));
      }
      lock.lock();
    }
  }
};

Server::Server(const ServerOptions& options) : impl_(std::make_unique<Impl>()) {
  impl_->options = options;
  impl_->options.workers = std::max(1, options.workers);
  impl_->options.policy.max_batch_size = std::max(1, options.policy.max_batch_size);
  impl_->options.policy.max_delay_us = std::max<int64_t>(0, options.policy.max_delay_us);
  impl_->options.queue_capacity = std::max(1, options.queue_capacity);
  // Default intra-op budget: divide the machine across dispatcher workers,
  // same policy as IntraBatchThreads — W workers each serving batches never
  // ask for more than the core count in aggregate. Each model's session adds
  // its own single-holder gate on top, so intra-batch fan-out and intra-op
  // sharding add rather than multiply.
  if (impl_->options.session.intra_threads <= 0) {
    impl_->options.session.intra_threads =
        std::max(1, HardwareThreads() / impl_->options.workers);
  }
  impl_->start = MetricsRegistry::Global().Snapshot();
  for (int i = 0; i < impl_->options.workers; ++i) {
    impl_->workers.emplace_back([impl = impl_.get()] { impl->WorkerLoop(); });
  }
}

Server::~Server() { Shutdown(); }

Status Server::AddModel(const std::string& name, const graph::Graph& graph,
                        const graph::LayoutAssignment& assignment,
                        const loop::LoweredNetwork& net) {
  auto model = impl_->BuildModel(name, graph, assignment, net);
  if (!model.ok()) {
    return model.status();
  }
  std::lock_guard<std::mutex> lock(impl_->mu);
  if (impl_->draining) {
    return Status::Unavailable("server is shutting down");
  }
  auto [it, inserted] = impl_->models.emplace(name, std::move(*model));
  if (!inserted) {
    return Status::InvalidArgument("model '" + name + "' already registered");
  }
  impl_->model_count.Add(1);
  return Status::Ok();
}

Status Server::AddModel(const std::string& name, const core::LoadedArtifact& artifact) {
  const autotune::CompiledNetwork& net = artifact.network;
  return AddModel(name, net.graph, net.assignment, {net.groups, net.programs});
}

Status Server::SwapModel(const std::string& name, const graph::Graph& graph,
                         const graph::LayoutAssignment& assignment,
                         const loop::LoweredNetwork& net) {
  // Build and validate BEFORE touching the live model: a bad artifact must
  // never take the model down.
  auto fresh = impl_->BuildModel(name, graph, assignment, net);
  if (!fresh.ok()) {
    return fresh.status();
  }
  std::lock_guard<std::mutex> lock(impl_->mu);
  auto it = impl_->models.find(name);
  if (it == impl_->models.end()) {
    return Status::NotFound("model '" + name + "' not registered");
  }
  Model& live = *it->second;
  if ((*fresh)->interface_sig != live.interface_sig) {
    return Status::InvalidArgument(
        "refusing hot-swap of model '" + name +
        "': serving interface changed (inputs/constants differ)");
  }
  if ((*fresh)->output_shape != live.output_shape) {
    return Status::InvalidArgument("refusing hot-swap of model '" + name +
                                   "': output shape changed");
  }
  // The flip. Queued requests and every future batch use the new session;
  // batches already executing hold their own shared_ptr to the old one and
  // finish undisturbed.
  live.session = std::move((*fresh)->session);
  impl_->swaps.Add();
  return Status::Ok();
}

Status Server::SwapModel(const std::string& name, const core::LoadedArtifact& artifact) {
  const autotune::CompiledNetwork& net = artifact.network;
  return SwapModel(name, net.graph, net.assignment, {net.groups, net.programs});
}

std::future<Response> Server::Submit(const std::string& model,
                                     runtime::TensorDataMap request) {
  return Submit(model, std::move(request), SubmitOptions{});
}

std::future<Response> Server::Submit(const std::string& model, runtime::TensorDataMap request,
                                     const SubmitOptions& submit_options) {
  std::promise<Response> promise;
  std::future<Response> future = promise.get_future();
  const Clock::time_point now = Clock::now();

  std::unique_lock<std::mutex> lock(impl_->mu);
  impl_->requests.Add();
  if (impl_->draining) {
    impl_->rejected.Add();
    lock.unlock();
    promise.set_value(Status::Unavailable("server is shutting down"));
    return future;
  }
  auto it = impl_->models.find(model);
  if (it == impl_->models.end()) {
    impl_->rejected.Add();
    lock.unlock();
    promise.set_value(Status::NotFound("model '" + model + "' not registered"));
    return future;
  }
  Model& m = *it->second;
  if (static_cast<int>(m.queue.size()) >= impl_->options.queue_capacity) {
    impl_->rejected.Add();
    lock.unlock();
    promise.set_value(Status::Unavailable("queue full for model '" + model + "'"));
    return future;
  }
  Pending pending;
  pending.data = std::move(request);
  pending.promise = std::move(promise);
  pending.enqueued = now;
  pending.deadline =
      now + std::chrono::microseconds(impl_->options.policy.max_delay_us);
  if (submit_options.deadline_us > 0) {
    pending.has_shed_deadline = true;
    pending.shed_deadline = now + std::chrono::microseconds(submit_options.deadline_us);
  }
  m.queue.push_back(std::move(pending));
  ++impl_->queued;
  impl_->queue_depth.Add(1);
  lock.unlock();
  // Wake a worker: either the batch just filled, or a timer must be armed
  // for this request's deadline.
  impl_->work_cv.notify_one();
  return future;
}

Response Server::Infer(const std::string& model, runtime::TensorDataMap request) {
  return Submit(model, std::move(request)).get();
}

void Server::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    if (impl_->draining && impl_->workers.empty()) {
      return;
    }
    impl_->draining = true;
  }
  impl_->work_cv.notify_all();
  for (std::thread& w : impl_->workers) {
    if (w.joinable()) {
      w.join();
    }
  }
  impl_->workers.clear();
}

MetricsSnapshot Server::Metrics() const {
  return MetricsRegistry::Global().Snapshot().DeltaSince(impl_->start);
}

int64_t Server::queue_depth() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->queued;
}

}  // namespace alt::serving
