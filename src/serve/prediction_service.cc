#include "serve/prediction_service.h"

#include <string>
#include <utility>

#include "common/counters.h"
#include "common/trace.h"

namespace stgnn::serve {

using tensor::Tensor;

namespace {

int ResolvedSlot(const PredictRequest& request, int frontier) {
  return request.slot == PredictRequest::kLatestSlot ? frontier
                                                     : request.slot;
}

bool Expired(const PredictRequest& request, int64_t now) {
  return request.deadline_ns > 0 && now > request.deadline_ns;
}

}  // namespace

PredictionService::PredictionService(ModelRegistry* registry,
                                     FeatureRing* ring,
                                     ServiceOptions options)
    : owned_engine_(std::make_unique<LocalEngine>(registry, ring)),
      engine_(owned_engine_.get()),
      options_(options) {
  STGNN_CHECK_GE(options_.num_workers, 1);
  STGNN_CHECK_GE(options_.max_batch, 1);
  STGNN_CHECK_GE(options_.max_queue, 1);
  stats_.batch_size_counts.assign(options_.max_batch + 1, 0);
}

PredictionService::PredictionService(InferenceEngine* engine,
                                     ServiceOptions options)
    : engine_(engine), options_(options) {
  STGNN_CHECK(engine_ != nullptr);
  STGNN_CHECK_GE(options_.num_workers, 1);
  STGNN_CHECK_GE(options_.max_batch, 1);
  STGNN_CHECK_GE(options_.max_queue, 1);
  stats_.batch_size_counts.assign(options_.max_batch + 1, 0);
}

PredictionService::~PredictionService() {
  Stop();
  // The owned LocalEngine (if any) is destroyed after the workers are
  // joined; its destructor deregisters from the ring under the ring mutex.
}

void PredictionService::Start() {
  std::lock_guard<std::mutex> lock(mu_);
  if (started_ || stop_) return;
  started_ = true;
  workers_.reserve(options_.num_workers);
  for (int i = 0; i < options_.num_workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

void PredictionService::Stop() {
  std::vector<std::thread> workers;
  std::deque<Entry> orphaned;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_) return;
    stop_ = true;
    workers.swap(workers_);
    // Without workers nothing will ever drain the queue; fail the
    // leftovers here so every promise is still fulfilled exactly once.
    if (!started_) orphaned.swap(queue_);
  }
  cv_.notify_all();
  for (auto& w : workers) w.join();
  for (auto& e : orphaned) {
    PredictResponse response;
    response.kind = PredictResponse::Kind::kFailed;
    response.status = Status::FailedPrecondition("service stopped");
    Respond(&e, std::move(response));
  }
}

std::future<PredictResponse> PredictionService::SubmitAsync(
    PredictRequest request) {
  STGNN_COUNTER_INC("serve.requests");
  Entry entry;
  entry.request = std::move(request);
  entry.submit_ns = common::trace::NowNs();
  std::future<PredictResponse> future = entry.promise.get_future();
  bool reject_full = false;
  bool reject_stopped = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.submitted;
    if (stop_) {
      reject_stopped = true;
    } else if (static_cast<int>(queue_.size()) >= options_.max_queue) {
      reject_full = true;
      ++stats_.shed_queue_full;
    } else {
      queue_.push_back(std::move(entry));
    }
  }
  if (reject_stopped) {
    PredictResponse response;
    response.kind = PredictResponse::Kind::kFailed;
    response.status = Status::FailedPrecondition("service stopped");
    Respond(&entry, std::move(response));
    return future;
  }
  if (reject_full) {
    STGNN_COUNTER_INC("serve.shed");
    PredictResponse response;
    response.kind = PredictResponse::Kind::kRejectedQueueFull;
    Respond(&entry, std::move(response));
    return future;
  }
  cv_.notify_one();
  return future;
}

PredictResponse PredictionService::Predict(PredictRequest request) {
  return SubmitAsync(std::move(request)).get();
}

ServiceStats PredictionService::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void PredictionService::WorkerLoop() {
  for (;;) {
    std::vector<Entry> batch;
    int resolved_slot = 0;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and queue drained
      // Coalesce the longest front run of requests that resolve to the
      // same slot (FIFO order, so no request can be starved by batching).
      // "Latest" requests resolve against one frontier read per batch, so
      // every latest-request in the batch targets the same slot.
      const int frontier = engine_->next_slot();
      resolved_slot = ResolvedSlot(queue_.front().request, frontier);
      while (!queue_.empty() &&
             static_cast<int>(batch.size()) < options_.max_batch &&
             ResolvedSlot(queue_.front().request, frontier) == resolved_slot) {
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
    }
    ServeBatch(resolved_slot, std::move(batch));
  }
}

void PredictionService::ShedDeadline(int slot, std::vector<Entry>* expired) {
  if (expired->empty()) return;
  STGNN_COUNTER_ADD("serve.shed", expired->size());
  {
    std::lock_guard<std::mutex> lock(mu_);
    stats_.shed_deadline += static_cast<int64_t>(expired->size());
  }
  for (auto& entry : *expired) {
    PredictResponse response;
    response.kind = PredictResponse::Kind::kRejectedDeadline;
    response.slot = slot;
    Respond(&entry, std::move(response));
  }
}

void PredictionService::BindLate(int slot, int frontier,
                                 const EngineOutput& executed,
                                 std::vector<Entry>* live) {
  if (executed.registry == nullptr) return;
  [[maybe_unused]] const size_t before = live->size();
  std::vector<Entry> expired;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Read under mu_: every queued request was enqueued before these reads,
    // so one submitted after a Push or Publish returned sees it moved.
    if (engine_->next_slot() != frontier ||
        executed.registry->current_version() != executed.model_version) {
      return;
    }
    const int64_t now = common::trace::NowNs();
    while (!queue_.empty() &&
           static_cast<int>(live->size()) < options_.max_batch &&
           ResolvedSlot(queue_.front().request, frontier) == slot) {
      Entry& front = queue_.front();
      (Expired(front.request, now) ? expired : *live)
          .push_back(std::move(front));
      queue_.pop_front();
    }
  }
  STGNN_COUNTER_ADD("serve.late_bound", live->size() - before);
  ShedDeadline(slot, &expired);
}

void PredictionService::ServeBatch(int slot, std::vector<Entry> batch) {
  STGNN_TRACE_SCOPE("Serve.Batch");
  // Stats are always updated BEFORE the corresponding promises are
  // fulfilled: a caller that returns from future.get() and immediately
  // reads stats() must see its own request accounted for.

  // Deadline shedding happens when a request is bound to a batch: one that
  // waited past its deadline gets a fast typed rejection instead of a stale
  // prediction.
  const int64_t now = common::trace::NowNs();
  std::vector<Entry> live;
  std::vector<Entry> expired;
  live.reserve(batch.size());
  for (auto& entry : batch) {
    (Expired(entry.request, now) ? expired : live).push_back(std::move(entry));
  }
  ShedDeadline(slot, &expired);
  if (live.empty()) return;

  auto fail_all = [this, &slot](std::vector<Entry>* entries,
                                const Status& status) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stats_.failed += static_cast<int64_t>(entries->size());
    }
    for (auto& entry : *entries) {
      PredictResponse response;
      response.kind = PredictResponse::Kind::kFailed;
      response.status = status;
      response.slot = slot;
      Respond(&entry, std::move(response));
    }
  };

  // The engine turns the slot into the full prediction rows for every
  // station it serves; one execution serves the whole micro-batch.
  int frontier = engine_->next_slot();
  Result<EngineOutput> executed = engine_->Execute(slot);
  // The worker resolved "latest" from the frontier before executing. If
  // ingest has moved the frontier since, a precondition failure means the
  // pushes overwrote history this slot needs: the latest requests move to
  // the new frontier, while requests that named this slot keep the typed
  // error. Each retry needs the frontier to move again, so it is bounded.
  auto frontier_outran = [&] {
    return !executed.ok() &&
           executed.status().code() == StatusCode::kFailedPrecondition &&
           engine_->next_slot() > slot;
  };
  for (int retry = 0; retry < kMaxFrontierRetries && frontier_outran();
       ++retry) {
    std::vector<Entry> latest;
    std::vector<Entry> pinned;
    for (auto& entry : live) {
      (entry.request.slot == PredictRequest::kLatestSlot ? latest : pinned)
          .push_back(std::move(entry));
    }
    fail_all(&pinned, executed.status());
    live = std::move(latest);
    if (live.empty()) return;
    STGNN_COUNTER_INC("serve.frontier_retries");
    slot = frontier = engine_->next_slot();
    executed = engine_->Execute(slot);
  }
  if (!executed.ok()) {
    fail_all(&live, executed.status());
    return;
  }
  BindLate(slot, frontier, *executed, &live);
  const Tensor& full = (*executed).rows;
  const uint64_t version = (*executed).model_version;
  if ((*executed).assembled) {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.assemblies;
  }

  STGNN_COUNTER_INC("serve.batches");
  STGNN_COUNTER_ADD("serve.batched_requests", live.size());
  const int batch_size = static_cast<int>(live.size());
  const int n = engine_->num_stations();
  const int engine_rows = full.dim(0);
  const int cols = full.dim(1);

  // Validate every request's station list up front so the stats can be
  // published before any promise is fulfilled. A station outside [0, n) is
  // a malformed request; a valid station this engine does not serve (a
  // shard engine asked for a remote row) is a routing error.
  std::vector<Status> verdicts(live.size());
  int64_t served = 0;
  int64_t failed = 0;
  for (size_t i = 0; i < live.size(); ++i) {
    for (int s : live[i].request.stations) {
      if (s < 0 || s >= n) {
        verdicts[i] = Status::InvalidArgument(
            "station index " + std::to_string(s) + " outside [0, " +
            std::to_string(n) + ")");
        break;
      }
      if (engine_->row_of(s) < 0) {
        verdicts[i] = Status::InvalidArgument(
            "station " + std::to_string(s) + " not served by this engine");
        break;
      }
    }
    verdicts[i].ok() ? ++served : ++failed;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    stats_.served += served;
    stats_.failed += failed;
    ++stats_.batches;
    stats_.batch_size_counts[batch_size] += 1;
  }

  for (size_t i = 0; i < live.size(); ++i) {
    STGNN_TRACE_SCOPE("Serve.Respond");
    Entry& entry = live[i];
    if (!verdicts[i].ok()) {
      PredictResponse response;
      response.kind = PredictResponse::Kind::kFailed;
      response.status = std::move(verdicts[i]);
      response.slot = slot;
      Respond(&entry, std::move(response));
      continue;
    }
    const std::vector<int>& stations = entry.request.stations;
    const int rows =
        stations.empty() ? engine_rows : static_cast<int>(stations.size());
    Tensor out = Tensor::Uninitialized({rows, cols});
    for (int r = 0; r < rows; ++r) {
      const int src = stations.empty() ? r : engine_->row_of(stations[r]);
      for (int c = 0; c < cols; ++c) out.at(r, c) = full.at(src, c);
    }
    PredictResponse response;
    response.kind = PredictResponse::Kind::kOk;
    response.predictions = std::move(out);
    response.slot = slot;
    response.model_version = version;
    response.batch_size = batch_size;
    Respond(&entry, std::move(response));
  }
}

void PredictionService::Respond(Entry* entry, PredictResponse response) {
  response.latency_ns = common::trace::NowNs() - entry->submit_ns;
  if (response.kind == PredictResponse::Kind::kOk) {
    latency_.Record(response.latency_ns);
  }
  entry->promise.set_value(std::move(response));
}

}  // namespace stgnn::serve
