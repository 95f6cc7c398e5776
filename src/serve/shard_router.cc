#include "serve/shard_router.h"

#include <string>

#include "common/counters.h"
#include "common/trace.h"

namespace stgnn::serve {

using tensor::Tensor;

namespace {

// Errors the router resolves by re-resolving the live version and
// rebuilding: a hot-swap landed mid-build or mid-fan-out.
bool IsVersionRace(const Status& status) {
  return status.message().find("stale shard version") != std::string::npos ||
         status.message().find("no shard context") != std::string::npos;
}

// A "latest" request resolved `slot` from the ingest frontier. If ingest
// has since moved the frontier past it, a precondition failure from the
// context build means the pushes overwrote history that slot needed: the
// request re-resolves to the new frontier instead of failing. An explicit
// slot keeps its typed error — it asked for that slot, not for "latest".
// (Only the build reads the rings; shard sub-requests replay a built
// context, and a missing one is a version race.)
bool FrontierOutran(const PredictRequest& request, int slot,
                    const Status& status, const ShardFleet& fleet) {
  return request.slot == PredictRequest::kLatestSlot &&
         status.code() == StatusCode::kFailedPrecondition &&
         fleet.next_slot() > slot;
}

}  // namespace

// ---------------------------------------------------------------------------
// ShardFleet

ShardFleet::ShardFleet(const graph::Partition& partition, int short_term_slots,
                       int long_term_days, int slots_per_day, float scale,
                       ShardFleetOptions options)
    : partition_(partition) {
  STGNN_CHECK_GE(partition_.num_shards, 1);
  STGNN_CHECK_EQ(static_cast<int>(partition_.owned.size()),
                 partition_.num_shards);
  shards_.reserve(partition_.num_shards);
  channels_.reserve(partition_.num_shards);
  for (int s = 0; s < partition_.num_shards; ++s) {
    auto shard = std::make_unique<Shard>();
    shard->registry = std::make_unique<ModelRegistry>();
    shard->ring = std::make_unique<FeatureRing>(
        partition_.num_stations, short_term_slots, long_term_days,
        slots_per_day, scale, partition_.owned[s]);
    shard->engine = std::make_unique<ShardEngine>(
        s, partition_, shard->registry.get(), shard->ring.get(),
        options.cache_capacity);
    shard->service = std::make_unique<PredictionService>(shard->engine.get(),
                                                         options.service);
    channels_.push_back(shard->engine.get());
    shards_.push_back(std::move(shard));
  }
}

ShardFleet::~ShardFleet() { Stop(); }

void ShardFleet::Start() {
  for (auto& shard : shards_) shard->service->Start();
}

void ShardFleet::Stop() {
  for (auto& shard : shards_) shard->service->Stop();
}

Status ShardFleet::Push(int slot, const Tensor& inflow,
                        const Tensor& outflow) {
  for (auto& shard : shards_) {
    Status pushed = shard->ring->Push(slot, inflow, outflow);
    if (!pushed.ok()) return pushed;
  }
  return Status::OK();
}

uint64_t ShardFleet::Publish(const ModelSnapshot& snapshot) {
  std::lock_guard<std::mutex> lock(publish_mu_);
  uint64_t version = 0;
  for (int s = 0; s < num_shards(); ++s) {
    if (s > 0 && publish_hook_for_test_) publish_hook_for_test_(s);
    const uint64_t assigned = shards_[s]->registry->Publish(snapshot);
    if (s == 0) {
      version = assigned;
    } else {
      STGNN_CHECK_EQ(assigned, version)
          << "shard registries fell out of lockstep";
    }
  }
  return version;
}

void ShardFleet::AwaitPublish() const {
  std::lock_guard<std::mutex> lock(publish_mu_);
}

void ShardFleet::SetPublishHookForTest(std::function<void(int)> hook) {
  std::lock_guard<std::mutex> lock(publish_mu_);
  publish_hook_for_test_ = std::move(hook);
}

int ShardFleet::next_slot() const {
  int slot = shards_[0]->ring->next_slot();
  for (const auto& shard : shards_) {
    slot = std::min(slot, shard->ring->next_slot());
  }
  return slot;
}

uint64_t ShardFleet::current_version() const {
  return shards_[0]->registry->current_version();
}

std::shared_ptr<const ModelSnapshot> ShardFleet::Current() const {
  return shards_[0]->registry->Current();
}

Status ShardFleet::EnsureContext(int slot, uint64_t version) {
  // Probe every shard (no early break): each shard's cache records the
  // hit/miss, so a swap is observable as one miss per shard, not just on
  // the first shard the coordinator happened to ask.
  bool all = true;
  for (ShardChannel* channel : channels_) {
    if (!channel->HasContext(slot, version)) all = false;
  }
  if (all) return Status::OK();

  const std::pair<int, uint64_t> key{slot, version};
  std::promise<Status> outcome;
  std::shared_future<Status> shared;
  bool builder = false;
  {
    std::lock_guard<std::mutex> lock(build_mu_);
    auto it = inflight_.find(key);
    if (it == inflight_.end()) {
      shared = outcome.get_future().share();
      inflight_.emplace(key, shared);
      builder = true;
    } else {
      shared = it->second;
    }
  }
  if (!builder) return shared.get();

  Status built = BuildContexts(slot, version);
  outcome.set_value(built);
  {
    std::lock_guard<std::mutex> lock(build_mu_);
    inflight_.erase(key);
  }
  return built;
}

Status ShardFleet::BuildContexts(int slot, uint64_t version) {
  const int k = num_shards();
  const int n = partition_.num_stations;

  // Round 1: per-shard conv rows -> assembled full conv matrices.
  Tensor is_full({n, n});
  Tensor os_full({n, n});
  Tensor il_full({n, n});
  Tensor ol_full({n, n});
  for (int s = 0; s < k; ++s) {
    Result<ShardConvRows> conv = channels_[s]->ConvRows(slot, version);
    if (!conv.ok()) return conv.status();
    const std::vector<int>& owned = partition_.owned[s];
    tensor::ScatterRows((*conv).inflow_short, owned, &is_full);
    tensor::ScatterRows((*conv).outflow_short, owned, &os_full);
    tensor::ScatterRows((*conv).inflow_long, owned, &il_full);
    tensor::ScatterRows((*conv).outflow_long, owned, &ol_full);
  }

  // Round 2: fused temporal matrices + node features.
  Tensor ihat_full({n, n});
  Tensor ohat_full({n, n});
  Tensor t_full;
  for (int s = 0; s < k; ++s) {
    Result<ShardFusedRows> fused = channels_[s]->FuseRows(
        slot, version, is_full, os_full, il_full, ol_full);
    if (!fused.ok()) return fused.status();
    if (t_full.ndim() == 0) {
      // Feature width is the model's to choose; size on the first answer.
      t_full = Tensor({n, (*fused).node_features.dim(1)});
    }
    const std::vector<int>& owned = partition_.owned[s];
    tensor::ScatterRows((*fused).temporal_inflow, owned, &ihat_full);
    tensor::ScatterRows((*fused).temporal_outflow, owned, &ohat_full);
    tensor::ScatterRows((*fused).node_features, owned, &t_full);
  }

  // Round 3: local graph + FCG plan; first attention layer's exports.
  std::vector<PcgHeadExports> exports(k);
  for (int s = 0; s < k; ++s) {
    Result<PcgHeadExports> built = channels_[s]->BuildLocal(
        slot, version, ihat_full, ohat_full, t_full);
    if (!built.ok()) return built.status();
    exports[s] = std::move(*built);
  }

  // Rounds 4..: per attention layer, assemble the halo from the exports and
  // hand it back; shards answer with the next layer's exports (empty after
  // the last layer, which finalises their context).
  for (int layer = 0; !exports[0].d.empty(); ++layer) {
    PcgLayerHalo halo;
    for (size_t h = 0; h < exports[0].d.size(); ++h) {
      Tensor d_column({n, 1});
      Tensor v_full({n, exports[0].v[h].dim(1)});
      for (int s = 0; s < k; ++s) {
        tensor::ScatterRows(exports[s].d[h], partition_.owned[s], &d_column);
        tensor::ScatterRows(exports[s].v[h], partition_.owned[s], &v_full);
      }
      halo.d_full.push_back(d_column.Transpose());
      halo.v_full.push_back(std::move(v_full));
    }
    for (int s = 0; s < k; ++s) {
      Result<PcgHeadExports> next =
          channels_[s]->PcgLayer(slot, version, layer, halo);
      if (!next.ok()) return next.status();
      exports[s] = std::move(*next);
    }
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// ShardRouter

ShardRouter::ShardRouter(ShardFleet* fleet, RouterOptions options)
    : fleet_(fleet), options_(options) {
  STGNN_CHECK(fleet_ != nullptr);
  STGNN_CHECK_GE(options_.num_workers, 1);
  STGNN_CHECK_GE(options_.max_queue, 1);
  STGNN_CHECK_GE(options_.max_retries, 0);
}

ShardRouter::~ShardRouter() { Stop(); }

void ShardRouter::SetResolvedHookForTest(std::function<void(int)> hook) {
  std::lock_guard<std::mutex> lock(mu_);
  STGNN_CHECK(!started_) << "set the resolved-slot hook before Start()";
  resolved_hook_for_test_ = std::move(hook);
}

void ShardRouter::Start() {
  std::lock_guard<std::mutex> lock(mu_);
  if (started_ || stop_) return;
  started_ = true;
  workers_.reserve(options_.num_workers);
  for (int i = 0; i < options_.num_workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

void ShardRouter::Stop() {
  std::vector<std::thread> workers;
  std::deque<Entry> orphaned;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_) return;
    stop_ = true;
    workers.swap(workers_);
    if (!started_) orphaned.swap(queue_);
  }
  cv_.notify_all();
  for (auto& w : workers) w.join();
  for (auto& e : orphaned) {
    PredictResponse response;
    response.kind = PredictResponse::Kind::kFailed;
    response.status = Status::FailedPrecondition("router stopped");
    Respond(&e, std::move(response));
  }
}

std::future<PredictResponse> ShardRouter::SubmitAsync(PredictRequest request) {
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
    response.status = Status::FailedPrecondition("router stopped");
    Respond(&entry, std::move(response));
    return future;
  }
  if (reject_full) {
    PredictResponse response;
    response.kind = PredictResponse::Kind::kRejectedQueueFull;
    Respond(&entry, std::move(response));
    return future;
  }
  cv_.notify_one();
  return future;
}

PredictResponse ShardRouter::Predict(PredictRequest request) {
  return SubmitAsync(std::move(request)).get();
}

RouterStats ShardRouter::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void ShardRouter::WorkerLoop() {
  for (;;) {
    Entry entry;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and queue drained
      entry = std::move(queue_.front());
      queue_.pop_front();
    }
    // Deadline shed at dequeue, mirroring the per-shard services.
    const int64_t now = common::trace::NowNs();
    if (entry.request.deadline_ns > 0 && now > entry.request.deadline_ns) {
      {
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.shed_deadline;
      }
      PredictResponse response;
      response.kind = PredictResponse::Kind::kRejectedDeadline;
      Respond(&entry, std::move(response));
      continue;
    }
    PredictResponse response = Serve(entry.request);
    {
      std::lock_guard<std::mutex> lock(mu_);
      response.ok() ? ++stats_.served : ++stats_.failed;
    }
    Respond(&entry, std::move(response));
  }
}

PredictResponse ShardRouter::Serve(const PredictRequest& request) {
  PredictResponse response;
  auto fail = [&response](Status status) -> PredictResponse& {
    response.kind = PredictResponse::Kind::kFailed;
    response.status = std::move(status);
    return response;
  };

  const int n = fleet_->partition().num_stations;
  const int num_shards = fleet_->num_shards();
  for (int s : request.stations) {
    if (s < 0 || s >= n) {
      return fail(Status::InvalidArgument(
          "station index " + std::to_string(s) + " outside [0, " +
          std::to_string(n) + ")"));
    }
  }

  Status last_race = Status::OK();
  for (int attempt = 0; attempt <= options_.max_retries; ++attempt) {
    if (attempt > 0) {
      {
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.retries;
      }
      // A version race can mean a publish is part-way through the shards;
      // re-resolving before it finishes would race it again.
      fleet_->AwaitPublish();
    }
    const uint64_t version = fleet_->current_version();
    if (version == 0) {
      return fail(Status::FailedPrecondition("no model published"));
    }
    const int slot = request.slot == PredictRequest::kLatestSlot
                         ? fleet_->next_slot()
                         : request.slot;
    if (resolved_hook_for_test_) resolved_hook_for_test_(slot);

    {
      STGNN_TRACE_SCOPE("Router.Halo");
      Status ensured = fleet_->EnsureContext(slot, version);
      if (!ensured.ok()) {
        if (FrontierOutran(request, slot, ensured, *fleet_)) {
          last_race = std::move(ensured);
          STGNN_COUNTER_INC("serve.shard.frontier_retries");
          continue;
        }
        if (!IsVersionRace(ensured)) return fail(std::move(ensured));
        last_race = std::move(ensured);
        {
          std::lock_guard<std::mutex> lock(mu_);
          ++stats_.version_rejects;
        }
        STGNN_COUNTER_INC("serve.shard.version_rejects");
        continue;
      }
    }

    // Split the station list by owning shard. An empty list fans to every
    // shard (each returns its owned rows in local order).
    std::vector<std::vector<int>> sub_stations(num_shards);
    std::vector<std::pair<int, int>> locate;  // request row -> (shard, row)
    std::vector<int> involved;
    if (request.stations.empty()) {
      involved.resize(num_shards);
      for (int s = 0; s < num_shards; ++s) involved[s] = s;
    } else {
      locate.reserve(request.stations.size());
      const std::vector<int>& owner = fleet_->partition().owner;
      for (int station : request.stations) {
        const int shard = owner[station];
        locate.emplace_back(shard,
                            static_cast<int>(sub_stations[shard].size()));
        sub_stations[shard].push_back(station);
      }
      for (int s = 0; s < num_shards; ++s) {
        if (!sub_stations[s].empty()) involved.push_back(s);
      }
    }

    std::vector<PredictResponse> subs;
    subs.reserve(involved.size());
    {
      STGNN_TRACE_SCOPE("Router.Fanout");
      {
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.fanouts;
      }
      STGNN_COUNTER_INC("serve.shard.fanouts");
      std::vector<std::future<PredictResponse>> futures;
      futures.reserve(involved.size());
      for (int s : involved) {
        PredictRequest sub;
        sub.slot = slot;
        sub.stations = sub_stations[s];
        sub.deadline_ns = request.deadline_ns;
        futures.push_back(fleet_->service(s)->SubmitAsync(std::move(sub)));
      }
      for (auto& f : futures) subs.push_back(f.get());
    }

    // Classify the gather. Admission/deadline rejections propagate as-is
    // (retrying against an overloaded shard only adds load); version races
    // retry; other failures propagate typed.
    bool race = false;
    Status hard_failure = Status::OK();
    for (const PredictResponse& sub : subs) {
      if (sub.kind == PredictResponse::Kind::kRejectedQueueFull ||
          sub.kind == PredictResponse::Kind::kRejectedDeadline) {
        response.kind = sub.kind;
        response.slot = slot;
        return response;
      }
      if (sub.kind == PredictResponse::Kind::kFailed) {
        if (IsVersionRace(sub.status)) {
          race = true;
          last_race = sub.status;
        } else {
          hard_failure = sub.status;
        }
      }
    }
    if (!hard_failure.ok()) return fail(std::move(hard_failure));
    if (!race) {
      for (const PredictResponse& sub : subs) {
        if (sub.model_version != subs[0].model_version) {
          // Torn fan-out: a hot-swap landed between sub-batches. Discard
          // and retry rather than merge two models' rows.
          race = true;
          last_race = Status::FailedPrecondition(
              "stale shard version: mixed versions across fan-out");
          break;
        }
      }
    }
    if (race) {
      {
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.version_rejects;
      }
      STGNN_COUNTER_INC("serve.shard.version_rejects");
      continue;
    }

    STGNN_TRACE_SCOPE("Router.Merge");
    const int cols = subs[0].predictions.dim(1);
    int batch_size = 0;
    for (const PredictResponse& sub : subs) {
      batch_size = std::max(batch_size, sub.batch_size);
    }
    Tensor merged;
    if (request.stations.empty()) {
      // Global station order: scatter each shard's owned rows home.
      merged = Tensor::Uninitialized({n, cols});
      for (size_t i = 0; i < involved.size(); ++i) {
        tensor::ScatterRows(subs[i].predictions,
                            fleet_->partition().owned[involved[i]], &merged);
      }
    } else {
      std::vector<int> sub_index(num_shards, -1);
      for (size_t i = 0; i < involved.size(); ++i) {
        sub_index[involved[i]] = static_cast<int>(i);
      }
      const int m = static_cast<int>(request.stations.size());
      merged = Tensor::Uninitialized({m, cols});
      for (int r = 0; r < m; ++r) {
        const PredictResponse& sub = subs[sub_index[locate[r].first]];
        for (int c = 0; c < cols; ++c) {
          merged.at(r, c) = sub.predictions.at(locate[r].second, c);
        }
      }
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.merges;
    }
    STGNN_COUNTER_INC("serve.shard.merges");

    response.kind = PredictResponse::Kind::kOk;
    response.predictions = std::move(merged);
    response.slot = slot;
    response.model_version = subs[0].model_version;
    response.batch_size = batch_size;
    return response;
  }
  return fail(Status::FailedPrecondition(
      "router retries exhausted (" + std::to_string(options_.max_retries) +
      "): " + last_race.message()));
}

void ShardRouter::Respond(Entry* entry, PredictResponse response) {
  response.latency_ns = common::trace::NowNs() - entry->submit_ns;
  if (response.kind == PredictResponse::Kind::kOk) {
    latency_.Record(response.latency_ns);
  }
  entry->promise.set_value(std::move(response));
}

}  // namespace stgnn::serve
