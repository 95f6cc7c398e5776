#include "serve/engine.h"

#include <string>
#include <utility>

#include "common/counters.h"
#include "common/trace.h"

namespace stgnn::serve {

using tensor::Tensor;

Status ValidateSnapshotWindow(const ModelSnapshot& snapshot,
                              const FeatureRing& ring) {
  if (snapshot.model->num_stations() != ring.num_stations() ||
      snapshot.config.short_term_slots != ring.short_term_slots() ||
      snapshot.config.long_term_days != ring.long_term_days()) {
    return Status::FailedPrecondition(
        "published model window (n=" +
        std::to_string(snapshot.model->num_stations()) +
        ", k=" + std::to_string(snapshot.config.short_term_slots) +
        ", d=" + std::to_string(snapshot.config.long_term_days) +
        ") does not match the feature ring (n=" +
        std::to_string(ring.num_stations()) +
        ", k=" + std::to_string(ring.short_term_slots()) +
        ", d=" + std::to_string(ring.long_term_days()) + ")");
  }
  return Status::OK();
}

LocalEngine::LocalEngine(ModelRegistry* registry, FeatureRing* ring,
                         size_t cache_capacity)
    : registry_(registry), ring_(ring), cache_(cache_capacity) {
  STGNN_CHECK(registry_ != nullptr);
  STGNN_CHECK(ring_ != nullptr);
  STGNN_CHECK(ring_->owned_rows().empty())
      << "LocalEngine needs a full ring; shard rings belong to ShardEngine";
  ring_->SetListener(&cache_);
}

LocalEngine::~LocalEngine() {
  // Deregistering under the ring's mutex synchronises with any in-flight
  // Push notification.
  ring_->SetListener(nullptr);
}

Result<EngineOutput> LocalEngine::Execute(int slot) {
  const std::shared_ptr<const ModelSnapshot> snapshot = registry_->Current();
  if (snapshot == nullptr) {
    return Status::FailedPrecondition("no model published");
  }
  Status window = ValidateSnapshotWindow(*snapshot, *ring_);
  if (!window.ok()) return window;

  // When the snapshot carries quantized weights, every execution section
  // below (cold prefix and head alike) runs under the scope, so cached and
  // cold serving paths see the same weight representation.
  autograd::QuantizedInferenceScope quant_scope(snapshot->quantized.get());
  if (snapshot->quantized != nullptr) {
    STGNN_COUNTER_INC("serve.quantized_batches");
  }

  // One forward serves the whole micro-batch. Denormalize inside the
  // execution section keeps the op order identical to the direct
  // StgnnDjdPredictor::PredictHorizon path (Forward -> Denormalize ->
  // Relu), so served rows are bitwise equal to the offline path.
  //
  // With the snapshot's serve_cache on, the cold prefix (window assembly,
  // embeddings, FCG) is memoised per (slot, version) and repeat batches
  // replay only the head; the staged ops are the same ops Forward runs, so
  // both paths produce bitwise-equal rows.
  EngineOutput output;
  output.model_version = snapshot->version;
  output.registry = registry_;
  Tensor full;
  if (snapshot->config.serve_cache) {
    std::shared_ptr<const SlotCacheEntry> cached =
        cache_.Lookup(slot, snapshot->version);
    if (cached == nullptr) {
      Result<data::StHistory> history = ring_->History(slot);
      if (!history.ok()) return history.status();
      auto fresh = std::make_shared<SlotCacheEntry>();
      fresh->slot = slot;
      fresh->model_version = snapshot->version;
      {
        std::lock_guard<std::mutex> exec_lock(exec_mu_);
        fresh->embeddings = snapshot->model->ComputeEmbeddings(*history);
        if (snapshot->model->uses_fcg()) {
          fresh->graph = snapshot->model->BuildGraph(fresh->embeddings);
          fresh->has_graph = true;
        }
      }
      output.assembled = true;
      // May be refused if the ring overwrote the slot meanwhile; this
      // batch still serves from the local copy.
      cache_.Insert(fresh);
      cached = std::move(fresh);
    }
    STGNN_TRACE_SCOPE("Serve.Forward");
    std::lock_guard<std::mutex> exec_lock(exec_mu_);
    const Tensor out = snapshot->model->ForwardFromStages(
        cached->embeddings, cached->has_graph ? &cached->graph : nullptr);
    full = snapshot->normalizer.Denormalize(out);
  } else {
    Result<data::StHistory> history = ring_->History(slot);
    if (!history.ok()) return history.status();
    output.assembled = true;
    STGNN_TRACE_SCOPE("Serve.Forward");
    std::lock_guard<std::mutex> exec_lock(exec_mu_);
    const autograd::Variable out =
        snapshot->model->Forward(*history, /*training=*/false, nullptr);
    full = snapshot->normalizer.Denormalize(out.value());
  }
  output.rows = tensor::Relu(full);
  return output;
}

}  // namespace stgnn::serve
