#ifndef STGNN_SERVE_ENGINE_H_
#define STGNN_SERVE_ENGINE_H_

#include <cstdint>
#include <memory>
#include <mutex>

#include "common/result.h"
#include "serve/feature_ring.h"
#include "serve/model_registry.h"
#include "serve/slot_cache.h"
#include "tensor/tensor.h"

namespace stgnn::serve {

// One engine execution: the denormalised, non-negative prediction rows for
// every station the engine serves, at one (slot, snapshot).
struct EngineOutput {
  // [num_rows, 2 * horizon], rows in engine-row order (see
  // InferenceEngine::row_of).
  tensor::Tensor rows;
  uint64_t model_version = 0;
  // The registry model_version was read from. While it still serves
  // model_version, these rows are also the answer for requests that queued
  // during the execution (PredictionService binds them late); null opts out.
  const ModelRegistry* registry = nullptr;
  // True when this execution ran the cold prefix (window assembly,
  // embeddings, graph) instead of replaying a cached one.
  bool assembled = false;
};

// Model-execution half of the serving stack. PredictionService owns the
// request plane — queueing, micro-batching, admission control, shedding,
// stats — and delegates "turn a slot into prediction rows" to an engine.
// LocalEngine computes every station in-process; ShardEngine computes only
// its owned rows from a halo-exchanged slot context. Splitting here is what
// lets the fan-out router treat a shard exactly like a whole city, and is
// the seam a socket transport would replace (the engine is the server side
// of such a transport; the service keeps working unchanged).
//
// Execute must be thread-safe; engines serialise internally where needed.
class InferenceEngine {
 public:
  virtual ~InferenceEngine() = default;

  // Global station count (request validation).
  virtual int num_stations() const = 0;
  // Output rows per execution (= num_stations for a local engine, the
  // owned-row count for a shard).
  virtual int num_rows() const = 0;
  // Output row serving global station `station`, or -1 when this engine
  // does not serve it.
  virtual int row_of(int station) const = 0;
  // The ingest frontier "latest" requests resolve to.
  virtual int next_slot() const = 0;

  virtual Result<EngineOutput> Execute(int slot) = 0;

  virtual const SlotCacheStats& cache_stats() const = 0;
};

// The unsharded engine: the model-execution path PredictionService ran
// inline before the engine/transport split, verbatim. Owns the serving
// SlotCache (registered as the ring's advance listener — at most one
// LocalEngine or service per FeatureRing) and the execution lock.
class LocalEngine : public InferenceEngine {
 public:
  // `registry` and `ring` are caller-owned and must outlive the engine.
  LocalEngine(ModelRegistry* registry, FeatureRing* ring,
              size_t cache_capacity = 4);
  ~LocalEngine() override;

  LocalEngine(const LocalEngine&) = delete;
  LocalEngine& operator=(const LocalEngine&) = delete;

  int num_stations() const override { return ring_->num_stations(); }
  int num_rows() const override { return ring_->num_stations(); }
  int row_of(int station) const override { return station; }
  int next_slot() const override { return ring_->next_slot(); }

  Result<EngineOutput> Execute(int slot) override;

  const SlotCacheStats& cache_stats() const override {
    return cache_.stats();
  }

 private:
  ModelRegistry* const registry_;
  FeatureRing* const ring_;
  // Memoised serving prefixes, invalidated via RingListener.
  SlotCache cache_;
  // Serialises model execution: the tensor kernels inside one Forward
  // already use every pool thread, so concurrent Forwards on a shared
  // snapshot (safe: a forward writes nothing to the model) would compete
  // for the same cores for no throughput gain.
  std::mutex exec_mu_;
};

// Shared precondition check: the published snapshot's window must match the
// ring it will read. Returns OK or a typed FailedPrecondition.
Status ValidateSnapshotWindow(const ModelSnapshot& snapshot,
                              const FeatureRing& ring);

}  // namespace stgnn::serve

#endif  // STGNN_SERVE_ENGINE_H_
