#ifndef STGNN_SERVE_SHARD_ENGINE_H_
#define STGNN_SERVE_SHARD_ENGINE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "common/result.h"
#include "core/graph_generator.h"
#include "core/sharded_forward.h"
#include "core/stgnn_djd.h"
#include "graph/partition.h"
#include "serve/engine.h"
#include "serve/feature_ring.h"
#include "serve/model_registry.h"
#include "serve/slot_cache.h"
#include "serve/transport.h"
#include "tensor/tensor.h"

namespace stgnn::serve {

// One fully-built shard serving context for a (slot, model version): the
// memoised stages the per-batch owned-row replay needs. Deliberately NOT
// the final predictions — Execute re-runs the owned-row head (FCG replay,
// attention layers, fusion head) per batch, so a K-shard fleet really does
// split the per-batch compute K ways instead of serving a precomputed
// answer.
struct ShardSlotContext {
  int slot = -1;
  uint64_t model_version = 0;
  // Pins the weights the context was built against across hot-swaps.
  std::shared_ptr<const ModelSnapshot> snapshot;
  // Assembled node features T (full, the FCG replay reads closure rows) and
  // the shard's own rows (the first attention layer's input). The full
  // matrix is kept as a constant graph leaf so every per-batch replay
  // shares it instead of deep-copying [n, f] into a fresh leaf per batch
  // (constant leaves are never buffer-stolen by the in-place ops).
  autograd::Variable t_full;  // [n, f] constant leaf
  tensor::Tensor t_rows;      // [o, f]
  // The slot's full FCG, derived locally from the assembled embeddings
  // (deterministic: every shard builds the identical graph).
  core::FlowConvolutedGraph graph;
  bool has_graph = false;
  // FCG replay: either the sparse per-layer plan, or (dense dispatch) the
  // full branch output computed once at build, sliced per batch.
  bool sparse_fcg = false;
  std::vector<core::FcgLayerPlan> fcg_plan;
  tensor::Tensor fcg_full;  // dense fallback only, [n, f]
  // Per attention layer, the assembled halo the owned-row replay attends
  // over — pre-wrapped as constant leaves, shared across replays.
  std::vector<core::PcgLayerHaloVars> pcg_halo;
  // Distinct remote in-neighbour stations of this shard's FCG rows — the
  // rows a row-sliced transport would actually ship.
  int64_t halo_rows = 0;
};

// The shard-side engine: serves the prediction rows of its owned stations
// from a halo-exchanged slot context. Implements both halves of the split —
// InferenceEngine towards its PredictionService (per-batch owned-row
// replay) and ShardChannel towards the coordinator (the build rounds that
// construct contexts, see transport.h).
//
// Sharding contract: `ring` must be the owned-rows ring of exactly
// `partition.owned[shard]`; requests for other stations fail typed at the
// service. The sharded forward requires the full paper configuration —
// flow convolution, FCG with the flow aggregator, PCG with the attention
// aggregator; builds against other configs refuse with a typed
// FailedPrecondition.
//
// Every build round and every per-batch replay runs without an autograd
// tape (autograd::NoTapeScope): a round's intermediates are freed as it
// goes, and a context holds values only.
//
// Versioning: every build round and every Execute checks the registry's
// live version; a round for a superseded version fails with "stale shard
// version", an Execute with no context for the live (slot, version) fails
// with "no shard context" — both markers the router retries on, so a
// hot-swap mid-build converges instead of serving torn rows.
class ShardEngine : public InferenceEngine, public ShardChannel {
 public:
  // All pointers caller-owned and must outlive the engine. `registry` and
  // `ring` are this shard's; the partition is shared fleet-wide.
  ShardEngine(int shard, const graph::Partition& partition,
              ModelRegistry* registry, FeatureRing* ring,
              size_t cache_capacity = 4);
  ~ShardEngine() override;

  ShardEngine(const ShardEngine&) = delete;
  ShardEngine& operator=(const ShardEngine&) = delete;

  // InferenceEngine.
  int num_stations() const override { return ring_->num_stations(); }
  int num_rows() const override { return static_cast<int>(owned_.size()); }
  int row_of(int station) const override { return row_of_[station]; }
  int next_slot() const override { return ring_->next_slot(); }
  Result<EngineOutput> Execute(int slot) override;
  const SlotCacheStats& cache_stats() const override { return cache_.stats(); }

  // ShardChannel.
  uint64_t CurrentVersion() const override {
    return registry_->current_version();
  }
  int NextSlot() const override { return ring_->next_slot(); }
  bool HasContext(int slot, uint64_t version) override {
    return cache_.Probe(slot, version);
  }
  Result<core::ShardConvRows> ConvRows(int slot, uint64_t version) override;
  Result<core::ShardFusedRows> FuseRows(
      int slot, uint64_t version, const tensor::Tensor& inflow_short_full,
      const tensor::Tensor& outflow_short_full,
      const tensor::Tensor& inflow_long_full,
      const tensor::Tensor& outflow_long_full) override;
  Result<core::PcgHeadExports> BuildLocal(
      int slot, uint64_t version, const tensor::Tensor& temporal_inflow_full,
      const tensor::Tensor& temporal_outflow_full,
      const tensor::Tensor& node_features_full) override;
  Result<core::PcgHeadExports> PcgLayer(int slot, uint64_t version, int layer,
                                        const core::PcgLayerHalo& halo)
      override;

  int shard() const { return shard_; }
  const std::vector<int>& owned() const { return owned_; }

 private:
  // A context under construction by the coordinator rounds, plus the
  // rolling attention input the next round's exports derive from.
  struct Building {
    ShardSlotContext ctx;
    tensor::Tensor pcg_in_rows;
    int next_layer = 0;
  };

  // Fetches and checks the live snapshot for a round: version must match
  // the registry and the config must be the shardable configuration.
  Result<std::shared_ptr<const ModelSnapshot>> RoundSnapshot(uint64_t version);
  // The (slot, version) build in progress, or a typed error.
  Result<Building*> FindBuild(int slot, uint64_t version);

  const int shard_;
  const std::vector<int> owned_;  // global ids, ascending
  const std::vector<int> owner_;  // global id -> owning shard (fleet-wide)
  std::vector<int> row_of_;       // global -> local row, -1 if remote
  ModelRegistry* const registry_;
  FeatureRing* const ring_;

  // Finished contexts, invalidated via RingListener like the local engine's
  // staged-forward cache.
  SlotCacheT<ShardSlotContext> cache_;

  // In-progress builds, keyed (slot, version). Bounded: superseded versions
  // are dropped eagerly, and at most a handful of slots build concurrently.
  std::map<std::pair<int, uint64_t>, std::unique_ptr<Building>> builds_;

  // Serialises model execution (rounds and per-batch replays alike): the
  // kernels inside one stage already fan out on the shared pool. Also
  // guards builds_.
  std::mutex exec_mu_;
};

}  // namespace stgnn::serve

#endif  // STGNN_SERVE_SHARD_ENGINE_H_
