#include "serve/shard_engine.h"

#include <algorithm>
#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>
#include <utility>

#include "common/counters.h"
#include "common/thread_pool.h"
#include "common/trace.h"

namespace stgnn::serve {

using tensor::Tensor;

namespace {

// The sharded staged forward mirrors the full paper pipeline; any ablated
// or swapped-aggregator config must be served unsharded instead.
Status CheckShardableConfig(const core::StgnnConfig& config) {
  if (!config.ablation.use_flow_convolution || !config.ablation.use_fcg ||
      !config.ablation.use_pcg ||
      config.fcg_aggregator != core::Aggregator::kFlow ||
      config.pcg_aggregator != core::Aggregator::kAttention) {
    return Status::FailedPrecondition(
        "sharded serving requires the full paper configuration (flow "
        "convolution + flow-aggregated FCG + attention-aggregated PCG)");
  }
  return Status::OK();
}

// Process-wide admission gate for per-batch replays. One replay already
// fans its kernels across the shared thread pool, so a K-shard fleet
// running K replays concurrently oversubscribes the cores and thrashes the
// cache for the replays' [n, f] working sets — measured ~10% aggregate
// throughput loss at K=4 — without adding any work rate. In-flight replays
// are therefore capped at the spare hardware parallelism: cores not already
// consumed by one replay's kernel fan-out.
// Build rounds are not gated; they run once per (slot, snapshot).
class ReplayGate {
 public:
  static ReplayGate* Global() {
    static ReplayGate* gate = new ReplayGate();
    return gate;
  }

  void Acquire() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return in_flight_ < slots_; });
    ++in_flight_;
  }

  void Release() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      --in_flight_;
    }
    cv_.notify_one();
  }

 private:
  ReplayGate() {
    const int cores = std::max(1u, std::thread::hardware_concurrency());
    slots_ = std::max(1, cores / std::max(1, common::GetNumThreads()));
  }

  std::mutex mu_;
  std::condition_variable cv_;
  int slots_ = 1;
  int in_flight_ = 0;
};

// RAII replay slot.
struct ReplayTicket {
  ReplayTicket() { ReplayGate::Global()->Acquire(); }
  ~ReplayTicket() { ReplayGate::Global()->Release(); }
  ReplayTicket(const ReplayTicket&) = delete;
  ReplayTicket& operator=(const ReplayTicket&) = delete;
};

}  // namespace

ShardEngine::ShardEngine(int shard, const graph::Partition& partition,
                         ModelRegistry* registry, FeatureRing* ring,
                         size_t cache_capacity)
    : shard_(shard),
      owned_(partition.owned[shard]),
      owner_(partition.owner),
      registry_(registry),
      ring_(ring),
      cache_(cache_capacity) {
  STGNN_CHECK(registry_ != nullptr);
  STGNN_CHECK(ring_ != nullptr);
  STGNN_CHECK_GE(shard_, 0);
  STGNN_CHECK_LT(shard_, partition.num_shards);
  STGNN_CHECK_EQ(partition.num_stations, ring_->num_stations());
  STGNN_CHECK(ring_->owned_rows() == owned_)
      << "shard " << shard_ << " ring must own exactly the partition's rows";
  row_of_.assign(partition.num_stations, -1);
  for (size_t i = 0; i < owned_.size(); ++i) {
    row_of_[owned_[i]] = static_cast<int>(i);
  }
  ring_->SetListener(&cache_);
}

ShardEngine::~ShardEngine() { ring_->SetListener(nullptr); }

Result<std::shared_ptr<const ModelSnapshot>> ShardEngine::RoundSnapshot(
    uint64_t version) {
  std::shared_ptr<const ModelSnapshot> snapshot = registry_->Current();
  if (snapshot == nullptr) {
    return Status::FailedPrecondition("no model published");
  }
  if (snapshot->version != version) {
    return Status::FailedPrecondition(
        "stale shard version: build targets v" + std::to_string(version) +
        " but shard " + std::to_string(shard_) + " serves v" +
        std::to_string(snapshot->version));
  }
  Status window = ValidateSnapshotWindow(*snapshot, *ring_);
  if (!window.ok()) return window;
  Status shardable = CheckShardableConfig(snapshot->config);
  if (!shardable.ok()) return shardable;
  return snapshot;
}

Result<ShardEngine::Building*> ShardEngine::FindBuild(int slot,
                                                      uint64_t version) {
  auto it = builds_.find({slot, version});
  if (it == builds_.end()) {
    return Status::FailedPrecondition(
        "no shard context build in progress for slot " + std::to_string(slot) +
        " v" + std::to_string(version) + " on shard " + std::to_string(shard_));
  }
  return it->second.get();
}

Result<core::ShardConvRows> ShardEngine::ConvRows(int slot, uint64_t version) {
  STGNN_TRACE_SCOPE("Shard.ConvRows");
  Result<std::shared_ptr<const ModelSnapshot>> snapshot =
      RoundSnapshot(version);
  if (!snapshot.ok()) return snapshot.status();
  Result<data::StHistory> history = ring_->History(slot);
  if (!history.ok()) return history.status();

  std::lock_guard<std::mutex> lock(exec_mu_);
  // Drop superseded builds eagerly; their coordinator died or restarted.
  for (auto it = builds_.begin(); it != builds_.end();) {
    it = it->first.second != version ? builds_.erase(it) : std::next(it);
  }
  // Restarting the same (slot, version) build is idempotent.
  auto build = std::make_unique<Building>();
  build->ctx.slot = slot;
  build->ctx.model_version = version;
  build->ctx.snapshot = *snapshot;

  const autograd::NoTapeScope no_tape;
  autograd::QuantizedInferenceScope quant_scope(
      (*snapshot)->quantized.get());
  core::ShardConvRows rows = core::ComputeShardConvRows(
      *(*snapshot)->model->flow_convolution(), *history, owned_);
  builds_[{slot, version}] = std::move(build);
  return rows;
}

Result<core::ShardFusedRows> ShardEngine::FuseRows(
    int slot, uint64_t version, const Tensor& inflow_short_full,
    const Tensor& outflow_short_full, const Tensor& inflow_long_full,
    const Tensor& outflow_long_full) {
  STGNN_TRACE_SCOPE("Shard.FuseRows");
  Result<std::shared_ptr<const ModelSnapshot>> snapshot =
      RoundSnapshot(version);
  if (!snapshot.ok()) return snapshot.status();

  std::lock_guard<std::mutex> lock(exec_mu_);
  Result<Building*> build = FindBuild(slot, version);
  if (!build.ok()) return build.status();

  const autograd::NoTapeScope no_tape;
  autograd::QuantizedInferenceScope quant_scope(
      (*snapshot)->quantized.get());
  return core::ComputeShardFusedRows(
      *(*snapshot)->model->flow_convolution(), owned_, inflow_short_full,
      outflow_short_full, inflow_long_full, outflow_long_full);
}

Result<core::PcgHeadExports> ShardEngine::BuildLocal(
    int slot, uint64_t version, const Tensor& temporal_inflow_full,
    const Tensor& temporal_outflow_full, const Tensor& node_features_full) {
  STGNN_TRACE_SCOPE("Shard.BuildLocal");
  Result<std::shared_ptr<const ModelSnapshot>> snapshot =
      RoundSnapshot(version);
  if (!snapshot.ok()) return snapshot.status();
  const core::StgnnDjdModel& model = *(*snapshot)->model;

  std::lock_guard<std::mutex> lock(exec_mu_);
  Result<Building*> found = FindBuild(slot, version);
  if (!found.ok()) return found.status();
  Building* build = *found;

  const autograd::NoTapeScope no_tape;
  autograd::QuantizedInferenceScope quant_scope(
      (*snapshot)->quantized.get());

  // Every shard derives the identical graph from the identical assembled
  // embeddings — topology and Eq. (10) weights are deterministic — so the
  // graph itself never crosses the transport.
  core::StgnnDjdModel::Embeddings embeddings;
  embeddings.temporal_inflow = temporal_inflow_full;
  embeddings.temporal_outflow = temporal_outflow_full;
  embeddings.node_features = node_features_full;
  build->ctx.graph = model.BuildGraph(embeddings);
  build->ctx.has_graph = true;
  build->ctx.t_full = autograd::Variable::Constant(node_features_full);
  build->ctx.t_rows = core::GatherRows(node_features_full, owned_);
  build->ctx.halo_rows =
      core::CountHaloRows(*build->ctx.graph.edge_csr, owner_, shard_);
  STGNN_COUNTER_ADD("serve.shard.halo_rows",
                    static_cast<uint64_t>(build->ctx.halo_rows));

  const core::FcgBranch& fcg = *model.fcg_branch();
  build->ctx.sparse_fcg = core::FcgDispatchesSparse(fcg, build->ctx.graph);
  if (build->ctx.sparse_fcg) {
    build->ctx.fcg_plan = core::BuildFcgPlan(fcg, build->ctx.graph, owned_);
  } else {
    // Dense dispatch: the branch reads every row anyway, so each shard runs
    // the full dense forward once at build time and slices per batch —
    // deterministic, hence bitwise equal across shards and to unsharded.
    build->ctx.fcg_full =
        fcg.Forward(autograd::Variable::Constant(node_features_full),
                    build->ctx.graph)
            .value();
  }

  build->pcg_in_rows = build->ctx.t_rows;
  build->next_layer = 0;
  return core::ComputePcgExports(model.pcg_branch()->attention_layer(0),
                                 build->pcg_in_rows);
}

Result<core::PcgHeadExports> ShardEngine::PcgLayer(
    int slot, uint64_t version, int layer, const core::PcgLayerHalo& halo) {
  STGNN_TRACE_SCOPE("Shard.PcgLayer");
  Result<std::shared_ptr<const ModelSnapshot>> snapshot =
      RoundSnapshot(version);
  if (!snapshot.ok()) return snapshot.status();
  const core::PcgBranch& pcg = *(*snapshot)->model->pcg_branch();

  std::lock_guard<std::mutex> lock(exec_mu_);
  Result<Building*> found = FindBuild(slot, version);
  if (!found.ok()) return found.status();
  Building* build = *found;
  if (layer != build->next_layer || layer >= pcg.num_attention_layers()) {
    return Status::InvalidArgument(
        "out-of-order PCG round: shard " + std::to_string(shard_) +
        " expects layer " + std::to_string(build->next_layer) + ", got " +
        std::to_string(layer));
  }

  const autograd::NoTapeScope no_tape;
  autograd::QuantizedInferenceScope quant_scope(
      (*snapshot)->quantized.get());
  build->ctx.pcg_halo.push_back(core::WrapHaloVars(halo));
  const int last = pcg.num_attention_layers() - 1;
  if (layer == last) {
    // Context complete: publish for Execute and return empty exports.
    auto ctx = std::make_shared<ShardSlotContext>(std::move(build->ctx));
    builds_.erase({slot, version});
    cache_.Insert(std::move(ctx));
    return core::PcgHeadExports{};
  }
  build->pcg_in_rows = core::ComputePcgLayerRows(
      pcg.attention_layer(layer), build->pcg_in_rows, owned_,
      build->ctx.pcg_halo.back());
  build->next_layer = layer + 1;
  return core::ComputePcgExports(pcg.attention_layer(layer + 1),
                                 build->pcg_in_rows);
}

Result<EngineOutput> ShardEngine::Execute(int slot) {
  const std::shared_ptr<const ModelSnapshot> snapshot = registry_->Current();
  if (snapshot == nullptr) {
    return Status::FailedPrecondition("no model published");
  }
  std::shared_ptr<const ShardSlotContext> ctx =
      cache_.Lookup(slot, snapshot->version);
  if (ctx == nullptr) {
    return Status::FailedPrecondition(
        "no shard context for slot " + std::to_string(slot) + " v" +
        std::to_string(snapshot->version) + " on shard " +
        std::to_string(shard_));
  }

  // Replays the owned-row head against the context's pinned snapshot (the
  // registry may already have moved on; the router rejects mixed-version
  // merges and retries, so serving the pinned version is safe and torn-free).
  const core::StgnnDjdModel& model = *ctx->snapshot->model;
  const autograd::NoTapeScope no_tape;
  autograd::QuantizedInferenceScope quant_scope(ctx->snapshot->quantized.get());
  if (ctx->snapshot->quantized != nullptr) {
    STGNN_COUNTER_INC("serve.quantized_batches");
  }

  EngineOutput output;
  output.model_version = ctx->model_version;
  output.registry = registry_;
  output.assembled = false;

  STGNN_TRACE_SCOPE("Shard.Forward");
  ReplayTicket ticket;
  std::lock_guard<std::mutex> lock(exec_mu_);
  Tensor fcg_rows =
      ctx->sparse_fcg
          ? core::ComputeFcgRowsSparse(*model.fcg_branch(), ctx->fcg_plan,
                                       ctx->t_full)
          : core::GatherRows(ctx->fcg_full, owned_);
  Tensor pcg_rows = ctx->t_rows;
  const core::PcgBranch& pcg = *model.pcg_branch();
  for (int l = 0; l < pcg.num_attention_layers(); ++l) {
    pcg_rows = core::ComputePcgLayerRows(pcg.attention_layer(l), pcg_rows,
                                         owned_, ctx->pcg_halo[l]);
  }
  const Tensor out = core::ComputeOutputRows(model, fcg_rows, pcg_rows);
  output.rows = tensor::Relu(ctx->snapshot->normalizer.Denormalize(out));
  return output;
}

}  // namespace stgnn::serve
