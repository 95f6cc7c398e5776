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
#include "core/graph_generator.h"
#include "core/stgnn_djd.h"
#include "tensor/csr.h"

namespace stgnn::serve {

using autograd::Variable;
using tensor::GatherRows;
using tensor::Tensor;

// Row-sliced execution (DESIGN.md §10). Every kernel accumulates each
// output element in a fixed order and vectorises only across independent
// outputs, so row r of MatMul(A, B) is bit-identical to row r of
// MatMul(A[rows], B); the same holds for SpMM, the per-row softmax, the
// broadcast Add and every elementwise op. The rounds and the replay below
// therefore run the model's own layer steps on the shard's rows, with the
// cross-shard terms ("halo") assembled by the coordinator, and get the
// unsharded forward's rows bit for bit. Under int8 too: the steps multiply
// against the model's own parameters, and activations quantize per row.

// Per-layer replay plan for the sparse FCG path: the transitive
// in-neighbour closure of the owned rows, walked backward from the last
// layer (layer l computes global rows plan[l].rows; self-loops make each
// set a superset of the next). Built once per (slot, snapshot).
struct FcgLayerPlan {
  std::vector<int> rows;  // global output rows of this layer, ascending
  std::shared_ptr<const tensor::Csr> sub_pattern;  // [rows.size(), n]
  // E_f values at `rows` as a constant graph leaf, [rows.size(), n]. Built
  // once so every replay shares the leaf instead of re-copying the slice.
  Variable weight_rows;
};

// One attention layer's assembled halo as constant leaves, built once per
// (slot, snapshot) and shared by every replay. Sharing is safe: the
// in-place autograd ops never steal a leaf's buffer.
struct PcgLayerHaloVars {
  std::vector<Variable> d_full;  // per head, [1, n]
  std::vector<Variable> v_full;  // per head, [n, f]
};

// The memoised stages the per-batch owned-row replay needs. Deliberately
// NOT the final predictions: Execute re-runs the owned-row head (FCG
// replay, attention layers, fusion head) per batch, so a K-shard fleet
// really does split the per-batch compute K ways instead of serving a
// precomputed answer.
struct ShardSlotContext {
  int slot = -1;
  uint64_t model_version = 0;
  // Pins the weights the context was built against across hot-swaps.
  std::shared_ptr<const ModelSnapshot> snapshot;
  // Assembled node features T (full, the FCG replay reads closure rows) as
  // a constant leaf shared by every replay, and the shard's own rows (the
  // first attention layer's input).
  Variable t_full;  // [n, f]
  Tensor t_rows;    // [o, f]
  // The slot's full FCG, derived locally from the assembled embeddings
  // (deterministic: every shard builds the identical graph).
  core::FlowConvolutedGraph graph;
  // FCG replay: the sparse per-layer plan, or, when the slot dispatches
  // dense (empty plan), the full branch output computed once at build and
  // sliced per batch.
  std::vector<FcgLayerPlan> fcg_plan;
  Tensor fcg_full;  // dense dispatch only, [n, f]
  // Per attention layer, the assembled halo the owned-row replay attends
  // over; a build expects the layer whose index is its size.
  std::vector<PcgLayerHaloVars> pcg_halo;
};

// A context under construction, plus the rolling attention input the next
// round's exports derive from.
struct ShardEngine::Building {
  ShardSlotContext ctx;
  Tensor pcg_in_rows;
};

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

// Rows `rows` of `full` as a constant leaf.
Variable Rows(const Tensor& full, const std::vector<int>& rows) {
  return Variable::Constant(GatherRows(full, rows));
}

std::vector<FcgLayerPlan> BuildFcgPlan(const core::FlowConvolutedGraph& graph,
                                       int layers,
                                       const std::vector<int>& owned) {
  STGNN_TRACE_SCOPE("Shard.FcgPlan");
  const int n = graph.edge_csr->cols();
  const auto& row_ptr = graph.edge_csr->row_ptr();
  const auto& col_idx = graph.edge_csr->col_idx();

  // Walk backward: the last layer emits the owned rows; each earlier layer
  // must emit every in-neighbour of the rows the next layer reads
  // (self-loops keep each set a superset of its successor).
  std::vector<std::vector<int>> rows_of(layers);
  rows_of[layers - 1] = owned;
  for (int l = layers - 1; l > 0; --l) {
    std::vector<char> needed(n, 0);
    for (int i : rows_of[l]) {
      for (int e = row_ptr[i]; e < row_ptr[i + 1]; ++e) needed[col_idx[e]] = 1;
      needed[i] = 1;
    }
    for (int j = 0; j < n; ++j) {
      if (needed[j]) rows_of[l - 1].push_back(j);
    }
  }

  std::vector<FcgLayerPlan> plan(layers);
  for (int l = 0; l < layers; ++l) {
    plan[l].rows = std::move(rows_of[l]);
    plan[l].sub_pattern = std::make_shared<const tensor::Csr>(
        tensor::Csr::FromDense(GatherRows(graph.edge_mask, plan[l].rows)));
    plan[l].weight_rows = Rows(graph.weights.value(), plan[l].rows);
  }
  return plan;
}

// The owned rows of the FCG branch output, [o, f]: each layer's Forward
// over the plan's rows. A layer's input holds valid data at (at least) the
// rows its sub-pattern reads; rows outside the closure stay zero and are
// never read. The first layer reads the context's shared leaf.
Tensor ReplayFcgRows(const core::FcgBranch& branch,
                     const std::vector<FcgLayerPlan>& plan,
                     const Variable& features_full) {
  STGNN_TRACE_SCOPE("Shard.FcgRows");
  STGNN_CHECK_EQ(static_cast<int>(plan.size()), branch.num_flow_layers());
  Variable x = features_full;
  Tensor h_rows;
  for (size_t l = 0; l < plan.size(); ++l) {
    const FcgLayerPlan& p = plan[l];
    const core::FlowGnnLayer& layer = branch.flow_layer(static_cast<int>(l));
    h_rows = layer
                 .Forward(x, p.weight_rows, p.sub_pattern,
                          layer.self_term() ? Rows(x.value(), p.rows)
                                            : Variable())
                 .value();
    if (l + 1 < plan.size()) {
      Tensor next(x.value().shape());
      tensor::ScatterRows(h_rows, p.rows, &next);
      x = Variable::Constant(std::move(next));
    }
  }
  return h_rows;
}

// Per head, the destination scores and values of one attention layer's
// input rows: the shard's part of the layer's halo.
PcgHeadExports ExportHeads(const core::AttentionGnnLayer& layer,
                           const Tensor& in_rows) {
  const Variable rows = Variable::Constant(in_rows);
  PcgHeadExports out;
  for (int u = 0; u < layer.num_heads(); ++u) {
    out.d.push_back(layer.DestScores(rows, u).value());  // [o, 1]
    out.v.push_back(layer.Values(rows, u).value());      // [o, f]
  }
  return out;
}

// One attention layer's output at the owned rows `owned`, [o, f]: the
// queries are the layer's input at those rows, and they attend over the
// assembled halo, whose value rows at `owned` are bitwise the shard's own
// values and so supply the self term.
Tensor AttendRows(const core::AttentionGnnLayer& layer, const Tensor& in_rows,
                  const std::vector<int>& owned,
                  const PcgLayerHaloVars& halo) {
  STGNN_TRACE_SCOPE("Shard.PcgRows");
  STGNN_CHECK_EQ(in_rows.dim(0), static_cast<int>(owned.size()));
  return layer
      .Attend(Variable::Constant(in_rows),
              [&](int u) {
                const Variable& values = halo.v_full[u];
                return core::AttentionGnnLayer::HeadInputs{
                    halo.d_full[u], values,
                    layer.self_term() ? Rows(values.value(), owned)
                                      : Variable()};
              })
      .value();
}

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

bool ShardEngine::HasContext(int slot, uint64_t version) {
  return cache_.Probe(slot, version);
}

Result<ShardConvRows> ShardEngine::ConvRows(int slot, uint64_t version) {
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
  // The shard ring's window holds only the owned rows' cells, so each
  // branch sees those rows of its bias.
  const core::FlowConvolution& fc = *(*snapshot)->model->flow_convolution();
  auto conv = [&](const Variable& weight, const Variable& bias,
                  const Tensor& cells) {
    return fc.ConvBranch(weight, Rows(bias.value(), owned_), cells).value();
  };
  builds_[{slot, version}] = std::move(build);
  return ShardConvRows{conv(fc.w1(), fc.b1(), (*history).inflow_short),
                       conv(fc.w2(), fc.b2(), (*history).outflow_short),
                       conv(fc.w3(), fc.b3(), (*history).inflow_long),
                       conv(fc.w4(), fc.b4(), (*history).outflow_long)};
}

Result<ShardFusedRows> ShardEngine::FuseRows(
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
  // The gate rows W[owned] · (S − L) need every station's conv row: that
  // is this round's halo. The blend reads only the owned rows.
  const core::FlowConvolution& fc = *(*snapshot)->model->flow_convolution();
  auto fuse = [&](const Variable& gate, const Tensor& short_full,
                  const Tensor& long_full) {
    return core::FlowConvolution::Fuse(
        Rows(gate.value(), owned_),
        Variable::Constant(tensor::Sub(short_full, long_full)),
        Rows(short_full, owned_), Rows(long_full, owned_));
  };
  const Variable inflow = fuse(fc.w5(), inflow_short_full, inflow_long_full);
  const Variable outflow =
      fuse(fc.w6(), outflow_short_full, outflow_long_full);
  return ShardFusedRows{inflow.value(), outflow.value(),
                        fc.Project(inflow, outflow).value()};
}

Result<PcgHeadExports> ShardEngine::BuildLocal(
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
  ShardSlotContext& ctx = build->ctx;

  const autograd::NoTapeScope no_tape;
  autograd::QuantizedInferenceScope quant_scope(
      (*snapshot)->quantized.get());

  // Every shard derives the identical graph from the identical assembled
  // embeddings — topology and Eq. (10) weights are deterministic — so the
  // graph itself never crosses the transport.
  ctx.graph = model.BuildGraph({.node_features = node_features_full,
                                 .temporal_inflow = temporal_inflow_full,
                                 .temporal_outflow = temporal_outflow_full});
  ctx.t_full = Variable::Constant(node_features_full);
  ctx.t_rows = GatherRows(node_features_full, owned_);
  // Distinct remote in-neighbour stations of this shard's FCG rows — the
  // rows a row-sliced transport would actually ship.
  STGNN_COUNTER_ADD("serve.shard.halo_rows",
                    static_cast<uint64_t>(core::CountHaloRows(
                        *ctx.graph.edge_csr, owner_, shard_)));

  const core::FcgBranch& fcg = *model.fcg_branch();
  if (fcg.DispatchesSparse(ctx.graph)) {
    ctx.fcg_plan = BuildFcgPlan(ctx.graph, fcg.num_flow_layers(), owned_);
  } else {
    // Dense dispatch: the branch reads every row anyway, so each shard runs
    // the full dense forward once at build time and slices per batch —
    // deterministic, hence bitwise equal across shards and to unsharded.
    ctx.fcg_full = fcg.Forward(ctx.t_full, ctx.graph).value();
  }

  build->pcg_in_rows = ctx.t_rows;
  return ExportHeads(model.pcg_branch()->attention_layer(0),
                     build->pcg_in_rows);
}

Result<PcgHeadExports> ShardEngine::PcgLayer(int slot, uint64_t version,
                                             int layer,
                                             const PcgLayerHalo& halo) {
  STGNN_TRACE_SCOPE("Shard.PcgLayer");
  Result<std::shared_ptr<const ModelSnapshot>> snapshot =
      RoundSnapshot(version);
  if (!snapshot.ok()) return snapshot.status();
  const core::PcgBranch& pcg = *(*snapshot)->model->pcg_branch();

  std::lock_guard<std::mutex> lock(exec_mu_);
  Result<Building*> found = FindBuild(slot, version);
  if (!found.ok()) return found.status();
  Building* build = *found;
  const int expected = static_cast<int>(build->ctx.pcg_halo.size());
  if (layer != expected || layer >= pcg.num_attention_layers()) {
    return Status::InvalidArgument(
        "out-of-order PCG round: shard " + std::to_string(shard_) +
        " expects layer " + std::to_string(expected) + ", got " +
        std::to_string(layer));
  }

  const autograd::NoTapeScope no_tape;
  autograd::QuantizedInferenceScope quant_scope(
      (*snapshot)->quantized.get());
  const int heads = pcg.attention_layer(layer).num_heads();
  STGNN_CHECK_EQ(static_cast<int>(halo.d_full.size()), heads);
  STGNN_CHECK_EQ(static_cast<int>(halo.v_full.size()), heads);
  PcgLayerHaloVars& vars = build->ctx.pcg_halo.emplace_back();
  for (int u = 0; u < heads; ++u) {
    vars.d_full.push_back(Variable::Constant(halo.d_full[u]));
    vars.v_full.push_back(Variable::Constant(halo.v_full[u]));
  }
  const int last = pcg.num_attention_layers() - 1;
  if (layer == last) {
    // Context complete: publish for Execute and return empty exports.
    auto ctx = std::make_shared<ShardSlotContext>(std::move(build->ctx));
    builds_.erase({slot, version});
    cache_.Insert(std::move(ctx));
    return PcgHeadExports{};
  }
  build->pcg_in_rows = AttendRows(pcg.attention_layer(layer),
                                  build->pcg_in_rows, owned_, vars);
  return ExportHeads(pcg.attention_layer(layer + 1), build->pcg_in_rows);
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
      ctx->fcg_plan.empty()
          ? GatherRows(ctx->fcg_full, owned_)
          : ReplayFcgRows(*model.fcg_branch(), ctx->fcg_plan, ctx->t_full);
  Tensor pcg_rows = ctx->t_rows;
  const core::PcgBranch& pcg = *model.pcg_branch();
  for (int l = 0; l < pcg.num_attention_layers(); ++l) {
    pcg_rows = AttendRows(pcg.attention_layer(l), pcg_rows, owned_,
                          ctx->pcg_halo[l]);
  }
  // Inference dropout is the identity; the head is Eq. (19)-(20) on the
  // owned rows, FCG branch first.
  const Tensor out =
      model
          .Head({Variable::Constant(std::move(fcg_rows)),
                 Variable::Constant(std::move(pcg_rows))},
                /*training=*/false, nullptr)
          .value();
  output.rows = tensor::Relu(ctx->snapshot->normalizer.Denormalize(out));
  return output;
}

}  // namespace stgnn::serve
