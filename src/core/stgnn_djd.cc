#include "core/stgnn_djd.h"

#include <algorithm>
#include <cmath>

#include "common/buffer_pool.h"
#include "common/counters.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "data/window.h"
#include "nn/init.h"
#include "nn/loss.h"
#include "nn/optimizer.h"

namespace stgnn::core {

using autograd::Variable;
namespace ag = stgnn::autograd;
using tensor::Tensor;

FcgBranch::FcgBranch(int feature_dim, int num_layers, Aggregator aggregator,
                     common::Rng* rng, bool self_term, bool near_identity,
                     float sparse_density_threshold)
    : aggregator_(aggregator),
      sparse_density_threshold_(sparse_density_threshold) {
  STGNN_CHECK_GT(num_layers, 0);
  STGNN_CHECK(aggregator != Aggregator::kAttention)
      << "attention aggregator belongs to the PCG branch";
  for (int i = 0; i < num_layers; ++i) {
    switch (aggregator_) {
      case Aggregator::kFlow:
        flow_layers_.push_back(std::make_unique<FlowGnnLayer>(
            feature_dim, rng, self_term, near_identity));
        RegisterSubmodule(flow_layers_.back().get());
        break;
      case Aggregator::kMean:
        mean_layers_.push_back(std::make_unique<MeanGnnLayer>(feature_dim, rng));
        RegisterSubmodule(mean_layers_.back().get());
        break;
      case Aggregator::kMax:
        max_layers_.push_back(std::make_unique<MaxGnnLayer>(feature_dim, rng));
        RegisterSubmodule(max_layers_.back().get());
        break;
      case Aggregator::kAttention:
        break;
    }
  }
}

Variable FcgBranch::Forward(const Variable& features,
                            const FlowConvolutedGraph& graph) const {
  // One density check covers all K layers: the CSR view is built once per
  // slot by BuildFlowConvolutedGraph and shared here. Null `pattern` keeps
  // every layer on the dense kernels.
  const bool sparse =
      graph.edge_csr != nullptr &&
      graph.edge_csr->density() < sparse_density_threshold_;
  const std::shared_ptr<const tensor::Csr> pattern =
      sparse ? graph.edge_csr : nullptr;
  Variable h = features;
  switch (aggregator_) {
    case Aggregator::kFlow:
      for (const auto& layer : flow_layers_) {
        h = layer->Forward(h, graph.weights, pattern);
      }
      break;
    case Aggregator::kMean:
      for (const auto& layer : mean_layers_) {
        h = layer->Forward(h, graph.edge_mask, pattern);
      }
      break;
    case Aggregator::kMax:
      for (const auto& layer : max_layers_) {
        h = layer->Forward(h, graph.edge_mask, pattern);
      }
      break;
    case Aggregator::kAttention:
      STGNN_CHECK(false);
  }
  return h;
}

PcgBranch::PcgBranch(int feature_dim, int num_layers, int num_heads,
                     Aggregator aggregator, common::Rng* rng, bool self_term,
                     bool near_identity)
    : feature_dim_(feature_dim), aggregator_(aggregator) {
  STGNN_CHECK_GT(num_layers, 0);
  STGNN_CHECK(aggregator != Aggregator::kFlow)
      << "flow aggregator belongs to the FCG branch";
  for (int i = 0; i < num_layers; ++i) {
    switch (aggregator_) {
      case Aggregator::kAttention:
        attention_layers_.push_back(std::make_unique<AttentionGnnLayer>(
            feature_dim, num_heads, rng, self_term, near_identity));
        RegisterSubmodule(attention_layers_.back().get());
        break;
      case Aggregator::kMean:
        mean_layers_.push_back(std::make_unique<MeanGnnLayer>(feature_dim, rng));
        RegisterSubmodule(mean_layers_.back().get());
        break;
      case Aggregator::kMax:
        max_layers_.push_back(std::make_unique<MaxGnnLayer>(feature_dim, rng));
        RegisterSubmodule(max_layers_.back().get());
        break;
      case Aggregator::kFlow:
        break;
    }
  }
}

Variable PcgBranch::Forward(const Variable& features) const {
  Variable h = features;
  const Tensor& dense = DensePatternMask(feature_dim_);
  switch (aggregator_) {
    case Aggregator::kAttention:
      for (const auto& layer : attention_layers_) h = layer->Forward(h);
      break;
    case Aggregator::kMean:
      for (const auto& layer : mean_layers_) h = layer->Forward(h, dense);
      break;
    case Aggregator::kMax:
      for (const auto& layer : max_layers_) h = layer->Forward(h, dense);
      break;
    case Aggregator::kFlow:
      STGNN_CHECK(false);
  }
  return h;
}

StgnnDjdModel::StgnnDjdModel(int num_stations, const StgnnConfig& config,
                             common::Rng* rng)
    : num_stations_(num_stations), config_(config) {
  STGNN_CHECK_GT(num_stations, 0);
  STGNN_CHECK(config.ablation.use_fcg || config.ablation.use_pcg)
      << "at least one graph branch is required";
  const int n = num_stations;
  if (config_.ablation.use_flow_convolution) {
    flow_convolution_ = std::make_unique<FlowConvolution>(
        n, config_.short_term_slots, config_.long_term_days, rng);
    RegisterSubmodule(flow_convolution_.get());
  } else {
    learned_features_ =
        RegisterParameter("learned_features", nn::XavierUniform2d(n, n, rng));
  }
  if (config_.ablation.use_fcg) {
    fcg_branch_ = std::make_unique<FcgBranch>(
        n, config_.fcg_layers, config_.fcg_aggregator, rng,
        config_.aggregator_self_term, config_.near_identity_init,
        config_.sparse_density_threshold);
    RegisterSubmodule(fcg_branch_.get());
  }
  if (config_.ablation.use_pcg) {
    pcg_branch_ = std::make_unique<PcgBranch>(
        n, config_.pcg_layers, config_.attention_heads,
        config_.pcg_aggregator, rng, config_.aggregator_self_term,
        config_.near_identity_init);
    RegisterSubmodule(pcg_branch_.get());
  }
  const int branches = (config_.ablation.use_fcg ? 1 : 0) +
                       (config_.ablation.use_pcg ? 1 : 0);
  STGNN_CHECK_GE(config_.horizon, 1);
  output_layer_ =
      std::make_unique<nn::Linear>(branches * n, 2 * config_.horizon, rng);
  RegisterSubmodule(output_layer_.get());
}

std::unique_ptr<StgnnDjdModel> StgnnDjdModel::Clone() const {
  STGNN_TRACE_SCOPE("StgnnDjd.Clone");
  auto copy = std::make_unique<StgnnDjdModel>(num_stations_, config_,
                                              /*rng=*/nullptr);
  auto dst = copy->parameters();
  const auto src = parameters();
  STGNN_CHECK_EQ(dst.size(), src.size());
  for (size_t i = 0; i < dst.size(); ++i) dst[i].SetValue(src[i].value());
  return copy;
}

StgnnDjdModel::FlowStage StgnnDjdModel::RunFlowStage(
    const data::StHistory& history) const {
  const int n = num_stations_;
  FlowStage stage;
  if (config_.ablation.use_flow_convolution) {
    FlowConvolution::Output conv = flow_convolution_->Forward(history);
    stage.node_features = conv.node_features;
    stage.temporal_inflow = conv.temporal_inflow;
    stage.temporal_outflow = conv.temporal_outflow;
  } else {
    // No-FC ablation: free learnable node features; FCG edges fall back to
    // the (un-learned) mean of the short-term flow history.
    stage.node_features = learned_features_;
    Tensor mean_in({n, n});
    Tensor mean_out({n, n});
    const int k = history.inflow_short.dim(0);
    for (int c = 0; c < k; ++c) {
      for (int i = 0; i < n; ++i) {
        for (int j = 0; j < n; ++j) {
          mean_in.at(i, j) += history.inflow_short.at(c, i * n + j) / k;
          mean_out.at(i, j) += history.outflow_short.at(c, i * n + j) / k;
        }
      }
    }
    stage.temporal_inflow = Variable::Constant(std::move(mean_in));
    stage.temporal_outflow = Variable::Constant(std::move(mean_out));
  }
  return stage;
}

Variable StgnnDjdModel::RunHead(const Variable& features,
                                const FlowConvolutedGraph* graph,
                                bool training,
                                common::Rng* dropout_rng) const {
  std::vector<Variable> branch_outputs;
  if (config_.ablation.use_fcg) {
    STGNN_CHECK(graph != nullptr);
    branch_outputs.push_back(fcg_branch_->Forward(features, *graph));
  }
  if (config_.ablation.use_pcg) {
    branch_outputs.push_back(pcg_branch_->Forward(features));
  }
  // Eq. (19): concatenate branch embeddings per station.
  Variable embedding = branch_outputs.size() == 1
                           ? branch_outputs[0]
                           : ag::Concat(branch_outputs, /*axis=*/1);
  embedding = ag::Dropout(embedding, config_.dropout, training, dropout_rng);
  // Eq. (20): joint demand/supply linear head.
  return output_layer_->Forward(embedding);
}

Variable StgnnDjdModel::Forward(const data::StHistory& history, bool training,
                                common::Rng* dropout_rng) const {
  STGNN_TRACE_SCOPE("StgnnDjd.Forward");
  STGNN_COUNTER_INC("model.forwards");
  const ag::NoTapeScope no_tape(/*enabled=*/!training);
  const FlowStage flow = RunFlowStage(history);
  const Variable features =
      ag::Dropout(flow.node_features, config_.dropout, training, dropout_rng);
  if (config_.ablation.use_fcg) {
    // The FCG is built from the post-dropout features (identity when not
    // training), matching the pre-split monolithic order.
    const FlowConvolutedGraph graph = BuildFlowConvolutedGraph(
        features, flow.temporal_inflow, flow.temporal_outflow);
    return RunHead(features, &graph, training, dropout_rng);
  }
  return RunHead(features, nullptr, training, dropout_rng);
}

StgnnDjdModel::Embeddings StgnnDjdModel::ComputeEmbeddings(
    const data::StHistory& history) const {
  STGNN_TRACE_SCOPE("StgnnDjd.ComputeEmbeddings");
  STGNN_COUNTER_INC("model.embedding_stages");
  const ag::NoTapeScope no_tape;
  const FlowStage flow = RunFlowStage(history);
  Embeddings embeddings;
  embeddings.node_features = flow.node_features.value();
  embeddings.temporal_inflow = flow.temporal_inflow.value();
  embeddings.temporal_outflow = flow.temporal_outflow.value();
  return embeddings;
}

FlowConvolutedGraph StgnnDjdModel::BuildGraph(
    const Embeddings& embeddings) const {
  STGNN_TRACE_SCOPE("StgnnDjd.BuildGraph");
  STGNN_CHECK(config_.ablation.use_fcg)
      << "BuildGraph on a No-FCG model";
  const ag::NoTapeScope no_tape;
  return BuildFlowConvolutedGraph(
      Variable::Constant(embeddings.node_features),
      Variable::Constant(embeddings.temporal_inflow),
      Variable::Constant(embeddings.temporal_outflow));
}

Tensor StgnnDjdModel::ForwardFromStages(
    const Embeddings& embeddings, const FlowConvolutedGraph* graph) const {
  STGNN_TRACE_SCOPE("StgnnDjd.ForwardFromStages");
  STGNN_COUNTER_INC("model.staged_forwards");
  STGNN_CHECK(config_.ablation.use_fcg == (graph != nullptr))
      << "graph must be supplied iff the model has an FCG branch";
  // Inference only: dropout is the identity when not training, so the head
  // sees exactly the cached stage-2 values — the staged replay is
  // bit-identical to Forward(history, false, nullptr).
  const ag::NoTapeScope no_tape;
  const Variable features = Variable::Constant(embeddings.node_features);
  return RunHead(features, graph, /*training=*/false, nullptr).value();
}

std::shared_ptr<const autograd::QuantizedWeightSet>
StgnnDjdModel::QuantizeWeights(tensor::Precision precision) const {
  std::vector<const autograd::Node*> exclude;
  for (const auto& [pname, p] : named_parameters()) {
    if (pname == "learned_features") exclude.push_back(p.node().get());
  }
  if (flow_convolution_) {
    const FlowConvolution& fc = *flow_convolution_;
    for (const autograd::Variable* p :
         {&fc.b1(), &fc.b2(), &fc.b3(), &fc.b4(), &fc.w5(), &fc.w6()}) {
      exclude.push_back(p->node().get());
    }
  }
  if (pcg_branch_) {
    for (int l = 0; l < pcg_branch_->num_attention_layers(); ++l) {
      const AttentionGnnLayer& layer = pcg_branch_->attention_layer(l);
      for (int u = 0; u < layer.num_heads(); ++u) {
        exclude.push_back(layer.w8(u).node().get());
      }
    }
  }
  return autograd::BuildQuantizedWeightSet(precision, parameters(), exclude);
}

StgnnDjdPredictor::StgnnDjdPredictor(StgnnConfig config)
    : config_(std::move(config)) {}

StgnnDjdPredictor::~StgnnDjdPredictor() = default;

std::string StgnnDjdPredictor::name() const {
  return config_.DescribeVariant();
}

int StgnnDjdPredictor::MinHistorySlots(const data::FlowDataset& flow) const {
  return flow.FirstPredictableSlot(config_.short_term_slots,
                                   config_.long_term_days);
}

data::StHistory StgnnDjdPredictor::HistoryAt(const data::FlowDataset& flow,
                                             int t) const {
  return data::BuildStHistory(flow, t, config_.short_term_slots,
                              config_.long_term_days, input_scale_);
}

void StgnnDjdPredictor::Train(const data::FlowDataset& flow) {
  STGNN_TRACE_SCOPE("Train");
  if (config_.num_threads > 0) common::SetNumThreads(config_.num_threads);
  common::BufferPool::Global()->SetEnabled(config_.buffer_pool);
  common::Rng rng(config_.seed);
  dropout_rng_ = std::make_unique<common::Rng>(rng.NextUint64());
  model_ = std::make_unique<StgnnDjdModel>(flow.num_stations, config_, &rng);
  // Any previous quantized snapshot refers to stale weights.
  quantized_.reset();
  normalizer_ = std::make_unique<data::MinMaxNormalizer>(
      data::MinMaxNormalizer::Fit(flow.demand, flow.supply, flow.train_end));
  input_scale_ = config_.input_scale_multiplier / flow.max_train_flow;

  const int first = MinHistorySlots(flow);
  STGNN_CHECK_LT(first, flow.train_end)
      << "not enough history in the training split (first predictable slot "
      << first << " >= train_end " << flow.train_end << ")";
  std::vector<int> train_slots;
  const int last_train = flow.train_end - config_.horizon + 1;
  for (int t = first; t < last_train; ++t) train_slots.push_back(t);

  // Validation slots for epoch snapshot selection (paper Section VII-C uses
  // the validation split for model selection). Subsampled for speed.
  std::vector<int> val_slots;
  for (int t = std::max(first, flow.train_end);
       t + config_.horizon <= flow.val_end; t += 4) {
    val_slots.push_back(t);
  }
  auto validation_rmse = [&]() {
    STGNN_TRACE_SCOPE("Validation");
    if (val_slots.empty()) return 0.0;
    double sum_sq = 0.0;
    int64_t count = 0;
    for (int t : val_slots) {
      const data::StHistory history = HistoryAt(flow, t);
      const Tensor pred =
          model_->Forward(history, /*training=*/false, nullptr).value();
      const Tensor target = normalizer_->Normalize(
          data::MultiStepTargetAt(flow, t, config_.horizon));
      for (int64_t i = 0; i < pred.size(); ++i) {
        const double err = pred.flat(i) - target.flat(i);
        sum_sq += err * err;
        ++count;
      }
    }
    return std::sqrt(sum_sq / count);
  };
  double best_val = 1e30;
  std::vector<Tensor> best_params;

  nn::Adam optimizer(model_->parameters(), config_.learning_rate);
  const int samples_per_epoch =
      config_.max_samples_per_epoch > 0
          ? std::min<int>(config_.max_samples_per_epoch,
                          static_cast<int>(train_slots.size()))
          : static_cast<int>(train_slots.size());

  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    STGNN_TRACE_SCOPE("Epoch");
    STGNN_COUNTER_INC("train.epochs");
    // Step decay keeps late epochs from bouncing around the optimum.
    if (epoch == config_.epochs * 3 / 5 || epoch == config_.epochs * 17 / 20) {
      optimizer.set_learning_rate(optimizer.learning_rate() * 0.5f);
    }
    const std::vector<int> perm =
        rng.Permutation(static_cast<int>(train_slots.size()));
    double epoch_loss = 0.0;
    int batches = 0;
    for (int begin = 0; begin < samples_per_epoch;
         begin += config_.batch_size) {
      const int end = std::min(begin + config_.batch_size, samples_per_epoch);
      Variable batch_loss;
      for (int s = begin; s < end; ++s) {
        const int t = train_slots[perm[s]];
        const data::StHistory history = HistoryAt(flow, t);
        Variable prediction =
            model_->Forward(history, /*training=*/true, dropout_rng_.get());
        Variable target = Variable::Constant(normalizer_->Normalize(
            data::MultiStepTargetAt(flow, t, config_.horizon)));
        Variable loss = nn::MultiStepJointLoss(prediction, target);
        batch_loss = batch_loss.defined() ? ag::Add(batch_loss, loss) : loss;
      }
      batch_loss = ag::MulScalar(batch_loss, 1.0f / (end - begin));
      model_->ZeroGrad();
      // Recycle interior graph buffers as each backward closure finishes;
      // only the loss value and parameter gradients are read afterwards.
      batch_loss.Backward({.release_graph = true});
      nn::ClipGradNorm(model_->parameters(), config_.grad_clip_norm);
      optimizer.Step();
      epoch_loss += batch_loss.value().item();
      ++batches;
    }
    const double val = validation_rmse();
    if (val < best_val) {
      best_val = val;
      best_params.clear();
      for (const auto& p : model_->parameters()) {
        best_params.push_back(p.value());
      }
    }
    if (config_.verbose && batches > 0) {
      std::fprintf(stderr, "[%s] epoch %d/%d loss %.4f val %.4f\n",
                   name().c_str(), epoch + 1, config_.epochs,
                   epoch_loss / batches, val);
    }
  }
  // Restore the best validation snapshot.
  if (!best_params.empty()) {
    auto params = model_->parameters();
    for (size_t i = 0; i < params.size(); ++i) {
      params[i].SetValue(best_params[i]);
    }
  }
}

Tensor StgnnDjdPredictor::PredictHorizon(const data::FlowDataset& flow,
                                         int t) {
  STGNN_CHECK(model_ != nullptr) << "Predict before Train";
  STGNN_CHECK_GE(t, MinHistorySlots(flow));
  if (config_.infer_precision != tensor::Precision::kFp32 && !quantized_) {
    quantized_ = model_->QuantizeWeights(config_.infer_precision);
  }
  const data::StHistory history = HistoryAt(flow, t);
  // Routes eligible weight matmuls through the quantized path for the
  // duration of this forward; a no-op for fp32 (quantized_ stays null).
  autograd::QuantizedInferenceScope scope(quantized_.get());
  const Variable prediction =
      model_->Forward(history, /*training=*/false, nullptr);
  Tensor out = normalizer_->Denormalize(prediction.value());
  // Bike counts cannot be negative.
  return tensor::Relu(out);
}

Tensor StgnnDjdPredictor::Predict(const data::FlowDataset& flow, int t) {
  const Tensor full = PredictHorizon(flow, t);
  if (config_.horizon == 1) return full;
  // Extract the first step: demand column 0 and supply column `horizon`.
  const int n = flow.num_stations;
  Tensor out({n, 2});
  for (int i = 0; i < n; ++i) {
    out.at(i, 0) = full.at(i, 0);
    out.at(i, 1) = full.at(i, config_.horizon);
  }
  return out;
}

std::vector<Tensor> StgnnDjdPredictor::PcgAttentionAt(
    const data::FlowDataset& flow, int t) {
  STGNN_CHECK(model_ != nullptr) << "PcgAttentionAt before Train";
  const PcgBranch* pcg = model_->pcg_branch();
  if (pcg == nullptr || pcg->num_attention_layers() == 0) return {};
  const ag::NoTapeScope no_tape;
  // The first PCG layer's input is the flow stage's node features
  // (inference dropout is the identity).
  const Variable features = Variable::Constant(
      model_->ComputeEmbeddings(HistoryAt(flow, t)).node_features);
  std::vector<Tensor> heads;
  for (const Variable& alpha : pcg->attention_layer(0).Attention(features)) {
    heads.push_back(alpha.value());
  }
  return heads;
}

}  // namespace stgnn::core
