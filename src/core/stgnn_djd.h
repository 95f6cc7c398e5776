#ifndef STGNN_CORE_STGNN_DJD_H_
#define STGNN_CORE_STGNN_DJD_H_

#include <memory>
#include <vector>

#include "autograd/inference_precision.h"
#include "core/aggregators.h"
#include "core/config.h"
#include "core/flow_convolution.h"
#include "core/graph_generator.h"
#include "data/flow_dataset.h"
#include "eval/predictor.h"
#include "nn/linear.h"

namespace stgnn::core {

// Stack of GNN layers over the flow-convoluted graph, with the aggregator
// selected by configuration (flow for the paper's model; mean/max for the
// Fig. 5 study). When the slot's edge density is strictly below
// `sparse_density_threshold`, aggregation dispatches to the CSR kernels
// (bit-identical to the dense path); <= 0 disables the sparse path.
class FcgBranch : public nn::Module {
 public:
  FcgBranch(int feature_dim, int num_layers, Aggregator aggregator,
            common::Rng* rng, bool self_term = true,
            bool near_identity = true,
            float sparse_density_threshold = 0.0f);

  autograd::Variable Forward(const autograd::Variable& features,
                             const FlowConvolutedGraph& graph) const;

  // True when the layers aggregate `graph` through its CSR view rather
  // than the dense kernels. One decision per slot covers all layers.
  bool DispatchesSparse(const FlowConvolutedGraph& graph) const;

  int num_flow_layers() const { return static_cast<int>(flow_layers_.size()); }
  const FlowGnnLayer& flow_layer(int i) const { return *flow_layers_[i]; }

 private:
  Aggregator aggregator_;
  float sparse_density_threshold_;
  std::vector<std::unique_ptr<FlowGnnLayer>> flow_layers_;
  std::vector<std::unique_ptr<MeanGnnLayer>> mean_layers_;
  std::vector<std::unique_ptr<MaxGnnLayer>> max_layers_;
};

// Stack of GNN layers over the (dense) pattern correlation graph, with the
// aggregator selected by configuration (attention for the paper's model;
// mean/max for the Fig. 6 study).
class PcgBranch : public nn::Module {
 public:
  PcgBranch(int feature_dim, int num_layers, int num_heads,
            Aggregator aggregator, common::Rng* rng, bool self_term = true,
            bool near_identity = true);

  autograd::Variable Forward(const autograd::Variable& features) const;

  Aggregator aggregator() const { return aggregator_; }
  int num_attention_layers() const {
    return static_cast<int>(attention_layers_.size());
  }
  const AttentionGnnLayer& attention_layer(int i) const {
    return *attention_layers_[i];
  }

 private:
  int feature_dim_;
  Aggregator aggregator_;
  std::vector<std::unique_ptr<AttentionGnnLayer>> attention_layers_;
  std::vector<std::unique_ptr<MeanGnnLayer>> mean_layers_;
  std::vector<std::unique_ptr<MaxGnnLayer>> max_layers_;
};

// The STGNN-DJD network (paper Sections IV-VI): flow convolution for node
// features, FCG + PCG graph branches, and the joint demand/supply linear
// predictor. One Forward processes one time slot.
//
// The forward pass is split into explicitly cacheable stages:
//   1. window assembly (the caller's StHistory),
//   2. flow-convolution embeddings (ComputeEmbeddings),
//   3. the per-slot FCG — pattern + differentiable weights (BuildGraph),
//   4. GNN branches + attention + fusion head (ForwardFromStages).
// Each stage is a pure function of its inputs, so the serving runtime can
// memoise any prefix per (slot, model snapshot) and replay only the tail.
// Forward composes exactly these stages, and inference ops are identical on
// both paths, so a staged replay is bit-identical to the monolithic call
// (pinned by tests/staged_forward_test.cc).
class StgnnDjdModel : public nn::Module {
 public:
  // `rng` draws the initial weights; a null rng builds the shapes only
  // (every parameter zero), for callers that overwrite every value.
  StgnnDjdModel(int num_stations, const StgnnConfig& config,
                common::Rng* rng);

  // A new model with this one's station count, config and parameter
  // values. Builds the module tree from a null rng, so no random init is
  // drawn only to be overwritten.
  std::unique_ptr<StgnnDjdModel> Clone() const;

  // Returns the [n, 2] normalised demand/supply prediction for the slot
  // whose history is given. `dropout_rng` is only used when training.
  // With training=false the forward runs without an autograd tape
  // (autograd::NoTapeScope): the result carries only its value and cannot
  // be differentiated. Differentiate a dropout-free forward by passing
  // training=true with config().dropout == 0, which is the same arithmetic.
  autograd::Variable Forward(const data::StHistory& history, bool training,
                             common::Rng* dropout_rng) const;

  // Stages 2-4 below are inference only and run without a tape too. None
  // of the forwards writes to the model, so any number may run at once on
  // one shared const model.

  // Stage 2 output captured as plain value tensors — the representation a
  // serving cache stores (no autograd graph retained).
  struct Embeddings {
    tensor::Tensor node_features;     // T, [n, n]
    tensor::Tensor temporal_inflow;   // Î, [n, n]
    tensor::Tensor temporal_outflow;  // Ô, [n, n]
  };

  // Stage 2: runs the flow-convolution stage (or its No-FC fallback) in
  // inference mode and returns the embedding values.
  Embeddings ComputeEmbeddings(const data::StHistory& history) const;

  // Stage 3: builds the slot's FCG (pattern + Eq. (10) weights) from cached
  // embeddings. Only valid when the model has an FCG branch (uses_fcg()).
  FlowConvolutedGraph BuildGraph(const Embeddings& embeddings) const;

  // Stage 4: GNN branches + fusion head from cached stage outputs,
  // inference only. `graph` must be non-null iff uses_fcg(). Bit-identical
  // to Forward(history, /*training=*/false, nullptr).value() when the
  // stages were computed from the same history by this model.
  tensor::Tensor ForwardFromStages(const Embeddings& embeddings,
                                   const FlowConvolutedGraph* graph) const;

  bool uses_fcg() const { return config_.ablation.use_fcg; }

  // Snapshots every eligible 2-D weight at the given precision for the
  // inference-only quantized forward (autograd::QuantizedInferenceScope).
  // `learned_features` is excluded: in the No-FC variant it flows through
  // the graph as node *features*, not as a weight operand, and quantizing
  // it would break staged-vs-monolithic forward parity. Weights that are
  // never a MatMul right operand are excluded too, since their int8 copy
  // would never be read: the attention W8_u (the folded Eq. (11) only
  // multiplies them into the [f, 1] score vectors), the flow-convolution
  // biases b1-b4 (added, Eq. (1)-(4)) and the gate weights W5/W6 (the left
  // operand of Eq. (5)-(8)). Returns null for fp32. The set aliases
  // this model's current weight values; rebuild it after any parameter
  // update.
  std::shared_ptr<const autograd::QuantizedWeightSet> QuantizeWeights(
      tensor::Precision precision) const;

  // Eq. (19)-(20) for any station rows: the rows' branch embeddings (FCG
  // first, as the config enables them), concatenated, through dropout and
  // the joint demand/supply head. Normalised, [rows, 2*horizon].
  autograd::Variable Head(const std::vector<autograd::Variable>& branches,
                          bool training, common::Rng* dropout_rng) const;

  int num_stations() const { return num_stations_; }
  const StgnnConfig& config() const { return config_; }

  // Component access for callers that run a component, or its steps over
  // a subset of station rows, on its own (the sharded serving fleet, the
  // stage benchmarks). Null when the matching ablation disables it.
  const FlowConvolution* flow_convolution() const {
    return flow_convolution_.get();
  }
  const FcgBranch* fcg_branch() const { return fcg_branch_.get(); }
  const PcgBranch* pcg_branch() const { return pcg_branch_.get(); }

 private:
  // Stage 2 with the autograd graph attached (training path).
  struct FlowStage {
    autograd::Variable node_features;
    autograd::Variable temporal_inflow;
    autograd::Variable temporal_outflow;
  };
  FlowStage RunFlowStage(const data::StHistory& history) const;
  // Stage 4 on Variables: `features` is the (post-dropout) node features.
  autograd::Variable RunHead(const autograd::Variable& features,
                             const FlowConvolutedGraph* graph, bool training,
                             common::Rng* dropout_rng) const;

  int num_stations_;
  StgnnConfig config_;
  std::unique_ptr<FlowConvolution> flow_convolution_;  // null when No-FC
  autograd::Variable learned_features_;                // used when No-FC
  std::unique_ptr<FcgBranch> fcg_branch_;              // null when No-FCG
  std::unique_ptr<PcgBranch> pcg_branch_;              // null when No-PCG
  std::unique_ptr<nn::Linear> output_layer_;           // Eq. (20)
};

// eval::Predictor wrapper: owns the model, normaliser, and training loop
// (Adam on the joint RMSE loss of Eq. (21)).
class StgnnDjdPredictor : public eval::Predictor {
 public:
  explicit StgnnDjdPredictor(StgnnConfig config);
  ~StgnnDjdPredictor() override;

  std::string name() const override;
  void Train(const data::FlowDataset& flow) override;
  tensor::Tensor Predict(const data::FlowDataset& flow, int t) override;

  // Multi-step prediction (paper Section IX future work): the [n, 2*h]
  // matrix of demand (first h columns) and supply (last h columns) for
  // slots t..t+h-1, where h = config.horizon. Predict() returns the first
  // step of this output.
  tensor::Tensor PredictHorizon(const data::FlowDataset& flow, int t);

  // First slot this model can predict for the given dataset.
  int MinHistorySlots(const data::FlowDataset& flow) const;

  // Case-study hook: per-head attention of the first PCG layer at slot t
  // (the softmaxes an inference forward aggregates with); empty when the
  // PCG branch is absent or not attention-aggregated.
  std::vector<tensor::Tensor> PcgAttentionAt(const data::FlowDataset& flow,
                                             int t);

  const StgnnConfig& config() const { return config_; }
  const StgnnDjdModel* model() const { return model_.get(); }

 private:
  data::StHistory HistoryAt(const data::FlowDataset& flow, int t) const;

  StgnnConfig config_;
  std::unique_ptr<StgnnDjdModel> model_;
  std::unique_ptr<data::MinMaxNormalizer> normalizer_;
  std::unique_ptr<common::Rng> dropout_rng_;
  float input_scale_ = 1.0f;
  // Lazily-built quantized weight snapshot for Predict/PredictHorizon when
  // config_.infer_precision != fp32. Reset by Train (weights change).
  std::shared_ptr<const autograd::QuantizedWeightSet> quantized_;
};

}  // namespace stgnn::core

#endif  // STGNN_CORE_STGNN_DJD_H_
