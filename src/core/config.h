#ifndef STGNN_CORE_CONFIG_H_
#define STGNN_CORE_CONFIG_H_

#include <cstdint>
#include <string>

#include "tensor/precision.h"

namespace stgnn::core {

// Aggregation function used inside each of the two graph branches. The
// paper's model uses kFlow on the FCG and kAttention on the PCG; kMean and
// kMax exist for the aggregator studies (Figs. 5 and 6).
enum class Aggregator {
  kFlow,       // Eq. (14): flow-weighted sum (FCG only)
  kAttention,  // Eq. (15)-(18): multi-head attention (PCG only)
  kMean,
  kMax,
};

const char* AggregatorToString(Aggregator aggregator);

// Default for StgnnConfig::sparse_density_threshold: the
// STGNN_SPARSE_DENSITY environment variable when set (0 disables the
// sparse path, 1 forces it for any FCG), else 0.25 — around where the
// bench_baseline density sweep puts the sparse-vs-dense crossover for the
// CSR aggregation kernels.
float DefaultSparseDensityThreshold();

// Default for StgnnConfig::buffer_pool: the STGNN_BUFFER_POOL environment
// variable (0/false/off disables), else true.
bool DefaultBufferPoolEnabled();

// Default for StgnnConfig::serve_cache: the STGNN_SERVE_CACHE environment
// variable (0/false/off disables), else true.
bool DefaultServeCacheEnabled();

// Default for StgnnConfig::infer_precision: the STGNN_INFER_PRECISION
// environment variable (fp32|int8; unknown values warn and fall back),
// else fp32.
tensor::Precision DefaultInferPrecision();

// Ablation switches matching the paper's "design variations" (Fig. 4).
struct AblationFlags {
  bool use_flow_convolution = true;  // "No FC" when false: node features are
                                     // free learnable parameters
  bool use_fcg = true;               // "No FCG"
  bool use_pcg = true;               // "No PCG"
};

// Hyperparameters of STGNN-DJD. Defaults follow Section VII-C of the paper.
struct StgnnConfig {
  int short_term_slots = 96;  // k: previous slots for short-term dependency
  int long_term_days = 7;     // d: same slot of the previous d days
  int fcg_layers = 2;
  int pcg_layers = 3;
  int attention_heads = 4;    // m
  float dropout = 0.2f;
  float learning_rate = 0.01f;
  int batch_size = 32;
  int epochs = 6;
  // Caps the number of training samples drawn per epoch (0 = use all). The
  // paper trains on a GPU; this keeps CPU training inside a time budget
  // without changing the model.
  int max_samples_per_epoch = 0;
  float grad_clip_norm = 5.0f;
  // Flow inputs are scaled by input_scale_multiplier / max_train_flow; >1
  // lifts the typical (sparse, small) flow entries into a range where the
  // ReLU/ELU stacks receive usable signal.
  float input_scale_multiplier = 1.0f;
  uint64_t seed = 1;
  bool verbose = false;
  // Kernel thread count applied when Train/Predict runs (via
  // common::SetNumThreads). 0 keeps the global default (STGNN_NUM_THREADS
  // env var, else hardware concurrency); 1 forces the fully serial path.
  int num_threads = 0;
  // FCG aggregation runs on the sparse CSR kernels when the slot's edge
  // density (edges / n², self-loops included) is strictly below this, and
  // on the dense kernels otherwise. Both paths are bit-identical, so the
  // threshold is purely a performance knob. Defaults to 0.25, overridable
  // with the STGNN_SPARSE_DENSITY environment variable; <= 0 disables the
  // sparse path entirely.
  float sparse_density_threshold = DefaultSparseDensityThreshold();
  // Routes tensor storage through the process-wide buffer pool
  // (common::BufferPool) while Train/Predict runs, so a steady-state
  // training step performs (near-)zero fresh heap allocations. Both modes
  // are bit-identical; this is purely a performance knob. Defaults to on,
  // overridable with the STGNN_BUFFER_POOL environment variable.
  bool buffer_pool = DefaultBufferPoolEnabled();
  // Enables the serving-side slot cache (serve::SlotCache): the
  // PredictionService memoises the assembled window, flow-convolution
  // embeddings, and FCG pattern per (slot, snapshot version) and replays
  // only the staged forward tail across request batches on the same slot.
  // Cached and cold serving paths are bit-identical, so this is purely a
  // performance knob. Defaults to on, overridable with the
  // STGNN_SERVE_CACHE environment variable.
  bool serve_cache = DefaultServeCacheEnabled();
  // Weight precision for the *inference* forward (PredictionService and
  // StgnnDjdPredictor::Predict/PredictHorizon). fp32 is the bit-exact
  // default; int8 snapshots eligible weights at reduced precision for a
  // faster, smaller serving path gated by an RMSE-delta regression
  // (tests/quantize_test.cc), not bitwise parity. Training always runs
  // fp32 regardless of this knob. Defaults from STGNN_INFER_PRECISION.
  tensor::Precision infer_precision = DefaultInferPrecision();
  // Prediction horizon in slots. 1 reproduces the paper's setting; larger
  // values implement the multi-step extension sketched in the paper's
  // future work (Section IX): the output layer emits
  // (x̂^t..x̂^{t+h-1}, ŷ^t..ŷ^{t+h-1}) jointly.
  int horizon = 1;

  // Implementation-choice ablations (DESIGN.md §6, items 3 and 6). These
  // are engineering choices of this reproduction, not paper variants; the
  // ablation_impl_choices bench quantifies them.
  bool aggregator_self_term = true;   // include {F_i} in the aggregate
  bool near_identity_init = true;     // I + noise init for square mixers

  Aggregator fcg_aggregator = Aggregator::kFlow;
  Aggregator pcg_aggregator = Aggregator::kAttention;
  AblationFlags ablation;

  // Human-readable tag for result tables.
  std::string DescribeVariant() const;
};

}  // namespace stgnn::core

#endif  // STGNN_CORE_CONFIG_H_
