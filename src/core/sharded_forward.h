#ifndef STGNN_CORE_SHARDED_FORWARD_H_
#define STGNN_CORE_SHARDED_FORWARD_H_

#include <memory>
#include <vector>

#include "core/stgnn_djd.h"
#include "data/window.h"

// Row-sharded staged forward for the serving fleet (DESIGN.md §10).
//
// The model's station dimension shards cleanly: every kernel accumulates
// each output element in a fixed ascending order and vectorises only across
// independent outputs, so row r of MatMul(A, B) is bit-identical to row r
// of MatMul(A[rows], B) — and the same holds for SpMM (ascending stored
// entries), RowSoftmax (strictly per-row), the broadcast outer-sum Add, and
// every elementwise op. A shard that owns station rows O can therefore
// compute *its rows* of each stage and exchange only the cross-shard terms
// ("halo"), and the assembled result is bitwise equal to the unsharded
// forward. The functions here are those per-stage row computations; the
// exchange rounds live in serve/shard_engine.
//
// Quantized parity rides on one invariant: ag::MatMul dispatches to the
// int8 path iff the *B operand* is a registered parameter Variable, and
// activation quantisation is per-row. Every function below multiplies
// against the model's own parameter Variables (via the const accessors) so
// the registry resolves identically under a QuantizedInferenceScope, and
// A-side operands are the only things sliced.
//
// Stage order (one build per (slot, snapshot), see ShardEngine):
//   R1  ComputeShardConvRows     — conv rows from the shard's ring rows
//   R2  ComputeShardFusedRows    — gate + fusion rows from assembled convs
//   R3  full graph build (deterministic, every shard derives the same FCG
//       from the assembled embeddings) + BuildFcgPlan + first-layer
//       ComputePcgExports
//   R4+ per PCG layer: ComputePcgLayerRows from the assembled halo, then
//       ComputePcgExports of the next layer's input
// Per request batch the shard replays only the owned-row head:
// ComputeFcgRowsSparse (or a dense-fallback slice), ComputePcgLayerRows
// per layer, ComputeOutputRows.

namespace stgnn::core {

// Gathers rows `rows` of a 2-D tensor (plain copies, bit-exact).
tensor::Tensor GatherRows(const tensor::Tensor& src,
                          const std::vector<int>& rows);

// Scatters the rows of `src_rows` (one per entry of `rows`) into the
// matching rows of `*dst`.
void ScatterRows(const tensor::Tensor& src_rows, const std::vector<int>& rows,
                 tensor::Tensor* dst);

// Round-1 export: the shard's rows of the four 1x1-conv outputs. `history`
// is the shard ring's row-sliced window ([c, o*n] per tensor, rows in
// `owned` order); `owned` gives the global station ids.
struct ShardConvRows {
  tensor::Tensor inflow_short;   // [o, n]
  tensor::Tensor outflow_short;  // [o, n]
  tensor::Tensor inflow_long;    // [o, n]
  tensor::Tensor outflow_long;   // [o, n]
};
ShardConvRows ComputeShardConvRows(const FlowConvolution& fc,
                                   const data::StHistory& history,
                                   const std::vector<int>& owned);

// Round-2 export: the shard's rows of the fused temporal matrices and node
// features, from the *assembled* full conv matrices (the gate rows
// W5[owned] · IS need every station's conv row — this is the first halo).
struct ShardFusedRows {
  tensor::Tensor temporal_inflow;   // Î rows, [o, n]
  tensor::Tensor temporal_outflow;  // Ô rows, [o, n]
  tensor::Tensor node_features;     // T rows, [o, n]
};
ShardFusedRows ComputeShardFusedRows(const FlowConvolution& fc,
                                     const std::vector<int>& owned,
                                     const tensor::Tensor& inflow_short_full,
                                     const tensor::Tensor& outflow_short_full,
                                     const tensor::Tensor& inflow_long_full,
                                     const tensor::Tensor& outflow_long_full);

// Mirrors FcgBranch::Forward's per-slot dense/sparse dispatch decision.
bool FcgDispatchesSparse(const FcgBranch& branch,
                         const FlowConvolutedGraph& graph);

// Per-layer replay plan for the sparse FCG path: the transitive in-neighbour
// closure of the owned rows, walked backward from the last layer (layer
// plans[k] computes global rows plans[k].rows; self-loops make each set a
// superset of the next). Built once per (slot, snapshot).
struct FcgLayerPlan {
  std::vector<int> rows;  // global output rows of this layer, ascending
  std::shared_ptr<const tensor::Csr> sub_pattern;  // [rows.size(), n]
  // E_f values at `rows` as a constant graph leaf, [rows.size(), n]. Built
  // once so every replay shares the leaf instead of re-copying the slice.
  autograd::Variable weight_rows;
};
std::vector<FcgLayerPlan> BuildFcgPlan(const FcgBranch& branch,
                                       const FlowConvolutedGraph& graph,
                                       const std::vector<int>& owned);

// Sparse FCG replay: runs the plan over the full node features (valid at
// least at the closure rows) and returns the owned rows of the branch
// output, [o, n]. Requires the flow aggregator.
tensor::Tensor ComputeFcgRowsSparse(const FcgBranch& branch,
                                    const std::vector<FcgLayerPlan>& plan,
                                    const tensor::Tensor& features_full);
// Replay fast path: `features_full` is an already-wrapped constant leaf
// (e.g. the context's node features), shared across batches instead of
// deep-copied into a fresh leaf per replay. Bit-identical to the tensor
// overload.
tensor::Tensor ComputeFcgRowsSparse(const FcgBranch& branch,
                                    const std::vector<FcgLayerPlan>& plan,
                                    const autograd::Variable& features_full);

// Halo exports of one attention layer: per-head destination scores and
// value rows of the layer's *input* rows.
struct PcgHeadExports {
  std::vector<tensor::Tensor> d;  // per head, [o, 1]
  std::vector<tensor::Tensor> v;  // per head, [o, f]
};
PcgHeadExports ComputePcgExports(const AttentionGnnLayer& layer,
                                 const tensor::Tensor& in_rows);

// Assembled halo of one attention layer (what the coordinator scatters the
// per-shard exports into).
struct PcgLayerHalo {
  std::vector<tensor::Tensor> d_full;  // per head, [1, n]
  std::vector<tensor::Tensor> v_full;  // per head, [n, f]
};

// The same assembled halo wrapped as constant graph leaves, built once per
// (slot, snapshot) context so every per-batch replay shares the [n, f]
// constants instead of deep-copying them into fresh leaves each batch.
// Sharing is safe: constant leaves are not op outputs, so the in-place
// autograd ops never steal their buffers.
struct PcgLayerHaloVars {
  std::vector<autograd::Variable> d_full;  // per head, [1, n]
  std::vector<autograd::Variable> v_full;  // per head, [n, f]
};
PcgLayerHaloVars WrapHaloVars(PcgLayerHalo halo);

// Owned rows of one attention layer's output: recomputes the local query
// scores from `in_rows` (the layer input at global rows `owned`, in that
// order) and attends over the assembled halo, whose value rows at `owned`
// also supply the self term. [o, f].
tensor::Tensor ComputePcgLayerRows(const AttentionGnnLayer& layer,
                                   const tensor::Tensor& in_rows,
                                   const std::vector<int>& owned,
                                   const PcgLayerHaloVars& halo);

// Owned rows of the fusion head (Eq. (19)-(20)): concatenated branch rows
// through the output layer. Normalised output, [o, 2*horizon]; the caller
// denormalises and clamps exactly like StgnnDjdPredictor::PredictHorizon.
tensor::Tensor ComputeOutputRows(const StgnnDjdModel& model,
                                 const tensor::Tensor& fcg_rows,
                                 const tensor::Tensor& pcg_rows);

}  // namespace stgnn::core

#endif  // STGNN_CORE_SHARDED_FORWARD_H_
