#ifndef STGNN_CORE_AGGREGATORS_H_
#define STGNN_CORE_AGGREGATORS_H_

#include <functional>
#include <memory>
#include <vector>

#include "autograd/ops.h"
#include "nn/module.h"

namespace stgnn::core {

// Differentiable masked neighbourhood max-pooling:
// out(i, f) = max over {j : mask(i, j) = 1} of h(j, f).
// Gradients flow to the argmax entries only. Rows whose mask is empty yield
// zeros (the model always includes self-loops so this does not occur in
// practice). Used by the max-aggregator study variant (Figs. 5-6).
autograd::Variable MaskedNeighborMax(const autograd::Variable& h,
                                     const tensor::Tensor& mask);

// Sparse variant: the candidate set per row comes from the CSR pattern's
// neighbour lists instead of a full-row mask scan, so the cost is
// O(nnz · f) rather than O(n² · f). Column indices are ascending within a
// row, matching the dense scan order, so forward values, argmaxes, and the
// backward scatter are bit-identical to the dense path on the same edge
// set. The pattern must outlive the backward pass.
autograd::Variable MaskedNeighborMax(
    const autograd::Variable& h,
    std::shared_ptr<const tensor::Csr> pattern);

// One GNN layer with the paper's flow-based aggregator (Eq. (13)-(14)):
// F^k = ReLU((E_f F^{k-1}) W^k), where E_f are the FCG edge weights of
// Eq. (10) (differentiable, supplied per slot).
//
// All three FCG-capable layers take an optional CSR `pattern` of the slot's
// edge mask: when non-null the aggregation runs on the sparse kernels
// (SpMM / sparse neighbour max), which are bit-identical to the dense path
// on the same edge set. FcgBranch makes the dense/sparse call per slot from
// the measured edge density (StgnnConfig::sparse_density_threshold).
class FlowGnnLayer : public nn::Module {
 public:
  FlowGnnLayer(int feature_dim, common::Rng* rng, bool self_term = true,
               bool near_identity = true);

  // The output rows whose E_f rows `flow_weights` holds ([rows, n], and
  // the pattern's matching rows when sparse); `self_rows` are those rows of
  // `features`, read only when self_term(). The three-argument form
  // computes every row.
  autograd::Variable Forward(const autograd::Variable& features,
                             const autograd::Variable& flow_weights,
                             const std::shared_ptr<const tensor::Csr>& pattern,
                             const autograd::Variable& self_rows) const;
  autograd::Variable Forward(
      const autograd::Variable& features,
      const autograd::Variable& flow_weights,
      const std::shared_ptr<const tensor::Csr>& pattern = nullptr) const {
    return Forward(features, flow_weights, pattern, features);
  }

  bool self_term() const { return self_term_; }

 private:
  bool self_term_;
  autograd::Variable weight_;  // W^k, [f, f]
};

// Mean-aggregator study variant: F^k = ReLU((RowNorm(mask) F^{k-1}) W^k).
class MeanGnnLayer : public nn::Module {
 public:
  MeanGnnLayer(int feature_dim, common::Rng* rng);

  autograd::Variable Forward(
      const autograd::Variable& features, const tensor::Tensor& edge_mask,
      const std::shared_ptr<const tensor::Csr>& pattern = nullptr) const;

 private:
  autograd::Variable weight_;
};

// Max-aggregator study variant (GraphSAGE-style pooling):
// F^k = ReLU(max-pool_j(ReLU(F_j^{k-1} W_pool)) W^k).
class MaxGnnLayer : public nn::Module {
 public:
  MaxGnnLayer(int feature_dim, common::Rng* rng);

  autograd::Variable Forward(
      const autograd::Variable& features, const tensor::Tensor& edge_mask,
      const std::shared_ptr<const tensor::Csr>& pattern = nullptr) const;

 private:
  autograd::Variable pool_weight_;
  autograd::Variable weight_;
};

// The paper's multi-head attention aggregator for the PCG
// (Eq. (15)-(18)). Each head u has its own projection W8_u, attention
// vectors (the two halves of W9_u), and value transform phi_u; head outputs
// are concatenated and projected by W10. Attention is dense: every station
// may attend to every other, with no locality prior — the data-driven core
// of the paper's argument.
class AttentionGnnLayer : public nn::Module {
 public:
  AttentionGnnLayer(int feature_dim, int num_heads, common::Rng* rng,
                    bool self_term = true, bool near_identity = true);

  autograd::Variable Forward(const autograd::Variable& features) const;

  // Eq. (15)-(16) over `features`: each head's [n, n] attention softmax, in
  // head order, for the case-study experiments (Figs. 11-12). Writes
  // nothing, so forwards on a shared model may run concurrently.
  std::vector<autograd::Variable> Attention(
      const autograd::Variable& features) const;

  // Forward's steps over any subset of station rows (a serving shard runs
  // them on its own rows). Eq. (11) scores F (W8_u a_dst_u), [rows, 1], and
  // Eq. (17) values F phi_u, [rows, f], of `features`' rows:
  autograd::Variable DestScores(const autograd::Variable& features,
                                int head) const;
  autograd::Variable Values(const autograd::Variable& features,
                            int head) const;
  // What the query rows of one head attend over.
  struct HeadInputs {
    autograd::Variable dest_row;     // every station's dest score, [1, n]
    autograd::Variable values;       // every station's values, [n, f]
    autograd::Variable self_values;  // the query rows' own, [rows, f];
                                     // read only when self_term()
  };
  // Eq. (15)-(18) for the query rows `queries`, [rows, f] -> [rows, f].
  // Asks `head_inputs` for one head at a time, so without a tape each
  // head's values and [rows, n] softmax are freed once it has aggregated.
  autograd::Variable Attend(
      const autograd::Variable& queries,
      const std::function<HeadInputs(int head)>& head_inputs) const;

  int num_heads() const { return num_heads_; }
  int feature_dim() const { return feature_dim_; }
  bool self_term() const { return self_term_; }

  // Eq. (11) folded: W8 enters the scores only through its products with
  // the two halves of W9, so s = F (W8_u a_src_u) and d = F (W8_u a_dst_u).
  // Each is an [f, f] x [f, 1] product (a matvec).
  autograd::Variable SourceScoreWeights(int head) const;
  autograd::Variable DestScoreWeights(int head) const;

  // Per-head parameter access: the int8 weight set leaves out W8, and
  // tests evaluate the unfolded Eq. (11) from W8 and a.
  const autograd::Variable& w8(int head) const { return w8_[head]; }
  const autograd::Variable& a_src(int head) const { return a_src_[head]; }
  const autograd::Variable& a_dst(int head) const { return a_dst_[head]; }
  const autograd::Variable& phi(int head) const { return phi_[head]; }

 private:
  // Eq. (15)-(16): the query rows' attention over all stations, given every
  // station's destination score as one [1, n] row. [rows, n].
  autograd::Variable HeadAttention(const autograd::Variable& queries,
                                   const autograd::Variable& dest_row,
                                   int head) const;

  int feature_dim_;
  int num_heads_;
  bool self_term_;
  std::vector<autograd::Variable> w8_;     // per head, [f, f]
  std::vector<autograd::Variable> a_src_;  // per head, [f, 1] (W9 top half)
  std::vector<autograd::Variable> a_dst_;  // per head, [f, 1] (W9 bottom)
  std::vector<autograd::Variable> phi_;    // per head, [f, f]
  autograd::Variable w10_;                 // [m*f, f]
};

}  // namespace stgnn::core

#endif  // STGNN_CORE_AGGREGATORS_H_
