#include "core/aggregators.h"

#include <algorithm>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "common/counters.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "nn/init.h"

namespace stgnn::core {

using autograd::Node;
using autograd::Variable;
namespace ag = stgnn::autograd;
using tensor::Tensor;

namespace {

// Shared tail of the dense and sparse neighbour-max forwards: wraps the
// pooled values + argmax table in a node whose backward scatters each
// output gradient to the neighbour that supplied the max. `rows` counts
// output rows (= argmax rows); the gradient tensor takes h's shape.
Variable MakeNeighborMaxNode(const Variable& h, Tensor out,
                             std::vector<int> argmax, int rows, int f) {
  auto node = ag::MakeOpNode(std::move(out), {h});
  if (node->requires_grad) {
    Node* self = node.get();
    Node* parent = h.node().get();
    node->backward_fn = [self, parent, argmax = std::move(argmax), rows,
                         f]() {
      STGNN_TRACE_SCOPE("MaskedNeighborMax.bwd");
      Tensor grad = Tensor::Zeros(parent->value.shape());
      const float* gv = self->grad.data().data();
      float* out_grad = grad.mutable_data().data();
      const int* am = argmax.data();
      // The scatter grad(j, c) += g(i, c) races across rows i but never
      // across feature columns, so parallelise over c: each column is
      // owned by one chunk and keeps the serial i-ascending order.
      common::ParallelFor(0, f, common::GrainFor(f, rows),
                          [&](int64_t cb, int64_t ce) {
        for (int64_t c = cb; c < ce; ++c) {
          for (int i = 0; i < rows; ++i) {
            const int j = am[static_cast<size_t>(i) * f + c];
            if (j >= 0) {
              out_grad[static_cast<size_t>(j) * f + c] += gv[i * f + c];
            }
          }
        }
      });
      parent->AccumulateGrad(grad);
    };
  }
  return Variable::FromNode(node);
}

}  // namespace

Variable MaskedNeighborMax(const Variable& h, const Tensor& mask) {
  STGNN_CHECK(h.defined());
  STGNN_CHECK_EQ(h.value().ndim(), 2);
  STGNN_CHECK_EQ(mask.ndim(), 2);
  STGNN_CHECK_EQ(mask.dim(0), mask.dim(1));
  STGNN_CHECK_EQ(mask.dim(0), h.value().dim(0));
  const int n = h.value().dim(0);
  const int f = h.value().dim(1);
  STGNN_TRACE_SCOPE("MaskedNeighborMax");
  STGNN_COUNTER_INC("op.masked_neighbor_max");

  Tensor out({n, f});
  // argmax(i, f): which neighbour supplied the max; -1 = empty row.
  std::vector<int> argmax(static_cast<size_t>(n) * f, -1);
  {
    const float* hv = h.value().data().data();
    const float* mv = mask.data().data();
    float* ov = out.mutable_data().data();
    int* am = argmax.data();
    // Rows of the output are independent; fan them out across the pool.
    common::ParallelFor(0, n, common::GrainFor(n, int64_t{n} * f),
                        [&](int64_t ib, int64_t ie) {
      for (int64_t i = ib; i < ie; ++i) {
        const float* mask_row = mv + i * n;
        for (int c = 0; c < f; ++c) {
          float best = -std::numeric_limits<float>::infinity();
          int best_j = -1;
          for (int j = 0; j < n; ++j) {
            if (mask_row[j] == 0.0f) continue;
            const float v = hv[static_cast<size_t>(j) * f + c];
            if (v > best) {
              best = v;
              best_j = j;
            }
          }
          ov[i * f + c] = best_j >= 0 ? best : 0.0f;
          am[i * f + c] = best_j;
        }
      }
    });
  }
  return MakeNeighborMaxNode(h, std::move(out), std::move(argmax), n, f);
}

Variable MaskedNeighborMax(const Variable& h,
                           std::shared_ptr<const tensor::Csr> pattern) {
  STGNN_CHECK(h.defined());
  STGNN_CHECK(pattern != nullptr);
  STGNN_CHECK_EQ(h.value().ndim(), 2);
  STGNN_CHECK_EQ(pattern->cols(), h.value().dim(0));
  const int rows = pattern->rows();
  const int f = h.value().dim(1);
  STGNN_TRACE_SCOPE("MaskedNeighborMax");
  STGNN_COUNTER_INC("op.sparse_neighbor_max");
  STGNN_COUNTER_ADD("op.sparse_neighbor_max.nnz", pattern->nnz());

  Tensor out({rows, f});
  std::vector<int> argmax(static_cast<size_t>(rows) * f, -1);
  {
    const float* hv = h.value().data().data();
    const int* rp = pattern->row_ptr().data();
    const int* ci = pattern->col_idx().data();
    float* ov = out.mutable_data().data();
    int* am = argmax.data();
    const int64_t cost_per_row =
        (pattern->nnz() / std::max(rows, 1) + 1) * static_cast<int64_t>(f);
    common::ParallelFor(0, rows, common::GrainFor(rows, cost_per_row),
                        [&](int64_t ib, int64_t ie) {
      // Per-chunk running max/argmax rows, reused across the chunk. The
      // neighbour list is ascending in j — the order the dense scan visits
      // surviving candidates — and each element updates independently, so
      // values and argmaxes match the dense path exactly (strict > keeps
      // the first of tied maxima in both).
      std::vector<float> best(f);
      std::vector<int> best_j(f);
      for (int64_t i = ib; i < ie; ++i) {
        std::fill(best.begin(), best.end(),
                  -std::numeric_limits<float>::infinity());
        std::fill(best_j.begin(), best_j.end(), -1);
        for (int e = rp[i]; e < rp[i + 1]; ++e) {
          const int j = ci[e];
          const float* hrow = hv + static_cast<size_t>(j) * f;
          for (int c = 0; c < f; ++c) {
            if (hrow[c] > best[c]) {
              best[c] = hrow[c];
              best_j[c] = j;
            }
          }
        }
        for (int c = 0; c < f; ++c) {
          ov[i * f + c] = best_j[c] >= 0 ? best[c] : 0.0f;
          am[i * f + c] = best_j[c];
        }
      }
    });
  }
  return MakeNeighborMaxNode(h, std::move(out), std::move(argmax), rows, f);
}

FlowGnnLayer::FlowGnnLayer(int feature_dim, common::Rng* rng, bool self_term,
                           bool near_identity)
    : self_term_(self_term) {
  // Near-identity start: stacked layers pass signal through cleanly and
  // learn deviations (random square mixers would wash out station identity
  // before training can establish it).
  weight_ = RegisterParameter(
      "weight", near_identity
                    ? nn::NearIdentity(feature_dim, 0.25f, rng)
                    : nn::XavierUniform2d(feature_dim, feature_dim, rng));
}

Variable FlowGnnLayer::Forward(
    const Variable& features, const Variable& flow_weights,
    const std::shared_ptr<const tensor::Csr>& pattern,
    const Variable& self_rows) const {
  STGNN_TRACE_SCOPE("FlowGnn.Forward");
  STGNN_COUNTER_INC("op.flow_gnn_layer");
  // Eq. (13)-(14): the aggregate runs over {F_i} ∪ {neighbours}; the node's
  // own features enter alongside the flow-weighted sum (the E_f self-loop
  // weight alone can be arbitrarily small, which would starve the layer of
  // its own signal). The flow weights are zero off the edge set (Eq. (10)
  // masks before normalising), so reading them through the pattern loses
  // nothing.
  Variable aggregated =
      pattern ? ag::SparseMatMul(flow_weights, features, pattern)
              : ag::MatMul(flow_weights, features);
  if (self_term_) {
    aggregated = ag::AddInPlace(std::move(aggregated), self_rows);
  }
  return ag::ReluInPlace(ag::MatMul(aggregated, weight_));
}

MeanGnnLayer::MeanGnnLayer(int feature_dim, common::Rng* rng) {
  weight_ = RegisterParameter("weight",
                              nn::NearIdentity(feature_dim, 0.25f, rng));
}

Variable MeanGnnLayer::Forward(
    const Variable& features, const Tensor& edge_mask,
    const std::shared_ptr<const tensor::Csr>& pattern) const {
  STGNN_TRACE_SCOPE("MeanGnn.Forward");
  if (pattern) {
    // Sparse path: 1/degree at each stored edge. degree is the row's nnz
    // count as a float — exactly what the dense path's ascending-order sum
    // of 0/1 mask entries produces — and 1.0f/degree is the same quotient
    // the dense row normalisation stores, so the SpMM below is
    // bit-identical to the dense MatMul.
    const auto& rp = pattern->row_ptr();
    std::vector<float> vals(static_cast<size_t>(pattern->nnz()));
    for (int i = 0; i < pattern->rows(); ++i) {
      const float degree = static_cast<float>(rp[i + 1] - rp[i]);
      for (int e = rp[i]; e < rp[i + 1]; ++e) vals[e] = 1.0f / degree;
    }
    auto mean_weights = std::make_shared<const tensor::Csr>(
        pattern->WithValues(std::move(vals)));
    Variable aggregated = ag::SparseMatMul(std::move(mean_weights), features);
    return ag::ReluInPlace(ag::MatMul(aggregated, weight_));
  }
  // Row-normalised mask = elementwise mean over the neighbour set.
  const int n = edge_mask.dim(0);
  Tensor mean_weights = edge_mask;
  float* mw = mean_weights.mutable_data().data();
  common::ParallelFor(0, n, common::GrainFor(n, n),
                      [&](int64_t ib, int64_t ie) {
    for (int64_t i = ib; i < ie; ++i) {
      float* row = mw + i * n;
      float degree = 0.0f;
      for (int j = 0; j < n; ++j) degree += row[j];
      if (degree == 0.0f) continue;
      for (int j = 0; j < n; ++j) row[j] /= degree;
    }
  });
  Variable aggregated =
      ag::MatMul(Variable::Constant(std::move(mean_weights)), features);
  return ag::ReluInPlace(ag::MatMul(aggregated, weight_));
}

MaxGnnLayer::MaxGnnLayer(int feature_dim, common::Rng* rng) {
  pool_weight_ = RegisterParameter(
      "pool_weight", nn::NearIdentity(feature_dim, 0.25f, rng));
  weight_ = RegisterParameter("weight",
                              nn::NearIdentity(feature_dim, 0.25f, rng));
}

Variable MaxGnnLayer::Forward(
    const Variable& features, const Tensor& edge_mask,
    const std::shared_ptr<const tensor::Csr>& pattern) const {
  STGNN_TRACE_SCOPE("MaxGnn.Forward");
  Variable pooled = ag::ReluInPlace(ag::MatMul(features, pool_weight_));
  Variable aggregated = pattern ? MaskedNeighborMax(pooled, pattern)
                                : MaskedNeighborMax(pooled, edge_mask);
  return ag::ReluInPlace(ag::MatMul(aggregated, weight_));
}

AttentionGnnLayer::AttentionGnnLayer(int feature_dim, int num_heads,
                                     common::Rng* rng, bool self_term,
                                     bool near_identity)
    : feature_dim_(feature_dim), num_heads_(num_heads),
      self_term_(self_term) {
  STGNN_CHECK_GT(num_heads, 0);
  for (int u = 0; u < num_heads; ++u) {
    w8_.push_back(RegisterParameter(
        "w8_" + std::to_string(u),
        nn::XavierUniform2d(feature_dim, feature_dim, rng)));
    a_src_.push_back(RegisterParameter(
        "a_src_" + std::to_string(u),
        nn::XavierUniform({feature_dim, 1}, feature_dim, 1, rng)));
    a_dst_.push_back(RegisterParameter(
        "a_dst_" + std::to_string(u),
        nn::XavierUniform({feature_dim, 1}, feature_dim, 1, rng)));
    phi_.push_back(RegisterParameter(
        "phi_" + std::to_string(u),
        near_identity
            ? nn::NearIdentity(feature_dim, 0.25f, rng)
            : nn::XavierUniform2d(feature_dim, feature_dim, rng)));
  }
  // Heads initially average back to the input dimension (I/m blocks).
  w10_ = RegisterParameter(
      "w10", near_identity
                 ? nn::HeadMergeInit(num_heads, feature_dim, 0.25f, rng)
                 : nn::XavierUniform2d(num_heads * feature_dim, feature_dim,
                                       rng));
}

Variable AttentionGnnLayer::SourceScoreWeights(int head) const {
  return ag::MatMul(w8_[head], a_src_[head]);
}

Variable AttentionGnnLayer::DestScoreWeights(int head) const {
  return ag::MatMul(w8_[head], a_dst_[head]);
}

Variable AttentionGnnLayer::DestScores(const Variable& features,
                                       int head) const {
  return ag::MatMul(features, DestScoreWeights(head));
}

Variable AttentionGnnLayer::Values(const Variable& features, int head) const {
  // The paper writes phi F with phi in R^{n x n}; with feature dim n both
  // orders type-check and we apply phi on the feature side, the standard
  // value transform.
  return ag::MatMul(features, phi_[head]);
}

Variable AttentionGnnLayer::HeadAttention(const Variable& queries,
                                          const Variable& dest_row,
                                          int head) const {
  STGNN_CHECK_EQ(queries.value().dim(1), feature_dim_);
  // Eq. (15): e(i,j) = ELU([F_i W8 || F_j W8] W9). Splitting W9 into the
  // source/destination halves turns the pairwise concat into an outer sum:
  // e = ELU(s 1^T + 1 d^T) with s = (F W8) a_src, d = (F W8) a_dst. By
  // associativity these are F (W8 a_src) and F (W8 a_dst): two matvecs
  // after [f, f] x [f, 1] products, never the [n, f] x [f, f] projection.
  Variable src = ag::MatMul(queries, SourceScoreWeights(head));  // [rows, 1]
  // Eq. (16): dense softmax over all stations — no locality prior.
  return ag::RowSoftmax(ag::EluInPlace(ag::Add(src, dest_row)));
}

Variable AttentionGnnLayer::Attend(
    const Variable& queries,
    const std::function<HeadInputs(int head)>& head_inputs) const {
  std::vector<Variable> head_outputs;
  head_outputs.reserve(num_heads_);
  for (int u = 0; u < num_heads_; ++u) {
    const HeadInputs in = head_inputs(u);
    // Eq. (17): head output sigma2(alpha · (F phi_u)). Algorithm 1 line 6
    // aggregates {F_i} ∪ {neighbours}: the node's own transformed features
    // enter alongside the attention sum. This self term also prevents the
    // additive-score degeneracy (softmax removes the row-constant s_i, so
    // attention rows alone would be near-identical and would smooth every
    // station to the same embedding).
    Variable aggregated =
        ag::MatMul(HeadAttention(queries, in.dest_row, u), in.values);
    if (self_term_) {
      aggregated = ag::AddInPlace(std::move(aggregated), in.self_values);
    }
    head_outputs.push_back(ag::EluInPlace(std::move(aggregated)));
  }
  // Eq. (18): concat heads and project with W10.
  return ag::MatMul(ag::Concat(head_outputs, /*axis=*/1), w10_);
}

std::vector<Variable> AttentionGnnLayer::Attention(
    const Variable& features) const {
  std::vector<Variable> heads;
  heads.reserve(num_heads_);
  for (int u = 0; u < num_heads_; ++u) {
    heads.push_back(HeadAttention(
        features, ag::Transpose(DestScores(features, u)), u));  // [n, n]
  }
  return heads;
}

Variable AttentionGnnLayer::Forward(const Variable& features) const {
  STGNN_TRACE_SCOPE("AttentionGnn.Forward");
  STGNN_COUNTER_INC("op.attention_gnn_layer");
  // Every row queries, so the rows' own values are the values themselves.
  return Attend(features, [&](int u) {
    const Variable values = Values(features, u);
    return HeadInputs{ag::Transpose(DestScores(features, u)), values, values};
  });
}

}  // namespace stgnn::core
