#include "core/sharded_forward.h"

#include <cstring>
#include <utility>

#include "common/trace.h"

namespace stgnn::core {

using autograd::Variable;
namespace ag = stgnn::autograd;
using tensor::Tensor;

Tensor GatherRows(const Tensor& src, const std::vector<int>& rows) {
  STGNN_CHECK_EQ(src.ndim(), 2);
  const int cols = src.dim(1);
  Tensor out({static_cast<int>(rows.size()), cols});
  const float* sv = src.data().data();
  float* ov = out.mutable_data().data();
  for (size_t r = 0; r < rows.size(); ++r) {
    STGNN_CHECK_LT(rows[r], src.dim(0));
    std::memcpy(ov + r * cols, sv + static_cast<size_t>(rows[r]) * cols,
                sizeof(float) * cols);
  }
  return out;
}

void ScatterRows(const Tensor& src_rows, const std::vector<int>& rows,
                 Tensor* dst) {
  STGNN_CHECK_EQ(src_rows.ndim(), 2);
  STGNN_CHECK_EQ(src_rows.dim(0), static_cast<int>(rows.size()));
  STGNN_CHECK_EQ(src_rows.dim(1), dst->dim(1));
  const int cols = dst->dim(1);
  const float* sv = src_rows.data().data();
  float* dv = dst->mutable_data().data();
  for (size_t r = 0; r < rows.size(); ++r) {
    STGNN_CHECK_LT(rows[r], dst->dim(0));
    std::memcpy(dv + static_cast<size_t>(rows[r]) * cols, sv + r * cols,
                sizeof(float) * cols);
  }
}

namespace {

// Row-sliced ConvBranch: ReLU(reshape(weight * stacked_rows) + bias_rows).
// The 1x1 conv mixes channels per (station, column) cell independently, so
// slicing the stacked history to the owned rows' cells yields exactly the
// owned rows of the full conv output.
Tensor ConvBranchRows(const Variable& weight, const Variable& bias,
                      const Tensor& stacked_rows,
                      const std::vector<int>& owned, int n) {
  const int o = static_cast<int>(owned.size());
  STGNN_CHECK_EQ(stacked_rows.dim(1), o * n);
  Variable channels = Variable::Constant(stacked_rows);   // [c, o*n]
  Variable mixed = ag::MatMul(weight, channels);          // [1, o*n]
  Variable matrix = ag::Reshape(mixed, {o, n});
  Variable bias_rows = Variable::Constant(GatherRows(bias.value(), owned));
  return ag::Relu(ag::Add(matrix, bias_rows)).value();
}

}  // namespace

ShardConvRows ComputeShardConvRows(const FlowConvolution& fc,
                                   const data::StHistory& history,
                                   const std::vector<int>& owned) {
  STGNN_TRACE_SCOPE("Shard.ConvRows");
  const int n = fc.num_stations();
  STGNN_CHECK_EQ(history.inflow_short.dim(0), fc.short_term_slots());
  STGNN_CHECK_EQ(history.inflow_long.dim(0), fc.long_term_days());
  ShardConvRows out;
  out.inflow_short = ConvBranchRows(fc.w1(), fc.b1(), history.inflow_short,
                                    owned, n);
  out.outflow_short = ConvBranchRows(fc.w2(), fc.b2(), history.outflow_short,
                                     owned, n);
  out.inflow_long = ConvBranchRows(fc.w3(), fc.b3(), history.inflow_long,
                                   owned, n);
  out.outflow_long = ConvBranchRows(fc.w4(), fc.b4(), history.outflow_long,
                                    owned, n);
  return out;
}

ShardFusedRows ComputeShardFusedRows(const FlowConvolution& fc,
                                     const std::vector<int>& owned,
                                     const Tensor& inflow_short_full,
                                     const Tensor& outflow_short_full,
                                     const Tensor& inflow_long_full,
                                     const Tensor& outflow_long_full) {
  STGNN_TRACE_SCOPE("Shard.FuseRows");
  // Row-sliced Eq. (5)-(8): the gate W5[owned] · IS needs the *full* conv
  // matrices (every station's row enters each gate element) — that is the
  // round-2 halo. The blend itself is elementwise, so only the owned rows
  // of the conv matrices are touched there.
  auto fuse_rows = [&](const Variable& gate_weight, const Tensor& short_full,
                       const Tensor& long_full) {
    Variable gate_rows =
        Variable::Constant(GatherRows(gate_weight.value(), owned));
    Variable beta_short = ag::Sigmoid(ag::MatMul(
        gate_rows, Variable::Constant(tensor::Sub(short_full, long_full))));
    Variable beta_long =
        ag::Sub(Variable::Constant(
                    Tensor::Ones(beta_short.value().shape())),
                beta_short);
    Variable short_rows = Variable::Constant(GatherRows(short_full, owned));
    Variable long_rows = Variable::Constant(GatherRows(long_full, owned));
    return ag::Add(ag::Mul(beta_short, short_rows),
                   ag::Mul(beta_long, long_rows));
  };
  ShardFusedRows out;
  Variable fused_in = fuse_rows(fc.w5(), inflow_short_full, inflow_long_full);
  Variable fused_out =
      fuse_rows(fc.w6(), outflow_short_full, outflow_long_full);
  out.temporal_inflow = fused_in.value();
  out.temporal_outflow = fused_out.value();
  // Eq. (9) rows: T[owned] = (Î[owned] || Ô[owned]) W7. W7 is the model's
  // parameter Variable so the quantized registry resolves it.
  Variable concat = ag::Concat({fused_in, fused_out}, /*axis=*/1);
  out.node_features = ag::MatMul(concat, fc.w7()).value();
  return out;
}

bool FcgDispatchesSparse(const FcgBranch& branch,
                         const FlowConvolutedGraph& graph) {
  return graph.edge_csr != nullptr &&
         graph.edge_csr->density() < branch.sparse_density_threshold();
}

std::vector<FcgLayerPlan> BuildFcgPlan(const FcgBranch& branch,
                                       const FlowConvolutedGraph& graph,
                                       const std::vector<int>& owned) {
  STGNN_TRACE_SCOPE("Shard.FcgPlan");
  STGNN_CHECK(branch.aggregator() == Aggregator::kFlow);
  STGNN_CHECK(FcgDispatchesSparse(branch, graph));
  const int layers = branch.num_flow_layers();
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

  const Tensor weights = graph.weights.value();
  std::vector<FcgLayerPlan> plan(layers);
  for (int l = 0; l < layers; ++l) {
    plan[l].rows = std::move(rows_of[l]);
    plan[l].sub_pattern = std::make_shared<const tensor::Csr>(
        tensor::Csr::FromDense(GatherRows(graph.edge_mask, plan[l].rows)));
    plan[l].weight_rows =
        Variable::Constant(GatherRows(weights, plan[l].rows));
  }
  return plan;
}

Tensor ComputeFcgRowsSparse(const FcgBranch& branch,
                            const std::vector<FcgLayerPlan>& plan,
                            const Tensor& features_full) {
  return ComputeFcgRowsSparse(branch, plan,
                              Variable::Constant(features_full));
}

Tensor ComputeFcgRowsSparse(const FcgBranch& branch,
                            const std::vector<FcgLayerPlan>& plan,
                            const Variable& features_full) {
  STGNN_TRACE_SCOPE("Shard.FcgRows");
  STGNN_CHECK_EQ(static_cast<int>(plan.size()), branch.num_flow_layers());
  const int n = features_full.value().dim(0);
  const int f = features_full.value().dim(1);
  // Row-sliced FlowGnnLayer::Forward chain. The input buffer holds valid
  // data at (at least) the rows the layer's sub-pattern references; rows
  // outside the closure stay zero and are never read. The first layer
  // reads the caller's shared constant leaf directly; later layers build
  // their own scatter buffers.
  Variable x_var = features_full;
  Tensor h_rows;
  for (size_t l = 0; l < plan.size(); ++l) {
    const FcgLayerPlan& p = plan[l];
    const FlowGnnLayer& layer = branch.flow_layer(static_cast<int>(l));
    Variable aggregated =
        ag::SparseMatMul(p.weight_rows, x_var, p.sub_pattern);
    if (layer.self_term()) {
      aggregated = ag::AddInPlace(
          std::move(aggregated),
          Variable::Constant(GatherRows(x_var.value(), p.rows)));
    }
    h_rows =
        ag::ReluInPlace(ag::MatMul(aggregated, layer.weight())).value();
    if (l + 1 < plan.size()) {
      Tensor next({n, f});
      ScatterRows(h_rows, p.rows, &next);
      x_var = Variable::Constant(std::move(next));
    }
  }
  return h_rows;
}

PcgHeadExports ComputePcgExports(const AttentionGnnLayer& layer,
                                 const Tensor& in_rows) {
  STGNN_TRACE_SCOPE("Shard.PcgExports");
  PcgHeadExports out;
  Variable rows = Variable::Constant(in_rows);
  for (int u = 0; u < layer.num_heads(); ++u) {
    out.d.push_back(
        ag::MatMul(rows, layer.DestScoreWeights(u)).value());  // [o, 1]
    out.v.push_back(ag::MatMul(rows, layer.phi(u)).value());   // [o, f]
  }
  return out;
}

PcgLayerHaloVars WrapHaloVars(PcgLayerHalo halo) {
  PcgLayerHaloVars vars;
  vars.d_full.reserve(halo.d_full.size());
  vars.v_full.reserve(halo.v_full.size());
  for (Tensor& d : halo.d_full) {
    vars.d_full.push_back(Variable::Constant(std::move(d)));
  }
  for (Tensor& v : halo.v_full) {
    vars.v_full.push_back(Variable::Constant(std::move(v)));
  }
  return vars;
}

Tensor ComputePcgLayerRows(const AttentionGnnLayer& layer,
                           const Tensor& in_rows,
                           const std::vector<int>& owned,
                           const PcgLayerHaloVars& halo) {
  STGNN_TRACE_SCOPE("Shard.PcgRows");
  STGNN_CHECK_EQ(static_cast<int>(halo.d_full.size()), layer.num_heads());
  STGNN_CHECK_EQ(static_cast<int>(halo.v_full.size()), layer.num_heads());
  STGNN_CHECK_EQ(in_rows.dim(0), static_cast<int>(owned.size()));
  Variable rows = Variable::Constant(in_rows);
  std::vector<Variable> head_outputs;
  head_outputs.reserve(layer.num_heads());
  for (int u = 0; u < layer.num_heads(); ++u) {
    // Row-sliced Eq. (15)-(17): the query scores s are local; the key and
    // value terms (d over all stations, V) come from the assembled halo.
    Variable src =
        ag::MatMul(rows, layer.SourceScoreWeights(u));      // [o, 1]
    Variable e = ag::EluInPlace(ag::Add(src, halo.d_full[u]));  // [o, n]
    Variable alpha = ag::RowSoftmax(e);
    Variable aggregated = ag::MatMul(alpha, halo.v_full[u]);    // [o, f]
    if (layer.self_term()) {
      // The node's own value rows: every shard exported its rows of
      // F phi_u into the halo, so gathering them is bitwise the product.
      aggregated = ag::AddInPlace(
          std::move(aggregated),
          Variable::Constant(GatherRows(halo.v_full[u].value(), owned)));
    }
    head_outputs.push_back(ag::EluInPlace(std::move(aggregated)));
  }
  Variable concat = ag::Concat(head_outputs, /*axis=*/1);  // [o, m*f]
  return ag::MatMul(concat, layer.w10()).value();
}

Tensor ComputeOutputRows(const StgnnDjdModel& model, const Tensor& fcg_rows,
                         const Tensor& pcg_rows) {
  STGNN_TRACE_SCOPE("Shard.OutputRows");
  // Row-sliced RunHead, FCG branch first (the unsharded concat order).
  // Inference-time dropout is the identity and is skipped.
  Variable embedding =
      ag::Concat({Variable::Constant(fcg_rows), Variable::Constant(pcg_rows)},
                 /*axis=*/1);
  return model.output_layer().Forward(embedding).value();
}

}  // namespace stgnn::core
