#include "core/flow_convolution.h"

#include "nn/init.h"

namespace stgnn::core {

using autograd::Variable;
namespace ag = stgnn::autograd;

FlowConvolution::FlowConvolution(int num_stations, int short_term_slots,
                                 int long_term_days, common::Rng* rng)
    : num_stations_(num_stations),
      short_term_slots_(short_term_slots),
      long_term_days_(long_term_days) {
  STGNN_CHECK_GT(num_stations, 0);
  STGNN_CHECK_GT(short_term_slots, 0);
  STGNN_CHECK_GT(long_term_days, 0);
  const int n = num_stations;
  // Positive-mean init of the conv kernels keeps early ReLU outputs alive
  // (the kernels average recent flow matrices, which are non-negative).
  auto kernel = [&](int channels) {
    tensor::Tensor w = tensor::Tensor::RandomUniform(
        {1, channels}, 0.0f, 2.0f / static_cast<float>(channels), rng);
    return w;
  };
  w1_ = RegisterParameter("w1", kernel(short_term_slots));
  b1_ = RegisterParameter("b1", tensor::Tensor::Zeros({n, n}));
  w2_ = RegisterParameter("w2", kernel(short_term_slots));
  b2_ = RegisterParameter("b2", tensor::Tensor::Zeros({n, n}));
  w3_ = RegisterParameter("w3", kernel(long_term_days));
  b3_ = RegisterParameter("b3", tensor::Tensor::Zeros({n, n}));
  w4_ = RegisterParameter("w4", kernel(long_term_days));
  b4_ = RegisterParameter("b4", tensor::Tensor::Zeros({n, n}));
  w5_ = RegisterParameter("w5", nn::XavierUniform2d(n, n, rng));
  w6_ = RegisterParameter("w6", nn::XavierUniform2d(n, n, rng));
  w7_ = RegisterParameter("w7", nn::XavierUniform2d(2 * n, n, rng));
}

Variable FlowConvolution::ConvBranch(const Variable& weight,
                                     const Variable& bias,
                                     const tensor::Tensor& stacked) const {
  const int n = num_stations_;
  STGNN_CHECK_EQ(stacked.dim(1), n * n);
  Variable channels = Variable::Constant(stacked);  // [c, n*n]
  Variable mixed = ag::MatMul(weight, channels);    // [1, n*n]
  Variable matrix = ag::Reshape(mixed, {n, n});
  return ag::Relu(ag::Add(matrix, bias));
}

FlowConvolution::Output FlowConvolution::Forward(
    const data::StHistory& history) const {
  STGNN_CHECK_EQ(history.inflow_short.dim(0), short_term_slots_);
  STGNN_CHECK_EQ(history.inflow_long.dim(0), long_term_days_);

  // Eq. (1)-(4): short/long 1x1 convolutions for inflow and outflow.
  Variable inflow_short = ConvBranch(w1_, b1_, history.inflow_short);
  Variable outflow_short = ConvBranch(w2_, b2_, history.outflow_short);
  Variable inflow_long = ConvBranch(w3_, b3_, history.inflow_long);
  Variable outflow_long = ConvBranch(w4_, b4_, history.outflow_long);

  // Eq. (5)-(8): attentive fusion. beta_S = sigmoid(W (ÎS - ÎL)) is the
  // stable form of exp(W ÎS) / (exp(W ÎS) + exp(W ÎL)); beta_L = 1 - beta_S.
  auto fuse = [](const Variable& gate_weight, const Variable& short_term,
                 const Variable& long_term) {
    Variable beta_short =
        ag::Sigmoid(ag::MatMul(gate_weight, ag::Sub(short_term, long_term)));
    Variable beta_long =
        ag::Sub(Variable::Constant(
                    tensor::Tensor::Ones(beta_short.value().shape())),
                beta_short);
    return ag::Add(ag::Mul(beta_short, short_term),
                   ag::Mul(beta_long, long_term));
  };
  Output output;
  output.temporal_inflow = fuse(w5_, inflow_short, inflow_long);
  output.temporal_outflow = fuse(w6_, outflow_short, outflow_long);

  // Eq. (9): T = (Î || Ô) W7.
  Variable concat =
      ag::Concat({output.temporal_inflow, output.temporal_outflow}, /*axis=*/1);
  output.node_features = ag::MatMul(concat, w7_);
  return output;
}

}  // namespace stgnn::core
