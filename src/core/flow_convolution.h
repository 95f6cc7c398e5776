#ifndef STGNN_CORE_FLOW_CONVOLUTION_H_
#define STGNN_CORE_FLOW_CONVOLUTION_H_

#include "autograd/ops.h"
#include "data/window.h"
#include "nn/module.h"

namespace stgnn::core {

// Flow convolution (paper Section IV-A, Eq. (1)-(9)).
//
// A 1x1 convolution over the channel (time) axis of the stacked flow
// matrices is exactly a learned linear combination of the k (or d) channel
// matrices plus a per-entry bias: for stacked history S of shape [k, n*n],
//   Î^S = ReLU(reshape(W1 S) + b1),  W1 in R^{1 x k}, b1 in R^{n x n}.
// Short- and long-term embeddings are fused by the attentive gate of
// Eq. (5)-(8); the sigmoid form used here is algebraically identical to the
// paper's two-exponential softmax (exp(a)/(exp(a)+exp(b)) = sigmoid(a-b))
// and numerically stable. Eq. (9) concatenates the fused inflow/outflow
// matrices and projects with W7 into node features T of shape [n, n].
class FlowConvolution : public nn::Module {
 public:
  FlowConvolution(int num_stations, int short_term_slots, int long_term_days,
                  common::Rng* rng);

  struct Output {
    autograd::Variable node_features;    // T, [n, n]
    autograd::Variable temporal_inflow;  // Î, [n, n]
    autograd::Variable temporal_outflow; // Ô, [n, n]
  };

  Output Forward(const data::StHistory& history) const;

  // Forward's steps over any subset of station rows: Forward passes the
  // parameters themselves, a serving shard its rows of b1-b4 and W5/W6.
  // Eq. (1)-(4): ReLU(reshape(weight · cells) + bias) for the rows whose
  // cells of a stacked history `cells` holds, [c, rows·n]; bias [rows, n].
  autograd::Variable ConvBranch(const autograd::Variable& weight,
                                const autograd::Variable& bias,
                                const tensor::Tensor& cells) const;
  // Eq. (5)-(8) for the rows of W5 or W6 in `gate`: beta_S =
  // sigmoid(gate · difference), with `difference` the full S - L, blends
  // those rows of S and L.
  static autograd::Variable Fuse(const autograd::Variable& gate,
                                 const autograd::Variable& difference,
                                 const autograd::Variable& short_rows,
                                 const autograd::Variable& long_rows);
  // Eq. (9): T = (Î || Ô) W7.
  autograd::Variable Project(const autograd::Variable& temporal_inflow,
                             const autograd::Variable& temporal_outflow) const;

  // Parameter access for the step callers, which must pass the *same
  // Variable objects* so the quantized-weight registry (keyed by parameter
  // node identity) resolves identically on every path.
  const autograd::Variable& w1() const { return w1_; }
  const autograd::Variable& b1() const { return b1_; }
  const autograd::Variable& w2() const { return w2_; }
  const autograd::Variable& b2() const { return b2_; }
  const autograd::Variable& w3() const { return w3_; }
  const autograd::Variable& b3() const { return b3_; }
  const autograd::Variable& w4() const { return w4_; }
  const autograd::Variable& b4() const { return b4_; }
  const autograd::Variable& w5() const { return w5_; }
  const autograd::Variable& w6() const { return w6_; }
  const autograd::Variable& w7() const { return w7_; }

 private:
  int num_stations_;
  int short_term_slots_;
  int long_term_days_;
  autograd::Variable w1_, b1_;  // short-term inflow (Eq. 1)
  autograd::Variable w2_, b2_;  // short-term outflow (Eq. 2)
  autograd::Variable w3_, b3_;  // long-term inflow (Eq. 3)
  autograd::Variable w4_, b4_;  // long-term outflow (Eq. 4)
  autograd::Variable w5_;       // inflow fusion gate (Eq. 6-7)
  autograd::Variable w6_;       // outflow fusion gate (Eq. 8)
  autograd::Variable w7_;       // feature projection (Eq. 9), [2n, n]
};

}  // namespace stgnn::core

#endif  // STGNN_CORE_FLOW_CONVOLUTION_H_
