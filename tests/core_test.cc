#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "autograd/inference_precision.h"
#include "core/aggregators.h"
#include "core/config.h"
#include "core/flow_convolution.h"
#include "core/graph_generator.h"
#include "core/stgnn_djd.h"
#include "data/city_simulator.h"
#include "data/window.h"
#include "eval/experiment.h"
#include "gradcheck.h"
#include "graph/graph.h"
#include "gtest/gtest.h"
#include "nn/loss.h"
#include "nn/optimizer.h"
#include "tensor/csr.h"

namespace stgnn::core {
namespace {

namespace ag = stgnn::autograd;
using autograd::Variable;
using stgnn::testing::ExpectGradientsClose;
using tensor::Tensor;

const data::FlowDataset& TestFlow() {
  static const data::FlowDataset* flow = [] {
    data::CityConfig config = data::CityConfig::Tiny();
    config.num_days = 16;
    return new data::FlowDataset(
        data::BuildFlowDataset(data::CitySimulator(config).Generate()));
  }();
  return *flow;
}

// Small config usable on the tiny dataset within test time budgets.
StgnnConfig FastConfig() {
  StgnnConfig config;
  config.short_term_slots = 8;
  config.long_term_days = 2;
  config.fcg_layers = 2;
  config.pcg_layers = 2;
  config.attention_heads = 2;
  config.epochs = 2;
  config.batch_size = 16;
  config.max_samples_per_epoch = 48;
  return config;
}

TEST(ConfigTest, VariantNames) {
  StgnnConfig config;
  EXPECT_EQ(config.DescribeVariant(), "STGNN-DJD");
  config.ablation.use_flow_convolution = false;
  EXPECT_EQ(config.DescribeVariant(), "STGNN-DJD/no-fc");
  config = StgnnConfig();
  config.fcg_aggregator = Aggregator::kMean;
  EXPECT_EQ(config.DescribeVariant(), "STGNN-DJD/fcg-mean");
  config = StgnnConfig();
  config.pcg_aggregator = Aggregator::kMax;
  EXPECT_EQ(config.DescribeVariant(), "STGNN-DJD/pcg-max");
}

// --- Flow convolution ---

TEST(FlowConvolutionTest, OutputShapes) {
  common::Rng rng(1);
  const int n = 5;
  FlowConvolution conv(n, 4, 2, &rng);
  data::StHistory history;
  history.inflow_short = Tensor::RandomUniform({4, n * n}, 0, 1, &rng);
  history.outflow_short = Tensor::RandomUniform({4, n * n}, 0, 1, &rng);
  history.inflow_long = Tensor::RandomUniform({2, n * n}, 0, 1, &rng);
  history.outflow_long = Tensor::RandomUniform({2, n * n}, 0, 1, &rng);
  const auto out = conv.Forward(history);
  EXPECT_EQ(out.node_features.value().shape(), (tensor::Shape{n, n}));
  EXPECT_EQ(out.temporal_inflow.value().shape(), (tensor::Shape{n, n}));
  EXPECT_EQ(out.temporal_outflow.value().shape(), (tensor::Shape{n, n}));
}

TEST(FlowConvolutionTest, TemporalEmbeddingsNonNegativeConvexFusion) {
  // Î is a convex combination of ReLU outputs, hence non-negative.
  common::Rng rng(2);
  const int n = 4;
  FlowConvolution conv(n, 3, 2, &rng);
  data::StHistory history;
  history.inflow_short = Tensor::RandomUniform({3, n * n}, 0, 2, &rng);
  history.outflow_short = Tensor::RandomUniform({3, n * n}, 0, 2, &rng);
  history.inflow_long = Tensor::RandomUniform({2, n * n}, 0, 2, &rng);
  history.outflow_long = Tensor::RandomUniform({2, n * n}, 0, 2, &rng);
  const auto out = conv.Forward(history);
  for (float v : out.temporal_inflow.value().data()) EXPECT_GE(v, 0.0f);
  for (float v : out.temporal_outflow.value().data()) EXPECT_GE(v, 0.0f);
}

TEST(FlowConvolutionTest, GradientsReachAllParameters) {
  common::Rng rng(3);
  const int n = 3;
  FlowConvolution conv(n, 3, 2, &rng);
  data::StHistory history;
  history.inflow_short = Tensor::RandomUniform({3, n * n}, 0.1f, 1, &rng);
  history.outflow_short = Tensor::RandomUniform({3, n * n}, 0.1f, 1, &rng);
  history.inflow_long = Tensor::RandomUniform({2, n * n}, 0.1f, 1, &rng);
  history.outflow_long = Tensor::RandomUniform({2, n * n}, 0.1f, 1, &rng);
  const auto out = conv.Forward(history);
  ag::SumAll(ag::Square(out.node_features)).Backward();
  int with_grad = 0;
  for (const auto& p : conv.parameters()) {
    if (tensor::SumAll(tensor::Abs(p.grad())).item() > 0.0f) ++with_grad;
  }
  // All 11 parameter tensors (W1-W7, b1-b4) should receive gradient signal.
  EXPECT_GE(with_grad, 9);  // allow a dead-ReLU parameter or two
}

// --- FCG generation ---

TEST(FcgTest, EdgesFollowFlowRule) {
  const int n = 3;
  Tensor features = Tensor::Ones({n, n});
  Tensor inflow = Tensor::Zeros({n, n});
  Tensor outflow = Tensor::Zeros({n, n});
  inflow.at(0, 1) = 2.0f;   // flow 1 -> 0: edge (0, 1)
  outflow.at(2, 0) = 1.0f;  // outflow 2 -> 0: edge (0, 2)
  const FlowConvolutedGraph graph = BuildFlowConvolutedGraph(
      Variable::Constant(features), Variable::Constant(inflow),
      Variable::Constant(outflow));
  EXPECT_FLOAT_EQ(graph.edge_mask.at(0, 1), 1.0f);
  EXPECT_FLOAT_EQ(graph.edge_mask.at(0, 2), 1.0f);
  EXPECT_FLOAT_EQ(graph.edge_mask.at(1, 2), 0.0f);
  EXPECT_FLOAT_EQ(graph.edge_mask.at(2, 1), 0.0f);
  // Self loops always present.
  for (int i = 0; i < n; ++i) EXPECT_FLOAT_EQ(graph.edge_mask.at(i, i), 1.0f);
}

TEST(FcgTest, WeightsRowNormalized) {
  common::Rng rng(4);
  const int n = 4;
  Tensor features = Tensor::RandomUniform({n, n}, 0.1f, 1.0f, &rng);
  Tensor inflow = Tensor::RandomUniform({n, n}, 0.0f, 1.0f, &rng);
  Tensor outflow = Tensor::RandomUniform({n, n}, 0.0f, 1.0f, &rng);
  const FlowConvolutedGraph graph = BuildFlowConvolutedGraph(
      Variable::Constant(features), Variable::Constant(inflow),
      Variable::Constant(outflow));
  for (int i = 0; i < n; ++i) {
    float row_sum = 0.0f;
    for (int j = 0; j < n; ++j) {
      EXPECT_GE(graph.weights.value().at(i, j), 0.0f);
      row_sum += graph.weights.value().at(i, j);
    }
    EXPECT_NEAR(row_sum, 1.0f, 1e-3);
  }
}

TEST(FcgTest, WeightsDifferentiableWrtFeatures) {
  common::Rng rng(5);
  const int n = 3;
  const Tensor features = Tensor::RandomUniform({n, n}, 0.2f, 1.0f, &rng);
  const Tensor inflow = Tensor::RandomUniform({n, n}, 0.1f, 1.0f, &rng);
  const Tensor outflow = Tensor::RandomUniform({n, n}, 0.1f, 1.0f, &rng);
  ExpectGradientsClose(
      [&](const std::vector<Variable>& v) {
        const FlowConvolutedGraph graph = BuildFlowConvolutedGraph(
            v[0], Variable::Constant(inflow), Variable::Constant(outflow));
        return ag::SumAll(ag::Square(graph.weights));
      },
      {features});
}

// --- Aggregators ---

TEST(MaskedNeighborMaxTest, ValuesAndGradient) {
  Tensor h({3, 2}, {1, 10, 2, 20, 3, 30});
  Tensor mask({3, 3}, {1, 1, 0,   // node 0 sees {0, 1}
                       0, 1, 0,   // node 1 sees {1}
                       1, 1, 1}); // node 2 sees all
  Variable hv = Variable::Parameter(h);
  Variable out = MaskedNeighborMax(hv, mask);
  EXPECT_TRUE(out.value().AllClose(Tensor({3, 2}, {2, 20, 2, 20, 3, 30})));
  ag::SumAll(out).Backward();
  // Gradients land on argmax rows: node 1 contributes 3 times (from rows
  // 0, 1, 2), node 2 once per feature from row 2.
  EXPECT_TRUE(hv.grad().AllClose(Tensor({3, 2}, {0, 0, 2, 2, 1, 1})));
}

TEST(MaskedNeighborMaxTest, EmptyRowYieldsZero) {
  Tensor h({2, 1}, {5, 6});
  Tensor mask = Tensor::Zeros({2, 2});
  Variable out = MaskedNeighborMax(Variable::Constant(h), mask);
  EXPECT_TRUE(out.value().AllClose(Tensor::Zeros({2, 1})));
}

TEST(AggregatorLayersTest, ShapesPreserved) {
  common::Rng rng(6);
  const int n = 5;
  Variable features =
      Variable::Constant(Tensor::RandomUniform({n, n}, -1, 1, &rng));
  Tensor mask = Tensor::Ones({n, n});
  Variable weights = Variable::Constant(
      graph::RowNormalized(Tensor::RandomUniform({n, n}, 0, 1, &rng)));

  FlowGnnLayer flow_layer(n, &rng);
  EXPECT_EQ(flow_layer.Forward(features, weights).value().shape(),
            (tensor::Shape{n, n}));
  MeanGnnLayer mean_layer(n, &rng);
  EXPECT_EQ(mean_layer.Forward(features, mask).value().shape(),
            (tensor::Shape{n, n}));
  MaxGnnLayer max_layer(n, &rng);
  EXPECT_EQ(max_layer.Forward(features, mask).value().shape(),
            (tensor::Shape{n, n}));
  AttentionGnnLayer attn_layer(n, 3, &rng);
  EXPECT_EQ(attn_layer.Forward(features).value().shape(),
            (tensor::Shape{n, n}));
  EXPECT_EQ(attn_layer.Attention(features).size(), 3u);
}

TEST(AttentionAggregatorTest, AttentionRowsAreDistributions) {
  common::Rng rng(7);
  const int n = 6;
  AttentionGnnLayer layer(n, 2, &rng);
  Variable features =
      Variable::Constant(Tensor::RandomUniform({n, n}, -1, 1, &rng));
  for (const Variable& head : layer.Attention(features)) {
    const Tensor& attn = head.value();
    for (int i = 0; i < n; ++i) {
      float total = 0.0f;
      for (int j = 0; j < n; ++j) {
        EXPECT_GE(attn.at(i, j), 0.0f);
        total += attn.at(i, j);
      }
      EXPECT_NEAR(total, 1.0f, 1e-4);
    }
  }
}

TEST(AttentionAggregatorTest, HeadsDiffer) {
  common::Rng rng(8);
  const int n = 6;
  AttentionGnnLayer layer(n, 2, &rng);
  Variable features =
      Variable::Constant(Tensor::RandomUniform({n, n}, -1, 1, &rng));
  const auto attn = layer.Attention(features);
  ASSERT_EQ(attn.size(), 2u);
  EXPECT_FALSE(attn[0].value().AllClose(attn[1].value(), 1e-4f));
}

// Eq. (11) is evaluated folded, s = F (W8 a_src) and d = F (W8 a_dst), a
// reassociation of the paper's [F_i W8 || F_j W8] W9. Against that unfolded
// product in double, each float score may carry the rounding of two
// ascending fma chains of depth f: |error| <= 2 f eps * sum |F||W8||a|.
// The test allows 1e-5 of that absolute-value sum (2 f eps is 7.6e-6 at
// f = 64), and checks the softmaxed attention rows to 1e-5 absolute.
TEST(AttentionAggregatorTest, FoldedScoresMatchUnfoldedEq11InDouble) {
  for (const int n : {8, 64}) {
    common::Rng rng(90 + n);
    constexpr int kHeads = 2;
    AttentionGnnLayer layer(n, kHeads, &rng);
    const Tensor f = Tensor::RandomUniform({n, n}, -1, 1, &rng);
    const std::vector<Variable> heads = layer.Attention(Variable::Constant(f));
    for (int u = 0; u < kHeads; ++u) {
      const Tensor src =
          tensor::MatMul(f, layer.SourceScoreWeights(u).value());
      const Tensor dst = tensor::MatMul(f, layer.DestScoreWeights(u).value());
      const Tensor& w8 = layer.w8(u).value();
      const Tensor& a_src = layer.a_src(u).value();
      const Tensor& a_dst = layer.a_dst(u).value();
      // Unfolded, in double: P = F W8, then the two halves of P W9.
      std::vector<double> s_ref(n, 0.0), d_ref(n, 0.0), s_abs(n, 0.0),
          d_abs(n, 0.0);
      for (int i = 0; i < n; ++i) {
        for (int q = 0; q < n; ++q) {
          double p = 0.0, p_abs = 0.0;
          for (int k = 0; k < n; ++k) {
            p += static_cast<double>(f.at(i, k)) * w8.at(k, q);
            p_abs += std::fabs(static_cast<double>(f.at(i, k)) * w8.at(k, q));
          }
          s_ref[i] += p * a_src.at(q, 0);
          d_ref[i] += p * a_dst.at(q, 0);
          s_abs[i] += p_abs * std::fabs(a_src.at(q, 0));
          d_abs[i] += p_abs * std::fabs(a_dst.at(q, 0));
        }
      }
      for (int i = 0; i < n; ++i) {
        EXPECT_NEAR(src.at(i, 0), s_ref[i], 1e-5 * s_abs[i] + 1e-30)
            << "n=" << n << " head " << u << " row " << i;
        EXPECT_NEAR(dst.at(i, 0), d_ref[i], 1e-5 * d_abs[i] + 1e-30)
            << "n=" << n << " head " << u << " row " << i;
      }
      // Eq. (12) from the unfolded scores: softmax_j ELU(s_i + d_j).
      const Tensor& attention = heads[u].value();
      for (int i = 0; i < n; ++i) {
        std::vector<double> e(n);
        double e_max = -INFINITY;
        for (int j = 0; j < n; ++j) {
          const double x = s_ref[i] + d_ref[j];
          e[j] = x > 0 ? x : std::expm1(x);
          e_max = std::max(e_max, e[j]);
        }
        double denom = 0.0;
        for (int j = 0; j < n; ++j) denom += std::exp(e[j] - e_max);
        for (int j = 0; j < n; ++j) {
          EXPECT_NEAR(attention.at(i, j), std::exp(e[j] - e_max) / denom,
                      1e-5)
              << "n=" << n << " head " << u << " (" << i << ", " << j << ")";
        }
      }
    }
  }
}

// After the fold no MatMul has W8 as its right operand, so the int8 weight
// set carries no copy of it; the value transforms stay quantized.
TEST(AttentionAggregatorTest, QuantizedWeightSetLeavesOutW8) {
  common::Rng rng(11);
  StgnnConfig config = FastConfig();
  StgnnDjdModel model(16, config, &rng);
  const auto set = model.QuantizeWeights(tensor::Precision::kInt8);
  ASSERT_NE(set, nullptr);
  const PcgBranch& pcg = *model.pcg_branch();
  ASSERT_GT(pcg.num_attention_layers(), 0);
  for (int l = 0; l < pcg.num_attention_layers(); ++l) {
    const AttentionGnnLayer& layer = pcg.attention_layer(l);
    for (int u = 0; u < layer.num_heads(); ++u) {
      EXPECT_EQ(set->Find(layer.w8(u).node().get()), nullptr);
      EXPECT_NE(set->Find(layer.phi(u).node().get()), nullptr);
    }
  }
}

bool BitEqual(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data().data(), b.data().data(),
                     static_cast<size_t>(a.size()) * sizeof(float)) == 0;
}

// The int8 set holds only weights some MatMul reads as its right operand:
// the flow-convolution biases (added) and gate weights W5/W6 (left
// operand) stay out, and leaving them out moves no int8 output bit.
TEST(AttentionAggregatorTest, QuantizedWeightSetHoldsOnlyRightOperands) {
  common::Rng rng(12);
  StgnnConfig config = FastConfig();
  StgnnDjdModel model(16, config, &rng);
  const auto set = model.QuantizeWeights(tensor::Precision::kInt8);
  ASSERT_NE(set, nullptr);
  const FlowConvolution& fc = *model.flow_convolution();
  for (const Variable* p :
       {&fc.b1(), &fc.b2(), &fc.b3(), &fc.b4(), &fc.w5(), &fc.w6()}) {
    EXPECT_EQ(set->Find(p->node().get()), nullptr);
  }
  EXPECT_NE(set->Find(fc.w7().node().get()), nullptr);

  // The same forward through a set that also carries the six.
  std::vector<const autograd::Node*> w8_only;
  const PcgBranch& pcg = *model.pcg_branch();
  for (int l = 0; l < pcg.num_attention_layers(); ++l) {
    for (int u = 0; u < pcg.attention_layer(l).num_heads(); ++u) {
      w8_only.push_back(pcg.attention_layer(l).w8(u).node().get());
    }
  }
  const auto wider = autograd::BuildQuantizedWeightSet(
      tensor::Precision::kInt8, model.parameters(), w8_only);
  EXPECT_EQ(wider->tensors(), set->tensors() + 6);
  common::Rng data_rng(13);
  data::StHistory history;
  history.inflow_short = Tensor::RandomUniform(
      {config.short_term_slots, 16 * 16}, 0.0f, 1.0f, &data_rng);
  history.outflow_short = Tensor::RandomUniform(
      {config.short_term_slots, 16 * 16}, 0.0f, 1.0f, &data_rng);
  history.inflow_long = Tensor::RandomUniform(
      {config.long_term_days, 16 * 16}, 0.0f, 1.0f, &data_rng);
  history.outflow_long = Tensor::RandomUniform(
      {config.long_term_days, 16 * 16}, 0.0f, 1.0f, &data_rng);
  auto int8_forward = [&](const autograd::QuantizedWeightSet* weights) {
    autograd::QuantizedInferenceScope scope(weights);
    return model.Forward(history, /*training=*/false, nullptr).value();
  };
  EXPECT_TRUE(BitEqual(int8_forward(set.get()), int8_forward(wider.get())));
}

// --- Row-subset steps ---
//
// Every layer's forward is a chain of steps over station rows; Forward runs
// them over all rows and a serving shard over its own. Each step run on a
// subset of rows must give exactly those rows of the full output.

// The subsets: one row, the last row, a scattered set in no sorted order,
// and all rows.
std::vector<std::vector<int>> RowSubsets(int n) {
  common::Rng rng(41);
  std::vector<int> scattered = rng.Permutation(n);
  scattered.resize(n / 4);
  std::vector<int> all(n);
  for (int i = 0; i < n; ++i) all[i] = i;
  return {{0}, {n - 1}, scattered, all};
}

// The cells of rows `rows` in a stacked [c, n*n] history: [c, |rows|*n].
Tensor RowCells(const Tensor& stacked, const std::vector<int>& rows, int n) {
  const int c = stacked.dim(0);
  const int m = static_cast<int>(rows.size());
  Tensor out({c, m * n});
  const float* src = stacked.data().data();
  float* dst = out.mutable_data().data();
  for (int k = 0; k < c; ++k) {
    for (int r = 0; r < m; ++r) {
      std::memcpy(dst + (static_cast<size_t>(k) * m + r) * n,
                  src + (static_cast<size_t>(k) * n + rows[r]) * n,
                  sizeof(float) * n);
    }
  }
  return out;
}

void ExpectRowsOf(const Variable& got, const Tensor& full,
                  const std::vector<int>& rows, const char* what) {
  EXPECT_TRUE(BitEqual(got.value(), tensor::GatherRows(full, rows))) << what;
}

TEST(RowStepsTest, EveryStepOnARowSubsetIsThoseRowsOfTheFullOutput) {
  const int n = 37;  // not a multiple of any vector width
  const std::vector<std::vector<int>> subsets = RowSubsets(n);
  // (sparse FCG, self term) cases; without the self term the steps get no
  // self rows, as a serving shard passes none.
  for (const auto& [sparse, self] :
       {std::pair{false, true}, std::pair{true, true}, std::pair{false, false},
        std::pair{true, false}}) {
    StgnnConfig config = FastConfig();
    config.sparse_density_threshold = sparse ? 1.0f : 0.0f;
    config.aggregator_self_term = self;
    common::Rng rng(17);
    const StgnnDjdModel model(n, config, &rng);
    // Flows on ~20% of station pairs, so the FCG is sparse enough to
    // dispatch to the CSR kernels when allowed.
    data::StHistory history;
    Tensor* stacked[] = {&history.inflow_short, &history.outflow_short,
                         &history.inflow_long, &history.outflow_long};
    for (int b = 0; b < 4; ++b) {
      const int c = b < 2 ? config.short_term_slots : config.long_term_days;
      *stacked[b] = Tensor({c, n * n});
      for (int cell = 0; cell < n * n; ++cell) {
        if (!rng.Bernoulli(0.2)) continue;
        for (int k = 0; k < c; ++k) {
          stacked[b]->at(k, cell) = static_cast<float>(rng.Uniform(0.1, 1));
        }
      }
    }
    const auto int8 = model.QuantizeWeights(tensor::Precision::kInt8);
    for (const autograd::QuantizedWeightSet* weights :
         {static_cast<const autograd::QuantizedWeightSet*>(nullptr),
          int8.get()}) {
      SCOPED_TRACE(std::string(sparse ? "sparse" : "dense") + " FCG, " +
                   (self ? "" : "no self term, ") + (weights ? "int8" : "fp32"));
      const autograd::NoTapeScope no_tape;
      autograd::QuantizedInferenceScope scope(weights);

      // Flow convolution, Eq. (1)-(9).
      const FlowConvolution& fc = *model.flow_convolution();
      const FlowConvolution::Output conv = fc.Forward(history);
      const Variable* weight[] = {&fc.w1(), &fc.w2(), &fc.w3(), &fc.w4()};
      const Variable* bias[] = {&fc.b1(), &fc.b2(), &fc.b3(), &fc.b4()};
      std::vector<Variable> branch_full;
      for (int b = 0; b < 4; ++b) {
        branch_full.push_back(fc.ConvBranch(*weight[b], *bias[b], *stacked[b]));
      }
      // Every FCG and PCG layer's input and output, and the model output.
      const StgnnDjdModel::Embeddings emb = model.ComputeEmbeddings(history);
      const FlowConvolutedGraph graph = model.BuildGraph(emb);
      const FcgBranch& fcg = *model.fcg_branch();
      ASSERT_EQ(fcg.DispatchesSparse(graph), sparse);
      const auto pattern = sparse ? graph.edge_csr : nullptr;
      std::vector<Variable> fcg_io = {Variable::Constant(emb.node_features)};
      for (int l = 0; l < fcg.num_flow_layers(); ++l) {
        fcg_io.push_back(
            fcg.flow_layer(l).Forward(fcg_io.back(), graph.weights, pattern));
      }
      const PcgBranch& pcg = *model.pcg_branch();
      std::vector<Variable> pcg_io = {Variable::Constant(emb.node_features)};
      for (int l = 0; l < pcg.num_attention_layers(); ++l) {
        pcg_io.push_back(pcg.attention_layer(l).Forward(pcg_io.back()));
      }
      const Tensor prediction = model.Forward(history, false, nullptr).value();
      ASSERT_TRUE(BitEqual(fcg_io.back().value(),
                           fcg.Forward(fcg_io[0], graph).value()));
      ASSERT_TRUE(BitEqual(conv.node_features.value(), emb.node_features));

      for (const std::vector<int>& rows : subsets) {
        SCOPED_TRACE("rows: " + std::to_string(rows.size()));
        auto gather = [&](const Variable& full) {
          return Variable::Constant(tensor::GatherRows(full.value(), rows));
        };
        std::vector<Variable> branch_rows;
        for (int b = 0; b < 4; ++b) {
          branch_rows.push_back(fc.ConvBranch(
              *weight[b], gather(*bias[b]), RowCells(*stacked[b], rows, n)));
          ExpectRowsOf(branch_rows[b], branch_full[b].value(), rows,
                       "ConvBranch");
        }
        const Variable inflow = FlowConvolution::Fuse(
            gather(fc.w5()), ag::Sub(branch_full[0], branch_full[2]),
            branch_rows[0], branch_rows[2]);
        const Variable outflow = FlowConvolution::Fuse(
            gather(fc.w6()), ag::Sub(branch_full[1], branch_full[3]),
            branch_rows[1], branch_rows[3]);
        ExpectRowsOf(inflow, conv.temporal_inflow.value(), rows, "Fuse in");
        ExpectRowsOf(outflow, conv.temporal_outflow.value(), rows,
                     "Fuse out");
        ExpectRowsOf(fc.Project(inflow, outflow), conv.node_features.value(),
                     rows, "Project");

        for (int l = 0; l < fcg.num_flow_layers(); ++l) {
          const auto sub_pattern =
              sparse ? std::make_shared<const tensor::Csr>(
                           tensor::Csr::FromDense(
                               tensor::GatherRows(graph.edge_mask, rows)))
                     : nullptr;
          ExpectRowsOf(fcg.flow_layer(l).Forward(
                           fcg_io[l], gather(graph.weights), sub_pattern,
                           self ? gather(fcg_io[l]) : Variable()),
                       fcg_io[l + 1].value(), rows, "FlowGnnLayer");
        }

        for (int l = 0; l < pcg.num_attention_layers(); ++l) {
          const AttentionGnnLayer& layer = pcg.attention_layer(l);
          const Variable& in = pcg_io[l];
          const Variable queries = gather(in);
          auto head_inputs = [&](int u) {
            const Variable dest = layer.DestScores(in, u);
            const Variable values = layer.Values(in, u);
            ExpectRowsOf(layer.DestScores(queries, u), dest.value(), rows,
                         "DestScores");
            ExpectRowsOf(layer.Values(queries, u), values.value(), rows,
                         "Values");
            return AttentionGnnLayer::HeadInputs{
                ag::Transpose(dest), values,
                self ? gather(values) : Variable()};
          };
          ExpectRowsOf(layer.Attend(queries, head_inputs),
                       pcg_io[l + 1].value(), rows, "Attend");
        }

        ExpectRowsOf(model.Head({gather(fcg_io.back()), gather(pcg_io.back())},
                                /*training=*/false, nullptr),
                     prediction, rows, "Head");
      }
    }
  }
}

// Clone copies every parameter value bit for bit into storage of its own,
// and the copy's forward is the source's.
TEST(StgnnModelTest, CloneCopiesValuesAndForward) {
  common::Rng rng(14);
  const auto& flow = TestFlow();
  StgnnConfig config = FastConfig();
  StgnnDjdModel model(flow.num_stations, config, &rng);
  const std::unique_ptr<StgnnDjdModel> copy = model.Clone();
  const auto src = model.parameters();
  const auto dst = copy->parameters();
  ASSERT_EQ(dst.size(), src.size());
  ASSERT_GT(src.size(), 0u);
  for (size_t i = 0; i < src.size(); ++i) {
    EXPECT_TRUE(BitEqual(dst[i].value(), src[i].value())) << "parameter " << i;
    EXPECT_NE(dst[i].node(), src[i].node()) << "parameter " << i;
  }
  const int t = flow.FirstPredictableSlot(config.short_term_slots,
                                          config.long_term_days);
  const data::StHistory history = data::BuildStHistory(
      flow, t, config.short_term_slots, config.long_term_days, 0.1f);
  const Tensor want = model.Forward(history, false, nullptr).value();
  EXPECT_TRUE(BitEqual(copy->Forward(history, false, nullptr).value(), want));
  // Independent storage: moving the source leaves the copy's forward alone.
  for (auto& p : model.parameters()) {
    p.SetValue(tensor::AddScalar(p.value(), 1.0f));
  }
  EXPECT_TRUE(BitEqual(copy->Forward(history, false, nullptr).value(), want));
}

TEST(FlowAggregatorTest, RespectsWeights) {
  common::Rng rng(9);
  const int n = 3;
  // Weight matrix where node 0 aggregates only from node 2.
  Tensor weights = Tensor::Zeros({n, n});
  weights.at(0, 2) = 1.0f;
  weights.at(1, 1) = 1.0f;
  weights.at(2, 2) = 1.0f;
  FlowGnnLayer layer(n, &rng);
  Tensor features({n, n});
  features.at(2, 0) = 5.0f;  // only node 2 has signal
  Variable out = layer.Forward(Variable::Constant(features),
                               Variable::Constant(weights));
  // Nodes 0 and 2 aggregate node 2's features; node 1 aggregates nothing
  // (its own features are zero), so its pre-activation is zero.
  const Tensor& o = out.value();
  float node1_total = 0.0f;
  for (int j = 0; j < n; ++j) node1_total += std::fabs(o.at(1, j));
  EXPECT_FLOAT_EQ(node1_total, 0.0f);
}

// --- Full model ---

TEST(StgnnModelTest, ForwardShape) {
  common::Rng rng(10);
  const auto& flow = TestFlow();
  StgnnConfig config = FastConfig();
  StgnnDjdModel model(flow.num_stations, config, &rng);
  const int t = flow.FirstPredictableSlot(config.short_term_slots,
                                          config.long_term_days);
  const data::StHistory history = data::BuildStHistory(
      flow, t, config.short_term_slots, config.long_term_days, 0.1f);
  Variable out = model.Forward(history, /*training=*/false, nullptr);
  EXPECT_EQ(out.value().shape(), (tensor::Shape{flow.num_stations, 2}));
}

TEST(StgnnModelTest, AblationsChangeParameterCount) {
  common::Rng rng(11);
  const int n = TestFlow().num_stations;
  StgnnConfig full = FastConfig();
  StgnnDjdModel model_full(n, full, &rng);

  StgnnConfig no_fcg = FastConfig();
  no_fcg.ablation.use_fcg = false;
  StgnnDjdModel model_no_fcg(n, no_fcg, &rng);

  StgnnConfig no_pcg = FastConfig();
  no_pcg.ablation.use_pcg = false;
  StgnnDjdModel model_no_pcg(n, no_pcg, &rng);

  EXPECT_GT(model_full.NumParameters(), model_no_fcg.NumParameters());
  EXPECT_GT(model_full.NumParameters(), model_no_pcg.NumParameters());
}

TEST(StgnnModelTest, NoFcUsesLearnedFeatures) {
  common::Rng rng(12);
  const auto& flow = TestFlow();
  StgnnConfig config = FastConfig();
  config.ablation.use_flow_convolution = false;
  StgnnDjdModel model(flow.num_stations, config, &rng);
  const int t = flow.FirstPredictableSlot(config.short_term_slots,
                                          config.long_term_days);
  const data::StHistory history = data::BuildStHistory(
      flow, t, config.short_term_slots, config.long_term_days, 0.1f);
  Variable out = model.Forward(history, false, nullptr);
  EXPECT_EQ(out.value().dim(1), 2);
}

TEST(StgnnModelTest, TrainingStepReducesLossOnFixedBatch) {
  common::Rng rng(13);
  const auto& flow = TestFlow();
  StgnnConfig config = FastConfig();
  config.dropout = 0.0f;  // the taped training=true Forward is the eval one
  StgnnDjdModel model(flow.num_stations, config, &rng);
  const auto norm =
      data::MinMaxNormalizer::Fit(flow.demand, flow.supply, flow.train_end);
  const int t0 = flow.FirstPredictableSlot(config.short_term_slots,
                                           config.long_term_days);
  const float scale = 1.0f / flow.max_train_flow;
  nn::Adam optimizer(model.parameters(), 0.01f);

  auto batch_loss = [&]() {
    Variable total;
    for (int t = t0; t < t0 + 8; ++t) {
      const data::StHistory history = data::BuildStHistory(
          flow, t, config.short_term_slots, config.long_term_days, scale);
      Variable pred = model.Forward(history, /*training=*/true, nullptr);
      Variable target =
          Variable::Constant(norm.Normalize(data::TargetAt(flow, t)));
      Variable loss = nn::JointDemandSupplyLoss(pred, target);
      total = total.defined() ? ag::Add(total, loss) : loss;
    }
    return total;
  };

  const float initial = batch_loss().value().item();
  for (int step = 0; step < 12; ++step) {
    model.ZeroGrad();
    Variable loss = batch_loss();
    loss.Backward();
    nn::ClipGradNorm(model.parameters(), 5.0f);
    optimizer.Step();
  }
  const float final_loss = batch_loss().value().item();
  EXPECT_LT(final_loss, initial * 0.9f);
}

TEST(StgnnPredictorTest, EndToEndTrainPredict) {
  const auto& flow = TestFlow();
  StgnnDjdPredictor predictor(FastConfig());
  predictor.Train(flow);
  const int t = std::max(flow.val_end, predictor.MinHistorySlots(flow));
  const Tensor pred = predictor.Predict(flow, t);
  ASSERT_EQ(pred.shape(), (tensor::Shape{flow.num_stations, 2}));
  for (float v : pred.data()) {
    EXPECT_TRUE(std::isfinite(v));
    EXPECT_GE(v, 0.0f);
  }
}

TEST(StgnnPredictorTest, DeterministicGivenSeed) {
  const auto& flow = TestFlow();
  StgnnConfig config = FastConfig();
  config.seed = 42;
  StgnnDjdPredictor a(config);
  StgnnDjdPredictor b(config);
  a.Train(flow);
  b.Train(flow);
  const int t = std::max(flow.val_end, a.MinHistorySlots(flow));
  EXPECT_TRUE(a.Predict(flow, t).AllClose(b.Predict(flow, t), 1e-5f));
}

TEST(StgnnPredictorTest, AttentionExtractionForCaseStudy) {
  const auto& flow = TestFlow();
  StgnnConfig config = FastConfig();
  StgnnDjdPredictor predictor(config);
  predictor.Train(flow);
  const int t = std::max(flow.val_end, predictor.MinHistorySlots(flow));
  const auto attention = predictor.PcgAttentionAt(flow, t);
  ASSERT_EQ(attention.size(),
            static_cast<size_t>(config.attention_heads));
  for (const Tensor& head : attention) {
    ASSERT_EQ(head.shape(),
              (tensor::Shape{flow.num_stations, flow.num_stations}));
  }
  // Attention is time-varying: a different slot gives different scores.
  const auto attention2 = predictor.PcgAttentionAt(flow, t + 5);
  EXPECT_FALSE(attention[0].AllClose(attention2[0], 1e-6f));
}

TEST(StgnnPredictorTest, AllVariantsTrain) {
  const auto& flow = TestFlow();
  std::vector<StgnnConfig> variants;
  {
    StgnnConfig c = FastConfig();
    c.ablation.use_flow_convolution = false;
    variants.push_back(c);
  }
  {
    StgnnConfig c = FastConfig();
    c.ablation.use_fcg = false;
    variants.push_back(c);
  }
  {
    StgnnConfig c = FastConfig();
    c.ablation.use_pcg = false;
    variants.push_back(c);
  }
  {
    StgnnConfig c = FastConfig();
    c.fcg_aggregator = Aggregator::kMean;
    variants.push_back(c);
  }
  {
    StgnnConfig c = FastConfig();
    c.fcg_aggregator = Aggregator::kMax;
    variants.push_back(c);
  }
  {
    StgnnConfig c = FastConfig();
    c.pcg_aggregator = Aggregator::kMean;
    variants.push_back(c);
  }
  {
    StgnnConfig c = FastConfig();
    c.pcg_aggregator = Aggregator::kMax;
    variants.push_back(c);
  }
  for (StgnnConfig& config : variants) {
    config.epochs = 1;
    config.max_samples_per_epoch = 16;
    StgnnDjdPredictor predictor(config);
    predictor.Train(flow);
    const int t = std::max(flow.val_end, predictor.MinHistorySlots(flow));
    const Tensor pred = predictor.Predict(flow, t);
    for (float v : pred.data()) {
      EXPECT_TRUE(std::isfinite(v)) << config.DescribeVariant();
    }
  }
}

}  // namespace
}  // namespace stgnn::core
