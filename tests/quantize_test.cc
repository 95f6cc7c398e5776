// Tests for the inference-only quantized weight path: int8 round-trip
// error bounds, per-tensor scale selection, eligibility and exclusion rules
// of BuildQuantizedWeightSet, the thread-local scope that routes
// ag::MatMul through the quantized kernels, and — the gate that lets the
// path ship — an end-to-end RMSE-delta regression on the golden fixed-seed
// config: serving a trained model through int8 weights may move test RMSE
// only marginally relative to fp32.
//
// Training must never touch quantized weights: two trainings that differ
// only in infer_precision produce bit-identical parameters.

#include <cmath>
#include <cstring>
#include <memory>
#include <vector>

#include "autograd/inference_precision.h"
#include "autograd/ops.h"
#include "common/rng.h"
#include "core/stgnn_djd.h"
#include "data/city_simulator.h"
#include "data/flow_dataset.h"
#include "eval/experiment.h"
#include "gtest/gtest.h"
#include "tensor/quantized.h"
#include "tensor/tensor.h"

namespace stgnn {
namespace {

namespace ag = autograd;
using tensor::Tensor;

Tensor RandomTensor(tensor::Shape shape, common::Rng* rng, float lo = -1.0f,
                    float hi = 1.0f) {
  Tensor t(std::move(shape));
  for (int64_t i = 0; i < t.size(); ++i) {
    t.flat(i) = static_cast<float>(rng->Uniform(lo, hi));
  }
  return t;
}

float AbsMax(const Tensor& t) {
  float m = 0.0f;
  for (int64_t i = 0; i < t.size(); ++i) {
    m = std::max(m, std::fabs(t.flat(i)));
  }
  return m;
}

TEST(Quantize, Int8RoundTripBoundAndScaleSelection) {
  common::Rng rng(11);
  const Tensor w = RandomTensor({16, 24}, &rng, -3.0f, 3.0f);
  const tensor::QuantizedTensor q = tensor::QuantizeInt8(w);
  const float absmax = AbsMax(w);
  // Per-tensor scale: the largest magnitude maps to the full ±127 range.
  EXPECT_FLOAT_EQ(q.scale, absmax / 127.0f);
  const Tensor back = tensor::DequantizeInt8(q);
  ASSERT_EQ(back.size(), w.size());
  for (int64_t i = 0; i < w.size(); ++i) {
    // Round-to-nearest: each weight is off by at most half a quantum.
    EXPECT_LE(std::fabs(back.flat(i) - w.flat(i)), 0.5f * q.scale + 1e-6f)
        << "element " << i;
  }
  // The extreme element round-trips exactly (it defines the scale).
  int64_t arg = 0;
  for (int64_t i = 0; i < w.size(); ++i) {
    if (std::fabs(w.flat(i)) == absmax) arg = i;
  }
  EXPECT_NEAR(back.flat(arg), w.flat(arg), 1e-6f * absmax);
}

TEST(Quantize, QuantizedMatMulTracksFp32) {
  common::Rng rng(13);
  const Tensor a = RandomTensor({10, 33}, &rng);
  const Tensor w = RandomTensor({33, 21}, &rng);
  const Tensor exact = tensor::MatMul(a, w);

  const Tensor int8 = tensor::QuantizedMatMul(a, tensor::QuantizeInt8(w));
  ASSERT_EQ(int8.size(), exact.size());
  double ref_norm = 0.0, int8_err = 0.0;
  for (int64_t i = 0; i < exact.size(); ++i) {
    ref_norm += static_cast<double>(exact.flat(i)) * exact.flat(i);
    const double di = int8.flat(i) - exact.flat(i);
    int8_err += di * di;
  }
  // 7-bit weights + 6-bit activations: a couple percent relative Frobenius
  // error.
  EXPECT_LT(std::sqrt(int8_err / ref_norm), 0.03);
}

TEST(Quantize, BuildSetEligibilityAndExclusion) {
  common::Rng rng(14);
  ag::Variable big = ag::Variable::Parameter(RandomTensor({16, 16}, &rng));
  ag::Variable excluded =
      ag::Variable::Parameter(RandomTensor({16, 16}, &rng));
  ag::Variable thin = ag::Variable::Parameter(RandomTensor({16, 2}, &rng));
  ag::Variable vec = ag::Variable::Parameter(Tensor({32}));

  const auto set = ag::BuildQuantizedWeightSet(
      tensor::Precision::kInt8, {big, excluded, thin, vec},
      {excluded.node().get()});
  ASSERT_NE(set, nullptr);
  EXPECT_EQ(set->precision(), tensor::Precision::kInt8);
  EXPECT_EQ(set->tensors(), 1);
  EXPECT_GT(set->bytes_saved(), 0);
  EXPECT_NE(set->Find(big.node().get()), nullptr);
  EXPECT_EQ(set->Find(excluded.node().get()), nullptr);
  EXPECT_EQ(set->Find(thin.node().get()), nullptr);
  EXPECT_EQ(set->Find(vec.node().get()), nullptr);

  // fp32 asks for no set at all.
  EXPECT_EQ(ag::BuildQuantizedWeightSet(tensor::Precision::kFp32, {big}),
            nullptr);
}

TEST(Quantize, ScopeRoutesMatMulThroughQuantizedWeights) {
  common::Rng rng(15);
  ag::Variable x = ag::Variable::Constant(RandomTensor({4, 16}, &rng));
  ag::Variable w = ag::Variable::Parameter(RandomTensor({16, 16}, &rng));
  const Tensor fp32 = ag::MatMul(x, w).value();

  const auto set =
      ag::BuildQuantizedWeightSet(tensor::Precision::kInt8, {w});
  ASSERT_NE(set, nullptr);
  Tensor quantized;
  {
    ag::QuantizedInferenceScope scope(set.get());
    EXPECT_EQ(ag::ActiveQuantizedWeights(), set.get());
    quantized = ag::MatMul(x, w).value();
  }
  EXPECT_EQ(ag::ActiveQuantizedWeights(), nullptr);

  // Inside the scope the product must differ (int8 weights), outside it
  // must be the fp32 result again.
  EXPECT_NE(
      std::memcmp(fp32.data().data(), quantized.data().data(),
                  static_cast<size_t>(fp32.size()) * sizeof(float)),
      0);
  const Tensor after = ag::MatMul(x, w).value();
  EXPECT_EQ(std::memcmp(fp32.data().data(), after.data().data(),
                        static_cast<size_t>(fp32.size()) * sizeof(float)),
            0);
}

// ---------------------------------------------------------------------------
// End-to-end RMSE gate on the golden fixed-seed config.

const data::FlowDataset& GoldenFlow() {
  static const data::FlowDataset* flow = [] {
    data::CityConfig config = data::CityConfig::Tiny();
    config.num_days = 16;
    config.seed = 7;
    return new data::FlowDataset(
        data::BuildFlowDataset(data::CitySimulator(config).Generate()));
  }();
  return *flow;
}

core::StgnnConfig GoldenConfig(tensor::Precision precision) {
  core::StgnnConfig config;
  config.short_term_slots = 8;
  config.long_term_days = 2;
  config.fcg_layers = 2;
  config.pcg_layers = 2;
  config.attention_heads = 2;
  config.epochs = 2;
  config.batch_size = 16;
  config.max_samples_per_epoch = 48;
  config.seed = 17;
  config.num_threads = 1;
  config.infer_precision = precision;
  return config;
}

eval::Metrics Evaluate(core::StgnnDjdPredictor* model) {
  eval::EvalWindow window;
  window.min_history = model->MinHistorySlots(GoldenFlow());
  return eval::EvaluateOnTestSplit(model, GoldenFlow(), window);
}

TEST(Quantize, GoldenRmseDeltaGateAndTrainingUntouched) {
  core::StgnnDjdPredictor fp32(GoldenConfig(tensor::Precision::kFp32));
  fp32.Train(GoldenFlow());
  const eval::Metrics fp32_metrics = Evaluate(&fp32);

  core::StgnnDjdPredictor int8(GoldenConfig(tensor::Precision::kInt8));
  int8.Train(GoldenFlow());

  // Training never touches quantized weights: identical seeds with
  // different infer_precision must land on bit-identical parameters.
  const auto fp32_params = fp32.model()->parameters();
  const auto int8_params = int8.model()->parameters();
  ASSERT_EQ(fp32_params.size(), int8_params.size());
  for (size_t i = 0; i < fp32_params.size(); ++i) {
    const Tensor& a = fp32_params[i].value();
    const Tensor& b = int8_params[i].value();
    ASSERT_EQ(a.size(), b.size());
    EXPECT_EQ(std::memcmp(a.data().data(), b.data().data(),
                          static_cast<size_t>(a.size()) * sizeof(float)),
              0)
        << "parameter " << i << " diverged during training";
  }

  // The RMSE-delta gate: reduced-precision serving may move the golden
  // test RMSE only marginally: 3% for int8 (7-bit weights).
  const eval::Metrics int8_metrics = Evaluate(&int8);
  EXPECT_EQ(int8_metrics.count, fp32_metrics.count);
  EXPECT_LE(std::fabs(int8_metrics.rmse - fp32_metrics.rmse),
            0.03 * fp32_metrics.rmse)
      << "fp32 rmse " << fp32_metrics.rmse << " int8 rmse "
      << int8_metrics.rmse;

  // The int8 serving path must actually differ from fp32 — a quantized
  // path that silently falls back to fp32 would pass the delta gate.
  EXPECT_NE(int8_metrics.rmse, fp32_metrics.rmse);
}

}  // namespace
}  // namespace stgnn
