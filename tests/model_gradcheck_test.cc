// End-to-end finite-difference gradcheck through the full StgnnDjd forward
// (flow convolution → FCG/PCG generation → aggregators → joint head) on a
// tiny fixed-seed city of n=6 stations. The per-layer gradchecks in
// core_test.cc verify each block in isolation; this battery pins the
// composition, at 1 and at 4 kernel threads, and asserts the two thread
// counts agree bit-for-bit (the pool's determinism contract).

#include <cmath>
#include <vector>

#include "autograd/ops.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/stgnn_djd.h"
#include "data/window.h"
#include "gtest/gtest.h"
#include "tensor/tensor.h"

namespace stgnn {
namespace {

namespace ag = autograd;
using autograd::Variable;
using tensor::Tensor;

constexpr int kStations = 6;
constexpr int kShortSlots = 4;
constexpr int kLongDays = 2;

core::StgnnConfig SmallConfig() {
  core::StgnnConfig config;
  config.short_term_slots = kShortSlots;
  config.long_term_days = kLongDays;
  config.fcg_layers = 1;
  config.pcg_layers = 1;
  config.attention_heads = 2;
  config.dropout = 0.0f;  // so the taped training=true Forward is the eval one
  config.horizon = 1;
  return config;
}

// Fixed-seed synthetic flow history: non-negative entries in the range the
// scaled real inputs occupy.
data::StHistory FixedHistory() {
  common::Rng rng(7);
  const int nn = kStations * kStations;
  data::StHistory history;
  history.inflow_short =
      Tensor::RandomUniform({kShortSlots, nn}, 0.0f, 0.6f, &rng);
  history.outflow_short =
      Tensor::RandomUniform({kShortSlots, nn}, 0.0f, 0.6f, &rng);
  history.inflow_long =
      Tensor::RandomUniform({kLongDays, nn}, 0.0f, 0.6f, &rng);
  history.outflow_long =
      Tensor::RandomUniform({kLongDays, nn}, 0.0f, 0.6f, &rng);
  return history;
}

Variable Loss(const core::StgnnDjdModel& model, const data::StHistory& history,
              const Tensor& target) {
  // training=true records the tape; with dropout 0 it is the eval forward.
  Variable prediction = model.Forward(history, /*training=*/true, nullptr);
  return ag::MeanAll(ag::Square(ag::Sub(prediction,
                                        Variable::Constant(target))));
}

struct AnalyticPass {
  float loss = 0.0f;
  std::vector<Tensor> values;  // parameter values (post-init)
  std::vector<Tensor> grads;   // analytic dL/dparam
};

// Builds a fresh fixed-seed model at the given thread count and runs one
// forward + backward.
AnalyticPass ComputeAnalytic(int num_threads) {
  common::SetNumThreads(num_threads);
  common::Rng rng(123);
  core::StgnnDjdModel model(kStations, SmallConfig(), &rng);
  const data::StHistory history = FixedHistory();
  common::Rng target_rng(29);
  const Tensor target =
      Tensor::RandomUniform({kStations, 2}, 0.0f, 1.0f, &target_rng);

  model.ZeroGrad();
  Variable loss = Loss(model, history, target);
  loss.Backward();

  AnalyticPass pass;
  pass.loss = loss.value().item();
  for (const auto& p : model.parameters()) {
    pass.values.push_back(p.value());
    pass.grads.push_back(p.grad());
  }
  return pass;
}

void RunFullModelGradcheck(int num_threads) {
  const int prev_threads = common::GetNumThreads();
  common::SetNumThreads(num_threads);
  common::Rng rng(123);
  core::StgnnDjdModel model(kStations, SmallConfig(), &rng);
  const data::StHistory history = FixedHistory();
  common::Rng target_rng(29);
  const Tensor target =
      Tensor::RandomUniform({kStations, 2}, 0.0f, 1.0f, &target_rng);

  model.ZeroGrad();
  Variable loss = Loss(model, history, target);
  loss.Backward();

  std::vector<Variable> params = model.parameters();
  ASSERT_FALSE(params.empty());
  int64_t total_elements = 0;
  for (const auto& p : params) total_elements += p.value().size();
  // n=6, k=4, d=2, 1+1 layers, 2 heads: the whole network is a few hundred
  // scalars, so perturbing every one stays fast.
  ASSERT_LT(total_elements, 2000) << "tiny config grew; keep gradcheck fast";

  const float epsilon = 1e-2f;
  const float tolerance = 2e-2f;
  for (size_t pi = 0; pi < params.size(); ++pi) {
    const Tensor analytic = params[pi].grad();
    const Tensor original = params[pi].value();
    for (int64_t e = 0; e < original.size(); ++e) {
      auto eval_at = [&](float delta) {
        Tensor perturbed = original;
        perturbed.flat(e) += delta;
        params[pi].SetValue(std::move(perturbed));
        return Loss(model, history, target).value().item();
      };
      const float plus = eval_at(epsilon);
      const float minus = eval_at(-epsilon);
      params[pi].SetValue(original);
      const float numeric = (plus - minus) / (2.0f * epsilon);
      const float got = analytic.flat(e);
      const float scale = std::max({1.0f, std::fabs(numeric), std::fabs(got)});
      EXPECT_NEAR(got, numeric, tolerance * scale)
          << "param " << pi << " element " << e << " at " << num_threads
          << " thread(s)";
    }
  }
  common::SetNumThreads(prev_threads);
}

TEST(ModelGradcheck, FullForwardBackwardAtOneThread) {
  RunFullModelGradcheck(1);
}

TEST(ModelGradcheck, FullForwardBackwardAtFourThreads) {
  RunFullModelGradcheck(4);
}

TEST(ModelGradcheck, LossAndGradientsBitIdenticalAcrossThreadCounts) {
  const int prev_threads = common::GetNumThreads();
  const AnalyticPass serial = ComputeAnalytic(1);
  const AnalyticPass parallel = ComputeAnalytic(4);
  common::SetNumThreads(prev_threads);

  ASSERT_EQ(serial.values.size(), parallel.values.size());
  EXPECT_EQ(serial.loss, parallel.loss);
  for (size_t pi = 0; pi < serial.values.size(); ++pi) {
    ASSERT_EQ(serial.values[pi].shape(), parallel.values[pi].shape());
    for (int64_t e = 0; e < serial.values[pi].size(); ++e) {
      ASSERT_EQ(serial.values[pi].flat(e), parallel.values[pi].flat(e))
          << "init diverged: param " << pi << " element " << e;
      ASSERT_EQ(serial.grads[pi].flat(e), parallel.grads[pi].flat(e))
          << "gradient diverged: param " << pi << " element " << e;
    }
  }
}

}  // namespace
}  // namespace stgnn
