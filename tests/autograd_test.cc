#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <utility>
#include <vector>

#include "autograd/inference_precision.h"
#include "autograd/ops.h"
#include "common/rng.h"
#include "gradcheck.h"
#include "gtest/gtest.h"

namespace stgnn::autograd {
namespace {

namespace ag = stgnn::autograd;
using stgnn::testing::ExpectGradientsClose;
using tensor::Shape;
using tensor::Tensor;

Tensor RandomTensor(Shape shape, uint64_t seed, float lo = -1.0f,
                    float hi = 1.0f) {
  common::Rng rng(seed);
  return Tensor::RandomUniform(std::move(shape), lo, hi, &rng);
}

TEST(VariableTest, LeafProperties) {
  Variable p = Variable::Parameter(Tensor::Ones({2, 2}));
  EXPECT_TRUE(p.requires_grad());
  Variable c = Variable::Constant(Tensor::Ones({2, 2}));
  EXPECT_FALSE(c.requires_grad());
  EXPECT_TRUE(p.grad().AllClose(Tensor::Zeros({2, 2})));
}

TEST(VariableTest, SimpleBackward) {
  Variable x = Variable::Parameter(Tensor::Scalar(3.0f));
  Variable y = ag::Mul(x, x);  // y = x^2, dy/dx = 2x = 6
  y.Backward();
  EXPECT_NEAR(x.grad().item(), 6.0f, 1e-5);
}

TEST(VariableTest, GradAccumulatesAcrossUses) {
  Variable x = Variable::Parameter(Tensor::Scalar(2.0f));
  Variable y = ag::Add(x, x);  // dy/dx = 2
  y.Backward();
  EXPECT_NEAR(x.grad().item(), 2.0f, 1e-5);
}

TEST(VariableTest, ZeroGradClears) {
  Variable x = Variable::Parameter(Tensor::Scalar(2.0f));
  ag::Mul(x, x).Backward();
  EXPECT_GT(x.grad().item(), 0.0f);
  x.ZeroGrad();
  EXPECT_FLOAT_EQ(x.grad().item(), 0.0f);
}

TEST(VariableTest, ConstantsReceiveNoGradients) {
  Variable x = Variable::Parameter(Tensor::Scalar(2.0f));
  Variable c = Variable::Constant(Tensor::Scalar(5.0f));
  Variable y = ag::Mul(x, c);
  y.Backward();
  EXPECT_NEAR(x.grad().item(), 5.0f, 1e-5);
  EXPECT_FLOAT_EQ(c.grad().item(), 0.0f);
}

TEST(VariableTest, DeepChainNoStackOverflow) {
  Variable x = Variable::Parameter(Tensor::Scalar(1.0f));
  Variable y = x;
  for (int i = 0; i < 5000; ++i) y = ag::AddScalar(y, 0.0f);
  y.Backward();
  EXPECT_NEAR(x.grad().item(), 1.0f, 1e-5);
}

// --- Inference without a tape ---

// Under a NoTapeScope an op's result keeps its value and nothing else: no
// parent edges, no backward closure, requires_grad false, even when an
// input is a parameter. The value is bit for bit the taped one, and the
// scope nests and restores.
TEST(NoTapeTest, OpsKeepOnlyTheirValues) {
  const Variable w = Variable::Parameter(RandomTensor({5, 4}, 1));
  const Variable x = Variable::Constant(RandomTensor({3, 5}, 2));
  auto chain = [&] {
    return ag::RowSoftmax(ag::EluInPlace(ag::AddInPlace(ag::MatMul(x, w),
                                                        ag::SumAll(w))));
  };
  const Variable taped = chain();
  ASSERT_TRUE(TapeEnabled());
  ASSERT_TRUE(taped.requires_grad());
  ASSERT_FALSE(taped.node()->parents.empty());
  {
    const NoTapeScope outer;
    EXPECT_FALSE(TapeEnabled());
    {
      const NoTapeScope inner;
      const NoTapeScope disabled(/*enabled=*/false);
      EXPECT_FALSE(TapeEnabled());
    }
    EXPECT_FALSE(TapeEnabled());
    const Variable untaped = chain();
    EXPECT_FALSE(untaped.requires_grad());
    EXPECT_TRUE(untaped.node()->parents.empty());
    EXPECT_EQ(untaped.node()->backward_fn, nullptr);
    EXPECT_TRUE(untaped.node()->op_output);
    EXPECT_EQ(std::memcmp(untaped.value().data().data(),
                          taped.value().data().data(),
                          sizeof(float) * taped.value().size()),
              0);
  }
  EXPECT_TRUE(TapeEnabled());
  const NoTapeScope disabled(/*enabled=*/false);
  EXPECT_TRUE(TapeEnabled());
}

// The in-place ops steal an exclusively owned op output with or without a
// tape (the result reuses its buffer), and never steal a leaf.
TEST(NoTapeTest, InPlaceOpsStealOpOutputsNeverLeaves) {
  for (const bool tape : {true, false}) {
    SCOPED_TRACE(tape ? "taped" : "tapeless");
    const NoTapeScope scope(/*enabled=*/!tape);
    const Variable w = Variable::Parameter(RandomTensor({4, 4}, 3));
    const Variable x = Variable::Constant(RandomTensor({2, 4}, 4));
    Variable product = ag::MatMul(x, w);
    const float* product_buffer = product.value().data().data();
    const Variable relu = ag::ReluInPlace(std::move(product));
    EXPECT_EQ(relu.value().data().data(), product_buffer);

    Variable leaf = Variable::Constant(RandomTensor({2, 4}, 5));
    const float* leaf_buffer = leaf.value().data().data();
    const Variable elu = ag::EluInPlace(std::move(leaf));
    EXPECT_NE(elu.value().data().data(), leaf_buffer);
  }
}

// A quantized weight product is an op output too: the in-place activation
// that follows it reuses its buffer instead of copying.
TEST(NoTapeTest, QuantizedProductIsStolenByInPlaceOps) {
  const Variable w = Variable::Parameter(RandomTensor({8, 8}, 6));
  const auto set = BuildQuantizedWeightSet(tensor::Precision::kInt8, {w});
  ASSERT_NE(set, nullptr);
  const NoTapeScope no_tape;
  const QuantizedInferenceScope quantized(set.get());
  Variable product =
      ag::MatMul(Variable::Constant(RandomTensor({3, 8}, 7)), w);
  EXPECT_TRUE(product.node()->op_output);
  const float* buffer = product.value().data().data();
  EXPECT_EQ(ag::EluInPlace(std::move(product)).value().data().data(), buffer);
}

TEST(ReduceGradTest, SumsOverBroadcastAxes) {
  Tensor g = Tensor::Ones({2, 3});
  EXPECT_TRUE(ReduceGradToShape(g, {2, 3}).AllClose(g));
  EXPECT_TRUE(ReduceGradToShape(g, {1, 3})
                  .AllClose(Tensor({1, 3}, {2, 2, 2})));
  EXPECT_TRUE(ReduceGradToShape(g, {2, 1})
                  .AllClose(Tensor({2, 1}, {3, 3})));
  EXPECT_TRUE(ReduceGradToShape(g, {3}).AllClose(Tensor({3}, {2, 2, 2})));
  EXPECT_NEAR(ReduceGradToShape(g, {}).item(), 6.0f, 1e-6);
}

::testing::AssertionResult SameBits(const Tensor& got, const Tensor& want) {
  if (got.shape() != want.shape()) {
    return ::testing::AssertionFailure() << "shape mismatch";
  }
  for (int64_t i = 0; i < want.size(); ++i) {
    uint32_t g, w;
    const float gv = got.flat(i);
    const float wv = want.flat(i);
    std::memcpy(&g, &gv, 4);
    std::memcpy(&w, &wv, 4);
    if (g != w) {
      return ::testing::AssertionFailure()
             << "element " << i << ": " << gv << " vs " << wv;
    }
  }
  return ::testing::AssertionSuccess();
}

// The rank-2 path against the generic multi-index loop, which a leading
// unit axis forces ([1, r, c] sums in the same row-major order): every
// output bit matches, through signed zeros, infinities, NaN and denormals.
// The input NaN is x86's default NaN, the one inf - inf produces: a
// compiler may order a float add's operands either way, and only two NaNs
// of different bits meeting could tell the orders apart.
TEST(ReduceGradTest, Rank2PathMatchesGenericLoopBitwise) {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = -std::numeric_limits<float>::quiet_NaN();
  const float denorm = std::numeric_limits<float>::denorm_min();
  for (const auto& [rows, cols] : std::vector<std::pair<int, int>>{
           {1, 1}, {1, 9}, {9, 1}, {7, 13}, {64, 300}, {300, 64}}) {
    Tensor g = RandomTensor({rows, cols}, 77 + rows * cols);
    // A few cells scaled into the denormal range, so some sums stay there.
    for (int64_t e = 0; e < g.size(); e += 5) g.flat(e) *= 1e-38f;
    if (rows >= 7 && cols >= 7) {
      // Row 0 meets +inf and -inf (NaN); row 2 a NaN; row 3 and column 6
      // are all -0 (the sums start at +0); two denormals cancel in row 4.
      g.at(0, 1) = inf;
      g.at(0, 5) = -inf;
      g.at(2, 3) = nan;
      for (int j = 0; j < cols; ++j) g.at(3, j) = -0.0f;
      for (int i = 0; i < rows; ++i) g.at(i, 6) = -0.0f;
      g.at(4, 0) = denorm;
      g.at(4, 2) = -denorm;
    }
    const Tensor generic_src = g.Reshape({1, rows, cols});
    for (const Shape& target : std::vector<Shape>{
             {rows, 1}, {1, cols}, {cols}, {1, 1}, {1}, {}}) {
      if (target == g.shape()) continue;
      EXPECT_TRUE(SameBits(ReduceGradToShape(g, target),
                           ReduceGradToShape(generic_src, target)))
          << rows << "x" << cols << " -> rank " << target.size();
    }
  }
}

// --- Numerical gradient checks per op ---

TEST(GradCheck, AddSubMulDiv) {
  const Tensor a = RandomTensor({2, 3}, 1);
  const Tensor b = RandomTensor({2, 3}, 2, 0.5f, 1.5f);
  ExpectGradientsClose(
      [](const std::vector<Variable>& v) {
        return ag::SumAll(ag::Mul(ag::Add(v[0], v[1]), ag::Sub(v[0], v[1])));
      },
      {a, b});
  ExpectGradientsClose(
      [](const std::vector<Variable>& v) {
        return ag::SumAll(ag::Div(v[0], v[1]));
      },
      {a, b});
}

TEST(GradCheck, BroadcastBinary) {
  const Tensor a = RandomTensor({3, 4}, 3);
  const Tensor row = RandomTensor({1, 4}, 4, 0.5f, 1.5f);
  const Tensor col = RandomTensor({3, 1}, 5);
  ExpectGradientsClose(
      [](const std::vector<Variable>& v) {
        return ag::SumAll(ag::Mul(ag::Add(v[0], v[1]), v[2]));
      },
      {a, row, col});
  ExpectGradientsClose(
      [](const std::vector<Variable>& v) {
        return ag::SumAll(ag::Div(v[0], v[1]));
      },
      {a, row});
}

TEST(GradCheck, UnaryOps) {
  const Tensor a = RandomTensor({2, 3}, 6, 0.2f, 1.8f);  // positive for log
  ExpectGradientsClose(
      [](const std::vector<Variable>& v) {
        return ag::SumAll(ag::Log(v[0]));
      },
      {a});
  ExpectGradientsClose(
      [](const std::vector<Variable>& v) {
        return ag::SumAll(ag::Exp(v[0]));
      },
      {a});
  ExpectGradientsClose(
      [](const std::vector<Variable>& v) {
        return ag::SumAll(ag::Sqrt(v[0]));
      },
      {a});
  ExpectGradientsClose(
      [](const std::vector<Variable>& v) {
        return ag::SumAll(ag::Square(v[0]));
      },
      {a});
  ExpectGradientsClose(
      [](const std::vector<Variable>& v) {
        return ag::SumAll(ag::Sigmoid(v[0]));
      },
      {a});
  ExpectGradientsClose(
      [](const std::vector<Variable>& v) {
        return ag::SumAll(ag::Tanh(v[0]));
      },
      {a});
  ExpectGradientsClose(
      [](const std::vector<Variable>& v) { return ag::SumAll(ag::Neg(v[0])); },
      {a});
}

TEST(GradCheck, ReluAwayFromKink) {
  // Values bounded away from 0 so finite differences are valid.
  Tensor a({2, 2}, {-1.0f, -0.5f, 0.5f, 1.0f});
  ExpectGradientsClose(
      [](const std::vector<Variable>& v) {
        return ag::SumAll(ag::Relu(v[0]));
      },
      {a});
}

TEST(GradCheck, EluBothSides) {
  Tensor a({2, 2}, {-2.0f, -0.7f, 0.7f, 2.0f});
  ExpectGradientsClose(
      [](const std::vector<Variable>& v) {
        return ag::SumAll(ag::Elu(v[0]));
      },
      {a});
}

TEST(GradCheck, MatMul) {
  const Tensor a = RandomTensor({3, 4}, 7);
  const Tensor b = RandomTensor({4, 2}, 8);
  ExpectGradientsClose(
      [](const std::vector<Variable>& v) {
        return ag::SumAll(ag::Square(ag::MatMul(v[0], v[1])));
      },
      {a, b});
}

TEST(GradCheck, TransposeReshape) {
  const Tensor a = RandomTensor({3, 4}, 9);
  ExpectGradientsClose(
      [](const std::vector<Variable>& v) {
        return ag::SumAll(
            ag::Square(ag::Reshape(ag::Transpose(v[0]), {2, 6})));
      },
      {a});
}

TEST(GradCheck, ConcatBothAxes) {
  const Tensor a = RandomTensor({2, 3}, 10);
  const Tensor b = RandomTensor({2, 3}, 11);
  ExpectGradientsClose(
      [](const std::vector<Variable>& v) {
        return ag::SumAll(ag::Square(ag::Concat({v[0], v[1]}, 0)));
      },
      {a, b});
  ExpectGradientsClose(
      [](const std::vector<Variable>& v) {
        return ag::SumAll(ag::Square(ag::Concat({v[0], v[1]}, 1)));
      },
      {a, b});
}

// The axis-1 backward hands each part its columns of the output gradient
// with every bit kept (signed zeros, infinities, NaN payloads, denormals),
// exactly as an element-by-element copy would; widths are ragged.
TEST(ConcatTest, Axis1BackwardCopiesColumnsBitForBit) {
  const std::vector<int> widths = {1, 7, 16, 3, 33, 2};
  constexpr int kRows = 9;
  std::vector<Variable> parts;
  int total = 0;
  for (const int w : widths) {
    parts.push_back(Variable::Parameter(Tensor::Zeros({kRows, w})));
    total += w;
  }
  const Variable out = ag::Concat(parts, /*axis=*/1);
  Tensor g = RandomTensor({kRows, total}, 31);
  uint32_t nan_bits = 0x7fc01234u;
  float payload_nan;
  std::memcpy(&payload_nan, &nan_bits, 4);
  const float specials[] = {-0.0f, std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity(),
                            payload_nan,
                            -std::numeric_limits<float>::denorm_min()};
  for (int64_t e = 0; e < g.size(); e += 5) g.flat(e) = specials[(e / 5) % 5];
  // Seed the node's gradient directly, so the bits above reach the closure.
  Node* node = out.node().get();
  node->grad = g;
  node->grad_initialized = true;
  node->backward_fn();
  int offset = 0;
  for (size_t p = 0; p < parts.size(); ++p) {
    Tensor want({kRows, widths[p]});
    for (int i = 0; i < kRows; ++i) {
      for (int j = 0; j < widths[p]; ++j) want.at(i, j) = g.at(i, offset + j);
    }
    EXPECT_TRUE(SameBits(parts[p].grad(), want)) << "part " << p;
    offset += widths[p];
  }
}

TEST(GradCheck, SliceRows) {
  const Tensor a = RandomTensor({4, 3}, 12);
  ExpectGradientsClose(
      [](const std::vector<Variable>& v) {
        return ag::SumAll(ag::Square(ag::SliceRows(v[0], 1, 3)));
      },
      {a});
}

TEST(GradCheck, Reductions) {
  const Tensor a = RandomTensor({3, 4}, 13);
  ExpectGradientsClose(
      [](const std::vector<Variable>& v) {
        return ag::MeanAll(ag::Square(v[0]));
      },
      {a});
  ExpectGradientsClose(
      [](const std::vector<Variable>& v) {
        return ag::SumAll(ag::Square(ag::SumAxisKeepdims(v[0], 1)));
      },
      {a});
  ExpectGradientsClose(
      [](const std::vector<Variable>& v) {
        return ag::SumAll(ag::Square(ag::SumAxisKeepdims(v[0], 0)));
      },
      {a});
}

TEST(GradCheck, RowSoftmax) {
  const Tensor a = RandomTensor({3, 4}, 14);
  ExpectGradientsClose(
      [](const std::vector<Variable>& v) {
        // Weighted sum so the softmax Jacobian is exercised nontrivially.
        Variable w = Variable::Constant(
            Tensor({3, 4}, {1, 2, 3, 4, 4, 3, 2, 1, 1, -1, 1, -1}));
        return ag::SumAll(ag::Mul(ag::RowSoftmax(v[0]), w));
      },
      {a});
}

TEST(GradCheck, ScalarOps) {
  const Tensor a = RandomTensor({2, 2}, 15);
  ExpectGradientsClose(
      [](const std::vector<Variable>& v) {
        return ag::SumAll(ag::MulScalar(ag::AddScalar(v[0], 3.0f), -2.0f));
      },
      {a});
}

TEST(GradCheck, CompositeExpression) {
  // A small attention-like block: softmax(QK^T)V reduced to a scalar.
  const Tensor q = RandomTensor({3, 4}, 16);
  const Tensor k = RandomTensor({3, 4}, 17);
  const Tensor v = RandomTensor({3, 4}, 18);
  ExpectGradientsClose(
      [](const std::vector<Variable>& in) {
        Variable scores = ag::MatMul(in[0], ag::Transpose(in[1]));
        Variable attn = ag::RowSoftmax(scores);
        return ag::SumAll(ag::Square(ag::MatMul(attn, in[2])));
      },
      {q, k, v});
}

TEST(DropoutTest, IdentityWhenEval) {
  common::Rng rng(1);
  Variable x = Variable::Parameter(Tensor::Ones({4, 4}));
  Variable y = ag::Dropout(x, 0.5f, /*training=*/false, &rng);
  EXPECT_TRUE(y.value().AllClose(x.value()));
}

TEST(DropoutTest, ScalesAndZeroes) {
  common::Rng rng(2);
  Variable x = Variable::Parameter(Tensor::Ones({100, 100}));
  Variable y = ag::Dropout(x, 0.5f, /*training=*/true, &rng);
  int zeros = 0;
  for (float v : y.value().data()) {
    if (v == 0.0f) {
      ++zeros;
    } else {
      EXPECT_FLOAT_EQ(v, 2.0f);  // 1 / (1 - 0.5)
    }
  }
  EXPECT_NEAR(zeros, 5000, 400);
  // Expectation is preserved: mean stays near 1.
  EXPECT_NEAR(tensor::MeanAll(y.value()).item(), 1.0f, 0.05f);
}

TEST(DropoutTest, GradientFlowsThroughMask) {
  common::Rng rng(3);
  Variable x = Variable::Parameter(Tensor::Ones({10, 10}));
  Variable y = ag::Dropout(x, 0.3f, /*training=*/true, &rng);
  ag::SumAll(y).Backward();
  const Tensor gx = x.grad();
  for (int64_t i = 0; i < gx.size(); ++i) {
    const float g = gx.flat(i);
    EXPECT_TRUE(g == 0.0f || std::fabs(g - 1.0f / 0.7f) < 1e-5);
  }
}

// Parameterized gradient sweep across shapes for the core binary ops.
class BinaryGradSweep
    : public ::testing::TestWithParam<std::tuple<Shape, Shape>> {};

TEST_P(BinaryGradSweep, MulGradcheck) {
  const auto& [sa, sb] = GetParam();
  ExpectGradientsClose(
      [](const std::vector<Variable>& v) {
        return ag::SumAll(ag::Mul(v[0], v[1]));
      },
      {RandomTensor(sa, 21), RandomTensor(sb, 22)});
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, BinaryGradSweep,
    ::testing::Values(std::make_tuple(Shape{2, 2}, Shape{2, 2}),
                      std::make_tuple(Shape{3, 1}, Shape{1, 4}),
                      std::make_tuple(Shape{4}, Shape{2, 4}),
                      std::make_tuple(Shape{1, 5}, Shape{3, 5})));

}  // namespace
}  // namespace stgnn::autograd
