#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "gtest/gtest.h"
#include "tensor/quantized.h"
#include "tensor/tensor.h"

namespace stgnn::tensor {
namespace {

TEST(TensorTest, DefaultIsScalarZero) {
  Tensor t;
  EXPECT_EQ(t.ndim(), 0);
  EXPECT_EQ(t.size(), 1);
  EXPECT_FLOAT_EQ(t.item(), 0.0f);
}

TEST(TensorTest, ShapeAndSize) {
  Tensor t({2, 3, 4});
  EXPECT_EQ(t.ndim(), 3);
  EXPECT_EQ(t.size(), 24);
  EXPECT_EQ(t.dim(0), 2);
  EXPECT_EQ(t.dim(2), 4);
}

TEST(TensorTest, FactoryValues) {
  EXPECT_FLOAT_EQ(Tensor::Ones({2, 2}).at(1, 1), 1.0f);
  EXPECT_FLOAT_EQ(Tensor::Full({3}, 2.5f).at(2), 2.5f);
  EXPECT_FLOAT_EQ(Tensor::Scalar(9.0f).item(), 9.0f);
  Tensor eye = Tensor::Eye(3);
  EXPECT_FLOAT_EQ(eye.at(0, 0), 1.0f);
  EXPECT_FLOAT_EQ(eye.at(0, 1), 0.0f);
  Tensor v = Tensor::FromVector({1, 2, 3});
  EXPECT_EQ(v.ndim(), 1);
  EXPECT_FLOAT_EQ(v.at(1), 2.0f);
}

TEST(TensorTest, RandomFactoriesRespectShapeAndRange) {
  common::Rng rng(3);
  Tensor u = Tensor::RandomUniform({50, 4}, -1.0f, 1.0f, &rng);
  EXPECT_EQ(u.size(), 200);
  for (float x : u.data()) {
    EXPECT_GE(x, -1.0f);
    EXPECT_LT(x, 1.0f);
  }
  Tensor g = Tensor::RandomNormal({1000}, 2.0f, 0.5f, &rng);
  double mean = 0.0;
  for (float x : g.data()) mean += x;
  EXPECT_NEAR(mean / 1000, 2.0, 0.1);
}

TEST(TensorTest, AtIndexing2d3d) {
  Tensor t({2, 3});
  t.at(1, 2) = 7.0f;
  EXPECT_FLOAT_EQ(t.flat(5), 7.0f);
  Tensor u({2, 2, 2});
  u.at(1, 0, 1) = 3.0f;
  EXPECT_FLOAT_EQ(u.flat(5), 3.0f);
}

TEST(TensorTest, ReshapeAndInfer) {
  Tensor t({2, 6});
  for (int i = 0; i < 12; ++i) t.flat(i) = static_cast<float>(i);
  Tensor r = t.Reshape({3, 4});
  EXPECT_FLOAT_EQ(r.at(2, 3), 11.0f);
  Tensor inferred = t.Reshape({-1, 3});
  EXPECT_EQ(inferred.dim(0), 4);
}

TEST(TensorTest, Transpose) {
  Tensor t({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor tt = t.Transpose();
  EXPECT_EQ(tt.dim(0), 3);
  EXPECT_FLOAT_EQ(tt.at(2, 1), 6.0f);
  EXPECT_TRUE(tt.Transpose().AllClose(t));
}

TEST(TensorTest, SliceRowsRowCol) {
  Tensor t({4, 2}, {0, 1, 2, 3, 4, 5, 6, 7});
  Tensor mid = t.SliceRows(1, 3);
  EXPECT_EQ(mid.dim(0), 2);
  EXPECT_FLOAT_EQ(mid.at(0, 0), 2.0f);
  Tensor row = t.Row(2);
  EXPECT_FLOAT_EQ(row.at(0, 1), 5.0f);
  Tensor col = t.Col(1);
  EXPECT_EQ(col.dim(0), 4);
  EXPECT_FLOAT_EQ(col.at(3, 0), 7.0f);
}

TEST(TensorTest, AllClose) {
  Tensor a({2}, {1.0f, 2.0f});
  Tensor b({2}, {1.0f + 1e-7f, 2.0f});
  EXPECT_TRUE(a.AllClose(b));
  Tensor c({2}, {1.1f, 2.0f});
  EXPECT_FALSE(a.AllClose(c));
  Tensor d({1, 2}, {1.0f, 2.0f});
  EXPECT_FALSE(a.AllClose(d));  // shape mismatch
}

// --- Broadcasting ---

TEST(BroadcastTest, Shapes) {
  EXPECT_EQ(BroadcastShapes({2, 3}, {2, 3}), (Shape{2, 3}));
  EXPECT_EQ(BroadcastShapes({2, 1}, {1, 3}), (Shape{2, 3}));
  EXPECT_EQ(BroadcastShapes({3}, {2, 3}), (Shape{2, 3}));
  EXPECT_EQ(BroadcastShapes({}, {4, 5}), (Shape{4, 5}));
}

TEST(BroadcastTest, AddSameShape) {
  Tensor a({2, 2}, {1, 2, 3, 4});
  Tensor b({2, 2}, {10, 20, 30, 40});
  EXPECT_TRUE(Add(a, b).AllClose(Tensor({2, 2}, {11, 22, 33, 44})));
}

TEST(BroadcastTest, AddRowVector) {
  Tensor a({2, 3}, {0, 0, 0, 1, 1, 1});
  Tensor row({1, 3}, {1, 2, 3});
  EXPECT_TRUE(Add(a, row).AllClose(Tensor({2, 3}, {1, 2, 3, 2, 3, 4})));
}

TEST(BroadcastTest, AddColVector) {
  Tensor a({2, 3}, {0, 0, 0, 0, 0, 0});
  Tensor col({2, 1}, {5, 7});
  EXPECT_TRUE(Add(a, col).AllClose(Tensor({2, 3}, {5, 5, 5, 7, 7, 7})));
}

TEST(BroadcastTest, OuterSum) {
  Tensor col({2, 1}, {1, 2});
  Tensor row({1, 2}, {10, 20});
  EXPECT_TRUE(Add(col, row).AllClose(Tensor({2, 2}, {11, 21, 12, 22})));
}

TEST(BroadcastTest, MulDivSubMaximum) {
  Tensor a({2, 2}, {2, 4, 6, 8});
  Tensor s = Tensor::Scalar(2.0f);
  EXPECT_TRUE(Mul(a, s).AllClose(Tensor({2, 2}, {4, 8, 12, 16})));
  EXPECT_TRUE(Div(a, s).AllClose(Tensor({2, 2}, {1, 2, 3, 4})));
  EXPECT_TRUE(Sub(a, a).AllClose(Tensor::Zeros({2, 2})));
  Tensor b({2, 2}, {3, 3, 3, 9});
  EXPECT_TRUE(Maximum(a, b).AllClose(Tensor({2, 2}, {3, 4, 6, 9})));
  EXPECT_TRUE(Minimum(a, b).AllClose(Tensor({2, 2}, {2, 3, 3, 8})));
}

// --- Rank-2 broadcast fast paths vs the general N-d loop ---
//
// Rank <= 2 broadcasts take a strided row loop; rank >= 3 the general
// multi-index loop. Lifting both operands by two leading 1 axes routes the
// same values through the general loop, so the two results must agree bit
// for bit. Inputs include NaN, +-inf and signed zeros, so Maximum/Minimum
// tie and NaN handling is pinned too. Sizes span several parallel chunks.

Tensor SpecialValues(const Shape& shape, common::Rng* rng) {
  Tensor t = Tensor::RandomNormal(shape, 0.0f, 2.0f, rng);
  const float specials[] = {std::nanf(""), INFINITY, -INFINITY, 0.0f, -0.0f,
                            1.0f};
  for (int64_t i = 0; i < t.size(); i += 7) {
    t.flat(i) = specials[(i / 7) % 6];
  }
  return t;
}

Shape Lifted(const Shape& s) {
  Shape lifted{1, 1};
  lifted.insert(lifted.end(), s.begin(), s.end());
  return lifted;
}

::testing::AssertionResult SameBits(const Tensor& a, const Tensor& b) {
  if (a.shape() != b.shape()) {
    return ::testing::AssertionFailure()
           << ShapeToString(a.shape()) << " vs " << ShapeToString(b.shape());
  }
  if (std::memcmp(a.data().data(), b.data().data(),
                  sizeof(float) * a.size()) != 0) {
    return ::testing::AssertionFailure() << "bits differ";
  }
  return ::testing::AssertionSuccess();
}

constexpr int kRows = 257;
constexpr int kCols = 131;

TEST(Rank2BroadcastTest, EveryBinaryOpMatchesGeneralLoop) {
  const struct {
    const char* name;
    Tensor (*op)(const Tensor&, const Tensor&);
  } kOps[] = {{"Add", &Add},         {"Sub", &Sub},
              {"Mul", &Mul},         {"Div", &Div},
              {"Maximum", &Maximum}, {"Minimum", &Minimum}};
  const std::pair<Shape, Shape> kPairs[] = {
      {{kRows, 1}, {1, kCols}},     {{kRows, kCols}, {1, kCols}},
      {{kRows, kCols}, {kRows, 1}}, {{1, kCols}, {kRows, 1}},
      {{1, kCols}, {kRows, kCols}}, {{kRows, kCols}, {kCols}},
      {{kRows, kCols}, {1}},        {{}, {kRows, kCols}},
      {{kRows, 1}, {1, 1}},         {{kCols}, {1}}};
  common::Rng rng(123);
  for (const auto& [sa, sb] : kPairs) {
    const Tensor a = SpecialValues(sa, &rng);
    const Tensor b = SpecialValues(sb, &rng);
    const Tensor a3 = a.Reshape(Lifted(sa));
    const Tensor b3 = b.Reshape(Lifted(sb));
    for (const auto& op : kOps) {
      const Tensor fast = op.op(a, b);
      const Tensor general = op.op(a3, b3);
      EXPECT_TRUE(SameBits(fast, general.Reshape(fast.shape())))
          << op.name << " " << ShapeToString(sa) << " (+) "
          << ShapeToString(sb);
    }
  }
}

TEST(Rank2BroadcastTest, InPlaceOpsMatchGeneralLoop) {
  const struct {
    const char* name;
    void (*op)(Tensor*, const Tensor&);
    Tensor (*out_of_place)(const Tensor&, const Tensor&);
  } kOps[] = {{"AddInPlace", &AddInPlace, &Add},
              {"SubInPlace", &SubInPlace, &Sub},
              {"MulInPlace", &MulInPlace, &Mul}};
  const Shape kOperands[] = {{1, kCols}, {kRows, 1}, {kCols}, {1}, {1, 1}};
  common::Rng rng(321);
  for (const Shape& sb : kOperands) {
    const Tensor a = SpecialValues({kRows, kCols}, &rng);
    const Tensor b = SpecialValues(sb, &rng);
    for (const auto& op : kOps) {
      Tensor fast = a;
      op.op(&fast, b);
      Tensor general = a.Reshape(Lifted(a.shape()));
      op.op(&general, b.Reshape(Lifted(sb)));
      EXPECT_TRUE(SameBits(fast, general.Reshape(fast.shape())))
          << op.name << " [" << kRows << ", " << kCols << "] (+)= "
          << ShapeToString(sb);
      // The in-place result is the out-of-place op's, too.
      EXPECT_TRUE(SameBits(fast, op.out_of_place(a, b))) << op.name;
    }
  }
}

// --- Unary ops ---

TEST(UnaryTest, Basics) {
  Tensor a({3}, {-1.0f, 0.0f, 2.0f});
  EXPECT_TRUE(Neg(a).AllClose(Tensor({3}, {1.0f, 0.0f, -2.0f})));
  EXPECT_TRUE(Relu(a).AllClose(Tensor({3}, {0.0f, 0.0f, 2.0f})));
  EXPECT_TRUE(Abs(a).AllClose(Tensor({3}, {1.0f, 0.0f, 2.0f})));
  EXPECT_TRUE(Square(a).AllClose(Tensor({3}, {1.0f, 0.0f, 4.0f})));
  EXPECT_NEAR(Exp(a).at(2), std::exp(2.0f), 1e-5);
  EXPECT_NEAR(Sigmoid(a).at(1), 0.5f, 1e-6);
  EXPECT_NEAR(Tanh(a).at(0), std::tanh(-1.0f), 1e-6);
}

TEST(UnaryTest, EluMatchesDefinition) {
  Tensor a({2}, {-2.0f, 3.0f});
  Tensor e = Elu(a);
  EXPECT_NEAR(e.at(0), std::exp(-2.0f) - 1.0f, 1e-6);
  EXPECT_FLOAT_EQ(e.at(1), 3.0f);
}

TEST(UnaryTest, ClampAndScalarOps) {
  Tensor a({3}, {-5.0f, 0.5f, 9.0f});
  EXPECT_TRUE(Clamp(a, 0.0f, 1.0f).AllClose(Tensor({3}, {0.0f, 0.5f, 1.0f})));
  EXPECT_TRUE(AddScalar(a, 1.0f).AllClose(Tensor({3}, {-4.0f, 1.5f, 10.0f})));
  EXPECT_TRUE(MulScalar(a, 2.0f).AllClose(Tensor({3}, {-10.0f, 1.0f, 18.0f})));
}

// --- MatMul ---

TEST(MatMulTest, KnownProduct) {
  Tensor a({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b({3, 2}, {7, 8, 9, 10, 11, 12});
  Tensor c = MatMul(a, b);
  EXPECT_TRUE(c.AllClose(Tensor({2, 2}, {58, 64, 139, 154})));
}

TEST(MatMulTest, IdentityIsNoop) {
  common::Rng rng(5);
  Tensor a = Tensor::RandomNormal({4, 4}, 0.0f, 1.0f, &rng);
  EXPECT_TRUE(MatMul(a, Tensor::Eye(4)).AllClose(a));
  EXPECT_TRUE(MatMul(Tensor::Eye(4), a).AllClose(a));
}

TEST(MatMulTest, AssociativeWithTranspose) {
  common::Rng rng(6);
  Tensor a = Tensor::RandomNormal({3, 5}, 0.0f, 1.0f, &rng);
  Tensor b = Tensor::RandomNormal({5, 2}, 0.0f, 1.0f, &rng);
  // (A B)^T == B^T A^T
  EXPECT_TRUE(MatMul(a, b).Transpose().AllClose(
      MatMul(b.Transpose(), a.Transpose()), 1e-4f));
}

// --- Reductions ---

TEST(ReduceTest, SumMeanMinMax) {
  Tensor a({2, 3}, {1, 2, 3, 4, 5, 6});
  EXPECT_FLOAT_EQ(SumAll(a).item(), 21.0f);
  EXPECT_FLOAT_EQ(MeanAll(a).item(), 3.5f);
  EXPECT_FLOAT_EQ(MaxAll(a), 6.0f);
  EXPECT_FLOAT_EQ(MinAll(a), 1.0f);
}

TEST(ReduceTest, AxisReductions) {
  Tensor a({2, 3}, {1, 2, 3, 4, 5, 6});
  EXPECT_TRUE(SumAxis(a, 0).AllClose(Tensor({3}, {5, 7, 9})));
  EXPECT_TRUE(SumAxis(a, 1).AllClose(Tensor({2}, {6, 15})));
  EXPECT_TRUE(SumAxis(a, 1, true).AllClose(Tensor({2, 1}, {6, 15})));
  EXPECT_TRUE(MeanAxis(a, 0).AllClose(Tensor({3}, {2.5f, 3.5f, 4.5f})));
  EXPECT_TRUE(MaxAxis(a, 1).AllClose(Tensor({2}, {3, 6})));
}

TEST(SoftmaxTest, RowsSumToOne) {
  Tensor a({2, 3}, {1, 2, 3, -1, 0, 1});
  Tensor s = RowSoftmax(a);
  for (int i = 0; i < 2; ++i) {
    float total = 0.0f;
    for (int j = 0; j < 3; ++j) {
      EXPECT_GT(s.at(i, j), 0.0f);
      total += s.at(i, j);
    }
    EXPECT_NEAR(total, 1.0f, 1e-5);
  }
  // Monotone in the logits.
  EXPECT_LT(s.at(0, 0), s.at(0, 2));
}

TEST(SoftmaxTest, NumericallyStableWithLargeLogits) {
  Tensor a({1, 3}, {1000.0f, 1000.0f, 1000.0f});
  Tensor s = RowSoftmax(a);
  for (int j = 0; j < 3; ++j) EXPECT_NEAR(s.at(0, j), 1.0f / 3.0f, 1e-5);
}

TEST(SoftmaxTest, ShiftInvariance) {
  Tensor a({1, 4}, {0.1f, -0.5f, 2.0f, 1.0f});
  Tensor shifted = AddScalar(a, 100.0f);
  EXPECT_TRUE(RowSoftmax(a).AllClose(RowSoftmax(shifted), 1e-4f));
}

// --- Concat / Stack ---

TEST(ConcatTest, Rows) {
  Tensor a({1, 2}, {1, 2});
  Tensor b({2, 2}, {3, 4, 5, 6});
  Tensor c = Concat({a, b}, 0);
  EXPECT_TRUE(c.AllClose(Tensor({3, 2}, {1, 2, 3, 4, 5, 6})));
}

TEST(ConcatTest, Cols) {
  Tensor a({2, 1}, {1, 2});
  Tensor b({2, 2}, {3, 4, 5, 6});
  Tensor c = Concat({a, b}, 1);
  EXPECT_TRUE(c.AllClose(Tensor({2, 3}, {1, 3, 4, 2, 5, 6})));
}

TEST(ConcatTest, ColsMatchElementwiseCopyAtScale) {
  common::Rng rng(5);
  std::vector<Tensor> parts;
  for (int w : {3, 64, 1, 130}) {
    parts.push_back(Tensor::RandomNormal({kRows, w}, 0.0f, 1.0f, &rng));
  }
  const Tensor c = Concat(parts, 1);
  ASSERT_EQ(c.shape(), (Shape{kRows, 198}));
  int offset = 0;
  for (const Tensor& p : parts) {
    for (int i = 0; i < kRows; ++i) {
      for (int j = 0; j < p.dim(1); ++j) {
        ASSERT_EQ(c.at(i, offset + j), p.at(i, j));
      }
    }
    offset += p.dim(1);
  }
}

TEST(StackTest, AddsLeadingAxis) {
  Tensor a({2}, {1, 2});
  Tensor b({2}, {3, 4});
  Tensor s = Stack({a, b});
  EXPECT_EQ(s.shape(), (Shape{2, 2}));
  EXPECT_FLOAT_EQ(s.at(1, 0), 3.0f);
}

// --- Parameterized property sweep: broadcasting matches manual loops ---

class BroadcastSweep
    : public ::testing::TestWithParam<std::tuple<Shape, Shape>> {};

TEST_P(BroadcastSweep, AddMatchesManual) {
  const auto& [sa, sb] = GetParam();
  common::Rng rng(99);
  Tensor a = Tensor::RandomNormal(sa, 0.0f, 1.0f, &rng);
  Tensor b = Tensor::RandomNormal(sb, 0.0f, 1.0f, &rng);
  Tensor c = Add(a, b);
  const Shape expected = BroadcastShapes(sa, sb);
  ASSERT_EQ(c.shape(), expected);
  // Verify against the symmetric computation.
  EXPECT_TRUE(c.AllClose(Add(b, a)));
  // a + b - b == broadcast of a.
  Tensor back = Sub(c, b);
  Tensor a_broadcast = Add(a, Tensor::Zeros(expected));
  EXPECT_TRUE(back.AllClose(a_broadcast, 1e-4f));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, BroadcastSweep,
    ::testing::Values(std::make_tuple(Shape{3, 4}, Shape{3, 4}),
                      std::make_tuple(Shape{3, 1}, Shape{1, 4}),
                      std::make_tuple(Shape{4}, Shape{3, 4}),
                      std::make_tuple(Shape{2, 3, 4}, Shape{3, 4}),
                      std::make_tuple(Shape{2, 1, 4}, Shape{1, 3, 1}),
                      std::make_tuple(Shape{1}, Shape{5})));

// QuantizeInt8 as first written, one std::lrintf per weight: the oracle
// for the libm-free quantiser. On x86-64 lrintf is cvtss2si, which turns
// NaN and out-of-range values (infinities included) into LONG_MIN.
QuantizedTensor LrintfQuantizeInt8(const Tensor& w) {
  const int k = w.dim(0);
  const int n = w.dim(1);
  const int64_t k4 = (static_cast<int64_t>(k) + 3) / 4;
  QuantizedTensor q;
  q.rows = k;
  q.cols = n;
  float absmax = 0.0f;
  for (int64_t i = 0; i < w.size(); ++i) {
    absmax = std::max(absmax, std::fabs(w.flat(i)));
  }
  q.scale = absmax > 0.0f ? absmax / 127.0f : 1.0f;
  const float inv = absmax > 0.0f ? 127.0f / absmax : 0.0f;
  q.packed.assign(static_cast<size_t>(k4) * n * 4, 0);
  q.col_sums.assign(static_cast<size_t>(n), 0);
  for (int p = 0; p < k; ++p) {
    for (int j = 0; j < n; ++j) {
      const long r = std::lrintf(w.at(p, j) * inv);
      const auto v = static_cast<int8_t>(std::max(-127L, std::min(127L, r)));
      q.packed[static_cast<size_t>(((p / 4) * n + j) * 4 + p % 4)] = v;
      q.col_sums[static_cast<size_t>(j)] += v;
    }
  }
  return q;
}

void ExpectSameQuantization(const Tensor& w, const char* what) {
  const QuantizedTensor want = LrintfQuantizeInt8(w);
  const QuantizedTensor got = QuantizeInt8(w);
  EXPECT_EQ(got.rows, want.rows) << what;
  EXPECT_EQ(got.cols, want.cols) << what;
  EXPECT_EQ(std::memcmp(&got.scale, &want.scale, sizeof(float)), 0) << what;
  EXPECT_EQ(got.packed, want.packed) << what;
  EXPECT_EQ(got.col_sums, want.col_sums) << what;
}

TEST(QuantizeTest, MatchesLrintfLoopBitwise) {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float denorm = std::numeric_limits<float>::denorm_min();
  common::Rng rng(31);
  // Every k % 4, widths off any vector length.
  for (const auto& [k, n] : std::vector<std::pair<int, int>>{
           {4, 5}, {5, 8}, {6, 9}, {7, 64}, {13, 37}, {64, 257}}) {
    Tensor w = Tensor::RandomNormal({k, n}, 0.0f, 1.0f, &rng);
    w.flat(0) = -0.0f;
    ExpectSameQuantization(w, "random");
  }
  // Rounding ties: absmax 127 makes the scale 1, absmax 254 makes it 1/2.
  Tensor ties({5, 8}, {0.5f,   1.5f,   2.5f,  -0.5f,  -1.5f, -2.5f, 126.5f,
                       -126.5f, 127.0f, -127.0f, 3.5f,  -3.5f, 4.5f, 0.0f,
                       -0.0f,  63.5f, 64.5f, -63.5f, 1.0f,  2.0f, 100.5f,
                       -100.5f, 7.5f,  8.5f,  9.5f,  10.5f, 11.5f, 12.5f,
                       13.5f,  14.5f,  15.5f, 16.5f, 17.5f, 18.5f, 19.5f,
                       20.5f,  21.5f,  22.5f, 23.5f, 24.5f});
  ExpectSameQuantization(ties, "ties, scale 1");
  ExpectSameQuantization(MulScalar(ties, 2.0f), "ties, scale 1/2");
  // Infinities: absmax is inf, every weight times 0 (inf * 0 is NaN).
  Tensor with_inf = Tensor::RandomNormal({6, 11}, 0.0f, 1.0f, &rng);
  with_inf.at(1, 3) = inf;
  ExpectSameQuantization(with_inf, "+inf");
  with_inf.at(1, 3) = -inf;
  with_inf.at(5, 10) = inf;
  ExpectSameQuantization(with_inf, "+-inf");
  // NaN weights are skipped by absmax and quantise as lrintf(NaN).
  Tensor with_nan = Tensor::RandomNormal({9, 19}, 0.0f, 1.0f, &rng);
  with_nan.at(0, 0) = nan;
  with_nan.at(8, 18) = -nan;
  ExpectSameQuantization(with_nan, "NaN");
  // A denormal absmax overflows the inverse scale to inf.
  Tensor tiny({3, 8});
  tiny.at(0, 1) = 3 * denorm;
  tiny.at(2, 7) = -denorm;
  ExpectSameQuantization(tiny, "denormal absmax");
  ExpectSameQuantization(Tensor({5, 3}), "zeros");
}

// Matmul distributivity as a randomized property.
class MatMulSweep : public ::testing::TestWithParam<int> {};

TEST_P(MatMulSweep, DistributesOverAddition) {
  const int n = GetParam();
  common::Rng rng(n);
  Tensor a = Tensor::RandomNormal({n, n}, 0.0f, 1.0f, &rng);
  Tensor b = Tensor::RandomNormal({n, n}, 0.0f, 1.0f, &rng);
  Tensor c = Tensor::RandomNormal({n, n}, 0.0f, 1.0f, &rng);
  Tensor lhs = MatMul(a, Add(b, c));
  Tensor rhs = Add(MatMul(a, b), MatMul(a, c));
  EXPECT_TRUE(lhs.AllClose(rhs, 1e-3f));
}

INSTANTIATE_TEST_SUITE_P(Sizes, MatMulSweep, ::testing::Values(1, 2, 5, 16));

}  // namespace
}  // namespace stgnn::tensor
