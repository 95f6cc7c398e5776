// Tests for the sparse (CSR) execution path: structure round-trips, the
// bitwise sparse-vs-dense parity contract of SpMM and the CSR neighbour
// max (at every thread count), finite-difference gradchecks through
// ag::SparseMatMul, the dense/sparse dispatch inside the GNN layers, and
// the FCG edge-mask semantics that the CSR view is built from.

#include <cmath>
#include <cstring>
#include <functional>
#include <memory>
#include <vector>

#include "autograd/ops.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/aggregators.h"
#include "core/graph_generator.h"
#include "gradcheck.h"
#include "gtest/gtest.h"
#include "tensor/csr.h"
#include "tensor/tensor.h"

namespace stgnn {
namespace {

using autograd::Variable;
namespace ag = stgnn::autograd;
using tensor::Csr;
using tensor::Tensor;

constexpr int kThreadCounts[] = {1, 2, 7};

class ThreadGuard {
 public:
  ThreadGuard() : saved_(common::GetNumThreads()) {}
  ~ThreadGuard() { common::SetNumThreads(saved_); }

 private:
  int saved_;
};

bool BitIdentical(const Tensor& a, const Tensor& b) {
  if (a.shape() != b.shape()) return false;
  if (a.size() == 0) return true;
  return std::memcmp(a.data().data(), b.data().data(),
                     a.data().size() * sizeof(float)) == 0;
}

void ExpectThreadCountInvariant(const std::function<Tensor()>& fn) {
  ThreadGuard guard;
  common::SetNumThreads(1);
  const Tensor serial = fn();
  for (int threads : kThreadCounts) {
    common::SetNumThreads(threads);
    const Tensor parallel = fn();
    EXPECT_TRUE(BitIdentical(serial, parallel))
        << "kernel diverges at " << threads << " threads";
  }
}

// Random [rows, cols] matrix where roughly `density` of the entries are
// nonzero (the rest exact zeros), so Csr::FromDense captures its support.
Tensor RandomSparse(int rows, int cols, float density, common::Rng* rng) {
  Tensor t = Tensor::RandomNormal({rows, cols}, 0, 1, rng);
  const Tensor keep = Tensor::RandomUniform({rows, cols}, 0, 1, rng);
  for (int i = 0; i < rows; ++i) {
    for (int j = 0; j < cols; ++j) {
      if (keep.at(i, j) >= density) t.at(i, j) = 0.0f;
    }
  }
  return t;
}

TEST(CsrTest, FromDenseRoundTripAndStructure) {
  common::Rng rng(101);
  const Tensor dense = RandomSparse(23, 31, 0.2f, &rng);
  const Csr csr = Csr::FromDense(dense);
  EXPECT_EQ(csr.rows(), 23);
  EXPECT_EQ(csr.cols(), 31);
  EXPECT_TRUE(BitIdentical(csr.ToDense(), dense));
  // row_ptr is monotone and col_idx ascends strictly within each row.
  int64_t expected_nnz = 0;
  for (int64_t e = 0; e < dense.size(); ++e) {
    if (dense.flat(e) != 0.0f) ++expected_nnz;
  }
  EXPECT_EQ(csr.nnz(), expected_nnz);
  ASSERT_EQ(static_cast<int>(csr.row_ptr().size()), csr.rows() + 1);
  EXPECT_EQ(csr.row_ptr().front(), 0);
  EXPECT_EQ(csr.row_ptr().back(), csr.nnz());
  for (int i = 0; i < csr.rows(); ++i) {
    EXPECT_LE(csr.row_ptr()[i], csr.row_ptr()[i + 1]);
    for (int e = csr.row_ptr()[i] + 1; e < csr.row_ptr()[i + 1]; ++e) {
      EXPECT_LT(csr.col_idx()[e - 1], csr.col_idx()[e]);
    }
  }
  EXPECT_NEAR(csr.density(),
              static_cast<float>(expected_nnz) / (23.0f * 31.0f), 1e-6f);
}

TEST(CsrTest, ThresholdDropsSmallMagnitudes) {
  Tensor t({2, 3});
  t.at(0, 0) = 0.05f;
  t.at(0, 2) = -0.5f;
  t.at(1, 1) = -0.05f;
  const Csr csr = Csr::FromDense(t, 0.1f);
  EXPECT_EQ(csr.nnz(), 1);
  EXPECT_EQ(csr.col_idx()[0], 2);
  EXPECT_EQ(csr.values()[0], -0.5f);
}

TEST(CsrTest, DegenerateShapes) {
  // Empty rows, a fully dense pattern, and a single edge all round-trip.
  Tensor empty_rows = Tensor::Zeros({4, 5});
  empty_rows.at(2, 3) = 7.0f;  // rows 0, 1, 3 are empty
  const Csr single = Csr::FromDense(empty_rows);
  EXPECT_EQ(single.nnz(), 1);
  EXPECT_TRUE(BitIdentical(single.ToDense(), empty_rows));

  common::Rng rng(102);
  const Tensor full = Tensor::RandomNormal({6, 6}, 0, 1, &rng);
  const Csr all = Csr::FromDense(full);
  EXPECT_EQ(all.nnz(), 36);
  EXPECT_NEAR(all.density(), 1.0f, 1e-6f);
  EXPECT_TRUE(BitIdentical(all.ToDense(), full));

  const Csr none = Csr::FromDense(Tensor::Zeros({3, 3}));
  EXPECT_EQ(none.nnz(), 0);
  EXPECT_EQ(none.density(), 0.0f);
  EXPECT_TRUE(BitIdentical(none.ToDense(), Tensor::Zeros({3, 3})));
}

// The checked constructor adopts the three arrays as they are (a -0.0
// value keeps its sign), and ScatterTo writes only the stored positions.
TEST(CsrTest, ConstructorAdoptsArraysAndScattersStoredEntries) {
  const Csr a(3, 4, {0, 2, 2, 3}, {1, 3, 0}, {5.0f, -0.0f, 7.0f});
  EXPECT_EQ(a.rows(), 3);
  EXPECT_EQ(a.cols(), 4);
  EXPECT_EQ(a.nnz(), 3);
  std::vector<float> dense(12, 9.0f);
  a.ScatterTo(dense.data());
  const std::vector<float> want = {9, 5, 9, -0.0f, 9, 9, 9, 9, 7, 9, 9, 9};
  EXPECT_EQ(std::memcmp(dense.data(), want.data(), sizeof(float) * 12), 0);
  const Tensor densified = a.ToDense();
  EXPECT_EQ(densified.at(0, 1), 5.0f);
  EXPECT_TRUE(std::signbit(densified.at(0, 3)));
  EXPECT_EQ(densified.at(2, 0), 7.0f);
  EXPECT_EQ(densified.at(1, 2), 0.0f);
  EXPECT_EQ(Csr(2, 0, {0, 0, 0}, {}, {}).nnz(), 0);
}

TEST(CsrTest, TransposedMatchesDenseTranspose) {
  common::Rng rng(103);
  const Tensor dense = RandomSparse(17, 29, 0.15f, &rng);
  const Csr csr = Csr::FromDense(dense);
  const Csr t = csr.Transposed();
  EXPECT_EQ(t.rows(), 29);
  EXPECT_EQ(t.cols(), 17);
  EXPECT_TRUE(BitIdentical(t.ToDense(), dense.Transpose()));
  // Substituted values permute with the pattern.
  std::vector<float> doubled = csr.values();
  for (float& v : doubled) v *= 2.0f;
  const Tensor td = csr.Transposed(doubled).ToDense();
  EXPECT_TRUE(td.AllClose(tensor::MulScalar(dense.Transpose(), 2.0f), 0.0f));
}

TEST(CsrTest, GatherValuesReadsPatternPositions) {
  common::Rng rng(104);
  const Tensor dense = RandomSparse(9, 11, 0.3f, &rng);
  const Csr csr = Csr::FromDense(dense);
  const Tensor other = Tensor::RandomNormal({9, 11}, 0, 1, &rng);
  const std::vector<float> gathered = csr.GatherValues(other);
  ASSERT_EQ(static_cast<int64_t>(gathered.size()), csr.nnz());
  for (int i = 0; i < csr.rows(); ++i) {
    for (int e = csr.row_ptr()[i]; e < csr.row_ptr()[i + 1]; ++e) {
      EXPECT_EQ(gathered[e], other.at(i, csr.col_idx()[e]));
    }
  }
}

// The core contract: SpMM over a CSR pattern is bit-identical to dense
// MatMul with the zeros materialised, at every thread count, for shapes on
// both sides of the parallel grain.
TEST(SpmmTest, ForwardBitwiseMatchesDense) {
  common::Rng rng(105);
  const struct {
    int m, k, f;
    float density;
  } cases[] = {{1, 1, 1, 1.0f},   {5, 7, 3, 0.4f},   {37, 37, 16, 0.1f},
               {64, 64, 64, 0.05f}, {128, 96, 33, 0.25f}, {200, 200, 1, 0.02f}};
  for (const auto& c : cases) {
    const Tensor a = RandomSparse(c.m, c.k, c.density, &rng);
    const Tensor x = Tensor::RandomNormal({c.k, c.f}, 0, 1, &rng);
    const Csr csr = Csr::FromDense(a);
    ThreadGuard guard;
    for (int threads : kThreadCounts) {
      common::SetNumThreads(threads);
      const Tensor sparse = tensor::SpMM(csr, x);
      const Tensor dense = tensor::MatMul(a, x);
      EXPECT_TRUE(BitIdentical(sparse, dense))
          << "m=" << c.m << " k=" << c.k << " f=" << c.f
          << " density=" << c.density << " threads=" << threads;
    }
    ExpectThreadCountInvariant([&] { return tensor::SpMM(csr, x); });
  }
}

TEST(SpmmTest, EmptyRowsYieldZeroOutputRows) {
  common::Rng rng(106);
  Tensor a = Tensor::Zeros({5, 4});
  a.at(1, 2) = 3.0f;  // single edge; rows 0, 2, 3, 4 empty
  const Tensor x = Tensor::RandomNormal({4, 6}, 0, 1, &rng);
  const Tensor y = tensor::SpMM(Csr::FromDense(a), x);
  EXPECT_TRUE(BitIdentical(y, tensor::MatMul(a, x)));
  for (int c = 0; c < 6; ++c) {
    EXPECT_EQ(y.at(0, c), 0.0f);
    EXPECT_EQ(y.at(1, c), 3.0f * x.at(2, c));
  }
}

// Backward of the differentiable-A overload: dX must match the dense
// backward bitwise; dA must match at the pattern's nnz positions and be
// exactly zero off-pattern (the model's mask multiply annihilates those
// entries downstream, so parameter gradients are unchanged).
TEST(SpmmTest, BackwardBitwiseMatchesDense) {
  common::Rng rng(107);
  const int m = 43, k = 39, f = 21;
  const Tensor a = RandomSparse(m, k, 0.15f, &rng);
  const Tensor x = Tensor::RandomNormal({k, f}, 0, 1, &rng);
  const Tensor w = Tensor::RandomNormal({m, f}, 0, 1, &rng);
  const auto pattern = std::make_shared<const Csr>(Csr::FromDense(a));

  auto run = [&](bool sparse, Tensor* da, Tensor* dx) {
    Variable av = Variable::Parameter(a);
    Variable xv = Variable::Parameter(x);
    Variable y = sparse ? ag::SparseMatMul(av, xv, pattern)
                        : ag::MatMul(av, xv);
    // Non-uniform downstream weighting exercises a structured grad.
    ag::SumAll(ag::Mul(y, Variable::Constant(w))).Backward();
    *da = av.grad();
    *dx = xv.grad();
    return y.value();
  };

  ThreadGuard guard;
  for (int threads : kThreadCounts) {
    common::SetNumThreads(threads);
    Tensor da_dense, dx_dense, da_sparse, dx_sparse;
    const Tensor y_dense = run(false, &da_dense, &dx_dense);
    const Tensor y_sparse = run(true, &da_sparse, &dx_sparse);
    EXPECT_TRUE(BitIdentical(y_sparse, y_dense)) << threads << " threads";
    EXPECT_TRUE(BitIdentical(dx_sparse, dx_dense)) << threads << " threads";
    for (int i = 0; i < m; ++i) {
      for (int j = 0; j < k; ++j) {
        if (a.at(i, j) != 0.0f) {
          EXPECT_EQ(da_sparse.at(i, j), da_dense.at(i, j))
              << "nnz grad mismatch at (" << i << ", " << j << ")";
        } else {
          EXPECT_EQ(da_sparse.at(i, j), 0.0f)
              << "off-pattern grad at (" << i << ", " << j << ")";
        }
      }
    }
  }
  // And the sparse backward is itself thread-count invariant.
  ExpectThreadCountInvariant([&] {
    Tensor da, dx;
    run(true, &da, &dx);
    return dx;
  });
  ExpectThreadCountInvariant([&] {
    Tensor da, dx;
    run(true, &da, &dx);
    return da;
  });
}

TEST(SpmmGradcheckTest, DifferentiableAAndX) {
  common::Rng rng(108);
  const Tensor a = RandomSparse(5, 6, 0.5f, &rng);
  const auto pattern = std::make_shared<const Csr>(Csr::FromDense(a));
  testing::ExpectGradientsClose(
      [&pattern](const std::vector<Variable>& inputs) {
        return ag::MeanAll(
            ag::Square(ag::SparseMatMul(inputs[0], inputs[1], pattern)));
      },
      {a, Tensor::RandomNormal({6, 4}, 0, 1, &rng)});
}

TEST(SpmmGradcheckTest, ConstantA) {
  common::Rng rng(109);
  const Tensor a = RandomSparse(6, 5, 0.4f, &rng);
  const auto csr = std::make_shared<const Csr>(Csr::FromDense(a));
  testing::ExpectGradientsClose(
      [&csr](const std::vector<Variable>& inputs) {
        return ag::MeanAll(ag::Square(ag::SparseMatMul(csr, inputs[0])));
      },
      {Tensor::RandomNormal({5, 3}, 0, 1, &rng)});
}

TEST(SparseNeighborMaxTest, ForwardAndBackwardMatchDense) {
  common::Rng rng(110);
  const int n = 41, f = 13;
  const Tensor h = Tensor::RandomNormal({n, f}, 0, 1, &rng);
  Tensor mask = Tensor::Zeros({n, n});
  for (int i = 0; i < n; ++i) {
    mask.at(i, i) = 1.0f;  // self-loops, like the FCG
    for (int j = 0; j < n; ++j) {
      if ((i * 13 + j * 7) % 9 == 0) mask.at(i, j) = 1.0f;
    }
  }
  const auto pattern = std::make_shared<const Csr>(Csr::FromDense(mask));

  ThreadGuard guard;
  for (int threads : kThreadCounts) {
    common::SetNumThreads(threads);
    Variable hd = Variable::Parameter(h);
    Variable hs = Variable::Parameter(h);
    Variable dense = core::MaskedNeighborMax(hd, mask);
    Variable sparse = core::MaskedNeighborMax(hs, pattern);
    EXPECT_TRUE(BitIdentical(sparse.value(), dense.value()));
    ag::SumAll(dense).Backward();
    ag::SumAll(sparse).Backward();
    EXPECT_TRUE(BitIdentical(hs.grad(), hd.grad()));
  }
  ExpectThreadCountInvariant([&] {
    return core::MaskedNeighborMax(Variable::Constant(h), pattern).value();
  });
}

TEST(SparseNeighborMaxTest, EmptyRowsAndTies) {
  common::Rng rng(111);
  // Row 0 has no neighbours; rows 1 and 2 both see rows 1 and 2, whose
  // features are identical, so the argmax tie must resolve to the first
  // (lowest-index) neighbour in both paths.
  const int n = 3, f = 2;
  Tensor h({n, f});
  h.at(1, 0) = 4.0f;
  h.at(1, 1) = -1.0f;
  h.at(2, 0) = 4.0f;
  h.at(2, 1) = -1.0f;
  Tensor mask = Tensor::Zeros({n, n});
  mask.at(1, 1) = mask.at(1, 2) = 1.0f;
  mask.at(2, 1) = mask.at(2, 2) = 1.0f;
  const auto pattern = std::make_shared<const Csr>(Csr::FromDense(mask));

  Variable hd = Variable::Parameter(h);
  Variable hs = Variable::Parameter(h);
  Variable dense = core::MaskedNeighborMax(hd, mask);
  Variable sparse = core::MaskedNeighborMax(hs, pattern);
  EXPECT_TRUE(BitIdentical(sparse.value(), dense.value()));
  for (int c = 0; c < f; ++c) EXPECT_EQ(sparse.value().at(0, c), 0.0f);
  ag::SumAll(dense).Backward();
  ag::SumAll(sparse).Backward();
  EXPECT_TRUE(BitIdentical(hs.grad(), hd.grad()));
  // Ties went to row 1 (the first stored neighbour): it collects gradient
  // from both output rows; row 2 gets none.
  for (int c = 0; c < f; ++c) {
    EXPECT_EQ(hs.grad().at(1, c), 2.0f);
    EXPECT_EQ(hs.grad().at(2, c), 0.0f);
  }
}

TEST(SparseNeighborMaxGradcheckTest, FiniteDifferences) {
  common::Rng rng(112);
  const int n = 6, f = 4;
  Tensor mask = Tensor::Zeros({n, n});
  for (int i = 0; i < n; ++i) {
    mask.at(i, i) = 1.0f;
    mask.at(i, (i + 2) % n) = 1.0f;
  }
  const auto pattern = std::make_shared<const Csr>(Csr::FromDense(mask));
  testing::ExpectGradientsClose(
      [&pattern](const std::vector<Variable>& inputs) {
        return ag::MeanAll(
            ag::Square(core::MaskedNeighborMax(inputs[0], pattern)));
      },
      {Tensor::RandomNormal({n, f}, 0, 1, &rng)});
}

// The GNN layers must produce bit-identical outputs and gradients whether
// they run the dense kernels or dispatch to the CSR path.
TEST(LayerDispatchTest, LayersBitIdenticalAcrossPaths) {
  common::Rng rng(113);
  const int n = 24;
  Tensor mask = Tensor::Zeros({n, n});
  for (int i = 0; i < n; ++i) {
    mask.at(i, i) = 1.0f;
    for (int j = 0; j < n; ++j) {
      if ((i + 2 * j) % 5 == 0) mask.at(i, j) = 1.0f;
    }
  }
  const auto pattern = std::make_shared<const Csr>(Csr::FromDense(mask));
  const Tensor h = Tensor::RandomNormal({n, n}, 0, 0.5f, &rng);
  // Flow weights are zero off the edge set, as Eq. (10) guarantees.
  Tensor flow = RandomSparse(n, n, 1.0f, &rng);
  for (int64_t e = 0; e < flow.size(); ++e) {
    flow.flat(e) = mask.flat(e) != 0.0f ? std::fabs(flow.flat(e)) : 0.0f;
  }

  core::FlowGnnLayer flow_layer(n, &rng);
  core::MeanGnnLayer mean_layer(n, &rng);
  core::MaxGnnLayer max_layer(n, &rng);

  auto compare = [&](nn::Module* layer,
                     const std::function<Variable(const Variable&, bool)>& fwd) {
    auto run = [&](bool sparse, Tensor* dh, std::vector<Tensor>* dparams) {
      layer->ZeroGrad();
      Variable hv = Variable::Parameter(h);
      Variable out = fwd(hv, sparse);
      ag::SumAll(out).Backward();
      *dh = hv.grad();
      dparams->clear();
      for (const auto& p : layer->parameters()) dparams->push_back(p.grad());
      return out.value();
    };
    Tensor dh_dense, dh_sparse;
    std::vector<Tensor> dp_dense, dp_sparse;
    const Tensor y_dense = run(false, &dh_dense, &dp_dense);
    const Tensor y_sparse = run(true, &dh_sparse, &dp_sparse);
    EXPECT_TRUE(BitIdentical(y_sparse, y_dense));
    EXPECT_TRUE(BitIdentical(dh_sparse, dh_dense));
    ASSERT_EQ(dp_sparse.size(), dp_dense.size());
    for (size_t i = 0; i < dp_sparse.size(); ++i) {
      EXPECT_TRUE(BitIdentical(dp_sparse[i], dp_dense[i])) << "param " << i;
    }
  };

  const Variable flow_v = Variable::Constant(flow);
  compare(&flow_layer, [&](const Variable& hv, bool sparse) {
    return flow_layer.Forward(hv, flow_v, sparse ? pattern : nullptr);
  });
  compare(&mean_layer, [&](const Variable& hv, bool sparse) {
    return mean_layer.Forward(hv, mask, sparse ? pattern : nullptr);
  });
  compare(&max_layer, [&](const Variable& hv, bool sparse) {
    return max_layer.Forward(hv, mask, sparse ? pattern : nullptr);
  });
}

// Pins the FCG construction semantics the CSR view is derived from: edges
// exist iff Î(i,j) > 0 or Ô(j,i) > 0, self-loops are always present, the
// differentiable weights are row-normalised, and edge_csr is exactly the
// CSR of edge_mask.
TEST(FlowConvolutedGraphTest, EdgeMaskSemanticsAndCsrView) {
  common::Rng rng(114);
  const int n = 12;
  // Strictly positive features: ReLU passes them through, so every row of
  // the weight matrix has mass (at least the self-loop) and sums to ~1.
  const Tensor features = Tensor::RandomUniform({n, n}, 0.5f, 1.5f, &rng);
  Tensor inflow = Tensor::Zeros({n, n});
  Tensor outflow = Tensor::Zeros({n, n});
  inflow.at(0, 3) = 2.0f;   // edge 3 -> 0 via inflow
  inflow.at(5, 5) = 1.0f;   // redundant with the self-loop
  outflow.at(7, 2) = 4.0f;  // edge 7 -> 2 via outflow
  outflow.at(0, 3) = 1.0f;  // edge 0 -> 3

  const core::FlowConvolutedGraph graph = core::BuildFlowConvolutedGraph(
      Variable::Constant(features), Variable::Constant(inflow),
      Variable::Constant(outflow));

  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      const bool expect_edge =
          i == j || inflow.at(i, j) > 0.0f || outflow.at(j, i) > 0.0f;
      EXPECT_EQ(graph.edge_mask.at(i, j), expect_edge ? 1.0f : 0.0f)
          << "(" << i << ", " << j << ")";
    }
  }
  EXPECT_EQ(graph.edge_mask.at(0, 3), 1.0f);
  EXPECT_EQ(graph.edge_mask.at(2, 7), 1.0f);
  EXPECT_EQ(graph.edge_mask.at(3, 0), 1.0f);

  ASSERT_NE(graph.edge_csr, nullptr);
  EXPECT_TRUE(BitIdentical(graph.edge_csr->ToDense(), graph.edge_mask));
  // n self-loops + 3 distinct off-diagonal edges.
  EXPECT_EQ(graph.edge_csr->nnz(), n + 3);
  EXPECT_NEAR(graph.edge_csr->density(),
              static_cast<float>(n + 3) / (n * n), 1e-6f);

  // Weight rows are non-negative and sum to ~1 (Eq. (10) after ReLU).
  const Tensor& w = graph.weights.value();
  for (int i = 0; i < n; ++i) {
    float row_sum = 0.0f;
    for (int j = 0; j < n; ++j) {
      EXPECT_GE(w.at(i, j), 0.0f);
      if (graph.edge_mask.at(i, j) == 0.0f) {
        EXPECT_EQ(w.at(i, j), 0.0f);
      }
      row_sum += w.at(i, j);
    }
    EXPECT_NEAR(row_sum, 1.0f, 1e-3f);
  }
}

TEST(DensePatternMaskTest, MemoisedPerStationCount) {
  const Tensor& a = core::DensePatternMask(10);
  const Tensor& b = core::DensePatternMask(10);
  EXPECT_EQ(&a, &b) << "repeated calls must share one allocation";
  EXPECT_TRUE(a.AllClose(Tensor::Ones({10, 10}), 0.0f));
  const Tensor& c = core::DensePatternMask(4);
  EXPECT_NE(&a, &c);
  EXPECT_TRUE(c.AllClose(Tensor::Ones({4, 4}), 0.0f));
  // The first reference survives later inserts.
  EXPECT_TRUE(a.AllClose(Tensor::Ones({10, 10}), 0.0f));
}

}  // namespace
}  // namespace stgnn
