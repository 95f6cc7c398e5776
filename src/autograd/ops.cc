#include "autograd/ops.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <utility>
#include <vector>

#include "autograd/inference_precision.h"
#include "common/counters.h"
#include "common/thread_pool.h"
#include "common/trace.h"

namespace stgnn::autograd {

using tensor::Shape;
using tensor::Tensor;

namespace {

// Grain matching the tensor library's elementwise kernels: backward local
// gradients below this size run inline with no pool involvement.
constexpr int64_t kGradGrain = 16384;

// Elementwise local gradient g[i] = fn(x[i], y[i]) over the pool.
template <typename Fn>
Tensor ElementwiseLocalGrad(const Tensor& x, const Tensor& y, Fn fn) {
  Tensor g = Tensor::Uninitialized(x.shape());
  float* gd = g.mutable_data().data();
  const float* xd = x.data().data();
  const float* yd = y.data().data();
  common::ParallelFor(0, g.size(), kGradGrain, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) gd[i] = fn(xd[i], yd[i]);
  });
  return g;
}

}  // namespace

std::shared_ptr<Node> MakeOpNode(Tensor value,
                                 const std::vector<Variable>& parents) {
  auto node = std::make_shared<Node>();
  STGNN_COUNTER_INC("autograd.nodes");
  node->value = std::move(value);
  node->op_output = true;
  const bool tape = TapeEnabled();
  for (const auto& p : parents) {
    STGNN_CHECK(p.defined()) << "op input is an undefined Variable";
    if (!tape) continue;
    node->parents.push_back(p.node());
    node->requires_grad = node->requires_grad || p.requires_grad();
  }
  return node;
}

Variable Add(const Variable& a, const Variable& b) {
  auto node = MakeOpNode(tensor::Add(a.value(), b.value()), {a, b});
  if (node->requires_grad) {
    Node* self = node.get();
    Node* pa = a.node().get();
    Node* pb = b.node().get();
    node->backward_fn = [self, pa, pb]() {
      if (pa->requires_grad) pa->AccumulateGrad(self->grad);
      if (pb->requires_grad) pb->AccumulateGrad(self->grad);
    };
  }
  return Variable::FromNode(node);
}

Variable Sub(const Variable& a, const Variable& b) {
  auto node = MakeOpNode(tensor::Sub(a.value(), b.value()), {a, b});
  if (node->requires_grad) {
    Node* self = node.get();
    Node* pa = a.node().get();
    Node* pb = b.node().get();
    node->backward_fn = [self, pa, pb]() {
      if (pa->requires_grad) pa->AccumulateGrad(self->grad);
      if (pb->requires_grad) pb->AccumulateGrad(tensor::Neg(self->grad));
    };
  }
  return Variable::FromNode(node);
}

Variable Mul(const Variable& a, const Variable& b) {
  auto node = MakeOpNode(tensor::Mul(a.value(), b.value()), {a, b});
  if (node->requires_grad) {
    Node* self = node.get();
    Node* pa = a.node().get();
    Node* pb = b.node().get();
    node->backward_fn = [self, pa, pb]() {
      if (pa->requires_grad) {
        pa->AccumulateGrad(tensor::Mul(self->grad, pb->value));
      }
      if (pb->requires_grad) {
        pb->AccumulateGrad(tensor::Mul(self->grad, pa->value));
      }
    };
  }
  return Variable::FromNode(node);
}

Variable Div(const Variable& a, const Variable& b) {
  auto node = MakeOpNode(tensor::Div(a.value(), b.value()), {a, b});
  if (node->requires_grad) {
    Node* self = node.get();
    Node* pa = a.node().get();
    Node* pb = b.node().get();
    node->backward_fn = [self, pa, pb]() {
      if (pa->requires_grad) {
        pa->AccumulateGrad(tensor::Div(self->grad, pb->value));
      }
      if (pb->requires_grad) {
        // d(a/b)/db = -a / b^2.
        Tensor g = tensor::Mul(self->grad, pa->value);
        g = tensor::Div(g, tensor::Square(pb->value));
        pb->AccumulateGrad(tensor::Neg(g));
      }
    };
  }
  return Variable::FromNode(node);
}

namespace {

// Unary op with a gradient of the form grad_out * local(input, output).
template <typename LocalGradFn>
Variable UnaryOp(const Variable& a, Tensor value, LocalGradFn local_grad) {
  auto node = MakeOpNode(std::move(value), {a});
  if (node->requires_grad) {
    Node* self = node.get();
    Node* pa = a.node().get();
    node->backward_fn = [self, pa, local_grad]() {
      pa->AccumulateGrad(tensor::Mul(self->grad, local_grad(pa->value,
                                                            self->value)));
    };
  }
  return Variable::FromNode(node);
}

}  // namespace

Variable Neg(const Variable& a) {
  return UnaryOp(a, tensor::Neg(a.value()), [](const Tensor& x, const Tensor&) {
    return tensor::Tensor::Full(x.shape(), -1.0f);
  });
}

Variable Exp(const Variable& a) {
  return UnaryOp(a, tensor::Exp(a.value()),
                 [](const Tensor&, const Tensor& y) { return y; });
}

Variable Log(const Variable& a) {
  return UnaryOp(a, tensor::Log(a.value()),
                 [](const Tensor& x, const Tensor&) {
                   return tensor::Div(tensor::Tensor::Ones(x.shape()), x);
                 });
}

Variable Sqrt(const Variable& a) {
  return UnaryOp(a, tensor::Sqrt(a.value()),
                 [](const Tensor&, const Tensor& y) {
                   // d sqrt(x)/dx = 1 / (2 sqrt(x)) = 0.5 / y.
                   return tensor::Div(tensor::Tensor::Full(y.shape(), 0.5f), y);
                 });
}

Variable Square(const Variable& a) {
  return UnaryOp(a, tensor::Square(a.value()),
                 [](const Tensor& x, const Tensor&) {
                   return tensor::MulScalar(x, 2.0f);
                 });
}

Variable Relu(const Variable& a) {
  return UnaryOp(a, tensor::Relu(a.value()),
                 [](const Tensor& x, const Tensor& y) {
                   return ElementwiseLocalGrad(x, y, [](float xv, float) {
                     return xv > 0.0f ? 1.0f : 0.0f;
                   });
                 });
}

Variable Elu(const Variable& a, float alpha) {
  return UnaryOp(a, tensor::Elu(a.value(), alpha),
                 [alpha](const Tensor& x, const Tensor& y) {
                   // d elu/dx = 1 for x > 0, else alpha * exp(x) = y + alpha.
                   return ElementwiseLocalGrad(
                       x, y, [alpha](float xv, float yv) {
                         return xv > 0.0f ? 1.0f : yv + alpha;
                       });
                 });
}

Variable Sigmoid(const Variable& a) {
  return UnaryOp(a, tensor::Sigmoid(a.value()),
                 [](const Tensor& x, const Tensor& y) {
                   // y * (1 - y).
                   return ElementwiseLocalGrad(x, y, [](float, float yv) {
                     return yv * (1.0f - yv);
                   });
                 });
}

Variable Tanh(const Variable& a) {
  return UnaryOp(a, tensor::Tanh(a.value()),
                 [](const Tensor& x, const Tensor& y) {
                   return ElementwiseLocalGrad(x, y, [](float, float yv) {
                     return 1.0f - yv * yv;
                   });
                 });
}

Variable AddScalar(const Variable& a, float s) {
  auto node = MakeOpNode(tensor::AddScalar(a.value(), s), {a});
  if (node->requires_grad) {
    Node* self = node.get();
    Node* pa = a.node().get();
    node->backward_fn = [self, pa]() { pa->AccumulateGrad(self->grad); };
  }
  return Variable::FromNode(node);
}

Variable MulScalar(const Variable& a, float s) {
  auto node = MakeOpNode(tensor::MulScalar(a.value(), s), {a});
  if (node->requires_grad) {
    Node* self = node.get();
    Node* pa = a.node().get();
    node->backward_fn = [self, pa, s]() {
      pa->AccumulateGrad(tensor::MulScalar(self->grad, s));
    };
  }
  return Variable::FromNode(node);
}

namespace {

// True when `v` is an exclusively-owned interior temporary whose value
// buffer can be stolen for an in-place op: only the argument itself holds
// the node (so no other Variable or tape edge can observe the mutation) and
// the node is an op output, not a leaf the user might read later. Holds
// with or without a tape.
bool StealableTemp(const Variable& v) {
  return v.node().use_count() == 1 && v.node()->op_output;
}

// Moves the value buffer out of `v`'s node (leaving it hollow — shape
// intact, storage released) into a standalone tensor.
Tensor StealValue(const Variable& v) {
  Node* node = v.node().get();
  STGNN_COUNTER_INC("autograd.inplace_steals");
  return Tensor(node->value.shape(), std::move(node->value.mutable_data()));
}

}  // namespace

Variable AddInPlace(Variable a, const Variable& b) {
  STGNN_CHECK(a.defined() && b.defined());
  if (!StealableTemp(a) ||
      tensor::BroadcastShapes(a.value().shape(), b.value().shape()) !=
          a.value().shape()) {
    return Add(a, b);
  }
  Tensor value = StealValue(a);
  tensor::AddInPlace(&value, b.value());
  auto node = MakeOpNode(std::move(value), {a, b});
  if (node->requires_grad) {
    Node* self = node.get();
    Node* pa = a.node().get();
    Node* pb = b.node().get();
    node->backward_fn = [self, pa, pb]() {
      if (pa->requires_grad) pa->AccumulateGrad(self->grad);
      if (pb->requires_grad) pb->AccumulateGrad(self->grad);
    };
  }
  return Variable::FromNode(node);
}

Variable ReluInPlace(Variable a) {
  STGNN_CHECK(a.defined());
  if (!StealableTemp(a)) return Relu(a);
  Tensor value = StealValue(a);
  tensor::ReluInPlace(&value);
  auto node = MakeOpNode(std::move(value), {a});
  if (node->requires_grad) {
    Node* self = node.get();
    Node* pa = a.node().get();
    node->backward_fn = [self, pa]() {
      // y > 0 iff x > 0, so the output alone determines the local gradient
      // (the input value was stolen).
      pa->AccumulateGrad(ElementwiseLocalGrad(
          self->grad, self->value,
          [](float g, float y) { return y > 0.0f ? g : 0.0f; }));
    };
  }
  return Variable::FromNode(node);
}

Variable EluInPlace(Variable a, float alpha) {
  STGNN_CHECK(a.defined());
  if (!StealableTemp(a)) return Elu(a, alpha);
  Tensor value = StealValue(a);
  tensor::EluInPlace(&value, alpha);
  auto node = MakeOpNode(std::move(value), {a});
  if (node->requires_grad) {
    Node* self = node.get();
    Node* pa = a.node().get();
    node->backward_fn = [self, pa, alpha]() {
      // x > 0 iff y > 0, and for x <= 0 the derivative alpha*exp(x) equals
      // y + alpha, so the output alone determines the local gradient.
      pa->AccumulateGrad(ElementwiseLocalGrad(
          self->grad, self->value, [alpha](float g, float y) {
            return y > 0.0f ? g : g * (y + alpha);
          }));
    };
  }
  return Variable::FromNode(node);
}

Variable MatMul(const Variable& a, const Variable& b) {
  // Inference-only quantized weight path: when a QuantizedInferenceScope is
  // active on this thread and b is one of its registered weight snapshots,
  // the product runs through the reduced-precision kernels and detaches
  // from autograd (an op output with no parents, so the in-place ops that
  // follow may still steal it). Training threads never enter a scope, so
  // this branch is dead there and the fp32 graph is untouched.
  if (const QuantizedWeightSet* qw = ActiveQuantizedWeights()) {
    if (const tensor::QuantizedTensor* q = qw->Find(b.node().get())) {
      return Variable::FromNode(
          MakeOpNode(tensor::QuantizedMatMul(a.value(), *q), {}));
    }
  }
  auto node = MakeOpNode(tensor::MatMul(a.value(), b.value()), {a, b});
  if (node->requires_grad) {
    Node* self = node.get();
    Node* pa = a.node().get();
    Node* pb = b.node().get();
    node->backward_fn = [self, pa, pb]() {
      STGNN_TRACE_SCOPE("MatMul.bwd");
      // dA = g·Bᵀ and dB = Aᵀ·g. A [1, k] a or a [k, 1] b needs no
      // transposed matrix: dA = (B·gᵀ)ᵀ and dB = (gᵀ·A)ᵀ, whose vector
      // transposes are reshapes, give every element the same ascending fma
      // chain from 0 (fma(x, y, z) == fma(y, x, z)).
      const Tensor& g = self->grad;
      const Tensor& a = pa->value;
      const Tensor& b = pb->value;
      const int m = a.dim(0);
      const int k = a.dim(1);
      const int n = b.dim(1);
      if (pa->requires_grad) {
        if (m == 1) {
          pa->AccumulateGrad(
              tensor::MatMul(b, g.Reshape({n, 1})).Reshape({1, k}));
        } else {
          pa->AccumulateGrad(tensor::MatMul(g, b.Transpose()));
        }
      }
      if (pb->requires_grad) {
        if (n == 1) {
          pb->AccumulateGrad(
              tensor::MatMul(g.Reshape({1, m}), a).Reshape({k, 1}));
        } else {
          pb->AccumulateGrad(tensor::MatMul(a.Transpose(), g));
        }
      }
    };
  }
  return Variable::FromNode(node);
}

namespace {

// dA of SpMM at the pattern's nnz positions: dA(i, j) = g(i, :) · x(j, :),
// scattered into a dense gradient (zeros off-pattern — the dense MatMul
// backward's off-pattern entries are annihilated downstream by the edge
// mask anyway, see FCG Eq. (10)). Rows of the pattern are independent, so
// the scatter is deterministic and race-free.
Tensor SpmmGradA(const tensor::Csr& pattern, const Tensor& g,
                 const Tensor& x) {
  Tensor da = Tensor::Zeros({pattern.rows(), pattern.cols()});
  const int m = pattern.rows();
  const int f = x.dim(1);
  const int* rp = pattern.row_ptr().data();
  const int* ci = pattern.col_idx().data();
  const float* pg = g.data().data();
  const float* px = x.data().data();
  float* pd = da.mutable_data().data();
  const int64_t cost_per_row =
      (pattern.nnz() / std::max(m, 1) + 1) * static_cast<int64_t>(f);
  int max_row_nnz = 0;
  for (int i = 0; i < m; ++i) {
    max_row_nnz = std::max(max_row_nnz, rp[i + 1] - rp[i]);
  }
  common::ParallelFor(
      0, m, common::GrainFor(m, cost_per_row), [&](int64_t ib, int64_t ie) {
        std::vector<float> scratch(static_cast<size_t>(max_row_nnz));
        for (int64_t i = ib; i < ie; ++i) {
          const int begin = rp[i];
          const int cnt = rp[i + 1] - begin;
          if (cnt == 0) continue;
          const int* cols = ci + begin;
          const float* grow = pg + i * f;
          std::fill(scratch.begin(), scratch.begin() + cnt, 0.0f);
          // Deliberately the same accumulation as the dispatched MatMul
          // kernels (k-outer, one std::fmaf per term, ascending order) so
          // this matches the dense backward bit for bit on every ISA; a
          // dot-product inner loop or a compiler-chosen contraction would
          // drift by an ulp (tests/sparse_test.cc pins the bitwise match).
          for (int c = 0; c < f; ++c) {
            const float gval = grow[c];
            for (int e = 0; e < cnt; ++e) {
              scratch[e] = std::fmaf(
                  gval, px[static_cast<size_t>(cols[e]) * f + c], scratch[e]);
            }
          }
          float* drow = pd + i * pattern.cols();
          for (int e = 0; e < cnt; ++e) drow[cols[e]] = scratch[e];
        }
      });
  return da;
}

}  // namespace

Variable SparseMatMul(const Variable& a, const Variable& x,
                      std::shared_ptr<const tensor::Csr> pattern) {
  STGNN_CHECK(pattern != nullptr);
  STGNN_CHECK_EQ(a.value().ndim(), 2);
  STGNN_CHECK_EQ(a.value().dim(0), pattern->rows());
  STGNN_CHECK_EQ(a.value().dim(1), pattern->cols());
  STGNN_TRACE_SCOPE("SparseMatMul");
  std::vector<float> vals = pattern->GatherValues(a.value());
  auto node = MakeOpNode(tensor::SpMM(*pattern, vals, x.value()), {a, x});
  if (node->requires_grad) {
    Node* self = node.get();
    Node* pa = a.node().get();
    Node* px = x.node().get();
    node->backward_fn = [self, pa, px, pattern = std::move(pattern),
                         vals = std::move(vals)]() {
      STGNN_TRACE_SCOPE("SparseMatMul.bwd");
      if (pa->requires_grad) {
        pa->AccumulateGrad(SpmmGradA(*pattern, self->grad, px->value));
      }
      if (px->requires_grad) {
        const tensor::Csr at = pattern->Transposed(vals);
        px->AccumulateGrad(tensor::SpMM(at, self->grad));
      }
    };
  }
  return Variable::FromNode(node);
}

Variable SparseMatMul(std::shared_ptr<const tensor::Csr> a,
                      const Variable& x) {
  STGNN_CHECK(a != nullptr);
  STGNN_TRACE_SCOPE("SparseMatMul");
  auto node = MakeOpNode(tensor::SpMM(*a, x.value()), {x});
  if (node->requires_grad) {
    Node* self = node.get();
    Node* px = x.node().get();
    node->backward_fn = [self, px, a = std::move(a)]() {
      STGNN_TRACE_SCOPE("SparseMatMul.bwd");
      px->AccumulateGrad(tensor::SpMM(a->Transposed(), self->grad));
    };
  }
  return Variable::FromNode(node);
}

Variable Transpose(const Variable& a) {
  auto node = MakeOpNode(a.value().Transpose(), {a});
  if (node->requires_grad) {
    Node* self = node.get();
    Node* pa = a.node().get();
    node->backward_fn = [self, pa]() {
      pa->AccumulateGrad(self->grad.Transpose());
    };
  }
  return Variable::FromNode(node);
}

Variable Reshape(const Variable& a, Shape new_shape) {
  auto node = MakeOpNode(a.value().Reshape(std::move(new_shape)), {a});
  if (node->requires_grad) {
    Node* self = node.get();
    Node* pa = a.node().get();
    node->backward_fn = [self, pa]() {
      pa->AccumulateGrad(self->grad.Reshape(pa->value.shape()));
    };
  }
  return Variable::FromNode(node);
}

namespace {

// Columns [offset, offset + width) of a 2-D tensor, one memcpy per row.
Tensor ColumnSlice(const Tensor& t, int offset, int width) {
  const int rows = t.dim(0);
  const int cols = t.dim(1);
  Tensor out = Tensor::Uninitialized({rows, width});
  const float* src = t.data().data() + offset;
  float* dst = out.mutable_data().data();
  for (int i = 0; i < rows; ++i) {
    std::memcpy(dst + static_cast<int64_t>(i) * width,
                src + static_cast<int64_t>(i) * cols, sizeof(float) * width);
  }
  return out;
}

}  // namespace

Variable Concat(const std::vector<Variable>& parts, int axis) {
  STGNN_CHECK(!parts.empty());
  std::vector<const Tensor*> values;
  values.reserve(parts.size());
  for (const auto& p : parts) values.push_back(&p.value());
  auto node = MakeOpNode(tensor::Concat(values, axis), parts);
  if (node->requires_grad) {
    Node* self = node.get();
    std::vector<Node*> parents;
    parents.reserve(parts.size());
    for (const auto& p : parts) parents.push_back(p.node().get());
    node->backward_fn = [self, parents, axis]() {
      int offset = 0;
      for (Node* parent : parents) {
        const int extent = parent->value.dim(axis);
        if (parent->requires_grad) {
          parent->AccumulateGrad(
              axis == 0 ? self->grad.SliceRows(offset, offset + extent)
                        : ColumnSlice(self->grad, offset, extent));
        }
        offset += extent;
      }
    };
  }
  return Variable::FromNode(node);
}

Variable SliceRows(const Variable& a, int begin, int end) {
  auto node = MakeOpNode(a.value().SliceRows(begin, end), {a});
  if (node->requires_grad) {
    Node* self = node.get();
    Node* pa = a.node().get();
    node->backward_fn = [self, pa, begin]() {
      Tensor scatter = Tensor::Zeros(pa->value.shape());
      const int64_t row_size =
          pa->value.dim(0) == 0 ? 0 : pa->value.size() / pa->value.dim(0);
      const auto& g = self->grad.data();
      auto& s = scatter.mutable_data();
      std::copy(g.begin(), g.end(),
                s.begin() + static_cast<size_t>(begin * row_size));
      pa->AccumulateGrad(std::move(scatter));
    };
  }
  return Variable::FromNode(node);
}

Variable SumAll(const Variable& a) {
  auto node = MakeOpNode(tensor::SumAll(a.value()), {a});
  if (node->requires_grad) {
    Node* self = node.get();
    Node* pa = a.node().get();
    node->backward_fn = [self, pa]() {
      pa->AccumulateGrad(
          tensor::Tensor::Full(pa->value.shape(), self->grad.item()));
    };
  }
  return Variable::FromNode(node);
}

Variable MeanAll(const Variable& a) {
  const float inv = 1.0f / static_cast<float>(a.value().size());
  return MulScalar(SumAll(a), inv);
}

Variable SumAxisKeepdims(const Variable& a, int axis) {
  auto node = MakeOpNode(tensor::SumAxis(a.value(), axis, /*keepdims=*/true),
                         {a});
  if (node->requires_grad) {
    Node* self = node.get();
    Node* pa = a.node().get();
    node->backward_fn = [self, pa]() {
      // Broadcasting an [r,1] or [1,c] gradient back over the summed axis.
      pa->AccumulateGrad(
          tensor::Add(tensor::Tensor::Zeros(pa->value.shape()), self->grad));
    };
  }
  return Variable::FromNode(node);
}

Variable RowSoftmax(const Variable& a) {
  auto node = MakeOpNode(tensor::RowSoftmax(a.value()), {a});
  if (node->requires_grad) {
    Node* self = node.get();
    Node* pa = a.node().get();
    node->backward_fn = [self, pa]() {
      STGNN_TRACE_SCOPE("RowSoftmax.bwd");
      // dL/dx_ij = y_ij * (g_ij - sum_k g_ik y_ik).
      const Tensor& y = self->value;
      const Tensor& g = self->grad;
      const int rows = y.dim(0);
      const int cols = y.dim(1);
      Tensor dx = Tensor::Uninitialized(y.shape());
      const float* yd = y.data().data();
      const float* gd = g.data().data();
      float* dxd = dx.mutable_data().data();
      common::ParallelFor(0, rows, common::GrainFor(rows, cols),
                          [&](int64_t ib, int64_t ie) {
        for (int64_t i = ib; i < ie; ++i) {
          const float* yrow = yd + i * cols;
          const float* grow = gd + i * cols;
          float* dxrow = dxd + i * cols;
          double dot = 0.0;
          for (int j = 0; j < cols; ++j) dot += grow[j] * yrow[j];
          for (int j = 0; j < cols; ++j) {
            dxrow[j] = yrow[j] * (grow[j] - static_cast<float>(dot));
          }
        }
      });
      pa->AccumulateGrad(std::move(dx));
    };
  }
  return Variable::FromNode(node);
}

Variable Dropout(const Variable& a, float p, bool training,
                 common::Rng* rng) {
  STGNN_CHECK_GE(p, 0.0f);
  STGNN_CHECK_LT(p, 1.0f);
  if (!training || p == 0.0f) return a;
  STGNN_CHECK(rng != nullptr);
  Tensor mask(a.value().shape());
  const float scale = 1.0f / (1.0f - p);
  auto& md = mask.mutable_data();
  for (auto& m : md) m = rng->Bernoulli(p) ? 0.0f : scale;
  return Mul(a, Variable::Constant(std::move(mask)));
}

}  // namespace stgnn::autograd
