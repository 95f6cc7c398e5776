#ifndef STGNN_AUTOGRAD_OPS_H_
#define STGNN_AUTOGRAD_OPS_H_

#include <memory>
#include <vector>

#include "autograd/variable.h"
#include "common/rng.h"
#include "tensor/csr.h"

namespace stgnn::autograd {

// Differentiable operations over Variables. Each op builds a graph node whose
// backward closure pushes gradients to its inputs. Shapes follow the tensor
// library's broadcasting rules; gradients are reduced back to input shapes.
// Under a NoTapeScope an op's node keeps only its value (see variable.h).

// The node of an op's result: marked as an op output and, while the tape is
// on, linked to `parents` with requires_grad taken from them. The op then
// installs backward_fn iff requires_grad. For ops defined outside this file.
std::shared_ptr<Node> MakeOpNode(tensor::Tensor value,
                                 const std::vector<Variable>& parents);

// --- Elementwise binary (broadcasting) ---
Variable Add(const Variable& a, const Variable& b);
Variable Sub(const Variable& a, const Variable& b);
Variable Mul(const Variable& a, const Variable& b);
Variable Div(const Variable& a, const Variable& b);

// --- Elementwise unary ---
Variable Neg(const Variable& a);
Variable Exp(const Variable& a);
Variable Log(const Variable& a);
Variable Sqrt(const Variable& a);
Variable Square(const Variable& a);
Variable Relu(const Variable& a);
Variable Elu(const Variable& a, float alpha = 1.0f);
Variable Sigmoid(const Variable& a);
Variable Tanh(const Variable& a);

// --- Scalar ---
Variable AddScalar(const Variable& a, float s);
Variable MulScalar(const Variable& a, float s);

// --- In-place variants ---
// These steal the input's value buffer and mutate it instead of allocating
// an output, producing bit-identical results to their allocating forms.
// Contract: `a` must be an exclusively-owned op output — a Variable whose
// node is held only by the argument itself (pass with std::move); leaves
// are never stolen — and its backward closure must not read its own
// forward value. MatMul, SpMM, Add and Sub outputs qualify; activation
// outputs (whose backwards read y) do not. When the exclusivity check
// fails, or `b` does not broadcast to `a`'s shape, the op silently falls
// back to the allocating form, so correctness never depends on the
// contract — only the allocation count does. Without a tape (NoTapeScope)
// no closure reads anything, so any exclusively-owned op output qualifies.
// The in-place activations compute their local gradients from the output
// alone (for relu, y > 0 iff x > 0; for elu, y > 0 iff x > 0 and the
// x <= 0 branch equals y + alpha), which is bit-identical to the
// input-based formulas for all finite inputs.
Variable AddInPlace(Variable a, const Variable& b);
Variable ReluInPlace(Variable a);
Variable EluInPlace(Variable a, float alpha = 1.0f);

// --- Linear algebra / shape ---
Variable MatMul(const Variable& a, const Variable& b);
// Y = A·X where A is the dense [m, k] variable `a` read through the fixed
// sparsity `pattern` (entries of `a` off the pattern are treated as zero;
// on the FCG they already are). Forward gathers a's values at the pattern's
// nnz positions and runs CSR SpMM; backward pushes dX = Aᵀ·g through the
// transposed pattern and dA = (g·Xᵀ) gathered at the nnz positions only.
// Both directions are deterministic and bit-identical across thread
// counts; the forward is bit-identical to MatMul(a, x) when `a` is zero
// off-pattern. The pattern is shared (per-slot, across layers) and must
// outlive the backward pass — hence the shared_ptr.
Variable SparseMatMul(const Variable& a, const Variable& x,
                      std::shared_ptr<const tensor::Csr> pattern);
// Y = A·X where A lives entirely in `a` (structure + constant values, e.g.
// a row-normalised edge mask). Only X receives gradients.
Variable SparseMatMul(std::shared_ptr<const tensor::Csr> a,
                      const Variable& x);
Variable Transpose(const Variable& a);
Variable Reshape(const Variable& a, tensor::Shape new_shape);
// Concatenates 2-D variables along axis (0 = rows, 1 = cols).
Variable Concat(const std::vector<Variable>& parts, int axis);
// Rows [begin, end) along axis 0.
Variable SliceRows(const Variable& a, int begin, int end);

// --- Reductions ---
Variable SumAll(const Variable& a);
Variable MeanAll(const Variable& a);
// Sum along one axis of a 2-D variable, keeping a size-1 axis.
Variable SumAxisKeepdims(const Variable& a, int axis);

// Row-wise softmax of a 2-D variable.
Variable RowSoftmax(const Variable& a);

// Inverted dropout: scales surviving activations by 1/(1-p) during training;
// identity when `training` is false. `rng` supplies the mask.
Variable Dropout(const Variable& a, float p, bool training, common::Rng* rng);

// Convenience operators.
inline Variable operator+(const Variable& a, const Variable& b) {
  return Add(a, b);
}
inline Variable operator-(const Variable& a, const Variable& b) {
  return Sub(a, b);
}
inline Variable operator*(const Variable& a, const Variable& b) {
  return Mul(a, b);
}
inline Variable operator/(const Variable& a, const Variable& b) {
  return Div(a, b);
}

}  // namespace stgnn::autograd

#endif  // STGNN_AUTOGRAD_OPS_H_
