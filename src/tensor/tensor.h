#ifndef STGNN_TENSOR_TENSOR_H_
#define STGNN_TENSOR_TENSOR_H_

#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/rng.h"

namespace stgnn::tensor {

// Shape of a tensor: a list of non-negative dimension extents.
using Shape = std::vector<int>;

// Number of elements a shape describes (product of extents; 1 for rank 0).
int64_t NumElements(const Shape& shape);

// Human-readable form, e.g. "[2, 3]".
std::string ShapeToString(const Shape& shape);

// Dense row-major float32 tensor. Copyable (deep copy of the buffer) and
// movable. Shape mismatches and out-of-bounds access are programming errors
// and abort via STGNN_CHECK; these are not recoverable conditions.
//
// Storage is recycled through common::BufferPool: construction acquires a
// pooled buffer, destruction (and move-assignment over an existing tensor)
// releases it back, so steady-state op chains reuse buffers instead of
// hitting the allocator. The buffer-adopting constructors take ownership of
// the caller's vector without copying — pass rvalues.
class Tensor {
 public:
  // Rank-0 scalar holding 0.
  Tensor();
  ~Tensor();

  // Zero-initialised tensor with the given shape.
  explicit Tensor(Shape shape);

  // Tensor with the given shape and data (data.size() must match). Adopts
  // the buffer; it is released to the pool when the tensor dies.
  Tensor(Shape shape, std::vector<float> data);

  Tensor(const Tensor& other);
  Tensor& operator=(const Tensor& other);
  Tensor(Tensor&& other) noexcept = default;
  Tensor& operator=(Tensor&& other) noexcept;

  // --- Factories ---
  static Tensor Zeros(Shape shape);
  static Tensor Ones(Shape shape);
  static Tensor Full(Shape shape, float value);
  static Tensor Scalar(float value);
  // Identity matrix of size [n, n].
  static Tensor Eye(int n);
  // Tensor with the given shape and UNSPECIFIED contents. Only for kernels
  // that overwrite every element before reading any; with the pool disabled
  // the contents happen to be zero, so a violation surfaces as a
  // pooled-vs-unpooled parity failure rather than silent nondeterminism.
  static Tensor Uninitialized(Shape shape);
  // 1-D tensor from the given values (adopts the buffer).
  static Tensor FromVector(std::vector<float> values);
  // Uniform in [lo, hi). A null rng draws nothing and returns zeros: every
  // random init goes through these two, so constructing a module with a
  // null rng builds its shapes only (StgnnDjdModel::Clone then copies the
  // values in).
  static Tensor RandomUniform(Shape shape, float lo, float hi,
                              common::Rng* rng);
  // Gaussian with the given mean/stddev; zeros for a null rng, as above.
  static Tensor RandomNormal(Shape shape, float mean, float stddev,
                             common::Rng* rng);

  // --- Introspection ---
  const Shape& shape() const { return shape_; }
  int ndim() const { return static_cast<int>(shape_.size()); }
  int dim(int axis) const;
  int64_t size() const { return static_cast<int64_t>(data_.size()); }
  const std::vector<float>& data() const { return data_; }
  std::vector<float>& mutable_data() { return data_; }

  // --- Element access ---
  // Flat (row-major) indexing.
  float flat(int64_t index) const;
  float& flat(int64_t index);
  // Rank-specific convenience accessors.
  float& at(int i);
  float at(int i) const;
  float& at(int i, int j);
  float at(int i, int j) const;
  float& at(int i, int j, int k);
  float at(int i, int j, int k) const;
  // Scalar value of a single-element tensor.
  float item() const;

  // --- Shape manipulation (all return new tensors) ---
  // Same data, new shape; element counts must match. A single -1 extent is
  // inferred.
  Tensor Reshape(Shape new_shape) const;
  // 2-D transpose.
  Tensor Transpose() const;
  // Rows [begin, end) of a rank >= 1 tensor along axis 0.
  Tensor SliceRows(int begin, int end) const;
  // Row `i` of a 2-D tensor as shape [1, cols].
  Tensor Row(int i) const;
  // Column `j` of a 2-D tensor as shape [rows, 1].
  Tensor Col(int j) const;

  // In-place fill.
  void Fill(float value);

  // Returns the data buffer to the pool, leaving a "hollow" tensor: shape()
  // stays valid but size() becomes 0 and element access CHECK-fails. Used
  // by the autograd memory plan to recycle interior-node values whose
  // consumers have all run while keeping shape metadata readable.
  void ReleaseStorage();

  // True if shapes are equal and all elements are within `tolerance`.
  bool AllClose(const Tensor& other, float tolerance = 1e-5f) const;

  std::string ToString() const;

 private:
  struct UninitializedTag {};
  Tensor(UninitializedTag, Shape shape);

  Shape shape_;
  std::vector<float> data_;
};

// --- Broadcasting ---
// Computes the numpy-style broadcast of two shapes; CHECK-fails if
// incompatible.
Shape BroadcastShapes(const Shape& a, const Shape& b);

// --- Elementwise binary ops with broadcasting ---
Tensor Add(const Tensor& a, const Tensor& b);
Tensor Sub(const Tensor& a, const Tensor& b);
Tensor Mul(const Tensor& a, const Tensor& b);
Tensor Div(const Tensor& a, const Tensor& b);
Tensor Maximum(const Tensor& a, const Tensor& b);
Tensor Minimum(const Tensor& a, const Tensor& b);

// --- Elementwise unary ops ---
// Exp, Elu, EluInPlace, Sigmoid and RowSoftmax evaluate exp with the
// library's own kernels::ScalarExpf algorithm on every kernel tier, so
// their bits do not depend on the host libm.
Tensor Neg(const Tensor& a);
Tensor Exp(const Tensor& a);
Tensor Log(const Tensor& a);
Tensor Sqrt(const Tensor& a);
Tensor Square(const Tensor& a);
Tensor Abs(const Tensor& a);
Tensor Relu(const Tensor& a);
Tensor Elu(const Tensor& a, float alpha = 1.0f);
Tensor Sigmoid(const Tensor& a);
Tensor Tanh(const Tensor& a);
// Clamps every element into [lo, hi].
Tensor Clamp(const Tensor& a, float lo, float hi);

// --- Scalar ops ---
Tensor AddScalar(const Tensor& a, float s);
Tensor MulScalar(const Tensor& a, float s);

// --- In-place variants ---
// These mutate `a` instead of allocating an output, with the same per-
// element rounding as their allocating counterparts (one operation, one
// rounding), so substituting them at a call site is bit-neutral for finite
// inputs. `b` must broadcast to a's shape (b may be smaller, not larger).
void AddInPlace(Tensor* a, const Tensor& b);
void SubInPlace(Tensor* a, const Tensor& b);
void MulInPlace(Tensor* a, const Tensor& b);
void AddScalarInPlace(Tensor* a, float s);
void MulScalarInPlace(Tensor* a, float s);
// a += s * b (same shape), rounding s*b before the add like the
// Add(a, MulScalar(b, s)) composition it replaces.
void AxpyInPlace(Tensor* a, float s, const Tensor& b);
void ReluInPlace(Tensor* a);
void EluInPlace(Tensor* a, float alpha = 1.0f);

// --- Linear algebra ---
// [m, k] x [k, n] -> [m, n].
Tensor MatMul(const Tensor& a, const Tensor& b);

// --- Reductions ---
// Sum/mean/max of all elements, as a scalar tensor.
Tensor SumAll(const Tensor& a);
Tensor MeanAll(const Tensor& a);
float MaxAll(const Tensor& a);
float MinAll(const Tensor& a);
// Reduction along one axis of a 2-D tensor. keepdims retains a size-1 axis.
Tensor SumAxis(const Tensor& a, int axis, bool keepdims = false);
Tensor MeanAxis(const Tensor& a, int axis, bool keepdims = false);
Tensor MaxAxis(const Tensor& a, int axis, bool keepdims = false);

// Row-wise softmax of a 2-D tensor (numerically stabilised).
Tensor RowSoftmax(const Tensor& a);

// Concatenates 2-D tensors along the given axis (0 = rows, 1 = cols).
Tensor Concat(const std::vector<Tensor>& parts, int axis);
// The same, reading the parts in place (no part is copied first).
Tensor Concat(const std::vector<const Tensor*>& parts, int axis);

// Stacks equal-shape tensors into a new leading axis.
Tensor Stack(const std::vector<Tensor>& parts);

// Rows `rows` of a 2-D tensor, in that order (plain copies, bit-exact).
Tensor GatherRows(const Tensor& src, const std::vector<int>& rows);

// Writes row r of `src_rows` to row rows[r] of `*dst`; other rows of `*dst`
// keep their values.
void ScatterRows(const Tensor& src_rows, const std::vector<int>& rows,
                 Tensor* dst);

}  // namespace stgnn::tensor

#endif  // STGNN_TENSOR_TENSOR_H_
