#include "tensor/tensor.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <sstream>

#include "common/buffer_pool.h"
#include "common/counters.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "tensor/kernels/kernels.h"

namespace stgnn::tensor {

namespace {

// Row-major strides for a shape.
std::vector<int64_t> ComputeStrides(const Shape& shape) {
  std::vector<int64_t> strides(shape.size(), 1);
  for (int i = static_cast<int>(shape.size()) - 2; i >= 0; --i) {
    strides[i] = strides[i + 1] * shape[i + 1];
  }
  return strides;
}

// Minimum elements per parallel chunk for elementwise kernels; anything
// smaller runs inline (no std::function, no pool) so tiny tensors pay
// nothing for the parallel substrate.
constexpr int64_t kElementGrain = 16384;

// Rows per chunk targeting roughly kElementGrain elements of work.
inline int64_t RowGrain(int64_t cols) {
  return std::max<int64_t>(1, kElementGrain / std::max<int64_t>(cols, 1));
}

inline int64_t RoundUp(int64_t value, int64_t multiple) {
  return (value + multiple - 1) / multiple * multiple;
}

}  // namespace

int64_t NumElements(const Shape& shape) {
  int64_t count = 1;
  for (int extent : shape) {
    STGNN_CHECK_GE(extent, 0);
    count *= extent;
  }
  return count;
}

std::string ShapeToString(const Shape& shape) {
  std::ostringstream out;
  out << "[";
  for (size_t i = 0; i < shape.size(); ++i) {
    if (i > 0) out << ", ";
    out << shape[i];
  }
  out << "]";
  return out.str();
}

Tensor::Tensor()
    : shape_{}, data_(common::BufferPool::Global()->AcquireZeroed(1)) {}

Tensor::~Tensor() {
  common::BufferPool::Global()->Release(std::move(data_));
}

Tensor::Tensor(Shape shape)
    : shape_(std::move(shape)),
      data_(common::BufferPool::Global()->AcquireZeroed(
          static_cast<size_t>(NumElements(shape_)))) {}

Tensor::Tensor(UninitializedTag, Shape shape)
    : shape_(std::move(shape)),
      data_(common::BufferPool::Global()->AcquireUninitialized(
          static_cast<size_t>(NumElements(shape_)))) {}

Tensor::Tensor(Shape shape, std::vector<float> data)
    : shape_(std::move(shape)), data_(std::move(data)) {
  STGNN_CHECK_EQ(NumElements(shape_), static_cast<int64_t>(data_.size()))
      << "shape " << ShapeToString(shape_) << " vs " << data_.size()
      << " elements";
}

Tensor::Tensor(const Tensor& other)
    : shape_(other.shape_),
      data_(common::BufferPool::Global()->AcquireUninitialized(
          other.data_.size())) {
  std::copy(other.data_.begin(), other.data_.end(), data_.begin());
}

Tensor& Tensor::operator=(const Tensor& other) {
  if (this == &other) return *this;
  shape_ = other.shape_;
  if (data_.size() != other.data_.size()) {
    common::BufferPool::Global()->Release(std::move(data_));
    data_ = common::BufferPool::Global()->AcquireUninitialized(
        other.data_.size());
  }
  std::copy(other.data_.begin(), other.data_.end(), data_.begin());
  return *this;
}

Tensor& Tensor::operator=(Tensor&& other) noexcept {
  if (this == &other) return *this;
  shape_ = std::move(other.shape_);
  // Recycle the overwritten buffer instead of letting the vector move
  // deallocate it.
  common::BufferPool::Global()->Release(std::move(data_));
  data_ = std::move(other.data_);
  return *this;
}

void Tensor::ReleaseStorage() {
  common::BufferPool::Global()->Release(std::move(data_));
  data_.clear();
}

Tensor Tensor::Zeros(Shape shape) { return Tensor(std::move(shape)); }

Tensor Tensor::Uninitialized(Shape shape) {
  return Tensor(UninitializedTag{}, std::move(shape));
}

Tensor Tensor::Ones(Shape shape) { return Full(std::move(shape), 1.0f); }

Tensor Tensor::Full(Shape shape, float value) {
  Tensor t(UninitializedTag{}, std::move(shape));
  t.Fill(value);
  return t;
}

Tensor Tensor::Scalar(float value) {
  Tensor t;
  t.data_[0] = value;
  return t;
}

Tensor Tensor::Eye(int n) {
  STGNN_CHECK_GT(n, 0);
  Tensor t({n, n});
  for (int i = 0; i < n; ++i) t.at(i, i) = 1.0f;
  return t;
}

Tensor Tensor::FromVector(std::vector<float> values) {
  const int n = static_cast<int>(values.size());
  return Tensor({n}, std::move(values));
}

Tensor Tensor::RandomUniform(Shape shape, float lo, float hi,
                             common::Rng* rng) {
  if (rng == nullptr) return Tensor(std::move(shape));
  Tensor t(UninitializedTag{}, std::move(shape));
  for (auto& v : t.data_) {
    v = static_cast<float>(rng->Uniform(lo, hi));
  }
  return t;
}

Tensor Tensor::RandomNormal(Shape shape, float mean, float stddev,
                            common::Rng* rng) {
  if (rng == nullptr) return Tensor(std::move(shape));
  Tensor t(UninitializedTag{}, std::move(shape));
  for (auto& v : t.data_) {
    v = static_cast<float>(rng->Normal(mean, stddev));
  }
  return t;
}

int Tensor::dim(int axis) const {
  STGNN_CHECK_GE(axis, 0);
  STGNN_CHECK_LT(axis, ndim());
  return shape_[axis];
}

float Tensor::flat(int64_t index) const {
  STGNN_CHECK_GE(index, 0);
  STGNN_CHECK_LT(index, size());
  return data_[static_cast<size_t>(index)];
}

float& Tensor::flat(int64_t index) {
  STGNN_CHECK_GE(index, 0);
  STGNN_CHECK_LT(index, size());
  return data_[static_cast<size_t>(index)];
}

float& Tensor::at(int i) {
  STGNN_CHECK_EQ(ndim(), 1);
  return flat(i);
}

float Tensor::at(int i) const {
  STGNN_CHECK_EQ(ndim(), 1);
  return flat(i);
}

float& Tensor::at(int i, int j) {
  STGNN_CHECK_EQ(ndim(), 2);
  STGNN_CHECK_GE(i, 0);
  STGNN_CHECK_LT(i, shape_[0]);
  STGNN_CHECK_GE(j, 0);
  STGNN_CHECK_LT(j, shape_[1]);
  return data_[static_cast<size_t>(i) * shape_[1] + j];
}

float Tensor::at(int i, int j) const {
  return const_cast<Tensor*>(this)->at(i, j);
}

float& Tensor::at(int i, int j, int k) {
  STGNN_CHECK_EQ(ndim(), 3);
  STGNN_CHECK_GE(i, 0);
  STGNN_CHECK_LT(i, shape_[0]);
  STGNN_CHECK_GE(j, 0);
  STGNN_CHECK_LT(j, shape_[1]);
  STGNN_CHECK_GE(k, 0);
  STGNN_CHECK_LT(k, shape_[2]);
  return data_[(static_cast<size_t>(i) * shape_[1] + j) * shape_[2] + k];
}

float Tensor::at(int i, int j, int k) const {
  return const_cast<Tensor*>(this)->at(i, j, k);
}

float Tensor::item() const {
  STGNN_CHECK_EQ(size(), 1) << "item() on tensor with " << size()
                            << " elements";
  return data_[0];
}

Tensor Tensor::Reshape(Shape new_shape) const {
  int64_t known = 1;
  int infer_axis = -1;
  for (size_t i = 0; i < new_shape.size(); ++i) {
    if (new_shape[i] == -1) {
      STGNN_CHECK_EQ(infer_axis, -1) << "multiple -1 extents in Reshape";
      infer_axis = static_cast<int>(i);
    } else {
      STGNN_CHECK_GE(new_shape[i], 0);
      known *= new_shape[i];
    }
  }
  if (infer_axis >= 0) {
    STGNN_CHECK_GT(known, 0);
    STGNN_CHECK_EQ(size() % known, 0)
        << "cannot infer axis in Reshape to " << ShapeToString(new_shape);
    new_shape[infer_axis] = static_cast<int>(size() / known);
  }
  STGNN_CHECK_EQ(NumElements(new_shape), size())
      << "Reshape " << ShapeToString(shape_) << " -> "
      << ShapeToString(new_shape);
  std::vector<float> copy =
      common::BufferPool::Global()->AcquireUninitialized(data_.size());
  std::copy(data_.begin(), data_.end(), copy.begin());
  return Tensor(std::move(new_shape), std::move(copy));
}

Tensor Tensor::Transpose() const {
  STGNN_CHECK_EQ(ndim(), 2);
  STGNN_TRACE_SCOPE("Transpose");
  STGNN_COUNTER_INC("op.transpose");
  const int rows = shape_[0];
  const int cols = shape_[1];
  Tensor out = Tensor::Uninitialized({cols, rows});
  const float* src = data_.data();
  float* dst = out.mutable_data().data();
  // Tiles of kTile x kTile: a tile's source rows and destination rows both
  // stay in L1 while it is copied, where gathering a whole output row reads
  // one element per source cache line and, for tall sources, evicts each
  // line before its neighbours are used. Parallel over bands of output rows,
  // so writes never overlap across chunks. Pure data movement: no bit moves.
  constexpr int64_t kTile = 32;
  const int64_t band_grain = std::max<int64_t>(1, RowGrain(rows) / kTile);
  common::ParallelFor(
      0, (cols + kTile - 1) / kTile, band_grain, [&](int64_t bb, int64_t be) {
        for (int64_t j0 = bb * kTile; j0 < std::min<int64_t>(be * kTile, cols);
             j0 += kTile) {
          const int64_t j1 = std::min<int64_t>(j0 + kTile, cols);
          for (int64_t i0 = 0; i0 < rows; i0 += kTile) {
            const int64_t i1 = std::min<int64_t>(i0 + kTile, rows);
            for (int64_t j = j0; j < j1; ++j) {
              for (int64_t i = i0; i < i1; ++i) {
                dst[j * rows + i] = src[i * cols + j];
              }
            }
          }
        }
      });
  return out;
}

Tensor Tensor::SliceRows(int begin, int end) const {
  STGNN_CHECK_GE(ndim(), 1);
  STGNN_CHECK_GE(begin, 0);
  STGNN_CHECK_LE(begin, end);
  STGNN_CHECK_LE(end, shape_[0]);
  Shape out_shape = shape_;
  out_shape[0] = end - begin;
  const int64_t row_size = shape_[0] == 0 ? 0 : size() / shape_[0];
  std::vector<float> out_data = common::BufferPool::Global()->AcquireUninitialized(
      static_cast<size_t>((end - begin) * row_size));
  std::copy(data_.begin() + static_cast<size_t>(begin * row_size),
            data_.begin() + static_cast<size_t>(end * row_size),
            out_data.begin());
  return Tensor(std::move(out_shape), std::move(out_data));
}

Tensor Tensor::Row(int i) const {
  STGNN_CHECK_EQ(ndim(), 2);
  return SliceRows(i, i + 1);
}

Tensor Tensor::Col(int j) const {
  STGNN_CHECK_EQ(ndim(), 2);
  STGNN_CHECK_GE(j, 0);
  STGNN_CHECK_LT(j, shape_[1]);
  Tensor out = Tensor::Uninitialized({shape_[0], 1});
  for (int i = 0; i < shape_[0]; ++i) out.at(i, 0) = at(i, j);
  return out;
}

void Tensor::Fill(float value) {
  std::fill(data_.begin(), data_.end(), value);
}

bool Tensor::AllClose(const Tensor& other, float tolerance) const {
  if (shape_ != other.shape_) return false;
  for (size_t i = 0; i < data_.size(); ++i) {
    if (std::fabs(data_[i] - other.data_[i]) > tolerance) return false;
  }
  return true;
}

std::string Tensor::ToString() const {
  std::ostringstream out;
  out << "Tensor" << ShapeToString(shape_) << " {";
  const int64_t preview = std::min<int64_t>(size(), 16);
  for (int64_t i = 0; i < preview; ++i) {
    if (i > 0) out << ", ";
    out << data_[static_cast<size_t>(i)];
  }
  if (preview < size()) out << ", ...";
  out << "}";
  return out.str();
}

Shape BroadcastShapes(const Shape& a, const Shape& b) {
  const int rank = std::max(a.size(), b.size());
  Shape out(rank);
  for (int i = 0; i < rank; ++i) {
    const int ai = i < rank - static_cast<int>(a.size())
                       ? 1
                       : a[i - (rank - static_cast<int>(a.size()))];
    const int bi = i < rank - static_cast<int>(b.size())
                       ? 1
                       : b[i - (rank - static_cast<int>(b.size()))];
    STGNN_CHECK(ai == bi || ai == 1 || bi == 1)
        << "incompatible broadcast " << ShapeToString(a) << " vs "
        << ShapeToString(b);
    out[i] = std::max(ai, bi);
  }
  return out;
}

namespace {

// Where element (i, j) of a rank <= 2 operand lives when it is broadcast
// against a [rows, cols] output: at i * row + j * col, with a zero stride
// along each broadcast axis.
struct Rank2Strides {
  int64_t row;
  int64_t col;
};

Rank2Strides StridesFor(const Shape& s) {
  const int64_t rows = s.size() == 2 ? s[0] : 1;
  const int64_t cols = s.empty() ? 1 : s.back();
  return {rows == 1 ? 0 : cols, cols == 1 ? 0 : 1};
}

// out(i, j) = fn(a(i, j), b(i, j)) over a [rows, cols] output, one row per
// inner loop, specialised on which operand is broadcast along the row so
// the loop body stays a contiguous, vectorisable stream. `out` may alias
// `a` when a is not broadcast (the in-place ops).
template <typename Fn>
void Rank2Map(const float* a, Rank2Strides sa, const float* b,
              Rank2Strides sb, float* out, int64_t rows, int64_t cols,
              Fn fn) {
  common::ParallelFor(0, rows, RowGrain(cols), [&](int64_t ib, int64_t ie) {
    for (int64_t i = ib; i < ie; ++i) {
      const float* ra = a + i * sa.row;
      const float* rb = b + i * sb.row;
      float* ro = out + i * cols;
      if (sa.col != 0 && sb.col != 0) {
        for (int64_t j = 0; j < cols; ++j) ro[j] = fn(ra[j], rb[j]);
      } else if (sa.col != 0) {
        const float y = rb[0];
        for (int64_t j = 0; j < cols; ++j) ro[j] = fn(ra[j], y);
      } else if (sb.col != 0) {
        const float x = ra[0];
        for (int64_t j = 0; j < cols; ++j) ro[j] = fn(x, rb[j]);
      } else {
        std::fill(ro, ro + cols, fn(ra[0], rb[0]));
      }
    }
  });
}

// Applies `fn` elementwise over broadcast operands.
template <typename Fn>
Tensor BroadcastBinary(const Tensor& a, const Tensor& b, Fn fn) {
  // Fast path: identical shapes.
  if (a.shape() == b.shape()) {
    Tensor out = Tensor::Uninitialized(a.shape());
    STGNN_COUNTER_ADD("elementwise.elems", out.size());
    const float* da = a.data().data();
    const float* db = b.data().data();
    float* dout = out.mutable_data().data();
    common::ParallelFor(0, out.size(), kElementGrain,
                        [&](int64_t lo, int64_t hi) {
                          for (int64_t i = lo; i < hi; ++i) {
                            dout[i] = fn(da[i], db[i]);
                          }
                        });
    return out;
  }
  const Shape out_shape = BroadcastShapes(a.shape(), b.shape());
  Tensor out = Tensor::Uninitialized(out_shape);
  STGNN_COUNTER_ADD("elementwise.elems", out.size());
  const int rank = static_cast<int>(out_shape.size());
  if (rank == 1 || rank == 2) {
    // Matrix-shaped broadcasts (the attention outer sum s 1^T + 1 d^T, bias
    // rows, per-row scales) walk rows with fixed strides instead of the
    // general multi-index below; each element is the same single fn call.
    Rank2Map(a.data().data(), StridesFor(a.shape()), b.data().data(),
             StridesFor(b.shape()), out.mutable_data().data(),
             rank == 2 ? out_shape[0] : 1, out_shape.back(), fn);
    return out;
  }

  // Align operand shapes to the output rank with leading 1s.
  auto aligned = [rank](const Shape& s) {
    Shape r(rank, 1);
    std::copy(s.begin(), s.end(), r.begin() + (rank - s.size()));
    return r;
  };
  const Shape sa = aligned(a.shape());
  const Shape sb = aligned(b.shape());
  const auto stra = ComputeStrides(sa);
  const auto strb = ComputeStrides(sb);

  std::vector<int> index(rank, 0);
  auto& dout = out.mutable_data();
  const auto& da = a.data();
  const auto& db = b.data();
  for (int64_t flat = 0; flat < out.size(); ++flat) {
    int64_t ia = 0;
    int64_t ib = 0;
    for (int d = 0; d < rank; ++d) {
      ia += (sa[d] == 1 ? 0 : index[d]) * stra[d];
      ib += (sb[d] == 1 ? 0 : index[d]) * strb[d];
    }
    dout[static_cast<size_t>(flat)] = fn(da[static_cast<size_t>(ia)],
                                         db[static_cast<size_t>(ib)]);
    // Advance the multi-index.
    for (int d = rank - 1; d >= 0; --d) {
      if (++index[d] < out_shape[d]) break;
      index[d] = 0;
    }
  }
  return out;
}

// out[i] = kernel(in[i]) through a KernelTable elementwise entry, fanned
// out in element chunks; `out` may alias `in`. Each element's bits depend
// on nothing but its input, so neither the chunking nor the table changes
// them.
template <typename Kernel>
void KernelMapRange(const float* in, float* out, int64_t n, Kernel kernel) {
  STGNN_COUNTER_ADD("elementwise.elems", n);
  common::ParallelFor(0, n, kElementGrain, [&](int64_t lo, int64_t hi) {
    kernel(in + lo, out + lo, hi - lo);
  });
}

template <typename Kernel>
Tensor KernelMap(const Tensor& a, Kernel kernel) {
  Tensor out = Tensor::Uninitialized(a.shape());
  KernelMapRange(a.data().data(), out.mutable_data().data(), out.size(),
                 kernel);
  return out;
}

// The kernel table's ELU as a KernelMapRange kernel.
auto EluKernel(float alpha) {
  return [elu = kernels::Active().elu, alpha](const float* in, float* out,
                                              int64_t n) {
    elu(in, out, n, alpha);
  };
}

template <typename Fn>
Tensor UnaryMap(const Tensor& a, Fn fn) {
  Tensor out = Tensor::Uninitialized(a.shape());
  STGNN_COUNTER_ADD("elementwise.elems", out.size());
  const float* da = a.data().data();
  float* dout = out.mutable_data().data();
  common::ParallelFor(0, out.size(), kElementGrain,
                      [&](int64_t lo, int64_t hi) {
                        for (int64_t i = lo; i < hi; ++i) dout[i] = fn(da[i]);
                      });
  return out;
}

}  // namespace

Tensor Add(const Tensor& a, const Tensor& b) {
  return BroadcastBinary(a, b, [](float x, float y) { return x + y; });
}
Tensor Sub(const Tensor& a, const Tensor& b) {
  return BroadcastBinary(a, b, [](float x, float y) { return x - y; });
}
Tensor Mul(const Tensor& a, const Tensor& b) {
  return BroadcastBinary(a, b, [](float x, float y) { return x * y; });
}
Tensor Div(const Tensor& a, const Tensor& b) {
  return BroadcastBinary(a, b, [](float x, float y) { return x / y; });
}
Tensor Maximum(const Tensor& a, const Tensor& b) {
  return BroadcastBinary(a, b, [](float x, float y) { return std::max(x, y); });
}
Tensor Minimum(const Tensor& a, const Tensor& b) {
  return BroadcastBinary(a, b, [](float x, float y) { return std::min(x, y); });
}

Tensor Neg(const Tensor& a) {
  return UnaryMap(a, [](float x) { return -x; });
}
Tensor Exp(const Tensor& a) { return KernelMap(a, kernels::Active().exp); }
Tensor Log(const Tensor& a) {
  return UnaryMap(a, [](float x) { return std::log(x); });
}
Tensor Sqrt(const Tensor& a) {
  return UnaryMap(a, [](float x) { return std::sqrt(x); });
}
Tensor Square(const Tensor& a) {
  return UnaryMap(a, [](float x) { return x * x; });
}
Tensor Abs(const Tensor& a) {
  return UnaryMap(a, [](float x) { return std::fabs(x); });
}
Tensor Relu(const Tensor& a) {
  return UnaryMap(a, [](float x) { return x > 0.0f ? x : 0.0f; });
}
Tensor Elu(const Tensor& a, float alpha) {
  return KernelMap(a, EluKernel(alpha));
}
Tensor Sigmoid(const Tensor& a) {
  return KernelMap(a, kernels::Active().sigmoid);
}
Tensor Tanh(const Tensor& a) {
  return UnaryMap(a, [](float x) { return std::tanh(x); });
}
Tensor Clamp(const Tensor& a, float lo, float hi) {
  STGNN_CHECK_LE(lo, hi);
  return UnaryMap(a, [lo, hi](float x) { return std::clamp(x, lo, hi); });
}

Tensor AddScalar(const Tensor& a, float s) {
  return UnaryMap(a, [s](float x) { return x + s; });
}
Tensor MulScalar(const Tensor& a, float s) {
  return UnaryMap(a, [s](float x) { return x * s; });
}

namespace {

// a[i] = fn(a[i], broadcast(b)[i]). `b` must broadcast to a's shape.
template <typename Fn>
void BinaryInPlace(Tensor* a, const Tensor& b, Fn fn) {
  STGNN_CHECK(a != nullptr);
  STGNN_COUNTER_ADD("elementwise.elems", a->size());
  if (a->shape() == b.shape()) {
    float* da = a->mutable_data().data();
    const float* db = b.data().data();
    common::ParallelFor(0, a->size(), kElementGrain,
                        [&](int64_t lo, int64_t hi) {
                          for (int64_t i = lo; i < hi; ++i) {
                            da[i] = fn(da[i], db[i]);
                          }
                        });
    return;
  }
  const Shape out_shape = BroadcastShapes(a->shape(), b.shape());
  STGNN_CHECK(out_shape == a->shape())
      << "in-place op: " << ShapeToString(b.shape())
      << " must broadcast to " << ShapeToString(a->shape());
  const int rank = a->ndim();
  if (rank == 1 || rank == 2) {
    float* da = a->mutable_data().data();
    Rank2Map(da, StridesFor(a->shape()), b.data().data(),
             StridesFor(b.shape()), da, rank == 2 ? a->shape()[0] : 1,
             a->shape().back(), fn);
    return;
  }
  Shape sb(rank, 1);
  std::copy(b.shape().begin(), b.shape().end(),
            sb.begin() + (rank - b.ndim()));
  const auto strb = ComputeStrides(sb);
  std::vector<int> index(rank, 0);
  auto& da = a->mutable_data();
  const auto& db = b.data();
  for (int64_t flat = 0; flat < a->size(); ++flat) {
    int64_t ib = 0;
    for (int d = 0; d < rank; ++d) {
      ib += (sb[d] == 1 ? 0 : index[d]) * strb[d];
    }
    da[static_cast<size_t>(flat)] =
        fn(da[static_cast<size_t>(flat)], db[static_cast<size_t>(ib)]);
    for (int d = rank - 1; d >= 0; --d) {
      if (++index[d] < a->shape()[d]) break;
      index[d] = 0;
    }
  }
}

template <typename Fn>
void MapInPlace(Tensor* a, Fn fn) {
  STGNN_CHECK(a != nullptr);
  STGNN_COUNTER_ADD("elementwise.elems", a->size());
  float* da = a->mutable_data().data();
  common::ParallelFor(0, a->size(), kElementGrain,
                      [&](int64_t lo, int64_t hi) {
                        for (int64_t i = lo; i < hi; ++i) da[i] = fn(da[i]);
                      });
}

}  // namespace

void AddInPlace(Tensor* a, const Tensor& b) {
  BinaryInPlace(a, b, [](float x, float y) { return x + y; });
}
void SubInPlace(Tensor* a, const Tensor& b) {
  BinaryInPlace(a, b, [](float x, float y) { return x - y; });
}
void MulInPlace(Tensor* a, const Tensor& b) {
  BinaryInPlace(a, b, [](float x, float y) { return x * y; });
}
void AddScalarInPlace(Tensor* a, float s) {
  MapInPlace(a, [s](float x) { return x + s; });
}
void MulScalarInPlace(Tensor* a, float s) {
  MapInPlace(a, [s](float x) { return x * s; });
}
void AxpyInPlace(Tensor* a, float s, const Tensor& b) {
  STGNN_CHECK(a != nullptr);
  STGNN_CHECK(a->shape() == b.shape())
      << "AxpyInPlace " << ShapeToString(a->shape()) << " vs "
      << ShapeToString(b.shape());
  STGNN_COUNTER_ADD("elementwise.elems", a->size());
  float* da = a->mutable_data().data();
  const float* db = b.data().data();
  common::ParallelFor(0, a->size(), kElementGrain,
                      [&](int64_t lo, int64_t hi) {
                        for (int64_t i = lo; i < hi; ++i) {
                          // Round s*b first, matching Add(a, MulScalar(b, s)).
                          const float sb = s * db[i];
                          da[i] = da[i] + sb;
                        }
                      });
}
void ReluInPlace(Tensor* a) {
  MapInPlace(a, [](float x) { return x > 0.0f ? x : 0.0f; });
}
void EluInPlace(Tensor* a, float alpha) {
  STGNN_CHECK(a != nullptr);
  float* da = a->mutable_data().data();
  KernelMapRange(da, da, a->size(), EluKernel(alpha));
}

Tensor MatMul(const Tensor& a, const Tensor& b) {
  STGNN_CHECK_EQ(a.ndim(), 2);
  STGNN_CHECK_EQ(b.ndim(), 2);
  STGNN_CHECK_EQ(a.dim(1), b.dim(0))
      << "MatMul " << ShapeToString(a.shape()) << " x "
      << ShapeToString(b.shape());
  const int m = a.dim(0);
  const int k = a.dim(1);
  const int n = b.dim(1);
  STGNN_TRACE_SCOPE("MatMul");
  STGNN_COUNTER_INC("op.matmul");
  STGNN_COUNTER_ADD("flops.matmul", int64_t{2} * m * k * n);
  STGNN_COUNTER_ADD("bytes.matmul_in",
                    (int64_t{4} * m * k) + (int64_t{4} * k * n));
  if (m == 0 || k == 0 || n == 0) return Tensor({m, n});
  // The kernel table carries the per-ISA variants plus their tuning (small
  // threshold, chunk flops); every fp32 variant is bit-identical, so the
  // ISA and the path taken never change the result, only the speed. Every
  // path computes each element as one fma chain over ascending k from 0.
  const kernels::KernelTable& kt = kernels::Active();
  constexpr int kMmRowTile = kernels::kMmRowTile;
  constexpr int kMmPanel = kernels::kMmPanel;
  constexpr int kMmDepth = kernels::kMmDepth;
  const float* pa = a.data().data();
  const float* pb = b.data().data();
  if (n == 1) {
    // Matrix-vector product (the attention score projections): B is a
    // contiguous vector, and the kernel interleaves independent rows.
    Tensor out = Tensor::Uninitialized({m, 1});
    float* po = out.mutable_data().data();
    common::ParallelFor(0, m, common::GrainFor(m, k, kt.row_grain_ops),
                        [&](int64_t ib, int64_t ie) {
                          kt.matvec_rows(pa, pb, po, ib, ie, k);
                        });
    return out;
  }
  // A single row gains nothing from packing B: the row-tiled kernel would
  // stage it as a zero-padded 4-row tile.
  if (m == 1 || static_cast<int64_t>(m) * k * n <= kt.mm_small_flops) {
    // The small kernel accumulates += into the output, so it needs zeros.
    Tensor out({m, n});
    kt.matmul_small(pa, pb, out.mutable_data().data(), m, k, n);
    return out;
  }
  // The first k-block stores every output element; later blocks continue
  // its chain from there.
  Tensor out = Tensor::Uninitialized({m, n});
  float* po = out.mutable_data().data();

  // Pack B into kMmPanel-wide column panels, each row-major with a fixed
  // kMmPanel stride (the last panel is zero-padded per row), so one k-block
  // of a panel is a contiguous [kMmDepth, kMmPanel] block whatever n is.
  const int num_panels = (n + kMmPanel - 1) / kMmPanel;
  common::BufferPool* pool = common::BufferPool::Global();
  std::vector<float> packed_b = pool->AcquireUninitialized(
      static_cast<size_t>(num_panels) * k * kMmPanel);
  common::ParallelFor(0, num_panels, 1, [&](int64_t qb, int64_t qe) {
    for (int64_t q = qb; q < qe; ++q) {
      const int j0 = static_cast<int>(q) * kMmPanel;
      const int w = std::min(kMmPanel, n - j0);
      float* dst = packed_b.data() + static_cast<size_t>(q) * k * kMmPanel;
      for (int p = 0; p < k; ++p) {
        const float* src = pb + static_cast<size_t>(p) * n + j0;
        float* drow = dst + static_cast<size_t>(p) * kMmPanel;
        std::copy(src, src + w, drow);
        std::fill(drow + w, drow + kMmPanel, 0.0f);
      }
    }
  });

  // Fan whole row tiles out across the pool, at least kMmRowBlock rows per
  // chunk (the per-ISA chunk-flop target keeps dispatch cost negligible on
  // wide, shallow products). Each chunk walks k-block by k-block, running
  // its rows of the block past every panel's [kc, kMmPanel] block of B in
  // turn, so each B block is fetched once per chunk, not once per tile.
  const int64_t row_flops = int64_t{2} * k * n;
  const int64_t grain = RoundUp(
      std::max<int64_t>(kernels::kMmRowBlock, kt.mm_chunk_flops / row_flops),
      kMmRowTile);
  common::ParallelFor(0, m, grain, [&](int64_t ib, int64_t ie) {
    const int rows = static_cast<int>(ie - ib);
    for (int p0 = 0; p0 < k; p0 += kMmDepth) {
      const int kc = std::min(kMmDepth, k - p0);
      for (int q = 0; q < num_panels; ++q) {
        const int j0 = q * kMmPanel;
        kt.matmul_kblock(
            pa + ib * k + p0, k,
            packed_b.data() + (static_cast<size_t>(q) * k + p0) * kMmPanel,
            po + ib * n + j0, rows, kc, n, std::min(kMmPanel, n - j0),
            /*accumulate=*/p0 > 0);
      }
    }
  });
  pool->Release(std::move(packed_b));
  return out;
}

Tensor SumAll(const Tensor& a) {
  const float* d = a.data().data();
  const int64_t n = a.size();
  // Per-chunk partial sums, combined in chunk order. The chunk
  // decomposition depends only on (n, grain), so the result is bit-stable
  // across thread counts; single-chunk inputs follow the plain serial sum.
  const int64_t chunks = common::NumChunks(0, n, kElementGrain);
  if (chunks <= 1) {
    double total = 0.0;
    for (int64_t i = 0; i < n; ++i) total += d[i];
    return Tensor::Scalar(static_cast<float>(total));
  }
  std::vector<double> partial(static_cast<size_t>(chunks), 0.0);
  common::ParallelForChunks(0, n, kElementGrain,
                            [&](int64_t c, int64_t lo, int64_t hi) {
                              double s = 0.0;
                              for (int64_t i = lo; i < hi; ++i) s += d[i];
                              partial[static_cast<size_t>(c)] = s;
                            });
  double total = 0.0;
  for (double p : partial) total += p;
  return Tensor::Scalar(static_cast<float>(total));
}

Tensor MeanAll(const Tensor& a) {
  STGNN_CHECK_GT(a.size(), 0);
  return Tensor::Scalar(SumAll(a).item() / static_cast<float>(a.size()));
}

namespace {

template <typename Cmp>
float ExtremeAll(const Tensor& a, float init, Cmp pick) {
  STGNN_CHECK_GT(a.size(), 0);
  const float* d = a.data().data();
  const int64_t n = a.size();
  const int64_t chunks = common::NumChunks(0, n, kElementGrain);
  std::vector<float> partial(static_cast<size_t>(chunks), init);
  common::ParallelForChunks(0, n, kElementGrain,
                            [&](int64_t c, int64_t lo, int64_t hi) {
                              float best = init;
                              for (int64_t i = lo; i < hi; ++i) {
                                best = pick(best, d[i]);
                              }
                              partial[static_cast<size_t>(c)] = best;
                            });
  float best = init;
  for (float p : partial) best = pick(best, p);
  return best;
}

}  // namespace

float MaxAll(const Tensor& a) {
  return ExtremeAll(a, -std::numeric_limits<float>::infinity(),
                    [](float x, float y) { return std::max(x, y); });
}

float MinAll(const Tensor& a) {
  return ExtremeAll(a, std::numeric_limits<float>::infinity(),
                    [](float x, float y) { return std::min(x, y); });
}

namespace {

template <typename Init, typename Accum>
Tensor ReduceAxis2d(const Tensor& a, int axis, bool keepdims, Init init,
                    Accum accum) {
  STGNN_CHECK_EQ(a.ndim(), 2);
  STGNN_CHECK(axis == 0 || axis == 1);
  const int rows = a.dim(0);
  const int cols = a.dim(1);
  const int out_len = axis == 0 ? cols : rows;
  // Every slot is assigned exactly once below, so the buffer can start
  // uninitialised.
  std::vector<float> out = common::BufferPool::Global()->AcquireUninitialized(
      static_cast<size_t>(out_len));
  const float* d = a.data().data();
  // Each output slot is owned by exactly one chunk, and its accumulation
  // order (ascending over the reduced axis) never depends on the thread
  // count.
  if (axis == 1) {
    common::ParallelFor(0, rows, RowGrain(cols), [&](int64_t ib, int64_t ie) {
      for (int64_t i = ib; i < ie; ++i) {
        float slot = init();
        const float* row = d + i * cols;
        for (int j = 0; j < cols; ++j) slot = accum(slot, row[j]);
        out[static_cast<size_t>(i)] = slot;
      }
    });
  } else {
    common::ParallelFor(0, cols, RowGrain(rows), [&](int64_t jb, int64_t je) {
      for (int64_t j = jb; j < je; ++j) {
        float slot = init();
        for (int64_t i = 0; i < rows; ++i) slot = accum(slot, d[i * cols + j]);
        out[static_cast<size_t>(j)] = slot;
      }
    });
  }
  Shape shape;
  if (keepdims) {
    shape = axis == 0 ? Shape{1, cols} : Shape{rows, 1};
  } else {
    shape = Shape{out_len};
  }
  return Tensor(std::move(shape), std::move(out));
}

}  // namespace

Tensor SumAxis(const Tensor& a, int axis, bool keepdims) {
  return ReduceAxis2d(
      a, axis, keepdims, [] { return 0.0f; },
      [](float acc, float v) { return acc + v; });
}

Tensor MeanAxis(const Tensor& a, int axis, bool keepdims) {
  const int denom = axis == 0 ? a.dim(0) : a.dim(1);
  STGNN_CHECK_GT(denom, 0);
  return MulScalar(SumAxis(a, axis, keepdims), 1.0f / denom);
}

Tensor MaxAxis(const Tensor& a, int axis, bool keepdims) {
  return ReduceAxis2d(
      a, axis, keepdims,
      [] { return -std::numeric_limits<float>::infinity(); },
      [](float acc, float v) { return std::max(acc, v); });
}

Tensor RowSoftmax(const Tensor& a) {
  STGNN_CHECK_EQ(a.ndim(), 2);
  STGNN_TRACE_SCOPE("RowSoftmax");
  STGNN_COUNTER_INC("op.row_softmax");
  const int rows = a.dim(0);
  const int cols = a.dim(1);
  STGNN_CHECK_GT(cols, 0);
  Tensor out = Tensor::Uninitialized(a.shape());
  const float* src = a.data().data();
  float* dst = out.mutable_data().data();
  // Rows are independent; whole kSoftmaxRowBlock groups per chunk keep the
  // vector tiers' rows-in-lanes passes full.
  const kernels::KernelTable& kt = kernels::Active();
  const int64_t grain = RoundUp(common::GrainFor(rows, cols, kt.row_grain_ops),
                                kernels::kSoftmaxRowBlock);
  common::ParallelFor(0, rows, grain, [&](int64_t ib, int64_t ie) {
    kt.row_softmax_rows(src, dst, ib, ie, cols);
  });
  return out;
}

Tensor Concat(const std::vector<Tensor>& parts, int axis) {
  std::vector<const Tensor*> ptrs;
  ptrs.reserve(parts.size());
  for (const auto& p : parts) ptrs.push_back(&p);
  return Concat(ptrs, axis);
}

Tensor Concat(const std::vector<const Tensor*>& parts, int axis) {
  STGNN_CHECK(!parts.empty());
  STGNN_CHECK(axis == 0 || axis == 1);
  for (const Tensor* p : parts) STGNN_CHECK_EQ(p->ndim(), 2);
  if (axis == 0) {
    const int cols = parts[0]->dim(1);
    int rows = 0;
    for (const Tensor* p : parts) {
      STGNN_CHECK_EQ(p->dim(1), cols);
      rows += p->dim(0);
    }
    Tensor out = Tensor::Uninitialized({rows, cols});
    auto& dout = out.mutable_data();
    size_t offset = 0;
    for (const Tensor* p : parts) {
      std::copy(p->data().begin(), p->data().end(), dout.begin() + offset);
      offset += p->data().size();
    }
    return out;
  }
  const int rows = parts[0]->dim(0);
  int cols = 0;
  for (const Tensor* p : parts) {
    STGNN_CHECK_EQ(p->dim(0), rows);
    cols += p->dim(1);
  }
  Tensor out = Tensor::Uninitialized({rows, cols});
  float* dout = out.mutable_data().data();
  common::ParallelFor(0, rows, RowGrain(cols), [&](int64_t ib, int64_t ie) {
    for (int64_t i = ib; i < ie; ++i) {
      float* orow = dout + i * cols;
      for (const Tensor* p : parts) {
        const int w = p->dim(1);
        std::memcpy(orow, p->data().data() + i * w, sizeof(float) * w);
        orow += w;
      }
    }
  });
  return out;
}

Tensor Stack(const std::vector<Tensor>& parts) {
  STGNN_CHECK(!parts.empty());
  const Shape& base = parts[0].shape();
  for (const auto& p : parts) STGNN_CHECK(p.shape() == base);
  Shape out_shape;
  out_shape.push_back(static_cast<int>(parts.size()));
  out_shape.insert(out_shape.end(), base.begin(), base.end());
  Tensor out = Tensor::Uninitialized(std::move(out_shape));
  auto& dout = out.mutable_data();
  size_t offset = 0;
  for (const auto& p : parts) {
    std::copy(p.data().begin(), p.data().end(), dout.begin() + offset);
    offset += p.data().size();
  }
  return out;
}

}  // namespace stgnn::tensor
