#include "tensor/quantized.h"

#include <algorithm>
#include <cmath>

#include "common/buffer_pool.h"
#include "common/counters.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "tensor/kernels/kernels.h"

namespace stgnn::tensor {
namespace {

// std::lrintf(x) clamped to [-127, 127], without the libm call. lrintf is
// cvtss2si into a long: NaN and |x| >= 2^63 give LONG_MIN, which clamps to
// -127; every other x rounds to nearest even. Clamping before rounding
// gives the same integer because the limits are integers, and for
// |c| <= 127 adding 1.5 * 2^23 lands in [2^23, 2^24), where floats are the
// integers: the add rounds c to nearest even (1.5 * 2^23 is even) and the
// subtraction is exact. Branch-free, so the loop below vectorises.
inline int8_t QuantizeWeight(float x) {
  constexpr float kRound = 0x1.8p23f;
  const float y = std::fabs(x) < 0x1p63f ? x : -127.0f;
  const float c = std::min(std::max(y, -127.0f), 127.0f);
  return static_cast<int8_t>(static_cast<int>((c + kRound) - kRound));
}

// max |w| over finite and infinite entries, NaN skipped — the value of the
// ascending std::max(acc, fabs(w)) chain, which no order can change (max
// over a set of non-NaN floats is exact). Independent lanes vectorise.
float AbsMax(const float* d, int64_t size) {
  constexpr int kLanes = 16;
  float lanes[kLanes] = {};
  int64_t i = 0;
  for (; i + kLanes <= size; i += kLanes) {
    for (int l = 0; l < kLanes; ++l) {
      lanes[l] = std::max(lanes[l], std::fabs(d[i + l]));
    }
  }
  float absmax = 0.0f;
  for (; i < size; ++i) absmax = std::max(absmax, std::fabs(d[i]));
  for (float v : lanes) absmax = std::max(absmax, v);
  return absmax;
}

}  // namespace

QuantizedTensor QuantizeInt8(const Tensor& w) {
  STGNN_CHECK_EQ(w.ndim(), 2);
  const int k = w.dim(0);
  const int n = w.dim(1);
  const int64_t k4 = (static_cast<int64_t>(k) + 3) / 4;
  QuantizedTensor q;
  q.rows = k;
  q.cols = n;
  const float* d = w.data().data();
  const float absmax = AbsMax(d, w.size());
  q.scale = absmax > 0.0f ? absmax / 127.0f : 1.0f;
  const float inv = absmax > 0.0f ? 127.0f / absmax : 0.0f;
  q.packed.assign(static_cast<size_t>(k4) * n * 4, 0);
  q.col_sums.assign(static_cast<size_t>(n), 0);
  int32_t* col_sums = q.col_sums.data();
  for (int p = 0; p < k; ++p) {
    const float* row = d + static_cast<size_t>(p) * n;
    // Row p is lane p % 4 of interleaved group p / 4.
    int8_t* lane =
        q.packed.data() + static_cast<size_t>(p / 4) * n * 4 + p % 4;
    for (int j = 0; j < n; ++j) {
      const int8_t v = QuantizeWeight(row[j] * inv);
      lane[4 * j] = v;
      col_sums[j] += v;
    }
  }
  return q;
}

Tensor DequantizeInt8(const QuantizedTensor& q) {
  Tensor out({q.rows, q.cols});
  float* d = out.mutable_data().data();
  for (int p = 0; p < q.rows; ++p) {
    const int64_t p4 = p / 4;
    const int lane = p % 4;
    for (int j = 0; j < q.cols; ++j) {
      d[static_cast<size_t>(p) * q.cols + j] =
          static_cast<float>(
              q.packed[static_cast<size_t>((p4 * q.cols + j) * 4 + lane)]) *
          q.scale;
    }
  }
  return out;
}

Tensor QuantizedMatMul(const Tensor& a, const QuantizedTensor& b) {
  STGNN_CHECK_EQ(a.ndim(), 2);
  STGNN_CHECK_EQ(a.dim(1), b.rows);
  const int m = a.dim(0);
  const int k = a.dim(1);
  const int n = b.cols;
  STGNN_TRACE_SCOPE("QuantizedMatMul");
  STGNN_COUNTER_INC("op.qgemm");
  if (m == 0 || n == 0) return Tensor({m, n});
  const int64_t k4 = (static_cast<int64_t>(k) + 3) / 4;

  // Per-row activation quantisation through the dispatched kernel (the
  // zero-padded tail bytes stay 0 and pair with the zero-padded packed-B
  // tail, contributing exactly nothing). One pooled float buffer carries
  // both scratch blocks: m*k4 floats reinterpreted as the u8 activation
  // matrix, then m row scales.
  std::vector<float> scratch =
      common::BufferPool::Global()->AcquireUninitialized(
          static_cast<size_t>(m) * k4 + m);
  uint8_t* qa = reinterpret_cast<uint8_t*>(scratch.data());
  float* row_scale = scratch.data() + static_cast<size_t>(m) * k4;
  const float* pa = a.data().data();
  const kernels::KernelTable& kt = kernels::Active();
  common::ParallelFor(
      0, m, common::GrainFor(m, 2 * static_cast<int64_t>(k),
                             kt.row_grain_ops),
      [&](int64_t ib, int64_t ie) {
        kt.quantize_act_rows(pa, qa, row_scale, ib, ie, k, k4, b.scale);
      });

  Tensor out = Tensor::Uninitialized({m, n});
  float* po = out.mutable_data().data();
  // Grain floored at the kernel's row tile: each output row costs far more
  // than the grain target, so GrainFor alone would hand the kernel one row
  // per chunk and its 4-row packed-B blocking would never engage.
  const int64_t cost_per_row = k4 * 4 * static_cast<int64_t>(n);
  const int64_t grain =
      std::max<int64_t>(kernels::kQgemmRowTile,
                        common::GrainFor(m, cost_per_row, kt.row_grain_ops));
  common::ParallelFor(
      0, m, grain,
      [&](int64_t ib, int64_t ie) {
        kt.qgemm_rows(qa, row_scale, b.packed.data(), b.col_sums.data(), po,
                      ib, ie, k4, n);
      });
  common::BufferPool::Global()->Release(std::move(scratch));
  return out;
}

}  // namespace stgnn::tensor
