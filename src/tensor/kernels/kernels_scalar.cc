// Scalar reference kernels. Compiled with -ffp-contract=off so every
// rounding is exactly the one written: std::fmaf is the single IEEE
// correctly-rounded multiply-add the vector variants' vfmadd lanes
// perform, which is what makes scalar-vs-SIMD bitwise parity possible.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "tensor/kernels/kernels.h"

namespace stgnn::tensor::kernels {

void ScalarMatMulSmall(const float* a, const float* b, float* out, int m,
                       int k, int n) {
  for (int i = 0; i < m; ++i) {
    float* orow = out + static_cast<size_t>(i) * n;
    const float* arow = a + static_cast<size_t>(i) * k;
    for (int p = 0; p < k; ++p) {
      const float aval = arow[p];
      const float* brow = b + static_cast<size_t>(p) * n;
      for (int j = 0; j < n; ++j) {
        orow[j] = std::fmaf(aval, brow[j], orow[j]);
      }
    }
  }
}

void ScalarMatMulKBlock(const float* a, int lda, const float* panel,
                        float* out, int rows, int kc, int ldo, int width,
                        bool accumulate) {
  for (int i0 = 0; i0 < rows; i0 += kMmRowTile) {
    const int tile_rows = std::min(kMmRowTile, rows - i0);
    float acc[kMmRowTile][kMmPanel];
    for (int r = 0; r < tile_rows; ++r) {
      const float* orow = out + static_cast<size_t>(i0 + r) * ldo;
      if (accumulate) {
        std::copy(orow, orow + width, acc[r]);
      } else {
        std::fill(acc[r], acc[r] + width, 0.0f);
      }
    }
    const float* at = a + static_cast<size_t>(i0) * lda;
    if (tile_rows == kMmRowTile && width == kMmPanel) {
      // Register-blocked hot tile: 4 rows share every load of the packed
      // panel row.
      for (int p = 0; p < kc; ++p) {
        const float* bp = panel + static_cast<size_t>(p) * kMmPanel;
        const float v0 = at[p];
        const float v1 = at[lda + p];
        const float v2 = at[2 * static_cast<size_t>(lda) + p];
        const float v3 = at[3 * static_cast<size_t>(lda) + p];
        for (int j = 0; j < kMmPanel; ++j) {
          acc[0][j] = std::fmaf(v0, bp[j], acc[0][j]);
          acc[1][j] = std::fmaf(v1, bp[j], acc[1][j]);
          acc[2][j] = std::fmaf(v2, bp[j], acc[2][j]);
          acc[3][j] = std::fmaf(v3, bp[j], acc[3][j]);
        }
      }
    } else {
      for (int p = 0; p < kc; ++p) {
        const float* bp = panel + static_cast<size_t>(p) * kMmPanel;
        for (int r = 0; r < tile_rows; ++r) {
          const float v = at[static_cast<size_t>(r) * lda + p];
          for (int j = 0; j < width; ++j) {
            acc[r][j] = std::fmaf(v, bp[j], acc[r][j]);
          }
        }
      }
    }
    for (int r = 0; r < tile_rows; ++r) {
      std::copy(acc[r], acc[r] + width,
                out + static_cast<size_t>(i0 + r) * ldo);
    }
  }
}

void ScalarMatVecRows(const float* a, const float* x, float* out,
                      int64_t row_begin, int64_t row_end, int k) {
  int64_t i = row_begin;
  // Four independent rows per pass: each row is still one serial fma chain
  // in ascending p, but four chains in flight hide the fma latency that a
  // lone chain waits on.
  for (; i + 4 <= row_end; i += 4) {
    const float* a0 = a + i * k;
    const float* a1 = a0 + k;
    const float* a2 = a1 + k;
    const float* a3 = a2 + k;
    float s0 = 0.0f, s1 = 0.0f, s2 = 0.0f, s3 = 0.0f;
    for (int p = 0; p < k; ++p) {
      const float xp = x[p];
      s0 = std::fmaf(a0[p], xp, s0);
      s1 = std::fmaf(a1[p], xp, s1);
      s2 = std::fmaf(a2[p], xp, s2);
      s3 = std::fmaf(a3[p], xp, s3);
    }
    out[i] = s0;
    out[i + 1] = s1;
    out[i + 2] = s2;
    out[i + 3] = s3;
  }
  for (; i < row_end; ++i) {
    const float* arow = a + i * k;
    float s = 0.0f;
    for (int p = 0; p < k; ++p) s = std::fmaf(arow[p], x[p], s);
    out[i] = s;
  }
}

void ScalarSpmmRows(const int* row_ptr, const int* col_idx,
                    const float* values, const float* x, float* out,
                    int64_t row_begin, int64_t row_end, int f) {
  for (int64_t i = row_begin; i < row_end; ++i) {
    float* orow = out + i * f;
    const int begin = row_ptr[i];
    const int end = row_ptr[i + 1];
    int e = begin;
    // 4 entries at a time: one load/store of the accumulator row serves
    // four fused multiply-adds. The per-element accumulation stays in
    // ascending stored-entry order (the four fmas are sequenced), so the
    // result matches the one-at-a-time path and dense MatMul bit for bit.
    for (; e + 4 <= end; e += 4) {
      const float v0 = values[e + 0];
      const float v1 = values[e + 1];
      const float v2 = values[e + 2];
      const float v3 = values[e + 3];
      const float* x0 = x + static_cast<size_t>(col_idx[e + 0]) * f;
      const float* x1 = x + static_cast<size_t>(col_idx[e + 1]) * f;
      const float* x2 = x + static_cast<size_t>(col_idx[e + 2]) * f;
      const float* x3 = x + static_cast<size_t>(col_idx[e + 3]) * f;
      for (int c = 0; c < f; ++c) {
        float acc = orow[c];
        acc = std::fmaf(v0, x0[c], acc);
        acc = std::fmaf(v1, x1[c], acc);
        acc = std::fmaf(v2, x2[c], acc);
        acc = std::fmaf(v3, x3[c], acc);
        orow[c] = acc;
      }
    }
    for (; e < end; ++e) {
      const float v = values[e];
      const float* xrow = x + static_cast<size_t>(col_idx[e]) * f;
      for (int c = 0; c < f; ++c) {
        orow[c] = std::fmaf(v, xrow[c], orow[c]);
      }
    }
  }
}

void ScalarAdamStep(const float* g, float* m, float* v, float* p, int64_t lo,
                    int64_t hi, float beta1, float beta2, float bias1,
                    float bias2, float lr, float eps) {
  const float omb1 = 1.0f - beta1;
  const float omb2 = 1.0f - beta2;
  for (int64_t j = lo; j < hi; ++j) {
    const float gj = g ? g[j] : 0.0f;
    const float mj = std::fmaf(m[j], beta1, gj * omb1);
    const float vj = std::fmaf(v[j], beta2, (gj * gj) * omb2);
    m[j] = mj;
    v[j] = vj;
    const float m_hat = mj / bias1;
    const float v_hat = vj / bias2;
    p[j] = p[j] - (lr * m_hat) / (std::sqrt(v_hat) + eps);
  }
}

void ScalarQgemmRows(const uint8_t* qa, const float* row_scale,
                     const int8_t* packed_b, const int32_t* col_sums,
                     float* out, int64_t row_begin, int64_t row_end,
                     int64_t k4, int n) {
  for (int64_t i = row_begin; i < row_end; ++i) {
    const uint8_t* arow = qa + i * k4 * 4;
    float* orow = out + i * n;
    const float scale = row_scale[i];
    for (int j = 0; j < n; ++j) {
      int32_t acc = 0;
      for (int64_t p4 = 0; p4 < k4; ++p4) {
        const uint8_t* aq = arow + p4 * 4;
        const int8_t* bq = packed_b + (p4 * n + j) * 4;
        acc += static_cast<int32_t>(aq[0]) * bq[0];
        acc += static_cast<int32_t>(aq[1]) * bq[1];
        acc += static_cast<int32_t>(aq[2]) * bq[2];
        acc += static_cast<int32_t>(aq[3]) * bq[3];
      }
      orow[j] = static_cast<float>(acc - 64 * col_sums[j]) * scale;
    }
  }
}

void ScalarQuantizeActRows(const float* a, uint8_t* qa, float* row_scale,
                           int64_t row_begin, int64_t row_end, int k,
                           int64_t k4, float b_scale) {
  for (int64_t i = row_begin; i < row_end; ++i) {
    const float* arow = a + i * static_cast<int64_t>(k);
    uint8_t* qrow = qa + i * k4 * 4;
    float amax = 0.0f;
    for (int p = 0; p < k; ++p) {
      amax = std::max(amax, std::fabs(arow[p]));
    }
    const float inv = amax > 0.0f ? 63.0f / amax : 0.0f;
    for (int p = 0; p < k; ++p) {
      const long r = std::lrintf(arow[p] * inv);
      const long c = std::max<long>(-63, std::min<long>(63, r));
      qrow[p] = static_cast<uint8_t>(c + 64);
    }
    std::memset(qrow + k, 0, static_cast<size_t>(k4 * 4 - k));
    row_scale[i] = (amax > 0.0f ? amax / 63.0f : 1.0f) * b_scale;
  }
}

float ScalarExpf(float x) {
  // glibc takes its special cases only for |x| >= 88 or NaN; between 88 and
  // the limits it still runs the polynomial, so testing the limits alone
  // selects the same results.
  if (std::isnan(x)) return x + x;
  if (x > kExpOverflow) return std::numeric_limits<float>::infinity();
  if (x < kExpUnderflow) return 0.0f;
  const double xd = x;
  // k = round(x * N / ln2) lands in the low mantissa bits of kd_shifted.
  const double kd_shifted = std::fma(kExpInvLn2N, xd, kExpShift);
  uint64_t ki;
  std::memcpy(&ki, &kd_shifted, sizeof(ki));
  const double kd = kd_shifted - kExpShift;
  const double r = std::fma(kExpInvLn2N, xd, -kd);
  const uint64_t t = kExpTable[ki % 32] + (ki << 47);
  double s;
  std::memcpy(&s, &t, sizeof(s));
  const double y = std::fma(std::fma(kExpC0, r, kExpC1), r * r,
                            std::fma(kExpC2, r, 1.0)) *
                   s;
  return static_cast<float>(y);
}

void ScalarExp(const float* in, float* out, int64_t n) {
  for (int64_t i = 0; i < n; ++i) out[i] = ScalarExpf(in[i]);
}

void ScalarElu(const float* in, float* out, int64_t n, float alpha) {
  for (int64_t i = 0; i < n; ++i) {
    const float x = in[i];
    out[i] = x > 0.0f ? x : alpha * (ScalarExpf(x) - 1.0f);
  }
}

void ScalarSigmoid(const float* in, float* out, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    out[i] = 1.0f / (1.0f + ScalarExpf(-in[i]));
  }
}

void ScalarRowSoftmaxRows(const float* in, float* out, int64_t row_begin,
                          int64_t row_end, int cols) {
  for (int64_t i = row_begin; i < row_end; ++i) {
    const float* x = in + i * cols;
    float* y = out + i * cols;
    float row_max = -std::numeric_limits<float>::infinity();
    for (int j = 0; j < cols; ++j) row_max = std::max(row_max, x[j]);
    double denom = 0.0;
    for (int j = 0; j < cols; ++j) {
      const float e = ScalarExpf(x[j] - row_max);
      y[j] = e;
      denom += e;
    }
    for (int j = 0; j < cols; ++j) y[j] = static_cast<float>(y[j] / denom);
  }
}

const KernelTable& ScalarKernels() {
  static const KernelTable table = {
      common::Isa::kScalar,
      "scalar",
      &ScalarMatMulSmall,
      &ScalarMatMulKBlock,
      &ScalarMatVecRows,
      &ScalarSpmmRows,
      &ScalarAdamStep,
      &ScalarQgemmRows,
      &ScalarQuantizeActRows,
      &ScalarExp,
      &ScalarElu,
      &ScalarSigmoid,
      &ScalarRowSoftmaxRows,
      /*mm_small_flops=*/int64_t{48} * 48 * 48,
      /*mm_chunk_flops=*/int64_t{1} << 18,
      /*row_grain_ops=*/2048,
  };
  return table;
}

}  // namespace stgnn::tensor::kernels
