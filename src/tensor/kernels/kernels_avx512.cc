// AVX-512 kernel variants (F/BW/DQ/VL + FMA). Compiled with the matching
// -mavx512* flags and -ffp-contract=off; only ever *called* when
// common::ActiveIsa() == kAvx512, so no runtime trap on narrower hosts.
//
// Same parity construction as the AVX2 file: identical per-element fma
// sequences, vectorisation across independent output columns only, scalar
// reference delegation for partial tiles and tails. The wider lanes change
// how many independent elements advance per instruction — never the
// operation sequence any single element sees.

#if defined(__x86_64__) || defined(_M_X64)

#include <immintrin.h>

#include <algorithm>
#include <cmath>
#include <cstring>

#include "tensor/kernels/kernels.h"

namespace stgnn::tensor::kernels {
namespace {

void MatMulSmallAvx512(const float* a, const float* b, float* out, int m,
                       int k, int n) {
  for (int i = 0; i < m; ++i) {
    float* orow = out + static_cast<size_t>(i) * n;
    const float* arow = a + static_cast<size_t>(i) * k;
    int j = 0;
    for (; j + 32 <= n; j += 32) {
      __m512 acc0 = _mm512_loadu_ps(orow + j);
      __m512 acc1 = _mm512_loadu_ps(orow + j + 16);
      for (int p = 0; p < k; ++p) {
        const __m512 v = _mm512_set1_ps(arow[p]);
        const float* brow = b + static_cast<size_t>(p) * n + j;
        acc0 = _mm512_fmadd_ps(v, _mm512_loadu_ps(brow), acc0);
        acc1 = _mm512_fmadd_ps(v, _mm512_loadu_ps(brow + 16), acc1);
      }
      _mm512_storeu_ps(orow + j, acc0);
      _mm512_storeu_ps(orow + j + 16, acc1);
    }
    for (; j + 16 <= n; j += 16) {
      __m512 acc = _mm512_loadu_ps(orow + j);
      for (int p = 0; p < k; ++p) {
        acc = _mm512_fmadd_ps(
            _mm512_set1_ps(arow[p]),
            _mm512_loadu_ps(b + static_cast<size_t>(p) * n + j), acc);
      }
      _mm512_storeu_ps(orow + j, acc);
    }
    for (; j < n; ++j) {
      float acc = orow[j];
      for (int p = 0; p < k; ++p) {
        acc = std::fmaf(arow[p], b[static_cast<size_t>(p) * n + j], acc);
      }
      orow[j] = acc;
    }
  }
}

// Full 4 x 64 tile over one k-block in one pass: 16 zmm accumulators + 4
// panel loads per k step fit comfortably in the 32 zmm registers. `at` is
// the tile's 4 A rows (stride lda); `o` the output tile (stride ldo).
void Tile4x64Avx512(const float* at, int lda, const float* panel, float* o,
                    int kc, int ldo, bool accumulate) {
  float* o0 = o;
  float* o1 = o + ldo;
  float* o2 = o + 2 * static_cast<size_t>(ldo);
  float* o3 = o + 3 * static_cast<size_t>(ldo);
  __m512 acc00, acc01, acc02, acc03, acc10, acc11, acc12, acc13;
  __m512 acc20, acc21, acc22, acc23, acc30, acc31, acc32, acc33;
  if (accumulate) {
    acc00 = _mm512_loadu_ps(o0), acc01 = _mm512_loadu_ps(o0 + 16);
    acc02 = _mm512_loadu_ps(o0 + 32), acc03 = _mm512_loadu_ps(o0 + 48);
    acc10 = _mm512_loadu_ps(o1), acc11 = _mm512_loadu_ps(o1 + 16);
    acc12 = _mm512_loadu_ps(o1 + 32), acc13 = _mm512_loadu_ps(o1 + 48);
    acc20 = _mm512_loadu_ps(o2), acc21 = _mm512_loadu_ps(o2 + 16);
    acc22 = _mm512_loadu_ps(o2 + 32), acc23 = _mm512_loadu_ps(o2 + 48);
    acc30 = _mm512_loadu_ps(o3), acc31 = _mm512_loadu_ps(o3 + 16);
    acc32 = _mm512_loadu_ps(o3 + 32), acc33 = _mm512_loadu_ps(o3 + 48);
  } else {
    acc00 = acc01 = acc02 = acc03 = _mm512_setzero_ps();
    acc10 = acc11 = acc12 = acc13 = _mm512_setzero_ps();
    acc20 = acc21 = acc22 = acc23 = _mm512_setzero_ps();
    acc30 = acc31 = acc32 = acc33 = _mm512_setzero_ps();
  }
  const float* a0 = at;
  const float* a1 = at + lda;
  const float* a2 = at + 2 * static_cast<size_t>(lda);
  const float* a3 = at + 3 * static_cast<size_t>(lda);
  const float* bp = panel;
  for (int p = 0; p < kc; ++p, bp += kMmPanel) {
    const __m512 b0 = _mm512_loadu_ps(bp);
    const __m512 b1 = _mm512_loadu_ps(bp + 16);
    const __m512 b2 = _mm512_loadu_ps(bp + 32);
    const __m512 b3 = _mm512_loadu_ps(bp + 48);
    __m512 v = _mm512_set1_ps(a0[p]);
    acc00 = _mm512_fmadd_ps(v, b0, acc00);
    acc01 = _mm512_fmadd_ps(v, b1, acc01);
    acc02 = _mm512_fmadd_ps(v, b2, acc02);
    acc03 = _mm512_fmadd_ps(v, b3, acc03);
    v = _mm512_set1_ps(a1[p]);
    acc10 = _mm512_fmadd_ps(v, b0, acc10);
    acc11 = _mm512_fmadd_ps(v, b1, acc11);
    acc12 = _mm512_fmadd_ps(v, b2, acc12);
    acc13 = _mm512_fmadd_ps(v, b3, acc13);
    v = _mm512_set1_ps(a2[p]);
    acc20 = _mm512_fmadd_ps(v, b0, acc20);
    acc21 = _mm512_fmadd_ps(v, b1, acc21);
    acc22 = _mm512_fmadd_ps(v, b2, acc22);
    acc23 = _mm512_fmadd_ps(v, b3, acc23);
    v = _mm512_set1_ps(a3[p]);
    acc30 = _mm512_fmadd_ps(v, b0, acc30);
    acc31 = _mm512_fmadd_ps(v, b1, acc31);
    acc32 = _mm512_fmadd_ps(v, b2, acc32);
    acc33 = _mm512_fmadd_ps(v, b3, acc33);
  }
  _mm512_storeu_ps(o0, acc00);
  _mm512_storeu_ps(o0 + 16, acc01);
  _mm512_storeu_ps(o0 + 32, acc02);
  _mm512_storeu_ps(o0 + 48, acc03);
  _mm512_storeu_ps(o1, acc10);
  _mm512_storeu_ps(o1 + 16, acc11);
  _mm512_storeu_ps(o1 + 32, acc12);
  _mm512_storeu_ps(o1 + 48, acc13);
  _mm512_storeu_ps(o2, acc20);
  _mm512_storeu_ps(o2 + 16, acc21);
  _mm512_storeu_ps(o2 + 32, acc22);
  _mm512_storeu_ps(o2 + 48, acc23);
  _mm512_storeu_ps(o3, acc30);
  _mm512_storeu_ps(o3 + 16, acc31);
  _mm512_storeu_ps(o3 + 32, acc32);
  _mm512_storeu_ps(o3 + 48, acc33);
}

void MatMulKBlockAvx512(const float* a, int lda, const float* panel,
                        float* out, int rows, int kc, int ldo, int width,
                        bool accumulate) {
  for (int i0 = 0; i0 < rows; i0 += kMmRowTile) {
    const float* at = a + static_cast<size_t>(i0) * lda;
    float* o = out + static_cast<size_t>(i0) * ldo;
    const int tile_rows = std::min(kMmRowTile, rows - i0);
    if (tile_rows == kMmRowTile && width == kMmPanel) {
      Tile4x64Avx512(at, lda, panel, o, kc, ldo, accumulate);
      continue;
    }
    // Edge tile: run the full tile on zero-padded staging copies of its A
    // rows and output and write back only the live part. Padded rows and
    // columns compute on zeros and are dropped; each live element still
    // sees exactly its own chain.
    alignas(64) float stage_a[kMmRowTile][kMmDepth] = {};
    alignas(64) float stage[kMmRowTile][kMmPanel] = {};
    for (int r = 0; r < tile_rows; ++r) {
      const float* arow = at + static_cast<size_t>(r) * lda;
      std::copy(arow, arow + kc, stage_a[r]);
      if (accumulate) {
        std::copy(o + static_cast<size_t>(r) * ldo,
                  o + static_cast<size_t>(r) * ldo + width, stage[r]);
      }
    }
    Tile4x64Avx512(stage_a[0], kMmDepth, panel, stage[0], kc, kMmPanel,
                   accumulate);
    for (int r = 0; r < tile_rows; ++r) {
      std::copy(stage[r], stage[r] + width, o + static_cast<size_t>(r) * ldo);
    }
  }
}

// Sixteen rows per pass, one row per lane: lane r runs row r's ascending
// fma chain, so the gathered column block feeds 16 independent chains.
void MatVecRowsAvx512(const float* a, const float* x, float* out,
                      int64_t row_begin, int64_t row_end, int k) {
  int64_t i = row_begin;
  const __m512i stride = _mm512_mullo_epi32(
      _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14,
                        15),
      _mm512_set1_epi32(k));
  for (; i + 16 <= row_end; i += 16) {
    const float* base = a + i * k;
    __m512 acc = _mm512_setzero_ps();
    for (int p = 0; p < k; ++p) {
      acc = _mm512_fmadd_ps(_mm512_i32gather_ps(stride, base + p, 4),
                            _mm512_set1_ps(x[p]), acc);
    }
    _mm512_storeu_ps(out + i, acc);
  }
  if (i < row_end) ScalarMatVecRows(a, x, out, i, row_end, k);
}

void SpmmRowsAvx512(const int* row_ptr, const int* col_idx,
                    const float* values, const float* x, float* out,
                    int64_t row_begin, int64_t row_end, int f) {
  for (int64_t i = row_begin; i < row_end; ++i) {
    float* orow = out + i * f;
    const int begin = row_ptr[i];
    const int end = row_ptr[i + 1];
    int c = 0;
    for (; c + 32 <= f; c += 32) {
      __m512 acc0 = _mm512_loadu_ps(orow + c);
      __m512 acc1 = _mm512_loadu_ps(orow + c + 16);
      for (int e = begin; e < end; ++e) {
        const __m512 v = _mm512_set1_ps(values[e]);
        const float* xr = x + static_cast<size_t>(col_idx[e]) * f + c;
        acc0 = _mm512_fmadd_ps(v, _mm512_loadu_ps(xr), acc0);
        acc1 = _mm512_fmadd_ps(v, _mm512_loadu_ps(xr + 16), acc1);
      }
      _mm512_storeu_ps(orow + c, acc0);
      _mm512_storeu_ps(orow + c + 16, acc1);
    }
    for (; c + 16 <= f; c += 16) {
      __m512 acc = _mm512_loadu_ps(orow + c);
      for (int e = begin; e < end; ++e) {
        acc = _mm512_fmadd_ps(
            _mm512_set1_ps(values[e]),
            _mm512_loadu_ps(x + static_cast<size_t>(col_idx[e]) * f + c),
            acc);
      }
      _mm512_storeu_ps(orow + c, acc);
    }
    for (; c < f; ++c) {
      float acc = orow[c];
      for (int e = begin; e < end; ++e) {
        acc = std::fmaf(values[e], x[static_cast<size_t>(col_idx[e]) * f + c],
                        acc);
      }
      orow[c] = acc;
    }
  }
}

void AdamStepAvx512(const float* g, float* m, float* v, float* p, int64_t lo,
                    int64_t hi, float beta1, float beta2, float bias1,
                    float bias2, float lr, float eps) {
  if (g == nullptr) {
    ScalarAdamStep(g, m, v, p, lo, hi, beta1, beta2, bias1, bias2, lr, eps);
    return;
  }
  const __m512 beta1v = _mm512_set1_ps(beta1);
  const __m512 beta2v = _mm512_set1_ps(beta2);
  const __m512 omb1v = _mm512_set1_ps(1.0f - beta1);
  const __m512 omb2v = _mm512_set1_ps(1.0f - beta2);
  const __m512 bias1v = _mm512_set1_ps(bias1);
  const __m512 bias2v = _mm512_set1_ps(bias2);
  const __m512 lrv = _mm512_set1_ps(lr);
  const __m512 epsv = _mm512_set1_ps(eps);
  int64_t j = lo;
  for (; j + 16 <= hi; j += 16) {
    const __m512 gv = _mm512_loadu_ps(g + j);
    const __m512 mv = _mm512_fmadd_ps(_mm512_loadu_ps(m + j), beta1v,
                                      _mm512_mul_ps(gv, omb1v));
    const __m512 vv =
        _mm512_fmadd_ps(_mm512_loadu_ps(v + j), beta2v,
                        _mm512_mul_ps(_mm512_mul_ps(gv, gv), omb2v));
    _mm512_storeu_ps(m + j, mv);
    _mm512_storeu_ps(v + j, vv);
    const __m512 m_hat = _mm512_div_ps(mv, bias1v);
    const __m512 v_hat = _mm512_div_ps(vv, bias2v);
    const __m512 den = _mm512_add_ps(_mm512_sqrt_ps(v_hat), epsv);
    const __m512 upd = _mm512_div_ps(_mm512_mul_ps(lrv, m_hat), den);
    _mm512_storeu_ps(p + j, _mm512_sub_ps(_mm512_loadu_ps(p + j), upd));
  }
  if (j < hi) {
    ScalarAdamStep(g, m, v, p, j, hi, beta1, beta2, bias1, bias2, lr, eps);
  }
}

// One row, columns [j, n): 16-wide strips plus a scalar column tail.
// Integer accumulation is exact, so every tiling of the same dot products
// produces identical bits — remainder handling needs no parity care.
void QgemmRowTailAvx512(const uint8_t* arow, float row_scale,
                        const int8_t* packed_b, const int32_t* col_sums,
                        float* orow, int j, int64_t k4, int n) {
  const __m512i ones16 = _mm512_set1_epi16(1);
  const __m512 scale = _mm512_set1_ps(row_scale);
  for (; j + 16 <= n; j += 16) {
    __m512i acc = _mm512_setzero_si512();
    for (int64_t p4 = 0; p4 < k4; ++p4) {
      int abits;
      std::memcpy(&abits, arow + p4 * 4, sizeof(abits));
      const __m512i av = _mm512_set1_epi32(abits);
      const __m512i bv = _mm512_loadu_si512(packed_b + (p4 * n + j) * 4);
      const __m512i prod = _mm512_maddubs_epi16(av, bv);
      acc = _mm512_add_epi32(acc, _mm512_madd_epi16(prod, ones16));
    }
    const __m512i corr =
        _mm512_slli_epi32(_mm512_loadu_si512(col_sums + j), 6);
    const __m512 dq = _mm512_cvtepi32_ps(_mm512_sub_epi32(acc, corr));
    _mm512_storeu_ps(orow + j, _mm512_mul_ps(dq, scale));
  }
  for (; j < n; ++j) {
    int32_t acc = 0;
    for (int64_t p4 = 0; p4 < k4; ++p4) {
      const uint8_t* aq = arow + p4 * 4;
      const int8_t* bq = packed_b + (p4 * n + j) * 4;
      acc += static_cast<int32_t>(aq[0]) * bq[0];
      acc += static_cast<int32_t>(aq[1]) * bq[1];
      acc += static_cast<int32_t>(aq[2]) * bq[2];
      acc += static_cast<int32_t>(aq[3]) * bq[3];
    }
    orow[j] = static_cast<float>(acc - 64 * col_sums[j]) * row_scale;
  }
}

void QgemmRowsAvx512(const uint8_t* qa, const float* row_scale,
                     const int8_t* packed_b, const int32_t* col_sums,
                     float* out, int64_t row_begin, int64_t row_end,
                     int64_t k4, int n) {
  const __m512i ones16 = _mm512_set1_epi16(1);
  int64_t i = row_begin;
  // 4-row x 64-column register tile: each 64-byte load of packed B feeds
  // four rows, quartering B traffic — the single-row kernel is bound on
  // re-streaming packed B (256 KB at n=512) once per output row.
  for (; i + kQgemmRowTile <= row_end; i += 4) {
    const uint8_t* a0 = qa + (i + 0) * k4 * 4;
    const uint8_t* a1 = qa + (i + 1) * k4 * 4;
    const uint8_t* a2 = qa + (i + 2) * k4 * 4;
    const uint8_t* a3 = qa + (i + 3) * k4 * 4;
    int j = 0;
    for (; j + 64 <= n; j += 64) {
      __m512i c00 = _mm512_setzero_si512(), c01 = _mm512_setzero_si512();
      __m512i c02 = _mm512_setzero_si512(), c03 = _mm512_setzero_si512();
      __m512i c10 = _mm512_setzero_si512(), c11 = _mm512_setzero_si512();
      __m512i c12 = _mm512_setzero_si512(), c13 = _mm512_setzero_si512();
      __m512i c20 = _mm512_setzero_si512(), c21 = _mm512_setzero_si512();
      __m512i c22 = _mm512_setzero_si512(), c23 = _mm512_setzero_si512();
      __m512i c30 = _mm512_setzero_si512(), c31 = _mm512_setzero_si512();
      __m512i c32 = _mm512_setzero_si512(), c33 = _mm512_setzero_si512();
      for (int64_t p4 = 0; p4 < k4; ++p4) {
        const int8_t* bp = packed_b + (p4 * n + j) * 4;
        const __m512i b0 = _mm512_loadu_si512(bp);
        const __m512i b1 = _mm512_loadu_si512(bp + 64);
        const __m512i b2 = _mm512_loadu_si512(bp + 128);
        const __m512i b3 = _mm512_loadu_si512(bp + 192);
        int abits;
        std::memcpy(&abits, a0 + p4 * 4, sizeof(abits));
        __m512i av = _mm512_set1_epi32(abits);
        c00 = _mm512_add_epi32(
            c00, _mm512_madd_epi16(_mm512_maddubs_epi16(av, b0), ones16));
        c01 = _mm512_add_epi32(
            c01, _mm512_madd_epi16(_mm512_maddubs_epi16(av, b1), ones16));
        c02 = _mm512_add_epi32(
            c02, _mm512_madd_epi16(_mm512_maddubs_epi16(av, b2), ones16));
        c03 = _mm512_add_epi32(
            c03, _mm512_madd_epi16(_mm512_maddubs_epi16(av, b3), ones16));
        std::memcpy(&abits, a1 + p4 * 4, sizeof(abits));
        av = _mm512_set1_epi32(abits);
        c10 = _mm512_add_epi32(
            c10, _mm512_madd_epi16(_mm512_maddubs_epi16(av, b0), ones16));
        c11 = _mm512_add_epi32(
            c11, _mm512_madd_epi16(_mm512_maddubs_epi16(av, b1), ones16));
        c12 = _mm512_add_epi32(
            c12, _mm512_madd_epi16(_mm512_maddubs_epi16(av, b2), ones16));
        c13 = _mm512_add_epi32(
            c13, _mm512_madd_epi16(_mm512_maddubs_epi16(av, b3), ones16));
        std::memcpy(&abits, a2 + p4 * 4, sizeof(abits));
        av = _mm512_set1_epi32(abits);
        c20 = _mm512_add_epi32(
            c20, _mm512_madd_epi16(_mm512_maddubs_epi16(av, b0), ones16));
        c21 = _mm512_add_epi32(
            c21, _mm512_madd_epi16(_mm512_maddubs_epi16(av, b1), ones16));
        c22 = _mm512_add_epi32(
            c22, _mm512_madd_epi16(_mm512_maddubs_epi16(av, b2), ones16));
        c23 = _mm512_add_epi32(
            c23, _mm512_madd_epi16(_mm512_maddubs_epi16(av, b3), ones16));
        std::memcpy(&abits, a3 + p4 * 4, sizeof(abits));
        av = _mm512_set1_epi32(abits);
        c30 = _mm512_add_epi32(
            c30, _mm512_madd_epi16(_mm512_maddubs_epi16(av, b0), ones16));
        c31 = _mm512_add_epi32(
            c31, _mm512_madd_epi16(_mm512_maddubs_epi16(av, b1), ones16));
        c32 = _mm512_add_epi32(
            c32, _mm512_madd_epi16(_mm512_maddubs_epi16(av, b2), ones16));
        c33 = _mm512_add_epi32(
            c33, _mm512_madd_epi16(_mm512_maddubs_epi16(av, b3), ones16));
      }
      const __m512i k0 =
          _mm512_slli_epi32(_mm512_loadu_si512(col_sums + j), 6);
      const __m512i k1 =
          _mm512_slli_epi32(_mm512_loadu_si512(col_sums + j + 16), 6);
      const __m512i k2 =
          _mm512_slli_epi32(_mm512_loadu_si512(col_sums + j + 32), 6);
      const __m512i k3 =
          _mm512_slli_epi32(_mm512_loadu_si512(col_sums + j + 48), 6);
      const __m512 s0 = _mm512_set1_ps(row_scale[i + 0]);
      const __m512 s1 = _mm512_set1_ps(row_scale[i + 1]);
      const __m512 s2 = _mm512_set1_ps(row_scale[i + 2]);
      const __m512 s3 = _mm512_set1_ps(row_scale[i + 3]);
      float* o0 = out + (i + 0) * n + j;
      float* o1 = out + (i + 1) * n + j;
      float* o2 = out + (i + 2) * n + j;
      float* o3 = out + (i + 3) * n + j;
      _mm512_storeu_ps(o0, _mm512_mul_ps(
          _mm512_cvtepi32_ps(_mm512_sub_epi32(c00, k0)), s0));
      _mm512_storeu_ps(o0 + 16, _mm512_mul_ps(
          _mm512_cvtepi32_ps(_mm512_sub_epi32(c01, k1)), s0));
      _mm512_storeu_ps(o0 + 32, _mm512_mul_ps(
          _mm512_cvtepi32_ps(_mm512_sub_epi32(c02, k2)), s0));
      _mm512_storeu_ps(o0 + 48, _mm512_mul_ps(
          _mm512_cvtepi32_ps(_mm512_sub_epi32(c03, k3)), s0));
      _mm512_storeu_ps(o1, _mm512_mul_ps(
          _mm512_cvtepi32_ps(_mm512_sub_epi32(c10, k0)), s1));
      _mm512_storeu_ps(o1 + 16, _mm512_mul_ps(
          _mm512_cvtepi32_ps(_mm512_sub_epi32(c11, k1)), s1));
      _mm512_storeu_ps(o1 + 32, _mm512_mul_ps(
          _mm512_cvtepi32_ps(_mm512_sub_epi32(c12, k2)), s1));
      _mm512_storeu_ps(o1 + 48, _mm512_mul_ps(
          _mm512_cvtepi32_ps(_mm512_sub_epi32(c13, k3)), s1));
      _mm512_storeu_ps(o2, _mm512_mul_ps(
          _mm512_cvtepi32_ps(_mm512_sub_epi32(c20, k0)), s2));
      _mm512_storeu_ps(o2 + 16, _mm512_mul_ps(
          _mm512_cvtepi32_ps(_mm512_sub_epi32(c21, k1)), s2));
      _mm512_storeu_ps(o2 + 32, _mm512_mul_ps(
          _mm512_cvtepi32_ps(_mm512_sub_epi32(c22, k2)), s2));
      _mm512_storeu_ps(o2 + 48, _mm512_mul_ps(
          _mm512_cvtepi32_ps(_mm512_sub_epi32(c23, k3)), s2));
      _mm512_storeu_ps(o3, _mm512_mul_ps(
          _mm512_cvtepi32_ps(_mm512_sub_epi32(c30, k0)), s3));
      _mm512_storeu_ps(o3 + 16, _mm512_mul_ps(
          _mm512_cvtepi32_ps(_mm512_sub_epi32(c31, k1)), s3));
      _mm512_storeu_ps(o3 + 32, _mm512_mul_ps(
          _mm512_cvtepi32_ps(_mm512_sub_epi32(c32, k2)), s3));
      _mm512_storeu_ps(o3 + 48, _mm512_mul_ps(
          _mm512_cvtepi32_ps(_mm512_sub_epi32(c33, k3)), s3));
    }
    if (j < n) {
      QgemmRowTailAvx512(a0, row_scale[i + 0], packed_b, col_sums,
                         out + (i + 0) * n, j, k4, n);
      QgemmRowTailAvx512(a1, row_scale[i + 1], packed_b, col_sums,
                         out + (i + 1) * n, j, k4, n);
      QgemmRowTailAvx512(a2, row_scale[i + 2], packed_b, col_sums,
                         out + (i + 2) * n, j, k4, n);
      QgemmRowTailAvx512(a3, row_scale[i + 3], packed_b, col_sums,
                         out + (i + 3) * n, j, k4, n);
    }
  }
  for (; i < row_end; ++i) {
    QgemmRowTailAvx512(qa + i * k4 * 4, row_scale[i], packed_b, col_sums,
                       out + i * n, 0, k4, n);
  }
}

void QuantizeActRowsAvx512(const float* a, uint8_t* qa, float* row_scale,
                           int64_t row_begin, int64_t row_end, int k,
                           int64_t k4, float b_scale) {
  const __m512 absmask =
      _mm512_castsi512_ps(_mm512_set1_epi32(0x7FFFFFFF));
  const __m512i lo = _mm512_set1_epi32(-63);
  const __m512i hi = _mm512_set1_epi32(63);
  const __m512i zp = _mm512_set1_epi32(64);
  for (int64_t i = row_begin; i < row_end; ++i) {
    const float* arow = a + i * static_cast<int64_t>(k);
    uint8_t* qrow = qa + i * k4 * 4;
    // max is exact and order-free, so the lane-parallel reduction lands on
    // the same amax as the scalar loop.
    __m512 vmax = _mm512_setzero_ps();
    int p = 0;
    for (; p + 16 <= k; p += 16) {
      vmax = _mm512_max_ps(vmax,
                           _mm512_and_ps(_mm512_loadu_ps(arow + p), absmask));
    }
    float amax = _mm512_reduce_max_ps(vmax);
    for (; p < k; ++p) {
      amax = std::max(amax, std::fabs(arow[p]));
    }
    const float inv = amax > 0.0f ? 63.0f / amax : 0.0f;
    const __m512 invv = _mm512_set1_ps(inv);
    p = 0;
    for (; p + 16 <= k; p += 16) {
      // vcvtps2dq rounds to nearest-even — the same result std::lrintf
      // produces in the default rounding mode.
      const __m512i r = _mm512_cvtps_epi32(
          _mm512_mul_ps(_mm512_loadu_ps(arow + p), invv));
      const __m512i c = _mm512_add_epi32(
          _mm512_max_epi32(lo, _mm512_min_epi32(hi, r)), zp);
      _mm_storeu_si128(reinterpret_cast<__m128i*>(qrow + p),
                       _mm512_cvtepi32_epi8(c));
    }
    for (; p < k; ++p) {
      const long r = std::lrintf(arow[p] * inv);
      const long c = std::max<long>(-63, std::min<long>(63, r));
      qrow[p] = static_cast<uint8_t>(c + 64);
    }
    std::memset(qrow + k, 0, static_cast<size_t>(k4 * 4 - k));
    row_scale[i] = (amax > 0.0f ? amax / 63.0f : 1.0f) * b_scale;
  }
}

}  // namespace

const KernelTable& Avx512Kernels() {
  static const KernelTable table = {
      common::Isa::kAvx512,
      "avx512",
      &MatMulSmallAvx512,
      &MatMulKBlockAvx512,
      &MatVecRowsAvx512,
      &SpmmRowsAvx512,
      &AdamStepAvx512,
      &QgemmRowsAvx512,
      &QuantizeActRowsAvx512,
      /*mm_small_flops=*/int64_t{64} * 64 * 64,
      /*mm_chunk_flops=*/int64_t{1} << 21,
      /*row_grain_ops=*/16384,
  };
  return table;
}

}  // namespace stgnn::tensor::kernels

#endif  // x86_64
