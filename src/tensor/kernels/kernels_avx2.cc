// AVX2+FMA kernel variants. Compiled with -mavx2 -mfma -ffp-contract=off.
//
// Parity: every lane performs the same fused multiply-add sequence as the
// scalar reference's std::fmaf chain (same per-element order, single
// rounding per step); vectorisation is across independent output columns /
// parameter elements only. Partial tiles and tail columns delegate to the
// Scalar* reference functions, which are bit-identical by construction.

#if defined(__x86_64__) || defined(_M_X64)

#include <immintrin.h>

#include <algorithm>
#include <cmath>
#include <cstring>

#include "tensor/kernels/kernels.h"

namespace stgnn::tensor::kernels {
namespace {

void MatMulSmallAvx2(const float* a, const float* b, float* out, int m,
                     int k, int n) {
  for (int i = 0; i < m; ++i) {
    float* orow = out + static_cast<size_t>(i) * n;
    const float* arow = a + static_cast<size_t>(i) * k;
    int j = 0;
    // Column strips held in registers across the full k extent; element
    // (i, j) accumulates in ascending p order exactly like the scalar ikj
    // loop.
    for (; j + 16 <= n; j += 16) {
      __m256 acc0 = _mm256_loadu_ps(orow + j);
      __m256 acc1 = _mm256_loadu_ps(orow + j + 8);
      for (int p = 0; p < k; ++p) {
        const __m256 v = _mm256_set1_ps(arow[p]);
        const float* brow = b + static_cast<size_t>(p) * n + j;
        acc0 = _mm256_fmadd_ps(v, _mm256_loadu_ps(brow), acc0);
        acc1 = _mm256_fmadd_ps(v, _mm256_loadu_ps(brow + 8), acc1);
      }
      _mm256_storeu_ps(orow + j, acc0);
      _mm256_storeu_ps(orow + j + 8, acc1);
    }
    for (; j + 8 <= n; j += 8) {
      __m256 acc = _mm256_loadu_ps(orow + j);
      for (int p = 0; p < k; ++p) {
        acc = _mm256_fmadd_ps(
            _mm256_set1_ps(arow[p]),
            _mm256_loadu_ps(b + static_cast<size_t>(p) * n + j), acc);
      }
      _mm256_storeu_ps(orow + j, acc);
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

// Full 4 x 64 tile over one k-block, processed as four 16-column strips:
// 8 accumulator registers + 2 panel loads per step stay within the 16 ymm
// registers. `at` is the tile's 4 A rows (stride lda); `o` the output
// tile (stride ldo).
void Tile4x64Avx2(const float* at, int lda, const float* panel, float* o,
                  int kc, int ldo, bool accumulate) {
  float* o0 = o;
  float* o1 = o + ldo;
  float* o2 = o + 2 * static_cast<size_t>(ldo);
  float* o3 = o + 3 * static_cast<size_t>(ldo);
  const float* a0 = at;
  const float* a1 = at + lda;
  const float* a2 = at + 2 * static_cast<size_t>(lda);
  const float* a3 = at + 3 * static_cast<size_t>(lda);
  for (int s = 0; s < kMmPanel; s += 16) {
    __m256 acc00, acc01, acc10, acc11, acc20, acc21, acc30, acc31;
    if (accumulate) {
      acc00 = _mm256_loadu_ps(o0 + s), acc01 = _mm256_loadu_ps(o0 + s + 8);
      acc10 = _mm256_loadu_ps(o1 + s), acc11 = _mm256_loadu_ps(o1 + s + 8);
      acc20 = _mm256_loadu_ps(o2 + s), acc21 = _mm256_loadu_ps(o2 + s + 8);
      acc30 = _mm256_loadu_ps(o3 + s), acc31 = _mm256_loadu_ps(o3 + s + 8);
    } else {
      acc00 = acc01 = acc10 = acc11 = _mm256_setzero_ps();
      acc20 = acc21 = acc30 = acc31 = _mm256_setzero_ps();
    }
    const float* bp = panel + s;
    for (int p = 0; p < kc; ++p, bp += kMmPanel) {
      const __m256 b0 = _mm256_loadu_ps(bp);
      const __m256 b1 = _mm256_loadu_ps(bp + 8);
      __m256 v = _mm256_set1_ps(a0[p]);
      acc00 = _mm256_fmadd_ps(v, b0, acc00);
      acc01 = _mm256_fmadd_ps(v, b1, acc01);
      v = _mm256_set1_ps(a1[p]);
      acc10 = _mm256_fmadd_ps(v, b0, acc10);
      acc11 = _mm256_fmadd_ps(v, b1, acc11);
      v = _mm256_set1_ps(a2[p]);
      acc20 = _mm256_fmadd_ps(v, b0, acc20);
      acc21 = _mm256_fmadd_ps(v, b1, acc21);
      v = _mm256_set1_ps(a3[p]);
      acc30 = _mm256_fmadd_ps(v, b0, acc30);
      acc31 = _mm256_fmadd_ps(v, b1, acc31);
    }
    _mm256_storeu_ps(o0 + s, acc00);
    _mm256_storeu_ps(o0 + s + 8, acc01);
    _mm256_storeu_ps(o1 + s, acc10);
    _mm256_storeu_ps(o1 + s + 8, acc11);
    _mm256_storeu_ps(o2 + s, acc20);
    _mm256_storeu_ps(o2 + s + 8, acc21);
    _mm256_storeu_ps(o3 + s, acc30);
    _mm256_storeu_ps(o3 + s + 8, acc31);
  }
}

void MatMulKBlockAvx2(const float* a, int lda, const float* panel,
                      float* out, int rows, int kc, int ldo, int width,
                      bool accumulate) {
  for (int i0 = 0; i0 < rows; i0 += kMmRowTile) {
    const float* at = a + static_cast<size_t>(i0) * lda;
    float* o = out + static_cast<size_t>(i0) * ldo;
    const int tile_rows = std::min(kMmRowTile, rows - i0);
    if (tile_rows == kMmRowTile && width == kMmPanel) {
      Tile4x64Avx2(at, lda, panel, o, kc, ldo, accumulate);
      continue;
    }
    // Edge tile: run the full tile on zero-padded staging copies of its A
    // rows and output and write back only the live part. Padded rows and
    // columns compute on zeros and are dropped; each live element still
    // sees exactly its own chain.
    alignas(32) float stage_a[kMmRowTile][kMmDepth] = {};
    alignas(32) float stage[kMmRowTile][kMmPanel] = {};
    for (int r = 0; r < tile_rows; ++r) {
      const float* arow = at + static_cast<size_t>(r) * lda;
      std::copy(arow, arow + kc, stage_a[r]);
      if (accumulate) {
        std::copy(o + static_cast<size_t>(r) * ldo,
                  o + static_cast<size_t>(r) * ldo + width, stage[r]);
      }
    }
    Tile4x64Avx2(stage_a[0], kMmDepth, panel, stage[0], kc, kMmPanel,
                 accumulate);
    for (int r = 0; r < tile_rows; ++r) {
      std::copy(stage[r], stage[r] + width, o + static_cast<size_t>(r) * ldo);
    }
  }
}

// Eight rows per pass, one row per lane: lane r runs row r's ascending fma
// chain, so the gathered column block feeds 8 independent chains.
void MatVecRowsAvx2(const float* a, const float* x, float* out,
                    int64_t row_begin, int64_t row_end, int k) {
  int64_t i = row_begin;
  const __m256i stride = _mm256_mullo_epi32(
      _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7), _mm256_set1_epi32(k));
  for (; i + 8 <= row_end; i += 8) {
    const float* base = a + i * k;
    __m256 acc = _mm256_setzero_ps();
    for (int p = 0; p < k; ++p) {
      acc = _mm256_fmadd_ps(_mm256_i32gather_ps(base + p, stride, 4),
                            _mm256_set1_ps(x[p]), acc);
    }
    _mm256_storeu_ps(out + i, acc);
  }
  if (i < row_end) ScalarMatVecRows(a, x, out, i, row_end, k);
}

void SpmmRowsAvx2(const int* row_ptr, const int* col_idx, const float* values,
                  const float* x, float* out, int64_t row_begin,
                  int64_t row_end, int f) {
  for (int64_t i = row_begin; i < row_end; ++i) {
    float* orow = out + i * f;
    const int begin = row_ptr[i];
    const int end = row_ptr[i + 1];
    int c = 0;
    // Column strips accumulate all stored entries in ascending order, one
    // register chain per output element — the same rounding sequence as
    // ScalarSpmmRows.
    for (; c + 16 <= f; c += 16) {
      __m256 acc0 = _mm256_loadu_ps(orow + c);
      __m256 acc1 = _mm256_loadu_ps(orow + c + 8);
      for (int e = begin; e < end; ++e) {
        const __m256 v = _mm256_set1_ps(values[e]);
        const float* xr = x + static_cast<size_t>(col_idx[e]) * f + c;
        acc0 = _mm256_fmadd_ps(v, _mm256_loadu_ps(xr), acc0);
        acc1 = _mm256_fmadd_ps(v, _mm256_loadu_ps(xr + 8), acc1);
      }
      _mm256_storeu_ps(orow + c, acc0);
      _mm256_storeu_ps(orow + c + 8, acc1);
    }
    for (; c + 8 <= f; c += 8) {
      __m256 acc = _mm256_loadu_ps(orow + c);
      for (int e = begin; e < end; ++e) {
        acc = _mm256_fmadd_ps(
            _mm256_set1_ps(values[e]),
            _mm256_loadu_ps(x + static_cast<size_t>(col_idx[e]) * f + c),
            acc);
      }
      _mm256_storeu_ps(orow + c, acc);
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

void AdamStepAvx2(const float* g, float* m, float* v, float* p, int64_t lo,
                  int64_t hi, float beta1, float beta2, float bias1,
                  float bias2, float lr, float eps) {
  if (g == nullptr) {
    // Zero-gradient parameters are rare and cheap; the scalar reference is
    // bit-identical (fma with an exact-zero addend term).
    ScalarAdamStep(g, m, v, p, lo, hi, beta1, beta2, bias1, bias2, lr, eps);
    return;
  }
  const __m256 beta1v = _mm256_set1_ps(beta1);
  const __m256 beta2v = _mm256_set1_ps(beta2);
  const __m256 omb1v = _mm256_set1_ps(1.0f - beta1);
  const __m256 omb2v = _mm256_set1_ps(1.0f - beta2);
  const __m256 bias1v = _mm256_set1_ps(bias1);
  const __m256 bias2v = _mm256_set1_ps(bias2);
  const __m256 lrv = _mm256_set1_ps(lr);
  const __m256 epsv = _mm256_set1_ps(eps);
  int64_t j = lo;
  for (; j + 8 <= hi; j += 8) {
    const __m256 gv = _mm256_loadu_ps(g + j);
    const __m256 mv =
        _mm256_fmadd_ps(_mm256_loadu_ps(m + j), beta1v,
                        _mm256_mul_ps(gv, omb1v));
    const __m256 vv =
        _mm256_fmadd_ps(_mm256_loadu_ps(v + j), beta2v,
                        _mm256_mul_ps(_mm256_mul_ps(gv, gv), omb2v));
    _mm256_storeu_ps(m + j, mv);
    _mm256_storeu_ps(v + j, vv);
    const __m256 m_hat = _mm256_div_ps(mv, bias1v);
    const __m256 v_hat = _mm256_div_ps(vv, bias2v);
    const __m256 den = _mm256_add_ps(_mm256_sqrt_ps(v_hat), epsv);
    const __m256 upd = _mm256_div_ps(_mm256_mul_ps(lrv, m_hat), den);
    _mm256_storeu_ps(p + j, _mm256_sub_ps(_mm256_loadu_ps(p + j), upd));
  }
  if (j < hi) {
    ScalarAdamStep(g, m, v, p, j, hi, beta1, beta2, bias1, bias2, lr, eps);
  }
}

// One row, columns [j, n): 8-wide strips plus a scalar column tail.
// Integer accumulation is exact, so any tiling of the same dot products is
// bitwise identical.
void QgemmRowTailAvx2(const uint8_t* arow, float row_scale,
                      const int8_t* packed_b, const int32_t* col_sums,
                      float* orow, int j, int64_t k4, int n) {
  const __m256i ones16 = _mm256_set1_epi16(1);
  const __m256 scale = _mm256_set1_ps(row_scale);
  for (; j + 8 <= n; j += 8) {
    __m256i acc = _mm256_setzero_si256();
    for (int64_t p4 = 0; p4 < k4; ++p4) {
      // 4 consecutive k-entries of 8 columns (32 bytes of packed B)
      // against the matching 4 activation bytes broadcast per lane.
      int abits;
      std::memcpy(&abits, arow + p4 * 4, sizeof(abits));
      const __m256i av = _mm256_set1_epi32(abits);
      const __m256i bv = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(packed_b + (p4 * n + j) * 4));
      // u8*s8 pair sums (activations <= 127 keep this below the s16
      // saturation point), then pairwise widen to exact s32.
      const __m256i prod = _mm256_maddubs_epi16(av, bv);
      acc = _mm256_add_epi32(acc, _mm256_madd_epi16(prod, ones16));
    }
    const __m256i corr = _mm256_slli_epi32(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(col_sums + j)),
        6);
    const __m256 dq = _mm256_cvtepi32_ps(_mm256_sub_epi32(acc, corr));
    _mm256_storeu_ps(orow + j, _mm256_mul_ps(dq, scale));
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

void QgemmRowsAvx2(const uint8_t* qa, const float* row_scale,
                   const int8_t* packed_b, const int32_t* col_sums,
                   float* out, int64_t row_begin, int64_t row_end, int64_t k4,
                   int n) {
  const __m256i ones16 = _mm256_set1_epi16(1);
  int64_t i = row_begin;
  // 4-row x 16-column tile: both 32-byte loads of packed B feed four rows,
  // quartering B traffic versus the one-row-at-a-time strip.
  for (; i + kQgemmRowTile <= row_end; i += 4) {
    const uint8_t* a0 = qa + (i + 0) * k4 * 4;
    const uint8_t* a1 = qa + (i + 1) * k4 * 4;
    const uint8_t* a2 = qa + (i + 2) * k4 * 4;
    const uint8_t* a3 = qa + (i + 3) * k4 * 4;
    int j = 0;
    for (; j + 16 <= n; j += 16) {
      __m256i c00 = _mm256_setzero_si256(), c01 = _mm256_setzero_si256();
      __m256i c10 = _mm256_setzero_si256(), c11 = _mm256_setzero_si256();
      __m256i c20 = _mm256_setzero_si256(), c21 = _mm256_setzero_si256();
      __m256i c30 = _mm256_setzero_si256(), c31 = _mm256_setzero_si256();
      for (int64_t p4 = 0; p4 < k4; ++p4) {
        const int8_t* bp = packed_b + (p4 * n + j) * 4;
        const __m256i b0 =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(bp));
        const __m256i b1 =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(bp + 32));
        int abits;
        std::memcpy(&abits, a0 + p4 * 4, sizeof(abits));
        __m256i av = _mm256_set1_epi32(abits);
        c00 = _mm256_add_epi32(
            c00, _mm256_madd_epi16(_mm256_maddubs_epi16(av, b0), ones16));
        c01 = _mm256_add_epi32(
            c01, _mm256_madd_epi16(_mm256_maddubs_epi16(av, b1), ones16));
        std::memcpy(&abits, a1 + p4 * 4, sizeof(abits));
        av = _mm256_set1_epi32(abits);
        c10 = _mm256_add_epi32(
            c10, _mm256_madd_epi16(_mm256_maddubs_epi16(av, b0), ones16));
        c11 = _mm256_add_epi32(
            c11, _mm256_madd_epi16(_mm256_maddubs_epi16(av, b1), ones16));
        std::memcpy(&abits, a2 + p4 * 4, sizeof(abits));
        av = _mm256_set1_epi32(abits);
        c20 = _mm256_add_epi32(
            c20, _mm256_madd_epi16(_mm256_maddubs_epi16(av, b0), ones16));
        c21 = _mm256_add_epi32(
            c21, _mm256_madd_epi16(_mm256_maddubs_epi16(av, b1), ones16));
        std::memcpy(&abits, a3 + p4 * 4, sizeof(abits));
        av = _mm256_set1_epi32(abits);
        c30 = _mm256_add_epi32(
            c30, _mm256_madd_epi16(_mm256_maddubs_epi16(av, b0), ones16));
        c31 = _mm256_add_epi32(
            c31, _mm256_madd_epi16(_mm256_maddubs_epi16(av, b1), ones16));
      }
      const __m256i k0 = _mm256_slli_epi32(
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(col_sums + j)),
          6);
      const __m256i k1 = _mm256_slli_epi32(
          _mm256_loadu_si256(
              reinterpret_cast<const __m256i*>(col_sums + j + 8)),
          6);
      const __m256 s0 = _mm256_set1_ps(row_scale[i + 0]);
      const __m256 s1 = _mm256_set1_ps(row_scale[i + 1]);
      const __m256 s2 = _mm256_set1_ps(row_scale[i + 2]);
      const __m256 s3 = _mm256_set1_ps(row_scale[i + 3]);
      float* o0 = out + (i + 0) * n + j;
      float* o1 = out + (i + 1) * n + j;
      float* o2 = out + (i + 2) * n + j;
      float* o3 = out + (i + 3) * n + j;
      _mm256_storeu_ps(o0, _mm256_mul_ps(
          _mm256_cvtepi32_ps(_mm256_sub_epi32(c00, k0)), s0));
      _mm256_storeu_ps(o0 + 8, _mm256_mul_ps(
          _mm256_cvtepi32_ps(_mm256_sub_epi32(c01, k1)), s0));
      _mm256_storeu_ps(o1, _mm256_mul_ps(
          _mm256_cvtepi32_ps(_mm256_sub_epi32(c10, k0)), s1));
      _mm256_storeu_ps(o1 + 8, _mm256_mul_ps(
          _mm256_cvtepi32_ps(_mm256_sub_epi32(c11, k1)), s1));
      _mm256_storeu_ps(o2, _mm256_mul_ps(
          _mm256_cvtepi32_ps(_mm256_sub_epi32(c20, k0)), s2));
      _mm256_storeu_ps(o2 + 8, _mm256_mul_ps(
          _mm256_cvtepi32_ps(_mm256_sub_epi32(c21, k1)), s2));
      _mm256_storeu_ps(o3, _mm256_mul_ps(
          _mm256_cvtepi32_ps(_mm256_sub_epi32(c30, k0)), s3));
      _mm256_storeu_ps(o3 + 8, _mm256_mul_ps(
          _mm256_cvtepi32_ps(_mm256_sub_epi32(c31, k1)), s3));
    }
    if (j < n) {
      QgemmRowTailAvx2(a0, row_scale[i + 0], packed_b, col_sums,
                       out + (i + 0) * n, j, k4, n);
      QgemmRowTailAvx2(a1, row_scale[i + 1], packed_b, col_sums,
                       out + (i + 1) * n, j, k4, n);
      QgemmRowTailAvx2(a2, row_scale[i + 2], packed_b, col_sums,
                       out + (i + 2) * n, j, k4, n);
      QgemmRowTailAvx2(a3, row_scale[i + 3], packed_b, col_sums,
                       out + (i + 3) * n, j, k4, n);
    }
  }
  for (; i < row_end; ++i) {
    QgemmRowTailAvx2(qa + i * k4 * 4, row_scale[i], packed_b, col_sums,
                     out + i * n, 0, k4, n);
  }
}

void QuantizeActRowsAvx2(const float* a, uint8_t* qa, float* row_scale,
                         int64_t row_begin, int64_t row_end, int k,
                         int64_t k4, float b_scale) {
  const __m256 absmask =
      _mm256_castsi256_ps(_mm256_set1_epi32(0x7FFFFFFF));
  const __m256i lo = _mm256_set1_epi32(-63);
  const __m256i hi = _mm256_set1_epi32(63);
  const __m256i zp = _mm256_set1_epi32(64);
  // packs interleaves the two 128-bit lanes; this permutation restores
  // ascending byte order after packs_epi32 + packs_epi16.
  const __m256i unshuffle = _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7);
  for (int64_t i = row_begin; i < row_end; ++i) {
    const float* arow = a + i * static_cast<int64_t>(k);
    uint8_t* qrow = qa + i * k4 * 4;
    // max is exact and order-free, so the lane-parallel reduction lands on
    // the same amax as the scalar loop.
    __m256 vmax = _mm256_setzero_ps();
    int p = 0;
    for (; p + 8 <= k; p += 8) {
      vmax = _mm256_max_ps(vmax,
                           _mm256_and_ps(_mm256_loadu_ps(arow + p), absmask));
    }
    __m128 half = _mm_max_ps(_mm256_castps256_ps128(vmax),
                             _mm256_extractf128_ps(vmax, 1));
    half = _mm_max_ps(half, _mm_movehl_ps(half, half));
    half = _mm_max_ss(half, _mm_shuffle_ps(half, half, 1));
    float amax = _mm_cvtss_f32(half);
    for (; p < k; ++p) {
      amax = std::max(amax, std::fabs(arow[p]));
    }
    const float inv = amax > 0.0f ? 63.0f / amax : 0.0f;
    const __m256 invv = _mm256_set1_ps(inv);
    const auto quantize8 = [&](int q) {
      // vcvtps2dq rounds to nearest-even — exactly std::lrintf under the
      // default rounding mode.
      const __m256i r = _mm256_cvtps_epi32(
          _mm256_mul_ps(_mm256_loadu_ps(arow + q), invv));
      return _mm256_add_epi32(_mm256_max_epi32(lo, _mm256_min_epi32(hi, r)),
                              zp);
    };
    p = 0;
    for (; p + 32 <= k; p += 32) {
      // All values sit in [1, 127], so the saturating packs are exact.
      const __m256i w01 = _mm256_packs_epi32(quantize8(p), quantize8(p + 8));
      const __m256i w23 =
          _mm256_packs_epi32(quantize8(p + 16), quantize8(p + 24));
      const __m256i bytes = _mm256_permutevar8x32_epi32(
          _mm256_packs_epi16(w01, w23), unshuffle);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(qrow + p), bytes);
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

const KernelTable& Avx2Kernels() {
  static const KernelTable table = {
      common::Isa::kAvx2,
      "avx2",
      &MatMulSmallAvx2,
      &MatMulKBlockAvx2,
      &MatVecRowsAvx2,
      &SpmmRowsAvx2,
      &AdamStepAvx2,
      &QgemmRowsAvx2,
      &QuantizeActRowsAvx2,
      // The vector small kernel keeps its accumulators in registers, so
      // packing pays off later than in the scalar build.
      /*mm_small_flops=*/int64_t{64} * 64 * 64,
      // ~8 flops/cycle/lane-group faster than scalar: chunks carry 4x the
      // flops so pool dispatch stays proportionally negligible.
      /*mm_chunk_flops=*/int64_t{1} << 20,
      /*row_grain_ops=*/8192,
  };
  return table;
}

}  // namespace stgnn::tensor::kernels

#endif  // x86_64
