#ifndef STGNN_TENSOR_KERNELS_AVX512_TRAIT_H_
#define STGNN_TENSOR_KERNELS_AVX512_TRAIT_H_

// The AVX-512 lane-width trait (F/BW/DQ/VL + FMA) for vector_kernels.h,
// shared by the AVX-512 and AVX-512 VNNI tiers. Include only from a file
// compiled with the -mavx512* flags.

#include <immintrin.h>

#include <cstdint>

// GCC 12's _mm512_undefined_* helpers initialise a variable from itself,
// which -Wmaybe-uninitialized reports at every wrapped intrinsic that uses
// one (gather, extract, convert). The value is never read.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

namespace stgnn::tensor::kernels {
namespace {

struct Avx512 {
  using F = __m512;
  using I = __m512i;
  using M = __mmask16;
  using D = __m512d;
  static constexpr int kLanes = 16;
  // 4 rows x 4 vectors: 16 of the 32 zmm registers hold accumulators.
  static constexpr int kMmStrip = 4;
  static constexpr int kQgemmStrip = 4;
  static constexpr int kQuant = 16;

  static F Load(const float* p) { return _mm512_loadu_ps(p); }
  static void Store(float* p, F x) { _mm512_storeu_ps(p, x); }
  static F Set1(float x) { return _mm512_set1_ps(x); }
  static F Zero() { return _mm512_setzero_ps(); }
  static F Fma(F a, F b, F c) { return _mm512_fmadd_ps(a, b, c); }
  static F Add(F a, F b) { return _mm512_add_ps(a, b); }
  static F Sub(F a, F b) { return _mm512_sub_ps(a, b); }
  static F Mul(F a, F b) { return _mm512_mul_ps(a, b); }
  static F Div(F a, F b) { return _mm512_div_ps(a, b); }
  static F Sqrt(F a) { return _mm512_sqrt_ps(a); }
  static F Max(F a, F b) { return _mm512_max_ps(a, b); }
  static F Abs(F a) {
    return _mm512_and_ps(a, _mm512_castsi512_ps(_mm512_set1_epi32(0x7FFFFFFF)));
  }
  static float ReduceMax(F a) { return _mm512_reduce_max_ps(a); }
  static I RowOffsets(int k) {
    return _mm512_mullo_epi32(
        _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14,
                          15),
        _mm512_set1_epi32(k));
  }
  static F Gather(const float* base, I offsets) {
    return _mm512_i32gather_ps(offsets, base, 4);
  }

  static M Gt(F a, F b) { return _mm512_cmp_ps_mask(a, b, _CMP_GT_OQ); }
  static M IsNan(F a) { return _mm512_cmp_ps_mask(a, a, _CMP_UNORD_Q); }
  static F Select(M m, F a, F b) { return _mm512_mask_blend_ps(m, b, a); }
  static F Neg(F a) { return _mm512_xor_ps(a, _mm512_set1_ps(-0.0f)); }

  static D WidenLo(F a) { return _mm512_cvtps_pd(_mm512_castps512_ps256(a)); }
  static D WidenHi(F a) {
    return _mm512_cvtps_pd(_mm512_extractf32x8_ps(a, 1));
  }
  static F Narrow(D lo, D hi) {
    return _mm512_insertf32x8(_mm512_castps256_ps512(_mm512_cvtpd_ps(lo)),
                              _mm512_cvtpd_ps(hi), 1);
  }
  static D Set1D(double x) { return _mm512_set1_pd(x); }
  static D AddD(D a, D b) { return _mm512_add_pd(a, b); }
  static D SubD(D a, D b) { return _mm512_sub_pd(a, b); }
  static D MulD(D a, D b) { return _mm512_mul_pd(a, b); }
  static D DivD(D a, D b) { return _mm512_div_pd(a, b); }
  static D FmaD(D a, D b, D c) { return _mm512_fmadd_pd(a, b, c); }
  static D FmsD(D a, D b, D c) { return _mm512_fmsub_pd(a, b, c); }
  static void StoreD(double* p, D x) { _mm512_storeu_pd(p, x); }
  static I BitsD(D a) { return _mm512_castpd_si512(a); }
  static D FromBitsD(I a) { return _mm512_castsi512_pd(a); }
  static I AddI64(I a, I b) { return _mm512_add_epi64(a, b); }
  static I Shl47(I a) { return _mm512_slli_epi64(a, 47); }
  // Two 16-entry permutes (each reads index bits 0-3) and a blend on bit 4.
  static I Lookup32(const uint64_t* table, I k) {
    const I lo = _mm512_permutex2var_epi64(_mm512_load_si512(table), k,
                                           _mm512_load_si512(table + 8));
    const I hi = _mm512_permutex2var_epi64(_mm512_load_si512(table + 16), k,
                                           _mm512_load_si512(table + 24));
    return _mm512_mask_blend_epi64(
        _mm512_test_epi64_mask(k, _mm512_set1_epi64(16)), lo, hi);
  }

  static I LoadI(const void* p) { return _mm512_loadu_si512(p); }
  static I Set1I(int x) { return _mm512_set1_epi32(x); }
  static I ZeroI() { return _mm512_setzero_si512(); }
  static I SubI(I a, I b) { return _mm512_sub_epi32(a, b); }
  static I Shl6(I a) { return _mm512_slli_epi32(a, 6); }
  static F ToFloat(I a) { return _mm512_cvtepi32_ps(a); }
  // u8*s8 pair sums (activations <= 127 keep them below the s16 saturation
  // point), then pairwise widened to exact s32.
  static I DotU8S8(I acc, I a, I b) {
    return _mm512_add_epi32(
        acc, _mm512_madd_epi16(_mm512_maddubs_epi16(a, b),
                               _mm512_set1_epi16(1)));
  }
  static void QuantizeBlock(const float* src, F inv, uint8_t* dst) {
    // vcvtps2dq rounds to nearest-even — the same result std::lrintf
    // produces in the default rounding mode.
    const I r = _mm512_cvtps_epi32(_mm512_mul_ps(_mm512_loadu_ps(src), inv));
    const I c = _mm512_add_epi32(
        _mm512_max_epi32(_mm512_set1_epi32(-63),
                         _mm512_min_epi32(_mm512_set1_epi32(63), r)),
        _mm512_set1_epi32(64));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst), _mm512_cvtepi32_epi8(c));
  }
};

}  // namespace
}  // namespace stgnn::tensor::kernels

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

#endif  // STGNN_TENSOR_KERNELS_AVX512_TRAIT_H_
