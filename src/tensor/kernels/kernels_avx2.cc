// AVX2+FMA kernel tier: the vector_kernels.h bodies over the Avx2 trait.
// Compiled with -mavx2 -mfma -ffp-contract=off.

#if defined(__x86_64__) || defined(_M_X64)

#include <immintrin.h>

#include <cstdint>

#include "tensor/kernels/vector_kernels.h"

namespace stgnn::tensor::kernels {
namespace {

struct Avx2 {
  using F = __m256;
  using I = __m256i;
  using M = __m256;
  using D = __m256d;
  static constexpr int kLanes = 8;
  // 4 rows x 2 vectors: 8 accumulators plus 2 panel loads and a broadcast
  // stay within the 16 ymm registers.
  static constexpr int kMmStrip = 2;
  static constexpr int kQgemmStrip = 2;
  static constexpr int kQuant = 32;

  static F Load(const float* p) { return _mm256_loadu_ps(p); }
  static void Store(float* p, F x) { _mm256_storeu_ps(p, x); }
  static F Set1(float x) { return _mm256_set1_ps(x); }
  static F Zero() { return _mm256_setzero_ps(); }
  static F Fma(F a, F b, F c) { return _mm256_fmadd_ps(a, b, c); }
  static F Add(F a, F b) { return _mm256_add_ps(a, b); }
  static F Sub(F a, F b) { return _mm256_sub_ps(a, b); }
  static F Mul(F a, F b) { return _mm256_mul_ps(a, b); }
  static F Div(F a, F b) { return _mm256_div_ps(a, b); }
  static F Sqrt(F a) { return _mm256_sqrt_ps(a); }
  static F Max(F a, F b) { return _mm256_max_ps(a, b); }
  static F Abs(F a) {
    return _mm256_and_ps(a, _mm256_castsi256_ps(_mm256_set1_epi32(0x7FFFFFFF)));
  }
  static float ReduceMax(F a) {
    __m128 half = _mm_max_ps(_mm256_castps256_ps128(a),
                             _mm256_extractf128_ps(a, 1));
    half = _mm_max_ps(half, _mm_movehl_ps(half, half));
    half = _mm_max_ss(half, _mm_shuffle_ps(half, half, 1));
    return _mm_cvtss_f32(half);
  }
  static I RowOffsets(int k) {
    return _mm256_mullo_epi32(_mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
                              _mm256_set1_epi32(k));
  }
  static F Gather(const float* base, I offsets) {
    return _mm256_i32gather_ps(base, offsets, 4);
  }

  static M Gt(F a, F b) { return _mm256_cmp_ps(a, b, _CMP_GT_OQ); }
  static M IsNan(F a) { return _mm256_cmp_ps(a, a, _CMP_UNORD_Q); }
  static F Select(M m, F a, F b) { return _mm256_blendv_ps(b, a, m); }
  static F Neg(F a) { return _mm256_xor_ps(a, _mm256_set1_ps(-0.0f)); }

  static D WidenLo(F a) { return _mm256_cvtps_pd(_mm256_castps256_ps128(a)); }
  static D WidenHi(F a) { return _mm256_cvtps_pd(_mm256_extractf128_ps(a, 1)); }
  static F Narrow(D lo, D hi) {
    return _mm256_insertf128_ps(_mm256_castps128_ps256(_mm256_cvtpd_ps(lo)),
                                _mm256_cvtpd_ps(hi), 1);
  }
  static D Set1D(double x) { return _mm256_set1_pd(x); }
  static D AddD(D a, D b) { return _mm256_add_pd(a, b); }
  static D SubD(D a, D b) { return _mm256_sub_pd(a, b); }
  static D MulD(D a, D b) { return _mm256_mul_pd(a, b); }
  static D DivD(D a, D b) { return _mm256_div_pd(a, b); }
  static D FmaD(D a, D b, D c) { return _mm256_fmadd_pd(a, b, c); }
  static D FmsD(D a, D b, D c) { return _mm256_fmsub_pd(a, b, c); }
  static void StoreD(double* p, D x) { _mm256_storeu_pd(p, x); }
  static I BitsD(D a) { return _mm256_castpd_si256(a); }
  static D FromBitsD(I a) { return _mm256_castsi256_pd(a); }
  static I AddI64(I a, I b) { return _mm256_add_epi64(a, b); }
  static I Shl47(I a) { return _mm256_slli_epi64(a, 47); }
  static I Lookup32(const uint64_t* table, I k) {
    return _mm256_i64gather_epi64(
        reinterpret_cast<const long long*>(table),
        _mm256_and_si256(k, _mm256_set1_epi64x(31)), 8);
  }

  static I LoadI(const void* p) {
    return _mm256_loadu_si256(static_cast<const __m256i*>(p));
  }
  static I Set1I(int x) { return _mm256_set1_epi32(x); }
  static I ZeroI() { return _mm256_setzero_si256(); }
  static I SubI(I a, I b) { return _mm256_sub_epi32(a, b); }
  static I Shl6(I a) { return _mm256_slli_epi32(a, 6); }
  static F ToFloat(I a) { return _mm256_cvtepi32_ps(a); }
  // u8*s8 pair sums (activations <= 127 keep them below the s16 saturation
  // point), then pairwise widened to exact s32.
  static I DotU8S8(I acc, I a, I b) {
    return _mm256_add_epi32(
        acc, _mm256_madd_epi16(_mm256_maddubs_epi16(a, b),
                               _mm256_set1_epi16(1)));
  }
  static void QuantizeBlock(const float* src, F inv, uint8_t* dst) {
    // vcvtps2dq rounds to nearest-even — exactly std::lrintf under the
    // default rounding mode.
    const auto quantize8 = [&](int q) {
      const I r = _mm256_cvtps_epi32(_mm256_mul_ps(Load(src + q), inv));
      return _mm256_add_epi32(
          _mm256_max_epi32(_mm256_set1_epi32(-63),
                           _mm256_min_epi32(_mm256_set1_epi32(63), r)),
          _mm256_set1_epi32(64));
    };
    // All values sit in [1, 127], so the saturating packs are exact; packs
    // interleaves the two 128-bit lanes, and the permutation restores
    // ascending byte order.
    const I w01 = _mm256_packs_epi32(quantize8(0), quantize8(8));
    const I w23 = _mm256_packs_epi32(quantize8(16), quantize8(24));
    const I bytes =
        _mm256_permutevar8x32_epi32(_mm256_packs_epi16(w01, w23),
                                    _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst), bytes);
  }
};

}  // namespace

const KernelTable& Avx2Kernels() {
  static const KernelTable table = {
      common::Isa::kAvx2,
      "avx2",
      &VecMatMulSmall<Avx2>,
      &VecMatMulKBlock<Avx2>,
      &VecMatVecRows<Avx2>,
      &VecSpmmRows<Avx2>,
      &VecAdamStep<Avx2>,
      &VecQgemmRows<Avx2>,
      &VecQuantizeActRows<Avx2>,
      &VecExpRange<Avx2>,
      &VecElu<Avx2>,
      &VecSigmoid<Avx2>,
      &VecRowSoftmaxRows<Avx2>,
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
