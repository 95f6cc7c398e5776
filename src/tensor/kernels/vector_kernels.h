#ifndef STGNN_TENSOR_KERNELS_VECTOR_KERNELS_H_
#define STGNN_TENSOR_KERNELS_VECTOR_KERNELS_H_

// The vector microkernels, written once over a lane-width trait V. Each
// per-ISA file defines its trait and instantiates these bodies into its
// KernelTable; include this header only from a file compiled with that
// trait's -m flags.
//
// A trait provides:
//   F, I, kLanes      the fp32 and int32 vector types, floats per vector
//   kMmStrip          vectors per row of the 4-row matmul_kblock tile;
//                     kMmStrip * kLanes must divide kMmPanel
//   kQgemmStrip       vectors per row of the 4-row qgemm_rows tile
//   kQuant            floats quantised per QuantizeBlock call
//   fp32 ops          Load Store Set1 Zero Fma Add Sub Mul Div Sqrt Max Abs
//                     ReduceMax, RowOffsets(k) (lane r holds r * k) and
//                     Gather(base, offsets) (lane r loads base[offsets[r]])
//   int ops           LoadI Set1I ZeroI SubI Shl6 ToFloat, DotU8S8(acc, a,
//                     b) (acc + the 4-byte u8 * s8 dot products, lane-wise)
//                     and QuantizeBlock(src, inv, dst) (kQuant floats scaled
//                     by inv, rounded to nearest-even, clamped to +-63 and
//                     stored as kQuant bytes with zero-point +64)
//   fp32 masks        M, the lane mask type: Gt and IsNan produce one,
//                     Select(m, a, b) takes a where m is set, else b; Neg
//                     flips the sign bit
//   double lanes      D holds kLanes / 2 doubles: WidenLo WidenHi (the low
//                     and high halves of an F, exactly), Narrow(lo, hi)
//                     (round both to float, back into one F), Set1D AddD
//                     SubD MulD DivD FmaD FmsD (a * b - c, one rounding),
//                     StoreD, BitsD FromBitsD (reinterpret as / from int64
//                     lanes in an I), AddI64, Shl47 and Lookup32(table, k)
//                     (lane r loads table[k_r % 32])
//
// Parity (kernels.h states the contract): every body vectorises across
// independent output elements only, and its column, row and element tails
// run the scalar reference's operation sequence, so each instantiation is
// bitwise the Scalar* reference.
//
// These templates, and every trait, live in an anonymous namespace. Each
// instantiation then stays local to the file compiled with its tier's
// flags; with external linkage they and the traits' inline members would
// be weak symbols, and the linker could merge copies built for different
// ISAs.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "tensor/kernels/kernels.h"

namespace stgnn::tensor::kernels {
namespace {

// orow[c] for c in [0, width) accumulates coef(t) * row(t)[c] over terms t
// in [t_begin, t_end), ascending: column strips held in registers across
// all terms, then single vectors, then scalar columns. Each element sees
// the scalar reference's fma chain in term order.
template <class V, class Coef, class Row>
inline void VecAxpyRow(float* orow, int width, int t_begin, int t_end,
                       Coef coef, Row row) {
  constexpr int L = V::kLanes;
  int c = 0;
  for (; c + 2 * L <= width; c += 2 * L) {
    typename V::F acc0 = V::Load(orow + c);
    typename V::F acc1 = V::Load(orow + c + L);
    for (int t = t_begin; t < t_end; ++t) {
      const typename V::F v = V::Set1(coef(t));
      const float* r = row(t) + c;
      acc0 = V::Fma(v, V::Load(r), acc0);
      acc1 = V::Fma(v, V::Load(r + L), acc1);
    }
    V::Store(orow + c, acc0);
    V::Store(orow + c + L, acc1);
  }
  for (; c + L <= width; c += L) {
    typename V::F acc = V::Load(orow + c);
    for (int t = t_begin; t < t_end; ++t) {
      acc = V::Fma(V::Set1(coef(t)), V::Load(row(t) + c), acc);
    }
    V::Store(orow + c, acc);
  }
  for (; c < width; ++c) {
    float acc = orow[c];
    for (int t = t_begin; t < t_end; ++t) {
      acc = std::fmaf(coef(t), row(t)[c], acc);
    }
    orow[c] = acc;
  }
}

template <class V>
void VecMatMulSmall(const float* a, const float* b, float* out, int m, int k,
                    int n) {
  for (int i = 0; i < m; ++i) {
    const float* arow = a + static_cast<size_t>(i) * k;
    VecAxpyRow<V>(
        out + static_cast<size_t>(i) * n, n, 0, k,
        [arow](int p) { return arow[p]; },
        [b, n](int p) { return b + static_cast<size_t>(p) * n; });
  }
}

// Full kMmRowTile x kMmPanel tile over one k-block, in strips of kMmStrip
// vectors per row: 4 * kMmStrip accumulators plus kMmStrip panel loads per
// step fit the register file. `at` is the tile's A rows (stride lda); `o`
// the output tile (stride ldo).
template <class V>
inline void VecTile(const float* at, int lda, const float* panel, float* o,
                    int kc, int ldo, bool accumulate) {
  constexpr int L = V::kLanes;
  constexpr int S = V::kMmStrip;
  static_assert(kMmPanel % (S * L) == 0, "strips must tile the panel");
  for (int s = 0; s < kMmPanel; s += S * L) {
    typename V::F acc[kMmRowTile][S];
    for (int r = 0; r < kMmRowTile; ++r) {
      for (int c = 0; c < S; ++c) {
        acc[r][c] = accumulate
                        ? V::Load(o + r * static_cast<size_t>(ldo) + s + c * L)
                        : V::Zero();
      }
    }
    const float* bp = panel + s;
    for (int p = 0; p < kc; ++p, bp += kMmPanel) {
      typename V::F bv[S];
      for (int c = 0; c < S; ++c) bv[c] = V::Load(bp + c * L);
      for (int r = 0; r < kMmRowTile; ++r) {
        const typename V::F v = V::Set1(at[r * static_cast<size_t>(lda) + p]);
        for (int c = 0; c < S; ++c) acc[r][c] = V::Fma(v, bv[c], acc[r][c]);
      }
    }
    for (int r = 0; r < kMmRowTile; ++r) {
      for (int c = 0; c < S; ++c) {
        V::Store(o + r * static_cast<size_t>(ldo) + s + c * L, acc[r][c]);
      }
    }
  }
}

template <class V>
void VecMatMulKBlock(const float* a, int lda, const float* panel, float* out,
                     int rows, int kc, int ldo, int width, bool accumulate) {
  for (int i0 = 0; i0 < rows; i0 += kMmRowTile) {
    const float* at = a + static_cast<size_t>(i0) * lda;
    float* o = out + static_cast<size_t>(i0) * ldo;
    const int tile_rows = std::min(kMmRowTile, rows - i0);
    if (tile_rows == kMmRowTile && width == kMmPanel) {
      VecTile<V>(at, lda, panel, o, kc, ldo, accumulate);
      continue;
    }
    // Edge tile: run the full tile on zero-padded staging copies of its A
    // rows and output and write back only the live part. Padded rows and
    // columns compute on zeros and are dropped; each live element still
    // sees exactly its own chain.
    alignas(sizeof(typename V::F)) float stage_a[kMmRowTile][kMmDepth] = {};
    alignas(sizeof(typename V::F)) float stage[kMmRowTile][kMmPanel] = {};
    for (int r = 0; r < tile_rows; ++r) {
      const float* arow = at + static_cast<size_t>(r) * lda;
      std::copy(arow, arow + kc, stage_a[r]);
      if (accumulate) {
        std::copy(o + static_cast<size_t>(r) * ldo,
                  o + static_cast<size_t>(r) * ldo + width, stage[r]);
      }
    }
    VecTile<V>(stage_a[0], kMmDepth, panel, stage[0], kc, kMmPanel,
               accumulate);
    for (int r = 0; r < tile_rows; ++r) {
      std::copy(stage[r], stage[r] + width, o + static_cast<size_t>(r) * ldo);
    }
  }
}

// kLanes rows per pass, one row per lane: lane r runs row r's ascending fma
// chain, so the gathered column block feeds kLanes independent chains.
template <class V>
void VecMatVecRows(const float* a, const float* x, float* out,
                   int64_t row_begin, int64_t row_end, int k) {
  int64_t i = row_begin;
  const typename V::I offsets = V::RowOffsets(k);
  for (; i + V::kLanes <= row_end; i += V::kLanes) {
    const float* base = a + i * k;
    typename V::F acc = V::Zero();
    for (int p = 0; p < k; ++p) {
      acc = V::Fma(V::Gather(base + p, offsets), V::Set1(x[p]), acc);
    }
    V::Store(out + i, acc);
  }
  if (i < row_end) ScalarMatVecRows(a, x, out, i, row_end, k);
}

template <class V>
void VecSpmmRows(const int* row_ptr, const int* col_idx, const float* values,
                 const float* x, float* out, int64_t row_begin,
                 int64_t row_end, int f) {
  for (int64_t i = row_begin; i < row_end; ++i) {
    VecAxpyRow<V>(
        out + i * f, f, row_ptr[i], row_ptr[i + 1],
        [values](int e) { return values[e]; },
        [x, col_idx, f](int e) {
          return x + static_cast<size_t>(col_idx[e]) * f;
        });
  }
}

template <class V>
void VecAdamStep(const float* g, float* m, float* v, float* p, int64_t lo,
                 int64_t hi, float beta1, float beta2, float bias1,
                 float bias2, float lr, float eps) {
  if (g == nullptr) {
    // Zero-gradient parameters are rare and cheap; the scalar reference is
    // bit-identical (fma with an exact-zero addend term).
    ScalarAdamStep(g, m, v, p, lo, hi, beta1, beta2, bias1, bias2, lr, eps);
    return;
  }
  using F = typename V::F;
  const F beta1v = V::Set1(beta1);
  const F beta2v = V::Set1(beta2);
  const F omb1v = V::Set1(1.0f - beta1);
  const F omb2v = V::Set1(1.0f - beta2);
  const F bias1v = V::Set1(bias1);
  const F bias2v = V::Set1(bias2);
  const F lrv = V::Set1(lr);
  const F epsv = V::Set1(eps);
  int64_t j = lo;
  for (; j + V::kLanes <= hi; j += V::kLanes) {
    const F gv = V::Load(g + j);
    const F mv = V::Fma(V::Load(m + j), beta1v, V::Mul(gv, omb1v));
    const F vv = V::Fma(V::Load(v + j), beta2v, V::Mul(V::Mul(gv, gv), omb2v));
    V::Store(m + j, mv);
    V::Store(v + j, vv);
    const F m_hat = V::Div(mv, bias1v);
    const F v_hat = V::Div(vv, bias2v);
    const F den = V::Add(V::Sqrt(v_hat), epsv);
    const F upd = V::Div(V::Mul(lrv, m_hat), den);
    V::Store(p + j, V::Sub(V::Load(p + j), upd));
  }
  if (j < hi) {
    ScalarAdamStep(g, m, v, p, j, hi, beta1, beta2, bias1, bias2, lr, eps);
  }
}

// The activation bytes arow[4 * p4, 4 * p4 + 4) broadcast to every lane.
template <class V>
typename V::I BroadcastQuad(const uint8_t* arow, int64_t p4) {
  int bits;
  std::memcpy(&bits, arow + p4 * 4, sizeof(bits));
  return V::Set1I(bits);
}

// One row, columns [j, n): one-vector strips plus a scalar column tail.
// Integer accumulation is exact, so every tiling of the same dot products
// produces identical bits — remainder handling needs no parity care.
template <class V>
void VecQgemmRowTail(const uint8_t* arow, float row_scale,
                     const int8_t* packed_b, const int32_t* col_sums,
                     float* orow, int j, int64_t k4, int n) {
  const typename V::F scale = V::Set1(row_scale);
  for (; j + V::kLanes <= n; j += V::kLanes) {
    typename V::I acc = V::ZeroI();
    for (int64_t p4 = 0; p4 < k4; ++p4) {
      acc = V::DotU8S8(acc, BroadcastQuad<V>(arow, p4),
                       V::LoadI(packed_b + (p4 * n + j) * 4));
    }
    const typename V::I corr = V::Shl6(V::LoadI(col_sums + j));
    V::Store(orow + j, V::Mul(V::ToFloat(V::SubI(acc, corr)), scale));
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

// kQgemmRowTile-row x kQgemmStrip-vector register tile: each load of packed
// B feeds four rows, quartering B traffic — the single-row kernel is bound
// on re-streaming packed B (256 KB at n=512) once per output row.
template <class V>
void VecQgemmRows(const uint8_t* qa, const float* row_scale,
                  const int8_t* packed_b, const int32_t* col_sums, float* out,
                  int64_t row_begin, int64_t row_end, int64_t k4, int n) {
  constexpr int L = V::kLanes;
  constexpr int S = V::kQgemmStrip;
  constexpr int R = kQgemmRowTile;
  int64_t i = row_begin;
  for (; i + R <= row_end; i += R) {
    const uint8_t* ar[R];
    for (int r = 0; r < R; ++r) ar[r] = qa + (i + r) * k4 * 4;
    int j = 0;
    for (; j + S * L <= n; j += S * L) {
      typename V::I acc[R][S];
      for (int r = 0; r < R; ++r) {
        for (int c = 0; c < S; ++c) acc[r][c] = V::ZeroI();
      }
      for (int64_t p4 = 0; p4 < k4; ++p4) {
        const int8_t* bp = packed_b + (p4 * n + j) * 4;
        typename V::I bv[S];
        for (int c = 0; c < S; ++c) bv[c] = V::LoadI(bp + c * 4 * L);
        for (int r = 0; r < R; ++r) {
          const typename V::I av = BroadcastQuad<V>(ar[r], p4);
          for (int c = 0; c < S; ++c) {
            acc[r][c] = V::DotU8S8(acc[r][c], av, bv[c]);
          }
        }
      }
      typename V::I corr[S];
      for (int c = 0; c < S; ++c) {
        corr[c] = V::Shl6(V::LoadI(col_sums + j + c * L));
      }
      for (int r = 0; r < R; ++r) {
        const typename V::F scale = V::Set1(row_scale[i + r]);
        float* o = out + (i + r) * n + j;
        for (int c = 0; c < S; ++c) {
          V::Store(o + c * L,
                   V::Mul(V::ToFloat(V::SubI(acc[r][c], corr[c])), scale));
        }
      }
    }
    if (j < n) {
      for (int r = 0; r < R; ++r) {
        VecQgemmRowTail<V>(ar[r], row_scale[i + r], packed_b, col_sums,
                           out + (i + r) * n, j, k4, n);
      }
    }
  }
  for (; i < row_end; ++i) {
    VecQgemmRowTail<V>(qa + i * k4 * 4, row_scale[i], packed_b, col_sums,
                       out + i * n, 0, k4, n);
  }
}

template <class V>
void VecQuantizeActRows(const float* a, uint8_t* qa, float* row_scale,
                        int64_t row_begin, int64_t row_end, int k, int64_t k4,
                        float b_scale) {
  for (int64_t i = row_begin; i < row_end; ++i) {
    const float* arow = a + i * static_cast<int64_t>(k);
    uint8_t* qrow = qa + i * k4 * 4;
    // max is exact and order-free, so the lane-parallel reduction lands on
    // the same amax as the scalar loop.
    typename V::F vmax = V::Zero();
    int p = 0;
    for (; p + V::kLanes <= k; p += V::kLanes) {
      vmax = V::Max(vmax, V::Abs(V::Load(arow + p)));
    }
    float amax = V::ReduceMax(vmax);
    for (; p < k; ++p) {
      amax = std::max(amax, std::fabs(arow[p]));
    }
    const float inv = amax > 0.0f ? 63.0f / amax : 0.0f;
    const typename V::F invv = V::Set1(inv);
    p = 0;
    for (; p + V::kQuant <= k; p += V::kQuant) {
      V::QuantizeBlock(arow + p, invv, qrow + p);
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

// ScalarExpf's polynomial path on double lanes: the same fma, table and
// integer steps in the same order, each exact or correctly rounded.
template <class V>
inline typename V::D VecExpPoly(typename V::D xd) {
  using D = typename V::D;
  const D inv_ln2n = V::Set1D(kExpInvLn2N);
  const D shift = V::Set1D(kExpShift);
  const D kd_shifted = V::FmaD(inv_ln2n, xd, shift);
  const typename V::I ki = V::BitsD(kd_shifted);
  const D kd = V::SubD(kd_shifted, shift);
  const D r = V::FmsD(inv_ln2n, xd, kd);
  const D s =
      V::FromBitsD(V::AddI64(V::Lookup32(kExpTable, ki), V::Shl47(ki)));
  const D poly = V::FmaD(V::FmaD(V::Set1D(kExpC0), r, V::Set1D(kExpC1)),
                         V::MulD(r, r),
                         V::FmaD(V::Set1D(kExpC2), r, V::Set1D(1.0)));
  return V::MulD(poly, s);
}

// exp of every lane, bitwise ScalarExpf including its special inputs:
// past the limits the polynomial's lanes are replaced by +inf / +0, and a
// NaN lane returns x + x.
template <class V>
inline typename V::F VecExp(typename V::F x) {
  typename V::F y = V::Narrow(VecExpPoly<V>(V::WidenLo(x)),
                              VecExpPoly<V>(V::WidenHi(x)));
  y = V::Select(V::Gt(x, V::Set1(kExpOverflow)),
                V::Set1(std::numeric_limits<float>::infinity()), y);
  y = V::Select(V::Gt(V::Set1(kExpUnderflow), x), V::Zero(), y);
  return V::Select(V::IsNan(x), V::Add(x, x), y);
}

// out[i] = op(in[i]) over whole vectors; returns where the scalar tail
// starts.
template <class V, class Op>
inline int64_t VecMapVectors(const float* in, float* out, int64_t n, Op op) {
  int64_t i = 0;
  for (; i + V::kLanes <= n; i += V::kLanes) {
    V::Store(out + i, op(V::Load(in + i)));
  }
  return i;
}

template <class V>
void VecExpRange(const float* in, float* out, int64_t n) {
  const int64_t i = VecMapVectors<V>(in, out, n, VecExp<V>);
  if (i < n) ScalarExp(in + i, out + i, n - i);
}

template <class V>
void VecElu(const float* in, float* out, int64_t n, float alpha) {
  using F = typename V::F;
  const F alphav = V::Set1(alpha);
  const F one = V::Set1(1.0f);
  const int64_t i = VecMapVectors<V>(in, out, n, [&](F x) {
    const F neg = V::Mul(alphav, V::Sub(VecExp<V>(x), one));
    return V::Select(V::Gt(x, V::Zero()), x, neg);
  });
  if (i < n) ScalarElu(in + i, out + i, n - i, alpha);
}

template <class V>
void VecSigmoid(const float* in, float* out, int64_t n) {
  using F = typename V::F;
  const F one = V::Set1(1.0f);
  const int64_t i = VecMapVectors<V>(in, out, n, [&](F x) {
    return V::Div(one, V::Add(one, VecExp<V>(V::Neg(x))));
  });
  if (i < n) ScalarSigmoid(in + i, out + i, n - i);
}

// Row r's normalisation out = float(e / denom): each lane divides its
// widened e by denom, one correctly rounded division as in the reference.
template <class V>
inline void VecNormaliseRow(float* y, int cols, double denom) {
  const typename V::D d = V::Set1D(denom);
  int64_t j = VecMapVectors<V>(y, y, cols, [&](typename V::F e) {
    return V::Narrow(V::DivD(V::WidenLo(e), d), V::DivD(V::WidenHi(e), d));
  });
  for (; j < cols; ++j) y[j] = static_cast<float>(y[j] / denom);
}

// kLanes rows per pass. The row max and the double denominator are
// reductions, so lane r carries row r's whole chain in ascending column
// order, as VecMatVecRows does (max_ps(v, acc) is std::max(acc, v), NaN
// skipping included). The exp and the normalisation are elementwise and
// run along each row.
template <class V>
void VecRowSoftmaxRows(const float* in, float* out, int64_t row_begin,
                       int64_t row_end, int cols) {
  using F = typename V::F;
  using D = typename V::D;
  constexpr int L = V::kLanes;
  const typename V::I offsets = V::RowOffsets(cols);
  int64_t i = row_begin;
  for (; i + L <= row_end; i += L) {
    const float* x = in + i * cols;
    float* y = out + i * cols;
    F vmax = V::Set1(-std::numeric_limits<float>::infinity());
    for (int j = 0; j < cols; ++j) {
      vmax = V::Max(V::Gather(x + j, offsets), vmax);
    }
    alignas(sizeof(F)) float row_max[L];
    V::Store(row_max, vmax);
    for (int r = 0; r < L; ++r) {
      const float* xr = x + static_cast<size_t>(r) * cols;
      float* yr = y + static_cast<size_t>(r) * cols;
      const F m = V::Set1(row_max[r]);
      int j = 0;
      for (; j + L <= cols; j += L) {
        V::Store(yr + j, VecExp<V>(V::Sub(V::Load(xr + j), m)));
      }
      for (; j < cols; ++j) yr[j] = ScalarExpf(xr[j] - row_max[r]);
    }
    D denom_lo = V::Set1D(0.0);
    D denom_hi = V::Set1D(0.0);
    for (int j = 0; j < cols; ++j) {
      const F e = V::Gather(y + j, offsets);
      denom_lo = V::AddD(denom_lo, V::WidenLo(e));
      denom_hi = V::AddD(denom_hi, V::WidenHi(e));
    }
    alignas(sizeof(F)) double denom[L];
    V::StoreD(denom, denom_lo);
    V::StoreD(denom + L / 2, denom_hi);
    for (int r = 0; r < L; ++r) {
      VecNormaliseRow<V>(y + static_cast<size_t>(r) * cols, cols, denom[r]);
    }
  }
  if (i < row_end) ScalarRowSoftmaxRows(in, out, i, row_end, cols);
}

}  // namespace
}  // namespace stgnn::tensor::kernels

#endif  // STGNN_TENSOR_KERNELS_VECTOR_KERNELS_H_
