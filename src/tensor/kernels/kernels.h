#ifndef STGNN_TENSOR_KERNELS_KERNELS_H_
#define STGNN_TENSOR_KERNELS_KERNELS_H_

#include <cstdint>

#include "common/cpuid.h"

// Runtime-dispatched microkernels for the dominant compute loops (k-blocked
// packed MatMul, the n == 1 matvec, row-parallel SpMM, fused Adam, the
// exp-based elementwise ops and row softmax) plus the int8 inference GEMM.
// One KernelTable per ISA; the active table is selected at runtime from
// common::ActiveIsa() (STGNN_ISA overridable).
//
// The scalar table (kernels_scalar.cc) is the hand-written reference. The
// vector tables instantiate one body per kernel from vector_kernels.h over
// a lane-width trait: Avx2 (kernels_avx2.cc), Avx512 (avx512_trait.h, used
// by kernels_avx512.cc) and Avx512Vnni (kernels_avx512vnni.cc), which
// differs from Avx512 only in its u8*s8 dot step.
//
// Parity contract — every fp32 variant is bit-identical to the scalar
// reference:
//   * All variants accumulate each output element with fused multiply-adds
//     in the same fixed order (k/p ascending for MatMul, entry order for
//     SpMM, the written statement order for Adam). The scalar reference
//     uses std::fmaf (IEEE single-rounding, identical to the hardware
//     vfmadd lanes) and is compiled with -ffp-contract=off so the compiler
//     cannot reassociate it.
//   * Vectorisation is across independent output elements (columns of the
//     output row, rows of a matvec, elements of the parameter vector),
//     never across a reduction, so lane grouping cannot change any
//     element's operation sequence.
//   * Blocking MatMul over k splits each element's chain at k-block
//     boundaries: the partial sum is stored to out and the next block's
//     fmas continue from it. A float round-trips through memory unchanged,
//     so the chain, and every rounding in it, is the full-k one.
//   * Division and square root are IEEE correctly rounded in both scalar
//     and vector forms (vdivps / vsqrtps), so the fused Adam update is
//     exact too.
//   * exp is this library's own: ScalarExpf below, glibc 2.36's __expf_fma
//     algorithm, whose every step (fma, double add/multiply, the float
//     conversions, integer table arithmetic) is exact or IEEE correctly
//     rounded, so the vector bodies that run it lane-wise match it bit for
//     bit. Row softmax keeps each row's max and double denominator as one
//     sequential chain, with rows in lanes as in the matvec.
// The int8 GEMM accumulates in exact int32 arithmetic and applies one
// float conversion + one multiply per output element, so it is bitwise
// identical across ISAs by construction.
//
// Per-ISA tuning constants ride in the table: wider vectors retire flops
// faster, so chunk/grain targets grow with the ISA to keep the pool
// dispatch overhead proportionally small. Tuning never affects bits.

namespace stgnn::tensor::kernels {

// MatMul blocking: the microkernel computes a kMmRowTile x kMmPanel output
// tile from one kMmDepth-deep k-block of A's rows and of a kMmPanel-wide
// packed B panel. Fixed across ISAs — the packed B layout is produced by
// the (shared) caller, and 64 floats is four AVX-512 lanes / eight AVX2
// lanes, so every variant tiles a panel evenly. A kMmDepth x kMmPanel
// block of B is 32 KB, so it stays in L1 while every row tile of a chunk
// streams past it.
inline constexpr int kMmRowTile = 4;
inline constexpr int kMmPanel = 64;
inline constexpr int kMmDepth = 128;
// Minimum rows per MatMul chunk: one B block fetched into L1 then feeds 16
// row tiles. With one tile per fetch, a B larger than L2 (the [2048, 512]
// W10 head merge) streams from L3 for every tile.
inline constexpr int kMmRowBlock = 64;

// RowSoftmax fans rows out in chunks that are whole multiples of this many
// rows, so the rows-in-lanes passes of every vector tier (16 lanes at most)
// run full vectors and only a range's last group falls to the scalar rows.
inline constexpr int kSoftmaxRowBlock = 16;

// Constants of the exp algorithm (glibc 2.36 e_expf.c / e_exp2f_data.c,
// N = 32): x * N / ln2 = k + r, exp(x) = 2^(k/N) * 2^(r/N), with 2^(k/N)
// read from a 32-entry table and 2^(r/N) a cubic in r.
inline constexpr double kExpInvLn2N = 0x1.71547652b82fep+0 * 32;
inline constexpr double kExpShift = 0x1.8p+52;
inline constexpr double kExpC0 = 0x1.c6af84b912394p-5 / (32.0 * 32.0 * 32.0);
inline constexpr double kExpC1 = 0x1.ebfce50fac4f3p-3 / (32.0 * 32.0);
inline constexpr double kExpC2 = 0x1.62e42ff0c52d6p-1 / 32.0;
// Above this exp is +inf, below this +0 (glibc's over- and underflow
// limits); every x between them takes the polynomial.
inline constexpr float kExpOverflow = 0x1.62e42ep6f;
inline constexpr float kExpUnderflow = -0x1.9fe368p6f;
// kExpTable[i] = bits(2^(i/32)) - (i << 47): adding k << 47 to entry k % 32
// gives the bits of 2^(k/32) for any integer k in range.
alignas(64) inline constexpr uint64_t kExpTable[32] = {
    0x3ff0000000000000, 0x3fefd9b0d3158574, 0x3fefb5586cf9890f,
    0x3fef9301d0125b51, 0x3fef72b83c7d517b, 0x3fef54873168b9aa,
    0x3fef387a6e756238, 0x3fef1e9df51fdee1, 0x3fef06fe0a31b715,
    0x3feef1a7373aa9cb, 0x3feedea64c123422, 0x3feece086061892d,
    0x3feebfdad5362a27, 0x3feeb42b569d4f82, 0x3feeab07dd485429,
    0x3feea47eb03a5585, 0x3feea09e667f3bcd, 0x3fee9f75e8ec5f74,
    0x3feea11473eb0187, 0x3feea589994cce13, 0x3feeace5422aa0db,
    0x3feeb737b0cdc5e5, 0x3feec49182a3f090, 0x3feed503b23e255d,
    0x3feee89f995ad3ad, 0x3feeff76f2fb5e47, 0x3fef199bdd85529c,
    0x3fef3720dcef9069, 0x3fef5818dcfba487, 0x3fef7c97337b9b5f,
    0x3fefa4afa2a490da, 0x3fefd0765b6e4540,
};

// int8 GEMM row tile: the vector variants block 4 output rows so every
// packed-B load is shared 4 ways. Callers must hand qgemm_rows chunks of
// at least this many rows or the blocking never engages (the kernel still
// produces identical bits either way — integer accumulation is exact).
inline constexpr int kQgemmRowTile = 4;

struct KernelTable {
  common::Isa isa;
  const char* name;

  // Plain ikj product for small shapes; accumulates += into a zeroed out.
  void (*matmul_small)(const float* a, const float* b, float* out, int m,
                       int k, int n);

  // One k-block of the blocked GEMM: out[0, rows) x [0, width) (row stride
  // ldo) against a[0, rows) x [0, kc) (row stride lda) and panel, the
  // matching [kc, kMmPanel] block of one packed B panel (columns past
  // `width` zero); kc <= kMmDepth. accumulate=false starts every element's
  // fma chain at 0 (the first k-block); true continues it from the float
  // already in out. A stored partial sum reads back as the same float, so
  // the blocked product is bitwise the full-k ascending chain.
  void (*matmul_kblock)(const float* a, int lda, const float* panel,
                        float* out, int rows, int kc, int ldo, int width,
                        bool accumulate);

  // out[i] = sum_p a[i][p] * x[p] for rows [row_begin, row_end) of a
  // [*, k]: the n == 1 MatMul, one ascending fma chain per row from 0.
  void (*matvec_rows)(const float* a, const float* x, float* out,
                      int64_t row_begin, int64_t row_end, int k);

  // CSR rows [row_begin, row_end) of out = A·X, X dense [*, f]; out is
  // zeroed. Terms accumulate in ascending stored-entry order.
  void (*spmm_rows)(const int* row_ptr, const int* col_idx,
                    const float* values, const float* x, float* out,
                    int64_t row_begin, int64_t row_end, int f);

  // Fused Adam over elements [lo, hi). g may be null (exact zero
  // gradient). bias1/bias2 are the precomputed bias corrections.
  void (*adam_step)(const float* g, float* m, float* v, float* p, int64_t lo,
                    int64_t hi, float beta1, float beta2, float bias1,
                    float bias2, float lr, float eps);

  // int8 GEMM rows [row_begin, row_end): qa is the quantized activation
  // matrix (zero-point +64, k4*4 bytes per row, zero-padded), packed_b the
  // K/4-interleaved weight layout packed_b[(p4*n + j)*4 + q] =
  // qb[4*p4 + q][j], col_sums[j] = sum_p qb[p][j]. Emits
  // out[i][j] = float(acc_ij - 64*col_sums[j]) * row_scale[i].
  void (*qgemm_rows)(const uint8_t* qa, const float* row_scale,
                     const int8_t* packed_b, const int32_t* col_sums,
                     float* out, int64_t row_begin, int64_t row_end,
                     int64_t k4, int n);

  // Per-row activation quantisation for the int8 GEMM: rows [row_begin,
  // row_end) of a [m, k] into qa rows of k4*4 bytes (zero-point +64,
  // zero-padded tail) plus row_scale[i] = (amax_i/63) * b_scale. Bitwise
  // identical across ISAs: max is exact in any order, and vcvtps2dq rounds
  // to nearest-even exactly like the scalar reference's std::lrintf.
  void (*quantize_act_rows)(const float* a, uint8_t* qa, float* row_scale,
                            int64_t row_begin, int64_t row_end, int k,
                            int64_t k4, float b_scale);

  // out[i] = exp(in[i]) for i in [0, n): bitwise ScalarExpf.
  void (*exp)(const float* in, float* out, int64_t n);
  // ELU: out[i] = in[i] > 0 ? in[i] : alpha * (exp(in[i]) - 1). out may
  // alias in.
  void (*elu)(const float* in, float* out, int64_t n, float alpha);
  // Logistic sigmoid: out[i] = 1 / (1 + exp(-in[i])).
  void (*sigmoid)(const float* in, float* out, int64_t n);
  // Rows [row_begin, row_end) of a row softmax over a [*, cols] matrix:
  // m = the row max (ascending std::max from -inf), e_j = exp(x_j - m),
  // denom = the ascending double sum of the e_j, out_j = float(e_j / denom).
  void (*row_softmax_rows)(const float* in, float* out, int64_t row_begin,
                           int64_t row_end, int cols);

  // Below this m*k*n, MatMul takes the small path (no packing).
  int64_t mm_small_flops;
  // ParallelFor chunk target (flops) for the packed MatMul row fan-out;
  // chunks are rounded up to whole row tiles.
  int64_t mm_chunk_flops;
  // common::GrainFor target (ops per chunk) for row-parallel kernels.
  int64_t row_grain_ops;
};

// Scalar reference implementations (std::fmaf, -ffp-contract=off). Vector
// variants run tails through these or through inline copies of the same
// per-element sequence, which keeps the parity argument trivial for every
// remainder case; the k-block kernels instead run edge tiles as full vector
// tiles on zero-padded staging copies (padding lanes are dropped, live
// lanes keep their own chains).
void ScalarMatMulSmall(const float* a, const float* b, float* out, int m,
                       int k, int n);
void ScalarMatMulKBlock(const float* a, int lda, const float* panel,
                        float* out, int rows, int kc, int ldo, int width,
                        bool accumulate);
void ScalarMatVecRows(const float* a, const float* x, float* out,
                      int64_t row_begin, int64_t row_end, int k);
void ScalarSpmmRows(const int* row_ptr, const int* col_idx,
                    const float* values, const float* x, float* out,
                    int64_t row_begin, int64_t row_end, int f);
void ScalarAdamStep(const float* g, float* m, float* v, float* p, int64_t lo,
                    int64_t hi, float beta1, float beta2, float bias1,
                    float bias2, float lr, float eps);
void ScalarQgemmRows(const uint8_t* qa, const float* row_scale,
                     const int8_t* packed_b, const int32_t* col_sums,
                     float* out, int64_t row_begin, int64_t row_end,
                     int64_t k4, int n);
void ScalarQuantizeActRows(const float* a, uint8_t* qa, float* row_scale,
                           int64_t row_begin, int64_t row_end, int k,
                           int64_t k4, float b_scale);
// exp(x), bit for bit what glibc 2.36's expf returns on an FMA host (its
// __expf_fma variant) for every float x; the oracle of the exp entries.
float ScalarExpf(float x);
void ScalarExp(const float* in, float* out, int64_t n);
void ScalarElu(const float* in, float* out, int64_t n, float alpha);
void ScalarSigmoid(const float* in, float* out, int64_t n);
void ScalarRowSoftmaxRows(const float* in, float* out, int64_t row_begin,
                          int64_t row_end, int cols);

const KernelTable& ScalarKernels();
#if defined(__x86_64__) || defined(_M_X64)
const KernelTable& Avx2Kernels();
const KernelTable& Avx512Kernels();
// AVX-512 VNNI tier: identical fp32 kernels, but the int8 GEMM uses
// vpdpbusd (one instruction per 64 MACs vs. the 3-instruction maddubs
// sequence). Exact int32 accumulation either way, so bits never change.
// Falls back to the plain AVX-512 table when the compiler cannot target
// VNNI (the dispatcher never selects it on hosts that lack the feature).
const KernelTable& Avx512VnniKernels();
#endif

// Table for `isa`, clamped to what this build provides (non-x86 builds
// only carry the scalar table).
const KernelTable& TableFor(common::Isa isa);

// Table for common::ActiveIsa().
const KernelTable& Active();

}  // namespace stgnn::tensor::kernels

#endif  // STGNN_TENSOR_KERNELS_KERNELS_H_
