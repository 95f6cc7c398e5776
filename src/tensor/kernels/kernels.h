#ifndef STGNN_TENSOR_KERNELS_KERNELS_H_
#define STGNN_TENSOR_KERNELS_KERNELS_H_

#include <cstdint>

#include "common/cpuid.h"

// Runtime-dispatched microkernels for the dominant compute loops (k-blocked
// packed MatMul, the n == 1 matvec, row-parallel SpMM, fused Adam) plus the
// int8 inference GEMM. One KernelTable per ISA; the active table is
// selected at runtime from common::ActiveIsa() (STGNN_ISA overridable).
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
