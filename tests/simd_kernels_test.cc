// Bitwise-parity suite for the runtime-dispatched SIMD microkernels
// (src/tensor/kernels/). The dispatch contract says every fp32 variant —
// scalar, AVX2, AVX-512 — produces bit-identical results, and that the
// thread-pool fan-out never changes bits either; these tests pin both
// claims by running the same inputs through every ISA the host supports at
// 1, 2, and 7 kernel threads and comparing raw float bits.
//
// Shapes are deliberately awkward (odd dims, just-past-tile sizes) so the
// vector kernels' remainder handling is on the hook, and a coverage test
// sweeps widths around every tile boundary to prove no dispatched kernel
// drops tail rows or columns. Finite-difference gradcheck runs through the
// dispatched kernels per ISA, and gradients themselves are compared
// bitwise across ISAs.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <limits>
#include <utility>
#include <vector>

#include "autograd/ops.h"
#include "common/cpuid.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "gradcheck.h"
#include "gtest/gtest.h"
#include "nn/optimizer.h"
#include "tensor/csr.h"
#include "tensor/kernels/kernels.h"
#include "tensor/quantized.h"
#include "tensor/tensor.h"

namespace stgnn {
namespace {

namespace ag = autograd;
using tensor::Tensor;

std::vector<common::Isa> AvailableIsas() {
  std::vector<common::Isa> isas = {common::Isa::kScalar};
  if (common::IsaSupported(common::Isa::kAvx2)) {
    isas.push_back(common::Isa::kAvx2);
  }
  if (common::IsaSupported(common::Isa::kAvx512)) {
    isas.push_back(common::Isa::kAvx512);
  }
  if (common::IsaSupported(common::Isa::kAvx512Vnni)) {
    isas.push_back(common::Isa::kAvx512Vnni);
  }
  return isas;
}

// Restores the ambient ISA and thread count when a test scope ends, so the
// per-test overrides cannot leak into other tests in this binary.
struct DispatchGuard {
  common::Isa isa = common::ActiveIsa();
  int threads = common::GetNumThreads();
  ~DispatchGuard() {
    common::SetIsa(isa);
    common::SetNumThreads(threads);
  }
};

Tensor RandomTensor(tensor::Shape shape, common::Rng* rng, float lo = -1.0f,
                    float hi = 1.0f) {
  Tensor t(std::move(shape));
  for (int64_t i = 0; i < t.size(); ++i) {
    t.flat(i) = static_cast<float>(rng->Uniform(lo, hi));
  }
  return t;
}

::testing::AssertionResult BitsEqual(const Tensor& a, const Tensor& b) {
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure()
           << "size " << a.size() << " vs " << b.size();
  }
  if (std::memcmp(a.data().data(), b.data().data(),
                  static_cast<size_t>(a.size()) * sizeof(float)) != 0) {
    for (int64_t i = 0; i < a.size(); ++i) {
      uint32_t ba, bb;
      std::memcpy(&ba, &a.data()[i], 4);
      std::memcpy(&bb, &b.data()[i], 4);
      if (ba != bb) {
        return ::testing::AssertionFailure()
               << "first differing element " << i << ": " << std::scientific
               << a.flat(i) << " vs " << b.flat(i);
      }
    }
  }
  return ::testing::AssertionSuccess();
}

constexpr int kThreadCounts[] = {1, 2, 7};

TEST(SimdKernels, MatMulBitwiseParityAcrossIsasAndThreadCounts) {
  DispatchGuard guard;
  // Small-path, blocked-path, and just-past-tile shapes; odd dims exercise
  // every remainder branch of the vector kernels.
  const struct {
    int m, k, n;
  } kShapes[] = {{5, 13, 37}, {1, 100, 1}, {4, 64, 64},
                 {70, 65, 70}, {129, 64, 131}};
  for (const auto& s : kShapes) {
    common::Rng rng(1000 + s.m + s.k + s.n);
    const Tensor a = RandomTensor({s.m, s.k}, &rng);
    const Tensor b = RandomTensor({s.k, s.n}, &rng);
    common::SetIsa(common::Isa::kScalar);
    common::SetNumThreads(1);
    const Tensor reference = tensor::MatMul(a, b);
    for (int threads : kThreadCounts) {
      common::SetNumThreads(threads);
      for (common::Isa isa : AvailableIsas()) {
        common::SetIsa(isa);
        EXPECT_TRUE(BitsEqual(reference, tensor::MatMul(a, b)))
            << common::IsaName(isa) << " threads=" << threads << " shape "
            << s.m << "x" << s.k << "x" << s.n;
      }
    }
  }
}

// The k-blocked GEMM against an independent reference: every element as one
// std::fmaf chain over ascending k from 0, the order the kernel contract
// promises. Shapes straddle every blocking edge: k one below, at, and one
// above the k-block depth plus a deep 2051 (16 blocks and a ragged one), m
// off the row tile and past one row block (several chunks), n off the
// panel width, and n == 1 (the matvec path).
TEST(SimdKernels, BlockedMatMulMatchesFullKChainAcrossIsasAndThreadCounts) {
  DispatchGuard guard;
  constexpr int kc = tensor::kernels::kMmDepth;
  const struct {
    int m, k, n;
  } kShapes[] = {{70, kc - 1, 130},  {131, kc, 67},  {67, kc + 1, 100},
                 {9, 2051, 70},      {133, 2051, 1}, {70, kc + 1, 1},
                 {3, kc - 1, 1},     {66, kc, 65}};
  for (const auto& s : kShapes) {
    common::Rng rng(9000 + s.m + s.k + s.n);
    const Tensor a = RandomTensor({s.m, s.k}, &rng);
    const Tensor b = RandomTensor({s.k, s.n}, &rng);
    Tensor chain({s.m, s.n});
    for (int i = 0; i < s.m; ++i) {
      for (int j = 0; j < s.n; ++j) {
        float acc = 0.0f;
        for (int p = 0; p < s.k; ++p) {
          acc = std::fmaf(a.flat(static_cast<int64_t>(i) * s.k + p),
                          b.flat(static_cast<int64_t>(p) * s.n + j), acc);
        }
        chain.flat(static_cast<int64_t>(i) * s.n + j) = acc;
      }
    }
    for (int threads : kThreadCounts) {
      common::SetNumThreads(threads);
      for (common::Isa isa : AvailableIsas()) {
        common::SetIsa(isa);
        EXPECT_TRUE(BitsEqual(chain, tensor::MatMul(a, b)))
            << common::IsaName(isa) << " threads=" << threads << " shape "
            << s.m << "x" << s.k << "x" << s.n;
      }
    }
  }
}

// A single-row left operand takes the unpacked axpy kernel whatever its
// flop count. Each element must still be the ascending fma chain from 0
// that the packed path computes for the same row inside a taller product:
// widths straddle every lane and strip tail, k runs up to 2051.
TEST(SimdKernels, SingleRowMatMulMatchesFullKChainAcrossIsasAndThreadCounts) {
  DispatchGuard guard;
  const int kWidths[] = {1, 2, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65,
                         129};
  const int kDepths[] = {1, 3, 64, 65, 257, 2051};
  for (int k : kDepths) {
    for (int n : kWidths) {
      common::Rng rng(12000 + 7 * k + n);
      const Tensor a = RandomTensor({1, k}, &rng);
      const Tensor b = RandomTensor({k, n}, &rng);
      Tensor chain({1, n});
      for (int j = 0; j < n; ++j) {
        float acc = 0.0f;
        for (int p = 0; p < k; ++p) {
          acc = std::fmaf(a.flat(p), b.flat(static_cast<int64_t>(p) * n + j),
                          acc);
        }
        chain.flat(j) = acc;
      }
      // The same row as row 0 of a 9-row product (packed path when big).
      Tensor tall = RandomTensor({9, k}, &rng);
      std::copy(a.data().begin(), a.data().end(), tall.mutable_data().begin());
      for (int threads : kThreadCounts) {
        common::SetNumThreads(threads);
        for (common::Isa isa : AvailableIsas()) {
          common::SetIsa(isa);
          const Tensor got = tensor::MatMul(a, b);
          EXPECT_TRUE(BitsEqual(chain, got))
              << common::IsaName(isa) << " threads=" << threads << " 1x" << k
              << "x" << n;
          EXPECT_TRUE(BitsEqual(chain, tensor::MatMul(tall, b).Row(0)))
              << common::IsaName(isa) << " threads=" << threads << " 9x" << k
              << "x" << n << " row 0";
        }
      }
    }
  }
}

TEST(SimdKernels, SpmmBitwiseParityAcrossIsasAndThreadCounts) {
  DispatchGuard guard;
  const struct {
    int m, k, f;
  } kShapes[] = {{9, 9, 5}, {33, 29, 37}, {65, 65, 64}};
  for (const auto& s : kShapes) {
    common::Rng rng(2000 + s.m + s.f);
    Tensor dense({s.m, s.k});
    for (int64_t i = 0; i < dense.size(); ++i) {
      if (rng.Bernoulli(0.3)) {
        dense.flat(i) = static_cast<float>(rng.Uniform(-1.0, 1.0));
      }
    }
    const tensor::Csr csr = tensor::Csr::FromDense(dense);
    const Tensor x = RandomTensor({s.k, s.f}, &rng);
    common::SetIsa(common::Isa::kScalar);
    common::SetNumThreads(1);
    const Tensor reference = tensor::SpMM(csr, x);
    for (int threads : kThreadCounts) {
      common::SetNumThreads(threads);
      for (common::Isa isa : AvailableIsas()) {
        common::SetIsa(isa);
        EXPECT_TRUE(BitsEqual(reference, tensor::SpMM(csr, x)))
            << common::IsaName(isa) << " threads=" << threads << " shape "
            << s.m << "x" << s.k << " f=" << s.f;
      }
    }
  }
}

TEST(SimdKernels, AdamKernelBitwiseParityAcrossIsas) {
  constexpr int64_t kLen = 1031;  // odd, so every vector width has a tail
  common::Rng rng(3000);
  std::vector<float> g(kLen), m0(kLen), v0(kLen), p0(kLen);
  for (int64_t i = 0; i < kLen; ++i) {
    g[i] = static_cast<float>(rng.Uniform(-1.0, 1.0));
    m0[i] = static_cast<float>(rng.Uniform(-0.1, 0.1));
    v0[i] = static_cast<float>(rng.Uniform(0.0, 0.1));
    p0[i] = static_cast<float>(rng.Uniform(-2.0, 2.0));
  }
  const float beta1 = 0.9f, beta2 = 0.999f;
  const float bias1 = 1.0f - beta1, bias2 = 1.0f - beta2;  // step 1
  for (const float* grad : {static_cast<const float*>(g.data()),
                            static_cast<const float*>(nullptr)}) {
    std::vector<float> mr = m0, vr = v0, pr = p0;
    tensor::kernels::ScalarAdamStep(grad, mr.data(), vr.data(), pr.data(), 0,
                                    kLen, beta1, beta2, bias1, bias2, 0.01f,
                                    1e-8f);
    for (common::Isa isa : AvailableIsas()) {
      const tensor::kernels::KernelTable& kt = tensor::kernels::TableFor(isa);
      std::vector<float> m = m0, v = v0, p = p0;
      kt.adam_step(grad, m.data(), v.data(), p.data(), 0, kLen, beta1, beta2,
                   bias1, bias2, 0.01f, 1e-8f);
      EXPECT_EQ(std::memcmp(m.data(), mr.data(), kLen * sizeof(float)), 0)
          << kt.name << (grad ? "" : " null-grad") << " m";
      EXPECT_EQ(std::memcmp(v.data(), vr.data(), kLen * sizeof(float)), 0)
          << kt.name << (grad ? "" : " null-grad") << " v";
      EXPECT_EQ(std::memcmp(p.data(), pr.data(), kLen * sizeof(float)), 0)
          << kt.name << (grad ? "" : " null-grad") << " p";
    }
  }
}

TEST(SimdKernels, AdamOptimizerBitwiseParityAcrossIsasAndThreadCounts) {
  DispatchGuard guard;
  common::Rng rng(4000);
  const Tensor w0 = RandomTensor({33, 17}, &rng);
  const Tensor a = RandomTensor({9, 33}, &rng);
  auto train_once = [&](common::Isa isa, int threads) {
    common::SetIsa(isa);
    common::SetNumThreads(threads);
    ag::Variable w = ag::Variable::Parameter(w0);
    nn::Adam optimizer({w}, 0.01f);
    for (int step = 0; step < 3; ++step) {
      ag::Variable loss =
          ag::SumAll(ag::MatMul(ag::Variable::Constant(a), w));
      w.node()->grad_initialized = false;  // zero-grad between steps
      loss.Backward();
      optimizer.Step();
    }
    return w.value();
  };
  const Tensor reference = train_once(common::Isa::kScalar, 1);
  for (int threads : kThreadCounts) {
    for (common::Isa isa : AvailableIsas()) {
      EXPECT_TRUE(BitsEqual(reference, train_once(isa, threads)))
          << common::IsaName(isa) << " threads=" << threads;
    }
  }
}

TEST(SimdKernels, QuantizedGemmBitwiseParityAcrossIsas) {
  DispatchGuard guard;
  const struct {
    int m, k, n;
  } kShapes[] = {{3, 9, 11},  {17, 31, 67},  {8, 64, 64},
                 // Row-tail vector strips that start after a 4-row tile's
                 // columns (j > 0), and k past one 32-float AVX2 quantize
                 // block plus a tail.
                 {5, 33, 17}, {9, 100, 90}, {4, 130, 130}};
  for (const auto& s : kShapes) {
    common::Rng rng(5000 + s.n);
    const Tensor a = RandomTensor({s.m, s.k}, &rng);
    const Tensor w = RandomTensor({s.k, s.n}, &rng);
    const tensor::QuantizedTensor qw = tensor::QuantizeInt8(w);
    common::SetIsa(common::Isa::kScalar);
    const Tensor reference = tensor::QuantizedMatMul(a, qw);
    for (common::Isa isa : AvailableIsas()) {
      common::SetIsa(isa);
      // Integer accumulation is exact, so the int8 path is bitwise
      // identical across ISAs by construction.
      EXPECT_TRUE(BitsEqual(reference, tensor::QuantizedMatMul(a, qw)))
          << common::IsaName(isa) << " shape " << s.m << "x" << s.k << "x"
          << s.n;
    }
  }
}

// The VNNI tier is the AVX-512 table with only the int8 GEMM swapped for
// the vpdpbusd kernel; the fp32 entries must be the *same function
// pointers* so the fp32 parity argument transfers verbatim. Checkable on
// any x86 build — constructing the table does not execute VNNI code.
TEST(SimdKernels, VnniTableSharesFp32KernelsWithAvx512) {
#if defined(__x86_64__) || defined(_M_X64)
  const tensor::kernels::KernelTable& vnni =
      tensor::kernels::Avx512VnniKernels();
  const tensor::kernels::KernelTable& avx512 =
      tensor::kernels::Avx512Kernels();
  EXPECT_EQ(vnni.matmul_small, avx512.matmul_small);
  EXPECT_EQ(vnni.matmul_kblock, avx512.matmul_kblock);
  EXPECT_EQ(vnni.matvec_rows, avx512.matvec_rows);
  EXPECT_EQ(vnni.spmm_rows, avx512.spmm_rows);
  EXPECT_EQ(vnni.adam_step, avx512.adam_step);
  EXPECT_EQ(vnni.quantize_act_rows, avx512.quantize_act_rows);
  EXPECT_EQ(vnni.mm_small_flops, avx512.mm_small_flops);
  EXPECT_EQ(vnni.mm_chunk_flops, avx512.mm_chunk_flops);
  EXPECT_EQ(vnni.row_grain_ops, avx512.row_grain_ops);
  // When the compiler could target VNNI the qgemm entry is the vpdpbusd
  // kernel and the table self-identifies; otherwise the whole table
  // degrades to an alias of the AVX-512 one. Both are legal builds.
  if (vnni.isa == common::Isa::kAvx512Vnni) {
    EXPECT_STREQ(vnni.name, "avx512vnni");
    EXPECT_NE(vnni.qgemm_rows, avx512.qgemm_rows);
  } else {
    EXPECT_EQ(&vnni, &avx512);
  }
  EXPECT_EQ(&tensor::kernels::TableFor(common::Isa::kAvx512Vnni), &vnni);
#else
  GTEST_SKIP() << "non-x86 build carries only the scalar table";
#endif
}

// STGNN_ISA-style clamping for the new tier, then — only on hosts that
// actually have VNNI — a bitwise parity pin of the vpdpbusd qgemm against
// the scalar exact-s32 reference. On non-VNNI hosts the parity half skips
// cleanly after verifying the clamp.
TEST(SimdKernels, VnniClampsAndMatchesScalarQgemmBitwise) {
  DispatchGuard guard;
  common::Isa parsed;
  ASSERT_TRUE(common::ParseIsa("avx512vnni", &parsed));
  EXPECT_EQ(parsed, common::Isa::kAvx512Vnni);
  EXPECT_STREQ(common::IsaName(common::Isa::kAvx512Vnni), "avx512vnni");
  const common::Isa installed = common::SetIsa(common::Isa::kAvx512Vnni);
  if (!common::IsaSupported(common::Isa::kAvx512Vnni)) {
    // Requests above the host's capability clamp to DetectBestIsa, exactly
    // like STGNN_ISA=avx512 on an AVX2-only box.
    EXPECT_EQ(installed, common::DetectBestIsa());
    EXPECT_NE(installed, common::Isa::kAvx512Vnni);
    GTEST_SKIP() << "host lacks AVX-512 VNNI; clamp verified, qgemm parity "
                    "pinned on VNNI hosts";
  }
  EXPECT_EQ(installed, common::Isa::kAvx512Vnni);
  // Shapes hit the 4-row/64-column register tile, the 16-wide strip tail,
  // and the scalar column tail.
  const struct {
    int m, k, n;
  } kShapes[] = {{3, 9, 11}, {17, 31, 67}, {8, 64, 64}, {5, 129, 130}};
  for (const auto& s : kShapes) {
    common::Rng rng(7000 + s.n);
    const Tensor a = RandomTensor({s.m, s.k}, &rng);
    const Tensor w = RandomTensor({s.k, s.n}, &rng);
    const tensor::QuantizedTensor qw = tensor::QuantizeInt8(w);
    common::SetIsa(common::Isa::kScalar);
    const Tensor reference = tensor::QuantizedMatMul(a, qw);
    common::SetIsa(common::Isa::kAvx512Vnni);
    EXPECT_TRUE(BitsEqual(reference, tensor::QuantizedMatMul(a, qw)))
        << "vnni shape " << s.m << "x" << s.k << "x" << s.n;
  }
}

// No dispatched kernel may drop tail rows or columns: sweep widths around
// every vector-width and tile boundary and check each output element
// against a double-precision reference. Inputs are strictly positive so a
// skipped element (stuck at 0 or NaN) cannot masquerade as correct.
TEST(SimdKernels, RowAndColumnCoverageAtAwkwardShapes) {
  constexpr int kPanel = tensor::kernels::kMmPanel;
  const int kWidths[] = {1, 2, 3, 7, 8, 9, 15, 16, 17, 31, 33,
                         kPanel - 1, kPanel, kPanel + 1, 2 * kPanel + 2};
  const int kRows[] = {1, 3, 4, 5, 9, 15, 16, 17};
  constexpr int kDepth = 17;
  common::Rng rng(6000);
  for (common::Isa isa : AvailableIsas()) {
    const tensor::kernels::KernelTable& kt = tensor::kernels::TableFor(isa);
    for (int m : kRows) {
      for (int n : kWidths) {
        const Tensor a = RandomTensor({m, kDepth}, &rng, 0.5f, 1.5f);
        const Tensor b = RandomTensor({kDepth, n}, &rng, 0.5f, 1.5f);
        std::vector<double> ref(static_cast<size_t>(m) * n, 0.0);
        for (int i = 0; i < m; ++i) {
          for (int p = 0; p < kDepth; ++p) {
            for (int j = 0; j < n; ++j) {
              ref[static_cast<size_t>(i) * n + j] +=
                  static_cast<double>(a.flat(i * kDepth + p)) *
                  b.flat(p * n + j);
            }
          }
        }
        auto expect_close = [&](const std::vector<float>& out,
                                const char* kernel) {
          for (size_t i = 0; i < ref.size(); ++i) {
            EXPECT_NEAR(out[i], ref[i], 1e-3 * std::fabs(ref[i]))
                << kt.name << " " << kernel << " m=" << m << " n=" << n
                << " element " << i;
          }
        };

        // matmul_small accumulates into a zeroed output.
        std::vector<float> small(static_cast<size_t>(m) * n, 0.0f);
        kt.matmul_small(a.data().data(), b.data().data(), small.data(), m,
                        kDepth, n);
        expect_close(small, "matmul_small");

        // matmul_kblock with accumulate=false overwrites every element
        // exactly once, so a NaN sentinel catches any row or column the
        // kernel never visited. B is packed into zero-padded panels.
        const int num_panels = (n + kPanel - 1) / kPanel;
        std::vector<float> packed(
            static_cast<size_t>(num_panels) * kDepth * kPanel, 0.0f);
        for (int q = 0; q < num_panels; ++q) {
          const int j0 = q * kPanel;
          const int w = std::min(kPanel, n - j0);
          for (int p = 0; p < kDepth; ++p) {
            for (int j = 0; j < w; ++j) {
              packed[(static_cast<size_t>(q) * kDepth + p) * kPanel + j] =
                  b.flat(p * n + j0 + j);
            }
          }
        }
        std::vector<float> kblock_out(
            static_cast<size_t>(m) * n,
            std::numeric_limits<float>::quiet_NaN());
        for (int q = 0; q < num_panels; ++q) {
          const int j0 = q * kPanel;
          kt.matmul_kblock(
              a.data().data(), kDepth,
              packed.data() + static_cast<size_t>(q) * kDepth * kPanel,
              kblock_out.data() + j0, m, kDepth, n, std::min(kPanel, n - j0),
              /*accumulate=*/false);
        }
        for (size_t i = 0; i < kblock_out.size(); ++i) {
          EXPECT_FALSE(std::isnan(kblock_out[i]))
              << kt.name << " matmul_kblock left element " << i
              << " unwritten at m=" << m << " n=" << n;
        }
        expect_close(kblock_out, "matmul_kblock");

        // The same product as two k-blocks, the second accumulating into
        // the first's stored partial sums, must reproduce the single-block
        // bits: a stored float continues the chain unchanged.
        constexpr int kSplit = 9;
        std::vector<float> split_out(
            static_cast<size_t>(m) * n,
            std::numeric_limits<float>::quiet_NaN());
        for (const auto [p0, kc] : {std::pair{0, kSplit},
                                    std::pair{kSplit, kDepth - kSplit}}) {
          for (int q = 0; q < num_panels; ++q) {
            const int j0 = q * kPanel;
            kt.matmul_kblock(
                a.data().data() + p0, kDepth,
                packed.data() +
                    (static_cast<size_t>(q) * kDepth + p0) * kPanel,
                split_out.data() + j0, m, kc, n, std::min(kPanel, n - j0),
                /*accumulate=*/p0 > 0);
          }
        }
        EXPECT_EQ(std::memcmp(split_out.data(), kblock_out.data(),
                              split_out.size() * sizeof(float)),
                  0)
            << kt.name << " two-block matmul_kblock m=" << m << " n=" << n;

        // matvec_rows against column 0 of the same reference product.
        std::vector<float> column(kDepth);
        for (int p = 0; p < kDepth; ++p) column[p] = b.flat(p * n);
        std::vector<float> matvec_out(
            static_cast<size_t>(m), std::numeric_limits<float>::quiet_NaN());
        kt.matvec_rows(a.data().data(), column.data(), matvec_out.data(), 0,
                       m, kDepth);
        for (int i = 0; i < m; ++i) {
          const double want = ref[static_cast<size_t>(i) * n];
          EXPECT_NEAR(matvec_out[i], want, 1e-3 * std::fabs(want))
              << kt.name << " matvec_rows m=" << m << " row " << i;
        }

        // spmm_rows over a fully-dense pattern must agree with the same
        // reference (every row of the pattern is non-empty by
        // construction, so zeros cannot hide a skipped row).
        const tensor::Csr csr = tensor::Csr::FromDense(a);
        ASSERT_EQ(csr.nnz(), a.size());
        std::vector<float> spmm_out(static_cast<size_t>(m) * n, 0.0f);
        kt.spmm_rows(csr.row_ptr().data(), csr.col_idx().data(),
                     csr.values().data(), b.data().data(), spmm_out.data(),
                     0, m, n);
        expect_close(spmm_out, "spmm_rows");
      }
    }
  }
}

float FromBits(uint32_t u) {
  float x;
  std::memcpy(&x, &u, sizeof(x));
  return x;
}

// Inputs around every branch of the exp algorithm: signed zeros,
// denormals, +-88 (where glibc leaves its fast path) and the over- and
// underflow limits with their float neighbours, the log(2^-149) rounding
// edge, +-inf and NaNs with payloads and either quiet bit. Plus the only
// two floats whose result changes when the reduction r = x N/ln2 - kd is
// not fused (glibc's non-FMA variant), found by exhaustive search.
std::vector<float> ExpSpecialInputs() {
  std::vector<float> out = {0x1.04845ep+5f, -0x1.f8cbb2p+5f};
  auto with_neighbours = [&out](float x) {
    out.push_back(std::nextafter(x, -INFINITY));
    out.push_back(x);
    out.push_back(std::nextafter(x, INFINITY));
  };
  for (float x : {0.0f, 88.0f, -88.0f, tensor::kernels::kExpOverflow,
                  tensor::kernels::kExpUnderflow, -0x1.9d1d9ep6f, 1.0f,
                  -1.0f, std::numeric_limits<float>::min(),
                  -std::numeric_limits<float>::min()}) {
    with_neighbours(x);
  }
  for (uint32_t u : {0x80000000u, 0x00000001u, 0x80000001u, 0x00012345u,
                     0x807fffffu, 0x7f7fffffu, 0xff7fffffu, 0x7f800000u,
                     0xff800000u, 0x7fc00000u, 0xffc00000u, 0x7f800001u,
                     0xff812345u, 0x7fc12345u}) {
    out.push_back(FromBits(u));
  }
  return out;
}

// The exp entry of every tier against the scalar reference on a strided
// sample of all 2^32 bit patterns plus the special inputs, and through
// tensor::Exp at 1, 2 and 7 threads. exp_exhaustive_test covers every
// input (label "exhaustive"). On glibc hosts with FMA, where expf runs
// __expf_fma, the reference must also reproduce the host expf.
TEST(SimdKernels, ExpMatchesScalarReferenceOnSampleAndSpecials) {
  DispatchGuard guard;
  std::vector<float> inputs = ExpSpecialInputs();
  for (uint64_t u = 0; u < (uint64_t{1} << 32); u += 65521) {
    inputs.push_back(FromBits(static_cast<uint32_t>(u)));
  }
  // An odd count leaves a scalar tail on every tier.
  if (inputs.size() % 2 == 0) inputs.push_back(0.5f);
  const int64_t n = static_cast<int64_t>(inputs.size());
  Tensor ref({static_cast<int>(n)});
  for (int64_t i = 0; i < n; ++i) {
    ref.flat(i) = tensor::kernels::ScalarExpf(inputs[i]);
  }
#if defined(__GLIBC__) && (__GLIBC__ > 2 || __GLIBC_MINOR__ >= 27)
  if (common::IsaSupported(common::Isa::kAvx2)) {
    for (int64_t i = 0; i < n; ++i) {
      const float host = std::exp(inputs[i]);
      EXPECT_EQ(std::memcmp(&host, &ref.flat(i), sizeof(float)), 0)
          << "host expf vs reference at " << std::hexfloat << inputs[i];
    }
  }
#endif
  const Tensor x({static_cast<int>(n)}, inputs);
  for (common::Isa isa : AvailableIsas()) {
    std::vector<float> out(inputs.size());
    tensor::kernels::TableFor(isa).exp(inputs.data(), out.data(), n);
    EXPECT_TRUE(BitsEqual(ref, Tensor({static_cast<int>(n)}, out)))
        << common::IsaName(isa) << " exp entry";
    common::SetIsa(isa);
    for (int threads : kThreadCounts) {
      common::SetNumThreads(threads);
      EXPECT_TRUE(BitsEqual(ref, tensor::Exp(x)))
          << common::IsaName(isa) << " threads=" << threads << " Exp";
    }
  }
}

// RowSoftmax, ELU (fresh and in place) and Sigmoid through every tier at
// 1, 2 and 7 threads against the scalar tier at 1 thread. Column counts
// straddle the 8- and 16-lane widths, row counts include fewer rows than
// lanes, and the inputs mix a wide range (softmax arguments far below -88)
// with zeros of both signs, infinities and NaN.
TEST(SimdKernels, ExpOpsBitwiseParityAcrossIsasAndThreadCounts) {
  DispatchGuard guard;
  const struct {
    int rows, cols;
  } kShapes[] = {{1, 1}, {3, 7}, {15, 17}, {16, 16}, {17, 33},
                 {33, 100}, {70, 515}};
  const float kSpecials[] = {0.0f, -0.0f, INFINITY, -INFINITY, NAN,
                             -200.0f, 1e-40f, -1e-40f, 90.0f};
  for (const auto& s : kShapes) {
    common::Rng rng(9000 + s.rows * 1000 + s.cols);
    Tensor x = RandomTensor({s.rows, s.cols}, &rng, -120.0f, 40.0f);
    for (int64_t i = 0; i < x.size(); i += 13) {
      x.flat(i) = kSpecials[(i / 13) % std::size(kSpecials)];
    }
    auto run_all = [&x] {
      Tensor in_place = x;
      tensor::EluInPlace(&in_place, 0.5f);
      return std::vector<Tensor>{tensor::RowSoftmax(x), tensor::Elu(x),
                                 in_place, tensor::Sigmoid(x)};
    };
    const char* kOps[] = {"RowSoftmax", "Elu", "EluInPlace", "Sigmoid"};
    common::SetIsa(common::Isa::kScalar);
    common::SetNumThreads(1);
    const std::vector<Tensor> reference = run_all();
    for (int threads : kThreadCounts) {
      common::SetNumThreads(threads);
      for (common::Isa isa : AvailableIsas()) {
        common::SetIsa(isa);
        const std::vector<Tensor> got = run_all();
        for (size_t op = 0; op < got.size(); ++op) {
          EXPECT_TRUE(BitsEqual(reference[op], got[op]))
              << kOps[op] << " " << common::IsaName(isa)
              << " threads=" << threads << " shape " << s.rows << "x"
              << s.cols;
        }
      }
    }
  }
}

// The VNNI table inherits the AVX-512 exp entries (see
// VnniTableSharesFp32KernelsWithAvx512 for the older fp32 entries).
TEST(SimdKernels, VnniTableSharesExpEntriesWithAvx512) {
#if defined(__x86_64__) || defined(_M_X64)
  const tensor::kernels::KernelTable& vnni =
      tensor::kernels::Avx512VnniKernels();
  const tensor::kernels::KernelTable& avx512 =
      tensor::kernels::Avx512Kernels();
  EXPECT_EQ(vnni.exp, avx512.exp);
  EXPECT_EQ(vnni.elu, avx512.elu);
  EXPECT_EQ(vnni.sigmoid, avx512.sigmoid);
  EXPECT_EQ(vnni.row_softmax_rows, avx512.row_softmax_rows);
#else
  GTEST_SKIP() << "non-x86 build carries only the scalar table";
#endif
}

TEST(SimdKernels, GradientBitwiseParityAcrossIsas) {
  DispatchGuard guard;
  common::Rng rng(7000);
  // Big enough to take the blocked path on every ISA's threshold.
  const Tensor av = RandomTensor({66, 62}, &rng);
  const Tensor bv = RandomTensor({62, 66}, &rng);
  auto grads_at = [&](common::Isa isa) {
    common::SetIsa(isa);
    ag::Variable a = ag::Variable::Parameter(av);
    ag::Variable b = ag::Variable::Parameter(bv);
    ag::SumAll(ag::MatMul(a, b)).Backward();
    return std::make_pair(a.grad(), b.grad());
  };
  common::SetNumThreads(1);
  const auto reference = grads_at(common::Isa::kScalar);
  for (int threads : kThreadCounts) {
    common::SetNumThreads(threads);
    for (common::Isa isa : AvailableIsas()) {
      const auto got = grads_at(isa);
      EXPECT_TRUE(BitsEqual(reference.first, got.first))
          << common::IsaName(isa) << " threads=" << threads << " grad a";
      EXPECT_TRUE(BitsEqual(reference.second, got.second))
          << common::IsaName(isa) << " threads=" << threads << " grad b";
    }
  }
}

// MatMul backward forms a vector operand's gradients without Transpose:
// dA = MatVec(B, g) for a row-vector product, dA = g·b as [1, k] for a
// column-vector b, dB = (gᵀ·A)ᵀ for a column-vector product and dB = aᵀ·g
// for a row-vector a. Each must equal the explicit-transpose formula
// dA = g·Bᵀ, dB = Aᵀ·g bit for bit, on every ISA and thread count.
TEST(SimdKernels, VectorOperandMatMulGradsMatchTransposeFormulas) {
  DispatchGuard guard;
  const struct {
    int m, k, n;
  } kShapes[] = {{1, 5, 37},  {1, 300, 129}, {1, 2051, 8}, {37, 5, 1},
                 {129, 300, 1}, {8, 2051, 1}, {1, 17, 1},  {1, 1, 33}};
  for (const auto& s : kShapes) {
    common::Rng rng(15000 + s.m + s.k + s.n);
    Tensor av = RandomTensor({s.m, s.k}, &rng);
    const Tensor bv = RandomTensor({s.k, s.n}, &rng);
    Tensor gv = RandomTensor({s.m, s.n}, &rng);
    // Signed zeros and a denormal on the chains' way.
    av.flat(0) = -0.0f;
    gv.flat(0) = -0.0f;
    gv.flat(gv.size() - 1) = std::numeric_limits<float>::denorm_min();
    for (int threads : kThreadCounts) {
      common::SetNumThreads(threads);
      for (common::Isa isa : AvailableIsas()) {
        common::SetIsa(isa);
        ag::Variable a = ag::Variable::Parameter(av);
        ag::Variable b = ag::Variable::Parameter(bv);
        // d(sum(g ⊙ AB))/d(AB) = g exactly (1 * g).
        ag::SumAll(ag::Mul(ag::MatMul(a, b), ag::Variable::Constant(gv)))
            .Backward();
        EXPECT_TRUE(BitsEqual(tensor::MatMul(gv, bv.Transpose()), a.grad()))
            << common::IsaName(isa) << " threads=" << threads << " dA "
            << s.m << "x" << s.k << "x" << s.n;
        EXPECT_TRUE(BitsEqual(tensor::MatMul(av.Transpose(), gv), b.grad()))
            << common::IsaName(isa) << " threads=" << threads << " dB "
            << s.m << "x" << s.k << "x" << s.n;
      }
    }
  }
}

TEST(SimdKernels, GradcheckThroughDispatchedKernels) {
  DispatchGuard guard;
  common::Rng rng(8000);
  const Tensor a = RandomTensor({7, 9}, &rng);
  const Tensor b = RandomTensor({9, 11}, &rng);
  for (common::Isa isa : AvailableIsas()) {
    common::SetIsa(isa);
    SCOPED_TRACE(common::IsaName(isa));
    stgnn::testing::ExpectGradientsClose(
        [](const std::vector<ag::Variable>& inputs) {
          return ag::SumAll(ag::MatMul(inputs[0], inputs[1]));
        },
        {a, b});
  }
}

}  // namespace
}  // namespace stgnn
