// AVX-512 VNNI kernel tier. The only difference from the plain AVX-512
// table is the int8 GEMM: vpdpbusd fuses the u8*s8 multiply, the 4-way
// adjacent add, and the int32 accumulate into one instruction, replacing
// the 3-instruction maddubs/madd/add sequence — one instruction per 64
// MACs. Both forms accumulate in exact int32 (activations are clamped to
// +-63 around the +64 zero point, so even the maddubs s16 pairs cannot
// saturate), so every output bit is identical across the two tiers; the
// parity pin in tests/simd_kernels_test.cc holds by construction.
//
// The fp32 kernels are shared with the AVX-512 table verbatim — same
// function pointers, so parity there is trivial.
//
// Guarded on __AVX512VNNI__: if the compiler cannot target VNNI this file
// degrades to a pure alias of Avx512Kernels(). The runtime dispatcher only
// routes to this table when CPUID reports the feature.

#if defined(__x86_64__) || defined(_M_X64)

#include "tensor/kernels/kernels.h"

#if defined(__AVX512VNNI__)

#include "tensor/kernels/avx512_trait.h"
#include "tensor/kernels/vector_kernels.h"

namespace stgnn::tensor::kernels {
namespace {

// With the MAC sequence down to one port-5 instruction, the shared 4-row
// register tile is what keeps B traffic (not the multiply) off the
// critical path.
struct Avx512Vnni : Avx512 {
  static I DotU8S8(I acc, I a, I b) { return _mm512_dpbusd_epi32(acc, a, b); }
};

}  // namespace

const KernelTable& Avx512VnniKernels() {
  static const KernelTable table = [] {
    // Same fp32 kernels and tuning as the AVX-512 tier; only the int8 GEMM
    // entry changes.
    KernelTable t = Avx512Kernels();
    t.isa = common::Isa::kAvx512Vnni;
    t.name = "avx512vnni";
    t.qgemm_rows = &VecQgemmRows<Avx512Vnni>;
    return t;
  }();
  return table;
}

}  // namespace stgnn::tensor::kernels

#else  // !__AVX512VNNI__

namespace stgnn::tensor::kernels {

// Compiler cannot target VNNI: alias the plain AVX-512 table so the build
// stays complete. DetectBestIsa never reports kAvx512Vnni on such builds'
// typical hosts, and even when it does the aliased table is still correct.
const KernelTable& Avx512VnniKernels() { return Avx512Kernels(); }

}  // namespace stgnn::tensor::kernels

#endif  // __AVX512VNNI__

#endif  // x86_64
