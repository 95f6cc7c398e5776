// AVX-512 kernel tier (F/BW/DQ/VL + FMA): the vector_kernels.h bodies over
// the Avx512 trait. Compiled with the matching -mavx512* flags and
// -ffp-contract=off; only ever *called* when common::ActiveIsa() ==
// kAvx512, so no runtime trap on narrower hosts.

#if defined(__x86_64__) || defined(_M_X64)

#include "tensor/kernels/avx512_trait.h"
#include "tensor/kernels/vector_kernels.h"

namespace stgnn::tensor::kernels {

const KernelTable& Avx512Kernels() {
  static const KernelTable table = {
      common::Isa::kAvx512,
      "avx512",
      &VecMatMulSmall<Avx512>,
      &VecMatMulKBlock<Avx512>,
      &VecMatVecRows<Avx512>,
      &VecSpmmRows<Avx512>,
      &VecAdamStep<Avx512>,
      &VecQgemmRows<Avx512>,
      &VecQuantizeActRows<Avx512>,
      &VecExpRange<Avx512>,
      &VecElu<Avx512>,
      &VecSigmoid<Avx512>,
      &VecRowSoftmaxRows<Avx512>,
      /*mm_small_flops=*/int64_t{64} * 64 * 64,
      /*mm_chunk_flops=*/int64_t{1} << 21,
      /*row_grain_ops=*/16384,
  };
  return table;
}

}  // namespace stgnn::tensor::kernels

#endif  // x86_64
