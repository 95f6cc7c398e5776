#ifndef STGNN_TENSOR_QUANTIZED_H_
#define STGNN_TENSOR_QUANTIZED_H_

#include <cstdint>
#include <vector>

#include "tensor/tensor.h"

// int8 weight storage for the inference-only quantized path: per-tensor
// symmetric quantisation (scale = absmax / 127) of a [k, n] weight used as
// a MatMul right-hand side, stored in the K/4-interleaved layout the
// dispatched qgemm kernels consume:
//   packed[(p4 * n + j) * 4 + q] = q8(4*p4 + q, j)   (k zero-padded to 4)
// Activations are quantised per row on the fly (scale = rowmax / 63,
// zero-point +64 so the u8*s8 pair sums stay below the s16 saturation
// point); the integer accumulation is exact, so the quantized product is
// bitwise identical across ISAs — its *accuracy* vs fp32 is what the
// RMSE-delta regression in tests/quantize_test.cc gates.

namespace stgnn::tensor {

struct QuantizedTensor {
  int rows = 0;  // k
  int cols = 0;  // n
  float scale = 1.0f;  // dequantised weight ~= q8 * scale
  std::vector<int8_t> packed;     // [(k+3)/4 * n * 4]
  std::vector<int32_t> col_sums;  // [n], sum_p q8(p, j) for the zero-point
};

// Per-tensor symmetric int8 quantisation of a 2-D weight.
QuantizedTensor QuantizeInt8(const Tensor& w);
// Dense fp32 reconstruction (tests and round-trip bounds).
Tensor DequantizeInt8(const QuantizedTensor& q);

// out = a (fp32 [m, k]) x b (int8 [k, n]) with on-the-fly per-row
// activation quantisation, through the dispatched qgemm kernel.
Tensor QuantizedMatMul(const Tensor& a, const QuantizedTensor& b);

}  // namespace stgnn::tensor

#endif  // STGNN_TENSOR_QUANTIZED_H_
