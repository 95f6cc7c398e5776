#ifndef STGNN_TENSOR_PRECISION_H_
#define STGNN_TENSOR_PRECISION_H_

#include <cstring>

namespace stgnn::tensor {

// Inference weight precision tier. kFp32 is the default and the only tier
// training ever sees; kInt8 applies to inference-only weight snapshots (see
// tensor/quantized.h) and is gated by an RMSE-delta regression, not bitwise
// parity.
enum class Precision {
  kFp32,
  kInt8,
};

inline const char* PrecisionName(Precision p) {
  switch (p) {
    case Precision::kFp32:
      return "fp32";
    case Precision::kInt8:
      return "int8";
  }
  return "fp32";
}

// Parses "fp32"/"int8". Returns false on unknown input and leaves
// *out untouched.
inline bool ParsePrecision(const char* text, Precision* out) {
  if (text == nullptr) return false;
  if (std::strcmp(text, "fp32") == 0) {
    *out = Precision::kFp32;
    return true;
  }
  if (std::strcmp(text, "int8") == 0) {
    *out = Precision::kInt8;
    return true;
  }
  return false;
}

}  // namespace stgnn::tensor

#endif  // STGNN_TENSOR_PRECISION_H_
