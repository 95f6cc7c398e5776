#ifndef STGNN_AUTOGRAD_INFERENCE_PRECISION_H_
#define STGNN_AUTOGRAD_INFERENCE_PRECISION_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "autograd/variable.h"
#include "tensor/precision.h"
#include "tensor/quantized.h"

// Inference-only quantized weight path. A QuantizedWeightSet maps parameter
// nodes (by Node pointer identity) to their reduced-precision snapshots; an
// active QuantizedInferenceScope makes ag::MatMul consult the set and route
// products whose right-hand side is a registered weight through the
// quantized kernels, returning a Constant (no autograd graph).
//
// Training never sees any of this: the scope is thread-local, entered only
// around serving/prediction forwards, and Backward is never called on a
// scoped forward. The fp32 parameters themselves are never modified, so
// dropping the set (or the scope) restores exact fp32 behaviour.

namespace stgnn::autograd {

class QuantizedWeightSet {
 public:
  tensor::Precision precision() const { return precision_; }
  // Number of parameters captured at reduced precision.
  int64_t tensors() const { return static_cast<int64_t>(entries_.size()); }
  // fp32 bytes minus reduced-precision bytes across all entries.
  int64_t bytes_saved() const { return bytes_saved_; }

  const tensor::QuantizedTensor* Find(const Node* node) const {
    auto it = entries_.find(node);
    return it == entries_.end() ? nullptr : &it->second;
  }

 private:
  friend std::shared_ptr<const QuantizedWeightSet> BuildQuantizedWeightSet(
      tensor::Precision precision, const std::vector<Variable>& params,
      const std::vector<const Node*>& exclude);

  tensor::Precision precision_ = tensor::Precision::kFp32;
  int64_t bytes_saved_ = 0;
  std::unordered_map<const Node*, tensor::QuantizedTensor> entries_;
};

// Quantizes every eligible parameter to `precision`. Eligible: 2-D, both
// dims >= 8 (vectors, per-head projection columns, and the tiny output
// head stay fp32 — they are cheap and precision-critical), and not listed
// in `exclude`. Callers must exclude parameters that are ever consumed as
// anything other than a MatMul right-hand side (e.g. the No-FC
// learned_features, which flows through the graph as node *features*), or
// the hook would quantize one consumer and not another.
//
// Bumps the quant.tensors / quant.bytes_saved counters. Returns null for
// kFp32.
std::shared_ptr<const QuantizedWeightSet> BuildQuantizedWeightSet(
    tensor::Precision precision, const std::vector<Variable>& params,
    const std::vector<const Node*>& exclude = {});

// The set the current thread's ag::MatMul consults; null outside any scope.
const QuantizedWeightSet* ActiveQuantizedWeights();

// RAII activation of a weight set on this thread. Nesting restores the
// previous set on exit; a null set is a no-op (plain fp32 forward).
class QuantizedInferenceScope {
 public:
  explicit QuantizedInferenceScope(const QuantizedWeightSet* set);
  ~QuantizedInferenceScope();

  QuantizedInferenceScope(const QuantizedInferenceScope&) = delete;
  QuantizedInferenceScope& operator=(const QuantizedInferenceScope&) = delete;

 private:
  const QuantizedWeightSet* prev_;
};

}  // namespace stgnn::autograd

#endif  // STGNN_AUTOGRAD_INFERENCE_PRECISION_H_
