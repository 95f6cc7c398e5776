#include "autograd/inference_precision.h"

#include <unordered_set>

#include "common/counters.h"

namespace stgnn::autograd {
namespace {

thread_local const QuantizedWeightSet* t_active_quantized = nullptr;

}  // namespace

std::shared_ptr<const QuantizedWeightSet> BuildQuantizedWeightSet(
    tensor::Precision precision, const std::vector<Variable>& params,
    const std::vector<const Node*>& exclude) {
  if (precision == tensor::Precision::kFp32) return nullptr;
  const std::unordered_set<const Node*> excluded(exclude.begin(),
                                                 exclude.end());
  auto set = std::make_shared<QuantizedWeightSet>();
  set->precision_ = precision;
  for (const Variable& p : params) {
    if (!p.defined()) continue;
    const Node* node = p.node().get();
    const tensor::Tensor& w = node->value;
    if (w.ndim() != 2 || w.dim(0) < 8 || w.dim(1) < 8) continue;
    if (excluded.count(node) != 0) continue;
    tensor::QuantizedTensor q = tensor::QuantizeInt8(w);
    const int64_t stored_bytes = static_cast<int64_t>(q.packed.size()) +
                                 static_cast<int64_t>(q.col_sums.size()) * 4;
    set->bytes_saved_ += w.size() * 4 - stored_bytes;
    set->entries_.emplace(node, std::move(q));
  }
  STGNN_COUNTER_ADD("quant.tensors", set->tensors());
  STGNN_COUNTER_ADD("quant.bytes_saved", set->bytes_saved());
  return set;
}

const QuantizedWeightSet* ActiveQuantizedWeights() {
  return t_active_quantized;
}

QuantizedInferenceScope::QuantizedInferenceScope(
    const QuantizedWeightSet* set)
    : prev_(t_active_quantized) {
  if (set != nullptr) t_active_quantized = set;
}

QuantizedInferenceScope::~QuantizedInferenceScope() {
  t_active_quantized = prev_;
}

}  // namespace stgnn::autograd
