#include "core/config.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/buffer_pool.h"

namespace stgnn::core {

float DefaultSparseDensityThreshold() {
  if (const char* env = std::getenv("STGNN_SPARSE_DENSITY")) {
    char* end = nullptr;
    const float parsed = std::strtof(env, &end);
    if (end != env) return parsed;
  }
  return 0.25f;
}

bool DefaultBufferPoolEnabled() { return common::BufferPoolEnabledFromEnv(); }

bool DefaultServeCacheEnabled() {
  const char* env = std::getenv("STGNN_SERVE_CACHE");
  if (env == nullptr) return true;
  return !(std::strcmp(env, "0") == 0 || std::strcmp(env, "false") == 0 ||
           std::strcmp(env, "off") == 0);
}

tensor::Precision DefaultInferPrecision() {
  const char* env = std::getenv("STGNN_INFER_PRECISION");
  if (env == nullptr || env[0] == '\0') return tensor::Precision::kFp32;
  tensor::Precision parsed;
  if (!tensor::ParsePrecision(env, &parsed)) {
    std::fprintf(stderr,
                 "stgnn: STGNN_INFER_PRECISION=%s not recognised "
                 "(want fp32|int8); using fp32\n",
                 env);
    return tensor::Precision::kFp32;
  }
  return parsed;
}

const char* AggregatorToString(Aggregator aggregator) {
  switch (aggregator) {
    case Aggregator::kFlow:
      return "flow";
    case Aggregator::kAttention:
      return "attention";
    case Aggregator::kMean:
      return "mean";
    case Aggregator::kMax:
      return "max";
  }
  return "unknown";
}

std::string StgnnConfig::DescribeVariant() const {
  std::string tag = "STGNN-DJD";
  if (!ablation.use_flow_convolution) tag += "/no-fc";
  if (!ablation.use_fcg) tag += "/no-fcg";
  if (!ablation.use_pcg) tag += "/no-pcg";
  if (fcg_aggregator != Aggregator::kFlow) {
    tag += std::string("/fcg-") + AggregatorToString(fcg_aggregator);
  }
  if (pcg_aggregator != Aggregator::kAttention) {
    tag += std::string("/pcg-") + AggregatorToString(pcg_aggregator);
  }
  return tag;
}

}  // namespace stgnn::core
