#include "serve/model_registry.h"

#include "common/counters.h"
#include "nn/serialize.h"

namespace stgnn::serve {

uint64_t ModelRegistry::Publish(ModelSnapshot snapshot) {
  STGNN_CHECK(snapshot.model != nullptr) << "Publish of a null model";
  std::shared_ptr<const ModelSnapshot> fresh;
  uint64_t version;
  {
    std::lock_guard<std::mutex> lock(mu_);
    version = next_version_++;
    snapshot.version = version;
    fresh = std::make_shared<const ModelSnapshot>(std::move(snapshot));
    current_ = std::move(fresh);
  }
  STGNN_COUNTER_INC("serve.swap");
  return version;
}

std::shared_ptr<const ModelSnapshot> ModelRegistry::Current() const {
  std::lock_guard<std::mutex> lock(mu_);
  return current_;
}

uint64_t ModelRegistry::current_version() const {
  std::lock_guard<std::mutex> lock(mu_);
  return current_ ? current_->version : 0;
}

void QuantizeSnapshot(ModelSnapshot* snapshot,
                      tensor::Precision precision) {
  STGNN_CHECK(snapshot != nullptr && snapshot->model != nullptr);
  snapshot->config.infer_precision = precision;
  snapshot->quantized = snapshot->model->QuantizeWeights(precision);
}

Result<ModelSnapshot> SnapshotFromCheckpoint(
    const core::StgnnConfig& config, int num_stations,
    const std::string& checkpoint_path, data::MinMaxNormalizer normalizer,
    float input_scale) {
  // Shapes only: every parameter is overwritten by the checkpoint.
  auto model = std::make_shared<core::StgnnDjdModel>(num_stations, config,
                                                     /*rng=*/nullptr);
  STGNN_RETURN_NOT_OK(nn::LoadParameters(checkpoint_path, model.get()));
  return ModelSnapshot(std::move(model), std::move(normalizer), input_scale,
                       config);
}

}  // namespace stgnn::serve
