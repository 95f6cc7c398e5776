#include "online/online_trainer.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <string>
#include <utility>

#include "autograd/ops.h"
#include "common/buffer_pool.h"
#include "common/counters.h"
#include "common/trace.h"
#include "nn/loss.h"

namespace stgnn::online {

using autograd::Variable;
using tensor::Tensor;
namespace ag = stgnn::autograd;

namespace {

// SplitMix-style mix so consecutive step indices seed well-separated
// dropout streams.
uint64_t MixSeed(uint64_t seed, int64_t step) {
  return seed ^ (0x9e3779b97f4a7c15ULL * static_cast<uint64_t>(step + 1));
}

// Row i's stored entries summed in column order, from +0.0. The entries a
// cell does not store are +0.0, and x + 0.0f == x for every x this sum can
// reach (starting from +0.0 it is never -0.0), so this is bitwise the dense
// row's sum.
float RowSum(const tensor::Csr& flows, int i) {
  float sum = 0.0f;
  for (int e = flows.row_ptr()[i]; e < flows.row_ptr()[i + 1]; ++e) {
    sum += flows.values()[e];
  }
  return sum;
}

}  // namespace

SnapshotChannel SnapshotChannel::ForRegistry(serve::ModelRegistry* registry) {
  STGNN_CHECK(registry != nullptr);
  SnapshotChannel channel;
  channel.live = [registry] { return registry->Current(); };
  channel.publish = [registry](serve::ModelSnapshot snapshot) {
    return registry->Publish(std::move(snapshot));
  };
  return channel;
}

SnapshotChannel SnapshotChannel::ForFleet(serve::ShardFleet* fleet) {
  STGNN_CHECK(fleet != nullptr);
  SnapshotChannel channel;
  channel.live = [fleet] { return fleet->Current(); };
  channel.publish = [fleet](serve::ModelSnapshot snapshot) {
    return fleet->Publish(snapshot);
  };
  return channel;
}

OnlineTrainer::OnlineTrainer(serve::FeatureRing* ring, SnapshotChannel channel,
                             OnlineTrainerOptions options)
    : ring_(ring),
      channel_(std::move(channel)),
      options_(options),
      num_stations_(ring->num_stations()),
      window_(ring->first_predictable_slot()),
      rolling_(options.rolling_window) {
  STGNN_CHECK(ring_->owned_rows().empty())
      << "OnlineTrainer needs a full (unsharded) ring; attach it to the "
         "coordinator's ingest ring";
  STGNN_CHECK(channel_.live && channel_.publish);
  STGNN_CHECK_GE(options_.steps_per_round, 1);
  STGNN_CHECK_GE(options_.train_window, 1);
  STGNN_CHECK_GE(options_.holdout_slots, 1);
  STGNN_CHECK_GE(options_.patience, 1);
  STGNN_CHECK_GT(options_.learning_rate, 0.0f);
}

OnlineTrainer::~OnlineTrainer() { Stop(); }

Status OnlineTrainer::WarmStart() {
  std::lock_guard<std::mutex> lock(mu_);
  auto live = channel_.live();
  if (live == nullptr) {
    return Status::FailedPrecondition(
        "no live snapshot to warm-start from (publish a model first)");
  }
  if (live->config.short_term_slots != ring_->short_term_slots() ||
      live->config.long_term_days != ring_->long_term_days()) {
    return Status::InvalidArgument(
        "snapshot window config (k=" +
        std::to_string(live->config.short_term_slots) +
        ", d=" + std::to_string(live->config.long_term_days) +
        ") disagrees with the ring (k=" +
        std::to_string(ring_->short_term_slots()) +
        ", d=" + std::to_string(ring_->long_term_days()) +
        "); trainer histories would not match serving's");
  }
  if (live->model == nullptr ||
      live->model->num_stations() != num_stations_) {
    return Status::InvalidArgument("snapshot model does not match the ring");
  }
  config_ = live->config;
  // The shadow starts at a trained optimum; it only tracks drift.
  config_.learning_rate = options_.learning_rate;
  horizon_ = std::max(1, config_.horizon);
  normalizer_ = std::make_unique<data::MinMaxNormalizer>(live->normalizer);
  input_scale_ = live->input_scale;
  store_capacity_ = window_ + options_.train_window + options_.holdout_slots +
                    horizon_ + options_.replay_slack;
  common::BufferPool::Global()->SetEnabled(config_.buffer_pool);
  shadow_ = live->model->Clone();
  baseline_ = live->model;
  baseline_version_ = live->version;
  baseline_holdout_.clear();
  adam_ = std::make_unique<nn::Adam>(shadow_->parameters(),
                                     config_.learning_rate);
  total_steps_ = 0;
  win_streak_ = 0;
  last_swap_slot_ = -1;
  last_round_frontier_ = -1;
  store_.clear();
  store_first_ = 0;
  fetched_through_ = 0;
  warm_started_ = true;
  return Status::OK();
}

const serve::SlotFlows& OnlineTrainer::StoreAt(int slot) const {
  const int index = slot - store_first_;
  STGNN_CHECK(index >= 0 && index < static_cast<int>(store_.size()))
      << "slot " << slot << " not in trainer store [" << store_first_ << ", "
      << fetched_through_ << ")";
  return store_[index];
}

int OnlineTrainer::FetchNewSlots() {
  int total = 0;
  // A SnapshotWindow can fail transiently (an in-flight ingest is rewriting
  // a requested cell) or permanently (the trainer fell behind the ring's
  // retention). Retry a bounded number of times, re-resolving the valid
  // range each attempt; on a retention gap, restart the store from the
  // oldest retained slot.
  for (int attempt = 0; attempt < 64; ++attempt) {
    const int frontier = ring_->next_slot();
    if (frontier <= fetched_through_ && !store_.empty()) return total;
    const int oldest_retained = ring_->min_servable_slot() - window_;
    int first = store_.empty() ? std::max(fetched_through_, oldest_retained)
                               : fetched_through_;
    if (first < oldest_retained) first = oldest_retained;
    if (first >= frontier) return total;
    auto window = ring_->SnapshotWindow(first, frontier - 1);
    if (!window.ok()) {
      std::this_thread::yield();
      continue;
    }
    if (first != fetched_through_ || store_.empty()) {
      // Retention gap (or first fetch): the stored prefix is no longer
      // contiguous with what the ring still holds.
      store_.clear();
      store_first_ = first;
    }
    serve::SlotWindow& slots = *window;
    for (int i = 0; i < slots.count(); ++i) {
      store_.push_back(serve::SlotFlows{std::move(slots.inflow[i]),
                                        std::move(slots.outflow[i])});
    }
    total += slots.count();
    fetched_through_ = slots.last() + 1;
    while (static_cast<int>(store_.size()) > store_capacity_) {
      store_.pop_front();
      ++store_first_;
    }
    return total;
  }
  return total;
}

data::StHistory OnlineTrainer::AssembleHistory(int t) const {
  data::StHistory history = serve::ZeroHistory(
      ring_->short_term_slots(), ring_->long_term_days(),
      static_cast<int64_t>(num_stations_) * num_stations_);
  serve::ScatterHistory(
      t, ring_->slots_per_day(),
      [this](int slot) -> const serve::SlotFlows& { return StoreAt(slot); },
      &history);
  return history;
}

tensor::Tensor OnlineTrainer::NormalizedTarget(int t) const {
  const int n = num_stations_;
  const int h = horizon_;
  Tensor target = Tensor::Uninitialized({n, 2 * h});
  float* td = target.mutable_data().data();
  for (int s = 0; s < h; ++s) {
    const serve::SlotFlows& slot = StoreAt(t + s);
    for (int i = 0; i < n; ++i) {
      // Rows are stored pre-scaled; undo the input scale to recover the
      // raw counts the normaliser was fitted on. Demand is the outflow row
      // sum, supply the inflow row sum (paper conventions).
      const float demand = RowSum(slot.outflow, i) / input_scale_;
      const float supply = RowSum(slot.inflow, i) / input_scale_;
      td[static_cast<size_t>(i) * 2 * h + s] = normalizer_->Normalize(demand);
      td[static_cast<size_t>(i) * 2 * h + h + s] =
          normalizer_->Normalize(supply);
    }
  }
  return target;
}

void OnlineTrainer::TrainStep(int first, int last) {
  STGNN_TRACE_SCOPE("Online.Step");
  // Dropout noise is a pure function of the global step index, so a trainer
  // restored from TrainerState replays the identical stream.
  common::Rng step_rng(MixSeed(options_.seed, total_steps_));
  Variable batch_loss;
  for (int t = first; t <= last; ++t) {
    const data::StHistory history = AssembleHistory(t);
    Variable prediction =
        shadow_->Forward(history, /*training=*/true, &step_rng);
    Variable target = Variable::Constant(NormalizedTarget(t));
    Variable loss = nn::MultiStepJointLoss(prediction, target);
    batch_loss = batch_loss.defined() ? ag::Add(batch_loss, loss) : loss;
  }
  batch_loss = ag::MulScalar(batch_loss, 1.0f / (last - first + 1));
  shadow_->ZeroGrad();
  // The zero-alloc pooled train step: interior graph buffers recycle as
  // each backward closure finishes, then grad clip + fused Adam run in
  // place on the persistent moment/parameter buffers.
  batch_loss.Backward({.release_graph = true});
  nn::ClipGradNorm(shadow_->parameters(), config_.grad_clip_norm);
  adam_->Step();
  ++total_steps_;
  STGNN_COUNTER_INC("online.steps");
}

void OnlineTrainer::PredictHoldout(const core::StgnnDjdModel& model,
                                   int first, int last,
                                   HoldoutPredictions* predictions) {
  STGNN_TRACE_SCOPE("Online.Evaluate");
  for (int t = first; t <= last; ++t) {
    if (predictions->count(t) != 0) continue;
    const data::StHistory history = AssembleHistory(t);
    (*predictions)[t] =
        model.Forward(history, /*training=*/false, nullptr).value();
    ++stats_.holdout_forwards;
  }
}

HoldoutMetrics OnlineTrainer::Score(const HoldoutPredictions& predictions,
                                    int first, int last) const {
  double sum_sq = 0.0;
  double sum_abs = 0.0;
  int64_t count = 0;
  for (int t = first; t <= last; ++t) {
    const Tensor& prediction = predictions.at(t);
    const Tensor target = NormalizedTarget(t);
    for (int64_t i = 0; i < prediction.size(); ++i) {
      const double err = prediction.flat(i) - target.flat(i);
      sum_sq += err * err;
      sum_abs += std::abs(err);
      ++count;
    }
  }
  HoldoutMetrics metrics;
  metrics.slots = last - first + 1;
  if (count > 0) {
    metrics.rmse = std::sqrt(sum_sq / count);
    metrics.mae = sum_abs / count;
  }
  return metrics;
}

uint64_t OnlineTrainer::PublishCandidate(
    std::shared_ptr<const core::StgnnDjdModel> model) {
  STGNN_TRACE_SCOPE("Online.Publish");
  serve::ModelSnapshot snapshot(std::move(model), *normalizer_, input_scale_,
                                config_);
  if (config_.infer_precision != tensor::Precision::kFp32) {
    // Re-quantize exactly as a manual swap does: the registry's consumers
    // route eligible matmuls through the rebuilt reduced-precision tier.
    serve::QuantizeSnapshot(&snapshot, config_.infer_precision);
  }
  return channel_.publish(std::move(snapshot));
}

Result<PollResult> OnlineTrainer::Poll() {
  std::lock_guard<std::mutex> lock(mu_);
  return PollLocked();
}

Result<PollResult> OnlineTrainer::PollLocked() {
  STGNN_TRACE_SCOPE("Online.Poll");
  if (!warm_started_) {
    return Status::FailedPrecondition("OnlineTrainer::WarmStart first");
  }
  PollResult result;
  result.ingested_slots = FetchNewSlots();
  ++stats_.rounds;
  if (fetched_through_ == last_round_frontier_) return result;

  // Trainable slot t needs history [t - window, t) in the store and targets
  // through t + horizon - 1 at or below the fetch frontier. The newest
  // holdout_slots trainable slots are the gate's holdout; the train window
  // sits immediately before them, so training never sees the slots it is
  // judged on.
  const int t_max = fetched_through_ - horizon_;
  const int holdout_min = t_max - options_.holdout_slots + 1;
  const int train_max = holdout_min - 1;
  const int train_min = train_max - options_.train_window + 1;
  if (train_min < window_ || train_min - window_ < store_first_) {
    last_round_frontier_ = fetched_through_;
    return result;  // not enough contiguous history yet
  }

  // An external publish (a manual swap, another trainer) moves the live
  // version; resync the baseline so the gate compares against what is
  // actually serving.
  if (auto live = channel_.live();
      live != nullptr && live->version != baseline_version_) {
    baseline_ = live->model;
    baseline_version_ = live->version;
    baseline_holdout_.clear();
  }

  for (int s = 0; s < options_.steps_per_round; ++s) {
    TrainStep(train_min, train_max);
    ++result.steps;
    ++stats_.steps;
  }

  // An inference forward is a pure function of (weights, history), so the
  // baseline's predictions for slots an earlier round already scored are
  // reused; only the slots new to the holdout window run a forward.
  HoldoutPredictions candidate;
  PredictHoldout(*shadow_, holdout_min, t_max, &candidate);
  std::erase_if(baseline_holdout_, [&](const auto& entry) {
    return entry.first < holdout_min || entry.first > t_max;
  });
  PredictHoldout(*baseline_, holdout_min, t_max, &baseline_holdout_);
  result.candidate = Score(candidate, holdout_min, t_max);
  result.live = Score(baseline_holdout_, holdout_min, t_max);
  result.evaluated = true;
  ++stats_.evaluations;
  stats_.last_candidate_rmse = result.candidate.rmse;
  stats_.last_live_rmse = result.live.rmse;
  rolling_.Add(result.candidate.rmse, result.candidate.mae);
  stats_.rolling_holdout_rmse = rolling_.mean_rmse();
#if defined(STGNN_TRACING_ENABLED)
  {
    // Gauge semantics on an Add-only counter: single writer (Poll holds
    // mu_), so value tracks the latest candidate holdout RMSE in micro
    // units.
    static common::counters::Counter* gauge =
        common::counters::FindOrCreate("online.holdout_rmse");
    const int64_t micro =
        static_cast<int64_t>(result.candidate.rmse * 1e6);
    gauge->Add(micro - gauge->value());
  }
#endif

  const bool wins =
      result.candidate.rmse <
          result.live.rmse * (1.0 - options_.improvement_margin) &&
      result.candidate.mae <=
          result.live.mae * (1.0 + options_.mae_tolerance);
  if (wins) {
    ++win_streak_;
  } else {
    win_streak_ = 0;
    ++stats_.rejected_candidates;
    STGNN_COUNTER_INC("online.rejected_candidates");
  }
  const bool cooled =
      last_swap_slot_ < 0 ||
      t_max - last_swap_slot_ >= options_.min_slots_between_swaps;
  if (win_streak_ >= options_.patience && cooled) {
    // The shadow keeps training after the swap, so the published snapshot
    // gets its own immutable weight copy, which is also the new baseline.
    baseline_ = shadow_->Clone();
    const uint64_t version = PublishCandidate(baseline_);
    baseline_version_ = version;
    // The new baseline has the shadow's weights: its holdout predictions
    // are the candidate's.
    baseline_holdout_ = std::move(candidate);
    win_streak_ = 0;
    last_swap_slot_ = t_max;
    result.published = true;
    result.published_version = version;
    ++stats_.swaps;
    stats_.last_published_version = version;
    STGNN_COUNTER_INC("online.swaps");
  }
  last_round_frontier_ = fetched_through_;
  return result;
}

TrainerState OnlineTrainer::ExportState() const {
  std::lock_guard<std::mutex> lock(mu_);
  STGNN_CHECK(warm_started_) << "ExportState before WarmStart";
  TrainerState state;
  for (const auto& p : shadow_->parameters()) {
    state.shadow_params.push_back(p.value());
  }
  for (const auto& p : baseline_->parameters()) {
    state.baseline_params.push_back(p.value());
  }
  state.adam = adam_->ExportState();
  state.total_steps = total_steps_;
  state.baseline_version = baseline_version_;
  state.win_streak = win_streak_;
  state.last_swap_slot = last_swap_slot_;
  state.store_first = store_first_;
  state.store_inflow.reserve(store_.size());
  state.store_outflow.reserve(store_.size());
  for (const serve::SlotFlows& slot : store_) {
    state.store_inflow.push_back(slot.inflow.ToDense());
    state.store_outflow.push_back(slot.outflow.ToDense());
  }
  return state;
}

Status OnlineTrainer::ImportState(const TrainerState& state) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!warm_started_) {
    return Status::FailedPrecondition(
        "ImportState needs a warm-started trainer (models exist)");
  }
  auto shadow_params = shadow_->parameters();
  // The baseline may be the registry's live model, which is never written:
  // imported baseline weights go into a model of their own.
  auto baseline = std::make_unique<core::StgnnDjdModel>(
      shadow_->num_stations(), shadow_->config(), /*rng=*/nullptr);
  auto baseline_params = baseline->parameters();
  if (state.shadow_params.size() != shadow_params.size() ||
      state.baseline_params.size() != baseline_params.size()) {
    return Status::InvalidArgument("TrainerState parameter count mismatch");
  }
  for (size_t i = 0; i < shadow_params.size(); ++i) {
    if (state.shadow_params[i].shape() != shadow_params[i].value().shape()) {
      return Status::InvalidArgument("TrainerState parameter shape mismatch");
    }
  }
  if (state.store_inflow.size() != state.store_outflow.size()) {
    return Status::InvalidArgument("TrainerState store lists disagree");
  }
  // Rebuild the store's cells before anything is restored, so a refused
  // state leaves the trainer as it was. The values are already scaled:
  // x * 1.0f keeps the bits of every count.
  const tensor::Shape square{num_stations_, num_stations_};
  std::deque<serve::SlotFlows> store;
  for (size_t i = 0; i < state.store_inflow.size(); ++i) {
    if (state.store_inflow[i].shape() != square ||
        state.store_outflow[i].shape() != square) {
      return Status::InvalidArgument("TrainerState store slot " +
                                     std::to_string(i) +
                                     " is not [n, n] for the ring's n");
    }
    Result<tensor::Csr> in = serve::ScaledFlowRows(
        state.store_inflow[i], 1.0f, {}, "TrainerState store inflow");
    if (!in.ok()) return in.status();
    Result<tensor::Csr> out = serve::ScaledFlowRows(
        state.store_outflow[i], 1.0f, {}, "TrainerState store outflow");
    if (!out.ok()) return out.status();
    store.push_back(serve::SlotFlows{std::move(*in), std::move(*out)});
  }
  STGNN_RETURN_NOT_OK(adam_->ImportState(state.adam));
  for (size_t i = 0; i < shadow_params.size(); ++i) {
    shadow_params[i].SetValue(state.shadow_params[i]);
    baseline_params[i].SetValue(state.baseline_params[i]);
  }
  baseline_ = std::move(baseline);
  total_steps_ = state.total_steps;
  baseline_version_ = state.baseline_version;
  baseline_holdout_.clear();
  win_streak_ = state.win_streak;
  last_swap_slot_ = state.last_swap_slot;
  store_ = std::move(store);
  store_first_ = state.store_first;
  fetched_through_ = store_first_ + static_cast<int>(store_.size());
  // States are meant to be captured between rounds; the restored trainer
  // resumes when the frontier next advances.
  last_round_frontier_ = fetched_through_;
  return Status::OK();
}

OnlineTrainerStats OnlineTrainer::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  OnlineTrainerStats stats = stats_;
  stats.fetched_through = fetched_through_;
  return stats;
}

std::shared_ptr<const core::StgnnDjdModel> OnlineTrainer::baseline() const {
  std::lock_guard<std::mutex> lock(mu_);
  return baseline_;
}

bool OnlineTrainer::warm_started() const {
  std::lock_guard<std::mutex> lock(mu_);
  return warm_started_;
}

void OnlineTrainer::Start() {
  std::lock_guard<std::mutex> lock(loop_mu_);
  if (running_) return;
  stop_ = false;
  running_ = true;
  loop_ = std::thread([this] {
    int last_frontier = -1;
    while (true) {
      {
        std::lock_guard<std::mutex> lk(loop_mu_);
        if (stop_) return;
      }
      const int frontier = ring_->next_slot();
      if (frontier != last_frontier) {
        (void)Poll();
        last_frontier = frontier;
      } else {
        std::this_thread::sleep_for(
            std::chrono::microseconds(options_.poll_interval_us));
      }
    }
  });
}

void OnlineTrainer::Stop() {
  {
    std::lock_guard<std::mutex> lock(loop_mu_);
    if (!running_) return;
    stop_ = true;
  }
  loop_.join();
  std::lock_guard<std::mutex> lock(loop_mu_);
  running_ = false;
}

}  // namespace stgnn::online
