#ifndef STGNN_ONLINE_ONLINE_TRAINER_H_
#define STGNN_ONLINE_ONLINE_TRAINER_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "core/stgnn_djd.h"
#include "data/flow_dataset.h"
#include "data/window.h"
#include "eval/rolling_metrics.h"
#include "nn/optimizer.h"
#include "serve/feature_ring.h"
#include "serve/model_registry.h"
#include "serve/shard_router.h"
#include "tensor/tensor.h"

namespace stgnn::online {

// Where the trainer reads the live model and publishes validated
// candidates. Both ends of the deployment spectrum fit behind the same two
// calls: a single ModelRegistry, or the sharded fleet's lockstep Publish
// (every shard registry swaps to the same version, so K-shard deployments
// never serve a torn mix — the router's merge check enforces it).
struct SnapshotChannel {
  std::function<std::shared_ptr<const serve::ModelSnapshot>()> live;
  std::function<uint64_t(serve::ModelSnapshot)> publish;

  static SnapshotChannel ForRegistry(serve::ModelRegistry* registry);
  static SnapshotChannel ForFleet(serve::ShardFleet* fleet);
};

struct OnlineTrainerOptions {
  // Fused-Adam steps per Poll round; each step takes one full-batch
  // gradient over the train window.
  int steps_per_round = 2;
  // Most recent trainable slots fine-tuned on (the holdout excluded).
  int train_window = 8;
  // Newest trainable slots held out from training for the candidate gate.
  int holdout_slots = 4;
  // Extra slots kept in the trainer's store beyond what one round reads,
  // so a round that runs a little late still finds its history.
  int replay_slack = 8;
  // Fine-tune learning rate — deliberately below the cold-start rate; the
  // shadow starts at a trained optimum and only tracks drift.
  float learning_rate = 2e-3f;
  // Candidate gate: the shadow must beat the live model's holdout RMSE by
  // this relative margin (and not degrade MAE beyond mae_tolerance).
  float improvement_margin = 0.02f;
  float mae_tolerance = 0.05f;
  // Hysteresis: consecutive winning evaluations required before a publish,
  // so one lucky holdout cannot thrash the registry.
  int patience = 2;
  // Optional cooldown between swaps, in slots (0 = none).
  int min_slots_between_swaps = 0;
  // Seeds the per-step dropout stream. The stream is derived from the
  // trainer's global step index, not from call history, so a trainer
  // restored mid-stream replays the identical noise.
  uint64_t seed = 1;
  // Idle sleep of the background loop between frontier checks.
  int poll_interval_us = 200;
  // Rolling window (in evaluations) of the smoothed holdout gauge.
  int rolling_window = 16;
};

struct HoldoutMetrics {
  double rmse = 0.0;
  double mae = 0.0;
  int slots = 0;
};

// What one synchronous Poll round did.
struct PollResult {
  int ingested_slots = 0;  // new slots copied out of the ring
  int steps = 0;           // optimizer steps taken
  bool evaluated = false;
  HoldoutMetrics candidate;  // shadow model on the holdout
  HoldoutMetrics live;       // the baseline (published weights)
  bool published = false;
  uint64_t published_version = 0;
};

struct OnlineTrainerStats {
  int64_t rounds = 0;
  int64_t steps = 0;
  int64_t evaluations = 0;
  int64_t swaps = 0;
  int64_t rejected_candidates = 0;
  // Inference forwards run by the holdout gate: the shadow on every
  // holdout slot, the baseline only on slots it has no prediction for.
  int64_t holdout_forwards = 0;
  double last_candidate_rmse = 0.0;
  double last_live_rmse = 0.0;
  double rolling_holdout_rmse = 0.0;
  uint64_t last_published_version = 0;
  int fetched_through = 0;  // slots [0, fetched_through) seen by the trainer
};

// Everything mutable about a trainer run: shadow + baseline weights, the
// fused-Adam moments, the slot store, and the gate bookkeeping. Restoring
// it into a trainer over the same ring/channel resumes training
// bit-identically to a run that never stopped (pinned by
// tests/online_test.cc). Weights/moments can also round-trip through
// nn::SaveParameters / nn::SaveAdamState for on-disk checkpoints.
struct TrainerState {
  std::vector<tensor::Tensor> shadow_params;
  std::vector<tensor::Tensor> baseline_params;
  nn::AdamState adam;
  int64_t total_steps = 0;
  uint64_t baseline_version = 0;
  int win_streak = 0;
  int last_swap_slot = -1;
  int store_first = 0;
  std::vector<tensor::Tensor> store_inflow;   // per slot, [n, n] scaled
  std::vector<tensor::Tensor> store_outflow;
};

// The streaming trainer closing the ingest→train→validate→swap loop.
//
// A shadow StgnnDjdModel is warm-started from the live serving snapshot
// (weights copied; fused-Adam state fresh, or restored via ImportState) and
// continuously fine-tuned on the most recent ring slots. The trainer keeps
// its own bounded slot store, fed incrementally through
// FeatureRing::SnapshotWindow — the ring only retains one history window,
// so the store is what lets training reach slots the ring has already
// overwritten. Histories are assembled from the store with the same
// memcpy-of-prescaled-rows the ring's History() performs, so training
// inputs are bit-identical to what serving saw.
//
// Each Poll round: copy out newly ingested slots, take steps_per_round
// full-batch fused-Adam steps over the train window (the zero-alloc pooled
// train step — release-graph backward, grad clip, fused Adam), then
// evaluate the shadow against the baseline (the published weights) on the
// newest holdout_slots slots. A candidate that beats the live RMSE by
// improvement_margin (without degrading MAE) on `patience` consecutive
// evaluations is cloned into an immutable snapshot, quantized to the
// serving precision when the config asks for it, and published
// through the channel — exactly what a manual swap does, so slot caches
// invalidate and quantized tiers rebuild for free. A losing candidate
// provably never reaches the registry (online.rejected_candidates counts
// them; tests/online_test.cc pins the property).
//
// The baseline is the live snapshot's own model, shared with the registry
// and resynced whenever an external publish changes the live version: an
// inference forward writes nothing to the model, so the trainer forwards it
// beside the serving threads. Only ImportState gives the baseline a model
// of its own, for the imported weights. The baseline's holdout predictions
// are kept by slot and reused while its weights stand: a round
// forwards the baseline only on the slot(s) new to the holdout window, a
// publish hands the candidate's predictions over with its weights, and
// WarmStart, ImportState and an external-publish resync drop them.
//
// Thread-safety: Poll(), ExportState(), ImportState() and stats() are
// mutually serialised by an internal mutex. Start() runs Poll on a
// background thread whenever the ring frontier advances; Stop() joins it.
class OnlineTrainer {
 public:
  // `ring` must be a full (unsharded) ring — the trainer needs whole
  // [n, n] matrices. For a sharded fleet, attach the trainer to the
  // coordinator's full ingest ring and publish through ForFleet.
  OnlineTrainer(serve::FeatureRing* ring, SnapshotChannel channel,
                OnlineTrainerOptions options);
  ~OnlineTrainer();

  OnlineTrainer(const OnlineTrainer&) = delete;
  OnlineTrainer& operator=(const OnlineTrainer&) = delete;

  // Clones the live snapshot into the shadow, takes the live model as the
  // baseline, and builds a fresh fused-Adam over the shadow. Typed errors:
  //  - FailedPrecondition: nothing published yet;
  //  - InvalidArgument: the snapshot's window config disagrees with the
  //    ring's (the assembled histories would not match serving's).
  Status WarmStart();

  // One synchronous round: fetch → train → evaluate → maybe publish.
  // Returns what happened; FailedPrecondition before WarmStart. A round
  // with no new slots since the last one trains nothing (the background
  // loop may race a manual Poll; the frontier check makes that benign).
  Result<PollResult> Poll();

  // Background mode: Poll whenever the ring frontier advances.
  void Start();
  void Stop();  // idempotent; joins the thread

  // Deep-copies / restores the full mutable state (see TrainerState).
  // ImportState fails with InvalidArgument on shape/count mismatch.
  TrainerState ExportState() const;
  Status ImportState(const TrainerState& state);

  OnlineTrainerStats stats() const;
  bool warm_started() const;
  // The model the gate scores candidates against: after WarmStart, a
  // publish or a resync, the live snapshot's model itself. Null before
  // WarmStart.
  std::shared_ptr<const core::StgnnDjdModel> baseline() const;
  const OnlineTrainerOptions& options() const { return options_; }

 private:
  struct StoredSlot {
    tensor::Tensor inflow;   // [n, n], pre-scaled
    tensor::Tensor outflow;  // [n, n], pre-scaled
  };

  Result<PollResult> PollLocked();
  // Copies newly ingested slots into the store; returns how many.
  int FetchNewSlots();
  // History for slot t assembled from the store (bit-identical to ring
  // History(t) when the ring still retains t's window).
  data::StHistory AssembleHistory(int t) const;
  // Normalised [n, 2*horizon] target for slot t from the store's rows.
  tensor::Tensor NormalizedTarget(int t) const;
  // One full-batch fused-Adam step over train slots [first, last].
  void TrainStep(int first, int last);
  // Normalised [n, 2*horizon] inference predictions by slot.
  using HoldoutPredictions = std::map<int, tensor::Tensor>;
  // Inference forward of `model` on each holdout slot in [first, last] that
  // `predictions` does not hold yet.
  void PredictHoldout(const core::StgnnDjdModel& model, int first, int last,
                      HoldoutPredictions* predictions);
  // RMSE/MAE of `predictions` over slots [first, last] against the
  // normalised targets, accumulated in slot order.
  HoldoutMetrics Score(const HoldoutPredictions& predictions, int first,
                       int last) const;
  // Publishes `model` (an immutable clone of the shadow); returns the
  // version.
  uint64_t PublishCandidate(std::shared_ptr<const core::StgnnDjdModel> model);
  const StoredSlot& StoreAt(int slot) const;

  serve::FeatureRing* const ring_;
  const SnapshotChannel channel_;
  const OnlineTrainerOptions options_;
  const int num_stations_;
  const int window_;  // ring history window (first predictable slot)

  mutable std::mutex mu_;
  int store_capacity_ = 0;  // set at WarmStart (needs the config's horizon)
  bool warm_started_ = false;
  core::StgnnConfig config_;  // live snapshot's config, fine-tune LR applied
  std::unique_ptr<data::MinMaxNormalizer> normalizer_;
  float input_scale_ = 1.0f;
  int horizon_ = 1;
  std::unique_ptr<core::StgnnDjdModel> shadow_;
  std::shared_ptr<const core::StgnnDjdModel> baseline_;
  uint64_t baseline_version_ = 0;
  HoldoutPredictions baseline_holdout_;  // baseline_'s, by slot
  std::unique_ptr<nn::Adam> adam_;
  int64_t total_steps_ = 0;
  int win_streak_ = 0;
  int last_swap_slot_ = -1;
  int last_round_frontier_ = -1;
  std::deque<StoredSlot> store_;
  int store_first_ = 0;     // slot held by store_.front()
  int fetched_through_ = 0;  // slots [store_first_, fetched_through_) stored
  OnlineTrainerStats stats_;
  eval::RollingMetrics rolling_;

  std::mutex loop_mu_;
  bool running_ = false;
  bool stop_ = false;
  std::thread loop_;
};

}  // namespace stgnn::online

#endif  // STGNN_ONLINE_ONLINE_TRAINER_H_
