// Online-learning battery: the streaming trainer's ingest→train→validate→
// swap loop. Pins the gate (a losing candidate never reaches the
// registry; a forced winner swaps it), bit-identical resume from
// TrainerState, serving parity at 1/2/7 workers while the trainer
// continuously fine-tunes and hot-swaps in the background, and the
// sharded path: lockstep K-shard publishes with per-shard caches missing
// exactly once per swap and quantized tiers rebuilt. Runs under TSAN in
// CI.

#include <atomic>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "data/window.h"
#include "graph/partition.h"
#include "gtest/gtest.h"
#include "online/online_trainer.h"
#include "serve/feature_ring.h"
#include "serve/model_registry.h"
#include "serve/prediction_service.h"
#include "serve/shard_router.h"

namespace stgnn::online {
namespace {

using stgnn::StatusCode;
using serve::FeatureRing;
using serve::ModelRegistry;
using serve::ModelSnapshot;
using serve::PredictRequest;
using serve::PredictResponse;
using tensor::Tensor;

// Deterministic district-structured flows (same construction as the shard
// battery): `districts` blocks of `per_district` stations, heavier inside
// a block.
data::FlowDataset MakeFlow(int districts = 4, int per_district = 2,
                           int slots_per_day = 6, int days = 6) {
  const int n = districts * per_district;
  data::FlowDataset flow;
  flow.city_name = "online-test";
  flow.num_stations = n;
  flow.slots_per_day = slots_per_day;
  flow.num_slots = slots_per_day * days;
  common::Rng rng(4321);
  flow.demand = Tensor({flow.num_slots, n});
  flow.supply = Tensor({flow.num_slots, n});
  for (int t = 0; t < flow.num_slots; ++t) {
    Tensor in({n, n});
    Tensor out({n, n});
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < n; ++j) {
        const bool local = i / per_district == j / per_district;
        const int cap = local ? 4 : 2;
        in.at(i, j) = static_cast<float>(rng.UniformInt(cap));
        out.at(i, j) = static_cast<float>(rng.UniformInt(cap));
      }
    }
    for (int i = 0; i < n; ++i) {
      float demand = 0.0f;
      float supply = 0.0f;
      for (int j = 0; j < n; ++j) {
        demand += out.at(i, j);
        supply += in.at(i, j);
      }
      flow.demand.at(t, i) = demand;
      flow.supply.at(t, i) = supply;
    }
    flow.inflow.push_back(std::move(in));
    flow.outflow.push_back(std::move(out));
  }
  flow.train_end = slots_per_day * (days - 2);
  flow.val_end = slots_per_day * (days - 1);
  flow.max_train_flow = 3.0f;
  return flow;
}

core::StgnnConfig TestConfig() {
  core::StgnnConfig config;
  config.short_term_slots = 3;
  config.long_term_days = 1;
  config.fcg_layers = 1;
  config.pcg_layers = 1;
  config.attention_heads = 2;
  config.dropout = 0.2f;  // exercises the deterministic per-step streams
  config.horizon = 1;
  config.seed = 5;
  config.infer_precision = tensor::Precision::kFp32;
  return config;
}

std::shared_ptr<const core::StgnnDjdModel> MakeModel(
    int n, const core::StgnnConfig& config, uint64_t seed) {
  common::Rng rng(seed);
  return std::make_shared<const core::StgnnDjdModel>(n, config, &rng);
}

// Candidate can never win: it would need a negative RMSE.
OnlineTrainerOptions StrictGate() {
  OnlineTrainerOptions options;
  options.steps_per_round = 1;
  options.train_window = 2;
  options.holdout_slots = 2;
  options.learning_rate = 1e-3f;
  options.improvement_margin = 1e9f;
  options.patience = 1;
  return options;
}

// Candidate always wins: every evaluation publishes.
OnlineTrainerOptions ForcedGate() {
  OnlineTrainerOptions options = StrictGate();
  options.improvement_margin = -1e9f;
  options.mae_tolerance = 1e9f;
  return options;
}

Tensor DirectPrediction(const core::StgnnDjdModel& model,
                        const data::MinMaxNormalizer& normalizer,
                        const data::StHistory& history) {
  const autograd::Variable out =
      model.Forward(history, /*training=*/false, nullptr);
  return tensor::Relu(normalizer.Denormalize(out.value()));
}

void ExpectBitEqual(const Tensor& got, const Tensor& want) {
  ASSERT_EQ(got.shape(), want.shape());
  for (int64_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(got.flat(i), want.flat(i)) << "element " << i;
  }
}

// Registry + full ring + initial snapshot, warmed to `warm_slots`.
struct OnlineHarness {
  explicit OnlineHarness(int warm_slots = 12,
                         core::StgnnConfig config_in = TestConfig())
      : flow(MakeFlow()),
        config(config_in),
        scale(1.0f / flow.max_train_flow),
        normalizer(data::MinMaxNormalizer::Fit(flow.demand, flow.supply,
                                               flow.train_end)),
        ring(flow.num_stations, config.short_term_slots,
             config.long_term_days, flow.slots_per_day, scale),
        model(MakeModel(flow.num_stations, config, 7)) {
    for (int t = 0; t < warm_slots; ++t) Push(t);
  }

  void Push(int t) {
    ASSERT_TRUE(ring.Push(t, flow.inflow[t], flow.outflow[t]).ok());
  }

  uint64_t Publish() {
    return registry.Publish(ModelSnapshot(model, normalizer, scale, config));
  }

  data::FlowDataset flow;
  core::StgnnConfig config;
  float scale;
  data::MinMaxNormalizer normalizer;
  ModelRegistry registry;
  FeatureRing ring;
  std::shared_ptr<const core::StgnnDjdModel> model;
};

// -- Warm start -------------------------------------------------------------

TEST(OnlineTrainerTest, WarmStartNeedsAMatchingSnapshot) {
  OnlineHarness h;
  OnlineTrainer trainer(&h.ring, SnapshotChannel::ForRegistry(&h.registry),
                        StrictGate());
  // Nothing published yet.
  EXPECT_TRUE(trainer.WarmStart().code() == StatusCode::kFailedPrecondition);
  EXPECT_FALSE(trainer.warm_started());
  EXPECT_TRUE(trainer.Poll().status().code() == StatusCode::kFailedPrecondition);

  // A snapshot whose window config disagrees with the ring.
  core::StgnnConfig other = h.config;
  other.short_term_slots = h.config.short_term_slots + 1;
  h.registry.Publish(ModelSnapshot(MakeModel(h.flow.num_stations, other, 9),
                                   h.normalizer, h.scale, other));
  EXPECT_TRUE(trainer.WarmStart().code() == StatusCode::kInvalidArgument);

  // A matching one.
  h.Publish();
  ASSERT_TRUE(trainer.WarmStart().ok());
  EXPECT_TRUE(trainer.warm_started());
}

TEST(OnlineTrainerTest, TrainsOncePerFrontierAdvance) {
  OnlineHarness h;
  h.Publish();
  OnlineTrainer trainer(&h.ring, SnapshotChannel::ForRegistry(&h.registry),
                        StrictGate());
  ASSERT_TRUE(trainer.WarmStart().ok());

  int total_ingested = 0;
  for (int t = 12; t < 18; ++t) {
    h.Push(t);
    const PollResult result = trainer.Poll().ValueOrDie();
    total_ingested += result.ingested_slots;
    // A second round on the same frontier is a no-op.
    const PollResult idle = trainer.Poll().ValueOrDie();
    EXPECT_EQ(idle.ingested_slots, 0);
    EXPECT_EQ(idle.steps, 0);
    EXPECT_FALSE(idle.evaluated);
  }
  const OnlineTrainerStats stats = trainer.stats();
  EXPECT_EQ(stats.fetched_through, 18);
  EXPECT_GT(total_ingested, 0);
  EXPECT_GT(stats.steps, 0);
  EXPECT_GT(stats.evaluations, 0);
  EXPECT_GT(stats.last_live_rmse, 0.0);
  EXPECT_GT(stats.rolling_holdout_rmse, 0.0);
}

// -- The gate ---------------------------------------------------------------

TEST(OnlineTrainerTest, RejectedCandidateNeverReachesTheRegistry) {
  OnlineHarness h;
  const uint64_t v1 = h.Publish();
  OnlineTrainer trainer(&h.ring, SnapshotChannel::ForRegistry(&h.registry),
                        StrictGate());
  ASSERT_TRUE(trainer.WarmStart().ok());

  for (int t = 12; t < 20; ++t) {
    h.Push(t);
    const PollResult result = trainer.Poll().ValueOrDie();
    EXPECT_FALSE(result.published);
  }
  const OnlineTrainerStats stats = trainer.stats();
  EXPECT_GT(stats.evaluations, 0);
  EXPECT_GT(stats.rejected_candidates, 0);
  EXPECT_EQ(stats.swaps, 0);
  // The registry never saw a candidate.
  EXPECT_EQ(h.registry.current_version(), v1);
  EXPECT_EQ(h.registry.Current()->model.get(), h.model.get());
}

TEST(OnlineTrainerTest, WinningCandidateSwapsTheRegistry) {
  OnlineHarness h;
  const uint64_t v1 = h.Publish();
  OnlineTrainer trainer(&h.ring, SnapshotChannel::ForRegistry(&h.registry),
                        ForcedGate());
  ASSERT_TRUE(trainer.WarmStart().ok());

  uint64_t last_version = v1;
  int publishes = 0;
  for (int t = 12; t < 20; ++t) {
    h.Push(t);
    const PollResult result = trainer.Poll().ValueOrDie();
    if (result.published) {
      ++publishes;
      EXPECT_GT(result.published_version, last_version);
      last_version = result.published_version;
    }
  }
  EXPECT_GT(publishes, 0);
  const OnlineTrainerStats stats = trainer.stats();
  EXPECT_EQ(stats.swaps, publishes);
  EXPECT_EQ(stats.last_published_version, last_version);
  EXPECT_EQ(h.registry.current_version(), last_version);
  // The published model is the shadow's clone, not the original snapshot.
  EXPECT_NE(h.registry.Current()->model.get(), h.model.get());
  // fp32 serving: no quantized tier to rebuild.
  EXPECT_EQ(h.registry.Current()->quantized, nullptr);
}

TEST(OnlineTrainerTest, PatienceRequiresConsecutiveWins) {
  OnlineHarness h;
  h.Publish();
  OnlineTrainerOptions options = ForcedGate();
  options.patience = 3;
  OnlineTrainer trainer(&h.ring, SnapshotChannel::ForRegistry(&h.registry),
                        options);
  ASSERT_TRUE(trainer.WarmStart().ok());

  int evaluations = 0;
  int publishes = 0;
  for (int t = 12; t < 20; ++t) {
    h.Push(t);
    const PollResult result = trainer.Poll().ValueOrDie();
    if (result.evaluated) ++evaluations;
    if (result.published) ++publishes;
  }
  // Every evaluation wins (forced), so publishes happen every `patience`
  // evaluations.
  EXPECT_EQ(publishes, evaluations / options.patience);
}

// -- Holdout memo -----------------------------------------------------------

void ExpectSameMetrics(const HoldoutMetrics& got, const HoldoutMetrics& want) {
  EXPECT_EQ(got.rmse, want.rmse);
  EXPECT_EQ(got.mae, want.mae);
  EXPECT_EQ(got.slots, want.slots);
}

// The gate keeps the baseline's holdout predictions by slot. A trainer whose
// memo is dropped after every round (ImportState clears it) returns the same
// PollResults, bit for bit, through rejected rounds, unpublished wins,
// publishes and an external publish, while the one that keeps it runs 3
// holdout forwards per round instead of 4 (2 holdout slots: the shadow on
// both, the baseline on the one new to the window).
TEST(OnlineTrainerTest, HoldoutMemoLeavesPollResultsUnchanged) {
  constexpr int kExternalPublishAt = 17;
  OnlineTrainerOptions patient = ForcedGate();
  patient.patience = 2;
  for (const OnlineTrainerOptions& options : {StrictGate(), patient}) {
    OnlineHarness a;
    OnlineHarness b;
    a.Publish();
    b.Publish();
    OnlineTrainer kept(&a.ring, SnapshotChannel::ForRegistry(&a.registry),
                       options);
    OnlineTrainer dropped(&b.ring, SnapshotChannel::ForRegistry(&b.registry),
                          options);
    ASSERT_TRUE(kept.WarmStart().ok());
    ASSERT_TRUE(dropped.WarmStart().ok());
    int evaluated = 0;
    int published = 0;
    int64_t kept_forwards = 0;
    for (int t = 12; t < 22; ++t) {
      a.Push(t);
      b.Push(t);
      if (t == kExternalPublishAt) {
        // A manual swap: both trainers resync their baseline to it.
        for (OnlineHarness* h : {&a, &b}) {
          h->registry.Publish(ModelSnapshot(
              MakeModel(h->flow.num_stations, h->config, 9), h->normalizer,
              h->scale, h->config));
        }
      }
      const PollResult got = kept.Poll().ValueOrDie();
      const PollResult want = dropped.Poll().ValueOrDie();
      ASSERT_TRUE(dropped.ImportState(dropped.ExportState()).ok());
      EXPECT_EQ(got.ingested_slots, want.ingested_slots);
      EXPECT_EQ(got.steps, want.steps);
      ASSERT_EQ(got.evaluated, want.evaluated);
      ExpectSameMetrics(got.candidate, want.candidate);
      ExpectSameMetrics(got.live, want.live);
      EXPECT_EQ(got.published, want.published);
      EXPECT_EQ(got.published_version, want.published_version);
      const int64_t forwards = kept.stats().holdout_forwards - kept_forwards;
      kept_forwards = kept.stats().holdout_forwards;
      if (!got.evaluated) {
        EXPECT_EQ(forwards, 0);
        continue;
      }
      const bool fresh = evaluated == 0 || t == kExternalPublishAt;
      EXPECT_EQ(forwards, fresh ? 4 : 3) << "frontier " << t + 1;
      ++evaluated;
      if (got.published) ++published;
    }
    ASSERT_GE(evaluated, 4);
    EXPECT_EQ(dropped.stats().holdout_forwards, 4 * evaluated);
    const bool publishes = options.improvement_margin < 0.0f;
    EXPECT_EQ(published, publishes ? evaluated / 2 : 0);
    EXPECT_EQ(kept.stats().rejected_candidates, publishes ? 0 : evaluated);
  }
}

// -- State export / import --------------------------------------------------

void ExpectTensorsEqual(const std::vector<Tensor>& got,
                        const std::vector<Tensor>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    ExpectBitEqual(got[i], want[i]);
  }
}

// A trainer restored from TrainerState continues bit-identically to one
// that never stopped — same weights, same Adam moments, same dropout
// stream, same store.
TEST(OnlineTrainerTest, RestoredTrainerContinuesBitIdentically) {
  OnlineHarness a(/*warm_slots=*/12);
  OnlineHarness b(/*warm_slots=*/12);
  a.Publish();
  b.Publish();
  OnlineTrainer uninterrupted(
      &a.ring, SnapshotChannel::ForRegistry(&a.registry), StrictGate());
  ASSERT_TRUE(uninterrupted.WarmStart().ok());
  auto first = std::make_unique<OnlineTrainer>(
      &b.ring, SnapshotChannel::ForRegistry(&b.registry), StrictGate());
  ASSERT_TRUE(first->WarmStart().ok());

  for (int t = 12; t < 16; ++t) {
    a.Push(t);
    ASSERT_TRUE(uninterrupted.Poll().ok());
    b.Push(t);
    ASSERT_TRUE(first->Poll().ok());
  }
  const TrainerState mid = first->ExportState();
  ASSERT_GT(mid.total_steps, 0);
  first.reset();  // the interrupted run dies here

  OnlineTrainer resumed(&b.ring, SnapshotChannel::ForRegistry(&b.registry),
                        StrictGate());
  ASSERT_TRUE(resumed.WarmStart().ok());
  ASSERT_TRUE(resumed.ImportState(mid).ok());

  for (int t = 16; t < 20; ++t) {
    a.Push(t);
    ASSERT_TRUE(uninterrupted.Poll().ok());
    b.Push(t);
    ASSERT_TRUE(resumed.Poll().ok());
  }

  const TrainerState want = uninterrupted.ExportState();
  const TrainerState got = resumed.ExportState();
  ASSERT_GT(got.total_steps, mid.total_steps) << "resumed run never trained";
  EXPECT_EQ(got.total_steps, want.total_steps);
  ExpectTensorsEqual(got.shadow_params, want.shadow_params);
  ExpectTensorsEqual(got.baseline_params, want.baseline_params);
  EXPECT_EQ(got.adam.step_count, want.adam.step_count);
  ExpectTensorsEqual(got.adam.first_moment, want.adam.first_moment);
  ExpectTensorsEqual(got.adam.second_moment, want.adam.second_moment);
  EXPECT_EQ(got.store_first, want.store_first);
  ExpectTensorsEqual(got.store_inflow, want.store_inflow);
  ExpectTensorsEqual(got.store_outflow, want.store_outflow);
}

// The gate forwards the live model itself, not a copy of its weights: an
// inference forward writes nothing, so the trainer shares the registry's
// model after WarmStart, after each publish and after resyncing to an
// external publish. ImportState gives the baseline a model of its own that
// holds the imported weights.
TEST(OnlineTrainerTest, BaselineIsThePublishedModel) {
  OnlineHarness h;
  h.Publish();
  // Every second evaluation publishes, so rounds alternate between a
  // freshly published baseline and one carried over (or resynced).
  OnlineTrainerOptions options = ForcedGate();
  options.patience = 2;
  OnlineTrainer trainer(&h.ring, SnapshotChannel::ForRegistry(&h.registry),
                        options);
  ASSERT_TRUE(trainer.WarmStart().ok());
  EXPECT_EQ(trainer.baseline().get(), h.model.get());

  int publishes = 0;
  for (int t = 12; t < 20; ++t) {
    h.Push(t);
    if (t == 17) {
      h.registry.Publish(ModelSnapshot(MakeModel(h.flow.num_stations,
                                                 h.config, 9),
                                       h.normalizer, h.scale, h.config));
    }
    const PollResult result = trainer.Poll().ValueOrDie();
    if (result.published) ++publishes;
    if (result.evaluated) {
      EXPECT_EQ(trainer.baseline().get(), h.registry.Current()->model.get())
          << "frontier " << t + 1;
    }
  }
  ASSERT_GT(publishes, 0);
  EXPECT_NE(trainer.baseline().get(), h.model.get());

  const TrainerState state = trainer.ExportState();
  ASSERT_TRUE(trainer.ImportState(state).ok());
  EXPECT_NE(trainer.baseline().get(), h.registry.Current()->model.get());
  ExpectTensorsEqual(trainer.ExportState().baseline_params,
                     state.baseline_params);
}

TEST(OnlineTrainerTest, ImportStateRejectsMismatches) {
  OnlineHarness h;
  h.Publish();
  OnlineTrainer trainer(&h.ring, SnapshotChannel::ForRegistry(&h.registry),
                        StrictGate());

  TrainerState state;
  // Before WarmStart there are no models to restore into.
  EXPECT_TRUE(trainer.ImportState(state).code() == StatusCode::kFailedPrecondition);

  ASSERT_TRUE(trainer.WarmStart().ok());
  state = trainer.ExportState();

  TrainerState missing = state;
  missing.shadow_params.pop_back();
  EXPECT_TRUE(trainer.ImportState(missing).code() == StatusCode::kInvalidArgument);

  TrainerState reshaped = state;
  reshaped.shadow_params[0] = Tensor({1, 1});
  EXPECT_TRUE(trainer.ImportState(reshaped).code() == StatusCode::kInvalidArgument);

  TrainerState torn_store = state;
  torn_store.store_inflow.push_back(Tensor({2, 2}));
  EXPECT_TRUE(trainer.ImportState(torn_store).code() == StatusCode::kInvalidArgument);

  // The valid state still restores.
  EXPECT_TRUE(trainer.ImportState(state).ok());
}

// -- Serving parity during continuous training ------------------------------

// Wraps a registry channel so the test can map every published version back
// to its (immutable) model for post-hoc bitwise verification.
struct RecordingChannel {
  explicit RecordingChannel(ModelRegistry* registry_in)
      : registry(registry_in) {}

  SnapshotChannel Channel() {
    SnapshotChannel channel;
    channel.live = [this] { return registry->Current(); };
    channel.publish = [this](ModelSnapshot snapshot) {
      auto model = snapshot.model;
      const uint64_t version = registry->Publish(std::move(snapshot));
      std::lock_guard<std::mutex> lock(mu);
      models[version] = std::move(model);
      return version;
    };
    return channel;
  }

  void Record(uint64_t version,
              std::shared_ptr<const core::StgnnDjdModel> model) {
    std::lock_guard<std::mutex> lock(mu);
    models[version] = std::move(model);
  }

  ModelRegistry* registry;
  std::mutex mu;
  std::map<uint64_t, std::shared_ptr<const core::StgnnDjdModel>> models;
};

// While the trainer continuously fine-tunes and hot-swaps in the
// background, every served response must be bitwise identical to a direct
// forward of the exact model version it reports — a swap may change which
// model serves, never tear one response across two.
TEST(OnlineTrainerTest, ServingStaysBitExactDuringContinuousTraining) {
  for (int workers : {1, 2, 7}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    OnlineHarness h;
    RecordingChannel recorder(&h.registry);
    const uint64_t v1 = h.Publish();
    recorder.Record(v1, h.model);

    serve::PredictionService service(
        &h.registry, &h.ring,
        {.num_workers = workers, .max_batch = 4, .max_queue = 128});
    service.Start();
    OnlineTrainer trainer(&h.ring, recorder.Channel(), ForcedGate());
    ASSERT_TRUE(trainer.WarmStart().ok());
    trainer.Start();

    std::vector<std::future<PredictResponse>> futures;
    for (int t = 12; t < 24; ++t) {
      h.Push(t);
      for (int r = 0; r < 4; ++r) {
        PredictRequest request;
        request.slot =
            (r % 2 == 0) ? PredictRequest::kLatestSlot : h.ring.next_slot();
        futures.push_back(service.SubmitAsync(std::move(request)));
      }
      // Let the background loop interleave training with the serving load.
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    trainer.Stop();
    service.Stop();
    EXPECT_GT(trainer.stats().swaps, 0);

    int served = 0;
    for (auto& future : futures) {
      PredictResponse response = future.get();
      if (!response.ok()) continue;  // queue-full shed under TSAN slowness
      ++served;
      std::shared_ptr<const core::StgnnDjdModel> model;
      {
        std::lock_guard<std::mutex> lock(recorder.mu);
        auto it = recorder.models.find(response.model_version);
        ASSERT_NE(it, recorder.models.end())
            << "response reports an unpublished version "
            << response.model_version;
        model = it->second;
      }
      const data::StHistory history = data::BuildStHistory(
          h.flow, response.slot, h.config.short_term_slots,
          h.config.long_term_days, h.scale);
      ExpectBitEqual(response.predictions,
                     DirectPrediction(*model, h.normalizer, history));
    }
    EXPECT_GT(served, 0);
  }
}

// Concurrent Poll / ExportState / stats while slots stream in: the TSAN
// target for the trainer's own mutex discipline.
TEST(OnlineTrainerTest, BackgroundLoopSurvivesConcurrentInspection) {
  OnlineHarness h;
  h.Publish();
  OnlineTrainer trainer(&h.ring, SnapshotChannel::ForRegistry(&h.registry),
                        StrictGate());
  ASSERT_TRUE(trainer.WarmStart().ok());
  trainer.Start();
  trainer.Start();  // idempotent

  std::atomic<bool> done{false};
  std::thread inspector([&] {
    while (!done.load()) {
      (void)trainer.stats();
      (void)trainer.ExportState();
      std::this_thread::yield();
    }
  });
  for (int t = 12; t < 22; ++t) {
    h.Push(t);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // Wait (bounded) for the loop to drain the stream.
  for (int spin = 0; spin < 2000 && trainer.stats().fetched_through < 22;
       ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  done.store(true);
  inspector.join();
  trainer.Stop();
  trainer.Stop();  // idempotent
  EXPECT_EQ(trainer.stats().fetched_through, 22);
  EXPECT_GT(trainer.stats().steps, 0);
}

// -- Sharded fleet ----------------------------------------------------------

// An online swap through ShardFleet::Publish lands in lockstep on every
// shard: the router keeps serving version-consistent responses under
// concurrent load, and the quantized tier is rebuilt for the candidate.
TEST(OnlineTrainerTest, ShardedSwapStaysLockstepAndRebuildsTiers) {
  for (int num_shards : {1, 4}) {
    SCOPED_TRACE("shards=" + std::to_string(num_shards));
    const int districts = 4;
    const int per_district = 2;
    data::FlowDataset flow = MakeFlow(districts, per_district);
    core::StgnnConfig config = TestConfig();
    config.infer_precision = tensor::Precision::kInt8;
    const float scale = 1.0f / flow.max_train_flow;
    const data::MinMaxNormalizer normalizer = data::MinMaxNormalizer::Fit(
        flow.demand, flow.supply, flow.train_end);
    const graph::Partition partition =
        graph::PartitionStations(districts, per_district, num_shards);
    serve::ShardFleet fleet(partition, config.short_term_slots,
                            config.long_term_days, flow.slots_per_day, scale,
                            {.service = {.num_workers = 2, .max_batch = 4,
                                         .max_queue = 64}});
    serve::ShardRouter router(&fleet, {.num_workers = 2, .max_queue = 64});
    // The trainer reads whole matrices from the coordinator's full ring.
    FeatureRing full_ring(flow.num_stations, config.short_term_slots,
                          config.long_term_days, flow.slots_per_day, scale);
    auto push_both = [&](int t) {
      ASSERT_TRUE(fleet.Push(t, flow.inflow[t], flow.outflow[t]).ok());
      ASSERT_TRUE(full_ring.Push(t, flow.inflow[t], flow.outflow[t]).ok());
    };
    for (int t = 0; t < 12; ++t) push_both(t);

    ModelSnapshot v1(MakeModel(flow.num_stations, config, 7), normalizer,
                     scale, config);
    serve::QuantizeSnapshot(&v1, config.infer_precision);
    fleet.Publish(v1);
    ASSERT_NE(fleet.Current()->quantized, nullptr);
    fleet.Start();
    router.Start();

    OnlineTrainer trainer(&full_ring, SnapshotChannel::ForFleet(&fleet),
                          ForcedGate());
    ASSERT_TRUE(trainer.WarmStart().ok());

    // Clients hammer the router while slots stream and the trainer swaps.
    std::atomic<bool> done{false};
    std::atomic<int> served{0};
    std::vector<std::thread> clients;
    for (int c = 0; c < 2; ++c) {
      clients.emplace_back([&] {
        while (!done.load()) {
          PredictResponse response = router.Predict({});
          if (response.ok()) served.fetch_add(1);
        }
      });
    }
    uint64_t last_version = 1;
    for (int t = 12; t < 18; ++t) {
      push_both(t);
      const PollResult result = trainer.Poll().ValueOrDie();
      if (result.published) last_version = result.published_version;
    }
    done.store(true);
    for (auto& c : clients) c.join();

    ASSERT_GT(trainer.stats().swaps, 0);
    EXPECT_EQ(fleet.current_version(), last_version);
    // The concurrent clients may or may not land requests depending on
    // scheduling; the quiet-frontier request is the deterministic check
    // that the swapped fleet still serves, on the swapped version.
    const PredictResponse settled = router.Predict({});
    ASSERT_TRUE(settled.ok()) << settled.status.ToString();
    EXPECT_EQ(settled.model_version, last_version);
    // The router's merge rejects torn mixes; with retries it must never
    // surface one as a failure.
    EXPECT_EQ(router.stats().failed, 0);
    // The candidate's snapshot was re-quantized on publish.
    ASSERT_NE(fleet.Current()->quantized, nullptr);
    router.Stop();
    fleet.Stop();
  }
}

// A publish through the fleet misses each shard cache exactly once for the
// swapped version (same slot, new key), then hits.
TEST(OnlineTrainerTest, ShardCachesMissExactlyOncePerSwap) {
  for (int num_shards : {1, 4}) {
    SCOPED_TRACE("shards=" + std::to_string(num_shards));
    const int districts = 4;
    const int per_district = 2;
    data::FlowDataset flow = MakeFlow(districts, per_district);
    core::StgnnConfig config = TestConfig();
    const float scale = 1.0f / flow.max_train_flow;
    const data::MinMaxNormalizer normalizer = data::MinMaxNormalizer::Fit(
        flow.demand, flow.supply, flow.train_end);
    const graph::Partition partition =
        graph::PartitionStations(districts, per_district, num_shards);
    serve::ShardFleet fleet(partition, config.short_term_slots,
                            config.long_term_days, flow.slots_per_day, scale,
                            {.service = {.num_workers = 1, .max_batch = 4,
                                         .max_queue = 64}});
    serve::ShardRouter router(&fleet, {.num_workers = 1, .max_queue = 64});
    FeatureRing full_ring(flow.num_stations, config.short_term_slots,
                          config.long_term_days, flow.slots_per_day, scale);
    for (int t = 0; t < 12; ++t) {
      ASSERT_TRUE(fleet.Push(t, flow.inflow[t], flow.outflow[t]).ok());
      ASSERT_TRUE(full_ring.Push(t, flow.inflow[t], flow.outflow[t]).ok());
    }
    fleet.Publish(ModelSnapshot(MakeModel(flow.num_stations, config, 7),
                                normalizer, scale, config));
    fleet.Start();
    router.Start();

    OnlineTrainer trainer(&full_ring, SnapshotChannel::ForFleet(&fleet),
                          ForcedGate());
    ASSERT_TRUE(trainer.WarmStart().ok());
    // Advance until the trainer publishes once, with no serving traffic.
    uint64_t swapped = 0;
    for (int t = 12; t < 20 && swapped == 0; ++t) {
      ASSERT_TRUE(fleet.Push(t, flow.inflow[t], flow.outflow[t]).ok());
      ASSERT_TRUE(full_ring.Push(t, flow.inflow[t], flow.outflow[t]).ok());
      const PollResult result = trainer.Poll().ValueOrDie();
      if (result.published) swapped = result.published_version;
    }
    ASSERT_GT(swapped, 0u);

    PredictRequest fixed;
    fixed.slot = fleet.next_slot();
    std::vector<uint64_t> misses_before(num_shards);
    for (int s = 0; s < num_shards; ++s) {
      misses_before[s] = fleet.service(s)->cache_stats().misses.load();
    }
    ASSERT_TRUE(router.Predict(fixed).ok());
    for (int s = 0; s < num_shards; ++s) {
      EXPECT_EQ(fleet.service(s)->cache_stats().misses.load(),
                misses_before[s] + 1)
          << "shard " << s
          << ": the swapped version must miss exactly once per shard";
    }
    ASSERT_TRUE(router.Predict(fixed).ok());
    for (int s = 0; s < num_shards; ++s) {
      EXPECT_EQ(fleet.service(s)->cache_stats().misses.load(),
                misses_before[s] + 1)
          << "shard " << s << ": the second request must hit";
    }
    router.Stop();
    fleet.Stop();
  }
}

}  // namespace
}  // namespace stgnn::online
