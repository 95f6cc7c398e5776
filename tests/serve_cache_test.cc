// Serving slot-cache battery: cold-vs-cached bitwise parity across ring
// wraparounds and hot-swaps at 1/2/7 workers, the steady-state
// zero-reassembly regression, stale-slot invalidation semantics, the
// cache-off pure-perf-knob guarantee, and a concurrent push / hot-swap /
// predict fault-injection run. Runs under TSAN in CI.

#include <cstdint>
#include <future>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "data/window.h"
#include "gtest/gtest.h"
#include "serve/feature_ring.h"
#include "serve/model_registry.h"
#include "serve/prediction_service.h"
#include "serve/slot_cache.h"

namespace stgnn::serve {
namespace {

using tensor::Tensor;

// Same deterministic dataset as serve_test.cc: 8 stations, 6 slots/day,
// 4 days; ring window 6, capacity 8, so 24 slots wrap the storage 3 times.
data::FlowDataset MakeFlow(int n = 8, int slots_per_day = 6, int days = 4) {
  data::FlowDataset flow;
  flow.city_name = "serve-cache-test";
  flow.num_stations = n;
  flow.slots_per_day = slots_per_day;
  flow.num_slots = slots_per_day * days;
  common::Rng rng(99);
  flow.demand = Tensor({flow.num_slots, n});
  flow.supply = Tensor({flow.num_slots, n});
  for (int t = 0; t < flow.num_slots; ++t) {
    Tensor in({n, n});
    Tensor out({n, n});
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < n; ++j) {
        in.at(i, j) = static_cast<float>(rng.UniformInt(4));
        out.at(i, j) = static_cast<float>(rng.UniformInt(4));
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

core::StgnnConfig TestConfig(int k = 3, int d = 1) {
  core::StgnnConfig config;
  config.short_term_slots = k;
  config.long_term_days = d;
  config.fcg_layers = 1;
  config.pcg_layers = 1;
  config.attention_heads = 2;
  config.dropout = 0.0f;
  config.horizon = 1;
  config.seed = 5;
  return config;
}

std::shared_ptr<const core::StgnnDjdModel> MakeModel(
    int n, const core::StgnnConfig& config, uint64_t seed) {
  common::Rng rng(seed);
  return std::make_shared<const core::StgnnDjdModel>(n, config, &rng);
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

struct CacheHarness {
  explicit CacheHarness(ServiceOptions options, bool serve_cache = true)
      : flow(MakeFlow()),
        config(TestConfig()),
        scale(1.0f / flow.max_train_flow),
        normalizer(data::MinMaxNormalizer::Fit(flow.demand, flow.supply,
                                               flow.train_end)),
        ring(flow.num_stations, config.short_term_slots,
             config.long_term_days, flow.slots_per_day, scale),
        model(MakeModel(flow.num_stations, config, 5)),
        service(&registry, &ring, options) {
    config.serve_cache = serve_cache;
    const int frontier = ring.first_predictable_slot() + 4;
    for (int t = 0; t < frontier; ++t) {
      const Status st = ring.Push(t, flow.inflow[t], flow.outflow[t]);
      STGNN_CHECK(st.ok()) << st.ToString();
    }
  }

  uint64_t PublishModel() {
    return registry.Publish(ModelSnapshot(model, normalizer, scale, config));
  }

  Tensor Expected(const core::StgnnDjdModel& m, int t) const {
    return DirectPrediction(
        m, normalizer,
        data::BuildStHistory(flow, t, config.short_term_slots,
                             config.long_term_days, scale));
  }
  Tensor Expected(int t) const { return Expected(*model, t); }

  data::FlowDataset flow;
  core::StgnnConfig config;
  float scale;
  data::MinMaxNormalizer normalizer;
  ModelRegistry registry;
  FeatureRing ring;
  std::shared_ptr<const core::StgnnDjdModel> model;
  PredictionService service;
};

// Cold-vs-cached bitwise parity at every frontier across three full ring
// wraparounds, at 1/2/7 workers: the first batch on a frontier runs the
// cold prefix, the second replays the cached entry, and both must match
// the direct (non-serving) Forward bit for bit.
TEST(SlotCacheServingTest, ColdVsCachedParityAcrossWraparounds) {
  for (int workers : {1, 2, 7}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    CacheHarness h({.num_workers = workers, .max_batch = 4,
                    .max_queue = 64});
    h.PublishModel();
    h.service.Start();
    for (int t = h.ring.next_slot(); t < h.flow.num_slots; ++t) {
      const Tensor expected = h.Expected(t);
      for (int rep = 0; rep < 2; ++rep) {
        PredictResponse response = h.service.Predict({});
        ASSERT_TRUE(response.ok()) << response.status.ToString();
        EXPECT_EQ(response.slot, t);
        ExpectBitEqual(response.predictions, expected);
      }
      ASSERT_TRUE(h.ring.Push(t, h.flow.inflow[t], h.flow.outflow[t]).ok());
    }
    const SlotCache::Stats& cache = h.service.cache_stats();
    EXPECT_GT(cache.hits.load(), 0u);
    EXPECT_GT(cache.misses.load(), 0u);
    // Frontier advances overwrote retained slots ~every push once full.
    EXPECT_GT(cache.invalidations.load(), 0u);
    const ServiceStats stats = h.service.stats();
    EXPECT_EQ(stats.failed, 0);
    // Cached replays did not re-assemble: strictly fewer assemblies than
    // batches.
    EXPECT_LT(stats.assemblies, stats.batches);
  }
}

// Hot-swap keys the cache by snapshot version: a swap forces a miss (never
// a stale hit), and each version's served rows are bitwise that model's.
TEST(SlotCacheServingTest, HotSwapForcesMissAndServesNewModel) {
  CacheHarness h({.num_workers = 1, .max_batch = 4, .max_queue = 64});
  const auto model_b = MakeModel(h.flow.num_stations, h.config, 77);
  const int frontier = h.ring.next_slot();
  h.PublishModel();  // v1 = A
  h.service.Start();

  PredictResponse r1 = h.service.Predict({});
  ASSERT_TRUE(r1.ok()) << r1.status.ToString();
  EXPECT_EQ(r1.model_version, 1u);
  ExpectBitEqual(r1.predictions, h.Expected(frontier));

  h.registry.Publish(ModelSnapshot(model_b, h.normalizer, h.scale,
                                   h.config));  // v2 = B
  PredictResponse r2 = h.service.Predict({});
  ASSERT_TRUE(r2.ok()) << r2.status.ToString();
  EXPECT_EQ(r2.model_version, 2u);
  ExpectBitEqual(r2.predictions, h.Expected(*model_b, frontier));

  h.PublishModel();  // v3 = A again: a new snapshot, so a fresh miss
  PredictResponse r3 = h.service.Predict({});
  ASSERT_TRUE(r3.ok()) << r3.status.ToString();
  EXPECT_EQ(r3.model_version, 3u);
  ExpectBitEqual(r3.predictions, h.Expected(frontier));

  const SlotCache::Stats& cache = h.service.cache_stats();
  EXPECT_EQ(cache.misses.load(), 3u);  // one cold prefix per version
  EXPECT_EQ(cache.hits.load(), 0u);
  EXPECT_EQ(h.service.stats().assemblies, 3);
}

// The steady-state regression the cache exists for: after the first batch
// on a frontier, subsequent batches on the same (slot, snapshot) do ZERO
// re-assembly — one cold prefix total, everything else a hit.
TEST(SlotCacheServingTest, SteadyStateSecondBatchDoesZeroReassembly) {
  CacheHarness h({.num_workers = 1, .max_batch = 4, .max_queue = 64});
  h.PublishModel();
  h.service.Start();
  const int frontier = h.ring.next_slot();
  const Tensor expected = h.Expected(frontier);

  constexpr int kBatches = 10;
  for (int i = 0; i < kBatches; ++i) {
    PredictResponse response = h.service.Predict({});
    ASSERT_TRUE(response.ok()) << response.status.ToString();
    ExpectBitEqual(response.predictions, expected);
  }
  const ServiceStats stats = h.service.stats();
  EXPECT_EQ(stats.batches, kBatches);
  EXPECT_EQ(stats.assemblies, 1);  // only the first batch assembled
  const SlotCache::Stats& cache = h.service.cache_stats();
  EXPECT_EQ(cache.misses.load(), 1u);
  // Hit rate (batches - 1) / batches.
  EXPECT_EQ(cache.hits.load(), static_cast<uint64_t>(kBatches - 1));
}

// serve_cache=false is a pure perf knob: identical bits, every batch
// assembles, and the cache is never consulted.
TEST(SlotCacheServingTest, CacheOffIsBitIdenticalAndNeverConsulted) {
  CacheHarness on({.num_workers = 1, .max_batch = 4, .max_queue = 64},
                  /*serve_cache=*/true);
  CacheHarness off({.num_workers = 1, .max_batch = 4, .max_queue = 64},
                   /*serve_cache=*/false);
  on.PublishModel();
  off.PublishModel();
  on.service.Start();
  off.service.Start();
  for (int i = 0; i < 3; ++i) {
    PredictResponse a = on.service.Predict({});
    PredictResponse b = off.service.Predict({});
    ASSERT_TRUE(a.ok()) << a.status.ToString();
    ASSERT_TRUE(b.ok()) << b.status.ToString();
    ExpectBitEqual(a.predictions, b.predictions);
  }
  EXPECT_EQ(off.service.stats().assemblies, 3);  // no memoisation
  EXPECT_EQ(on.service.stats().assemblies, 1);
  const SlotCache::Stats& cache = off.service.cache_stats();
  EXPECT_EQ(cache.hits.load() + cache.misses.load(), 0u);
}

// Once the ring overwrites a slot's history, the cached entry for it must
// be invalidated — a request for that slot fails typed exactly like the
// cache-off path would, never serving stale rows from the cache.
TEST(SlotCacheServingTest, StaleSlotFailsTypedAfterInvalidation) {
  CacheHarness h({.num_workers = 1, .max_batch = 4, .max_queue = 64});
  h.PublishModel();
  h.service.Start();
  const int frontier = h.ring.next_slot();

  PredictRequest pinned;
  pinned.slot = frontier;
  PredictResponse cached = h.service.Predict(pinned);
  ASSERT_TRUE(cached.ok()) << cached.status.ToString();
  ASSERT_EQ(h.service.cache_stats().misses.load(), 1u);

  // Advance until slot `frontier`'s history is overwritten. Stop one slot
  // short of the dataset end so the final "latest" request below resolves
  // to a slot Expected() can still compute.
  for (int t = frontier; t < h.flow.num_slots - 1; ++t) {
    ASSERT_TRUE(h.ring.Push(t, h.flow.inflow[t], h.flow.outflow[t]).ok());
  }
  ASSERT_GT(h.ring.min_servable_slot(), frontier);
  EXPECT_GT(h.service.cache_stats().invalidations.load(), 0u);

  PredictResponse stale = h.service.Predict(pinned);
  EXPECT_EQ(stale.kind, PredictResponse::Kind::kFailed);
  EXPECT_EQ(stale.status.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(stale.status.message().find("overwritten"), std::string::npos);
  // The fresh frontier still serves, bit-identical to the direct path.
  PredictResponse live = h.service.Predict({});
  ASSERT_TRUE(live.ok()) << live.status.ToString();
  ExpectBitEqual(live.predictions, h.Expected(live.slot));
}

// Fault injection: concurrent ingest, hot-swaps, and predictions. Every
// response must be either a typed failure or bitwise one (slot, version)'s
// output — no torn reads, no stale-slot rows, no drops. TSAN-clean.
TEST(SlotCacheServingTest, ConcurrentPushSwapPredictNoTornReads) {
  CacheHarness h({.num_workers = 2, .max_batch = 8, .max_queue = 4096});
  const auto model_b = MakeModel(h.flow.num_stations, h.config, 77);
  h.PublishModel();  // v1 = A; swapper alternates B, A, ... (even = B)
  h.service.Start();

  std::thread pusher([&] {
    // One short of the dataset end: "latest" requests resolve to at most
    // frontier = num_slots - 1, which Expected() can verify against.
    for (int t = h.ring.next_slot(); t < h.flow.num_slots - 1; ++t) {
      const Status st = h.ring.Push(t, h.flow.inflow[t], h.flow.outflow[t]);
      STGNN_CHECK(st.ok()) << st.ToString();
      std::this_thread::yield();
    }
  });
  std::thread swapper([&] {
    for (int i = 0; i < 12; ++i) {
      h.registry.Publish(ModelSnapshot(i % 2 == 0 ? model_b : h.model,
                                       h.normalizer, h.scale, h.config));
      std::this_thread::yield();
    }
  });

  constexpr int kRequests = 120;
  std::vector<std::future<PredictResponse>> futures;
  futures.reserve(kRequests);
  for (int i = 0; i < kRequests; ++i) {
    futures.push_back(h.service.SubmitAsync({}));
  }
  pusher.join();
  swapper.join();

  // Drain every future before verifying, so the service stats below count
  // every request. Expected() needs no such ordering: a forward writes
  // nothing to the shared models, so it may run beside the workers'.
  std::vector<PredictResponse> responses;
  responses.reserve(futures.size());
  for (auto& future : futures) responses.push_back(future.get());

  int served = 0;
  for (PredictResponse& response : responses) {
    if (!response.ok()) {
      // The only legal failures are typed races with ingest: the window
      // straddled an in-flight invalidation or was overwritten.
      ASSERT_EQ(response.kind, PredictResponse::Kind::kFailed);
      ASSERT_EQ(response.status.code(), StatusCode::kFailedPrecondition)
          << response.status.ToString();
      continue;
    }
    ++served;
    const core::StgnnDjdModel& m =
        (response.model_version % 2 == 1) ? *h.model : *model_b;
    ExpectBitEqual(response.predictions,
                   h.Expected(m, response.slot));
  }
  EXPECT_GT(served, 0);
  const ServiceStats stats = h.service.stats();
  EXPECT_EQ(stats.served, served);
  EXPECT_EQ(stats.shed_queue_full + stats.shed_deadline, 0);
}

}  // namespace
}  // namespace stgnn::serve
