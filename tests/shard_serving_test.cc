// Sharded serving battery: cluster-aware partitioning, halo-row counting,
// sharded-vs-unsharded bitwise parity at 1/2/4 shards across ring
// wraparounds and worker counts, cluster-local and scattered station-set
// routing, the sparse-FCG replay path, quantized sharded parity,
// hot-swap under load with zero torn (mixed-version) responses, refused
// fleet ingest, and typed errors for malformed build-round payloads. Runs
// under TSAN in CI.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/graph_generator.h"
#include "data/window.h"
#include "graph/partition.h"
#include "gtest/gtest.h"
#include "serve/feature_ring.h"
#include "serve/model_registry.h"
#include "serve/prediction_service.h"
#include "serve/shard_engine.h"
#include "serve/shard_router.h"
#include "tensor/csr.h"

namespace stgnn::serve {
namespace {

using tensor::Tensor;

// Deterministic dataset with district-local structure: `districts` blocks
// of `per_district` stations, flows heavier inside a block than across.
data::FlowDataset MakeFlow(int districts, int per_district,
                           int slots_per_day = 6, int days = 4) {
  const int n = districts * per_district;
  data::FlowDataset flow;
  flow.city_name = "shard-test";
  flow.num_stations = n;
  flow.slots_per_day = slots_per_day;
  flow.num_slots = slots_per_day * days;
  common::Rng rng(1234);
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
  config.fcg_layers = 2;
  config.pcg_layers = 2;
  config.attention_heads = 2;
  config.dropout = 0.0f;
  config.horizon = 1;
  config.seed = 5;
  config.serve_cache = true;
  return config;
}

std::shared_ptr<const core::StgnnDjdModel> MakeModel(
    int n, const core::StgnnConfig& config, uint64_t seed) {
  common::Rng rng(seed);
  return std::make_shared<const core::StgnnDjdModel>(n, config, &rng);
}

void ExpectBitEqual(const Tensor& got, const Tensor& want) {
  ASSERT_EQ(got.shape(), want.shape());
  for (int64_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(got.flat(i), want.flat(i)) << "element " << i;
  }
}

// -- Partitioner ------------------------------------------------------------

TEST(PartitionTest, KeepsDistrictsWholeAndBalances) {
  const graph::Partition p = graph::PartitionStations(4, 2, 2);
  EXPECT_EQ(p.num_stations, 8);
  EXPECT_EQ(p.num_shards, 2);
  // Greedy lightest-shard, ties to the lowest id: d0->s0, d1->s1, d2->s0,
  // d3->s1.
  EXPECT_EQ(p.owned[0], (std::vector<int>{0, 1, 4, 5}));
  EXPECT_EQ(p.owned[1], (std::vector<int>{2, 3, 6, 7}));
  for (int d = 0; d < 4; ++d) {
    // District integrity: one owner per district block.
    EXPECT_EQ(p.owner[2 * d], p.owner[2 * d + 1]) << "district " << d;
  }
}

TEST(PartitionTest, DeterministicAndDegenerate) {
  const graph::Partition a = graph::PartitionStations(5, 3, 3);
  const graph::Partition b = graph::PartitionStations(5, 3, 3);
  EXPECT_EQ(a.owner, b.owner);

  // K=1: everything on shard 0.
  const graph::Partition one = graph::PartitionStations(4, 2, 1);
  EXPECT_EQ(one.num_shards, 1);
  EXPECT_EQ(static_cast<int>(one.owned[0].size()), 8);

  // K clamps to the district count — a shard can't own half a cluster.
  const graph::Partition clamped = graph::PartitionStations(3, 2, 8);
  EXPECT_EQ(clamped.num_shards, 3);
  for (const auto& owned : clamped.owned) {
    EXPECT_EQ(static_cast<int>(owned.size()), 2);
  }
}

// -- Halo counting ----------------------------------------------------------

TEST(HaloRowsTest, EmptyCutAndBoundaryAndDegenerate) {
  // Block-diagonal adjacency, owner matching the blocks: empty cut.
  const int n = 4;
  Tensor block({n, n});
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      block.at(i, j) = (i / 2 == j / 2) ? 1.0f : 0.0f;
    }
  }
  const tensor::Csr diag = tensor::Csr::FromDense(block);
  const std::vector<int> owner{0, 0, 1, 1};
  EXPECT_EQ(core::CountHaloRows(diag, owner, 0), 0);
  EXPECT_EQ(core::CountHaloRows(diag, owner, 1), 0);

  // One boundary station: station 1 also reads station 2 (remote).
  block.at(1, 2) = 1.0f;
  const tensor::Csr cut = tensor::Csr::FromDense(block);
  EXPECT_EQ(core::CountHaloRows(cut, owner, 0), 1);
  EXPECT_EQ(core::CountHaloRows(cut, owner, 1), 0);

  // The same remote neighbour reached from two rows counts once.
  block.at(0, 2) = 1.0f;
  const tensor::Csr dedup = tensor::Csr::FromDense(block);
  EXPECT_EQ(core::CountHaloRows(dedup, owner, 0), 1);

  // K=1 degenerate: no remote stations at all.
  const std::vector<int> all_zero(n, 0);
  EXPECT_EQ(core::CountHaloRows(dedup, all_zero, 0), 0);
}

// -- Sharded serving --------------------------------------------------------

// Side-by-side harness: an unsharded reference service and a K-shard fleet
// behind a router, fed the identical ingest stream and model.
struct ShardHarness {
  ShardHarness(int num_shards, int service_workers,
               core::StgnnConfig config_in, int districts = 4,
               int per_district = 2)
      : flow(MakeFlow(districts, per_district)),
        config(config_in),
        scale(1.0f / flow.max_train_flow),
        normalizer(data::MinMaxNormalizer::Fit(flow.demand, flow.supply,
                                               flow.train_end)),
        partition(
            graph::PartitionStations(districts, per_district, num_shards)),
        ring(flow.num_stations, config.short_term_slots, config.long_term_days,
             flow.slots_per_day, scale),
        model(MakeModel(flow.num_stations, config, 7)),
        reference(&registry, &ring,
                  {.num_workers = service_workers, .max_batch = 4,
                   .max_queue = 64}),
        fleet(partition, config.short_term_slots, config.long_term_days,
              flow.slots_per_day, scale,
              {.service = {.num_workers = service_workers, .max_batch = 4,
                           .max_queue = 64}}),
        router(&fleet, {.num_workers = 2, .max_queue = 64}) {
    const int frontier = ring.first_predictable_slot() + 2;
    for (int t = 0; t < frontier; ++t) PushBoth(t);
  }

  void PushBoth(int t) {
    ASSERT_TRUE(ring.Push(t, flow.inflow[t], flow.outflow[t]).ok());
    ASSERT_TRUE(fleet.Push(t, flow.inflow[t], flow.outflow[t]).ok());
  }

  uint64_t PublishBoth(ModelSnapshot snapshot) {
    const uint64_t v1 = registry.Publish(snapshot);
    const uint64_t v2 = fleet.Publish(snapshot);
    EXPECT_EQ(v1, v2);
    return v2;
  }
  uint64_t PublishBoth() {
    return PublishBoth(ModelSnapshot(model, normalizer, scale, config));
  }

  void StartBoth() {
    reference.Start();
    fleet.Start();
    router.Start();
  }

  data::FlowDataset flow;
  core::StgnnConfig config;
  float scale;
  data::MinMaxNormalizer normalizer;
  graph::Partition partition;
  ModelRegistry registry;
  FeatureRing ring;
  std::shared_ptr<const core::StgnnDjdModel> model;
  PredictionService reference;
  ShardFleet fleet;
  ShardRouter router;
};

// Full-city queries at every frontier across three ring wraparounds, at
// 1/2/4 shards and 1/2/7 per-shard workers: the router's merged response
// must be bitwise equal to the unsharded service's.
TEST(ShardServingTest, ShardedVsUnshardedBitwiseParity) {
  for (int shards : {1, 2, 4}) {
    for (int workers : {1, 2, 7}) {
      SCOPED_TRACE("shards=" + std::to_string(shards) +
                   " workers=" + std::to_string(workers));
      ShardHarness h(shards, workers, TestConfig());
      h.PublishBoth();
      h.StartBoth();
      for (int t = h.ring.next_slot(); t < h.flow.num_slots; ++t) {
        PredictResponse want = h.reference.Predict({});
        ASSERT_TRUE(want.ok()) << want.status.ToString();
        for (int rep = 0; rep < 2; ++rep) {
          PredictResponse got = h.router.Predict({});
          ASSERT_TRUE(got.ok()) << got.status.ToString();
          EXPECT_EQ(got.slot, want.slot);
          EXPECT_EQ(got.model_version, want.model_version);
          ExpectBitEqual(got.predictions, want.predictions);
        }
        h.PushBoth(t);
      }
      const RouterStats stats = h.router.stats();
      EXPECT_EQ(stats.failed, 0);
      EXPECT_GT(stats.merges, 0);
    }
  }
}

// Ingest that lands after the router resolved "latest" to the frontier F,
// but before F's contexts are built, can overwrite history F needs. The
// request must follow the frontier instead of failing, bitwise equal to
// the unsharded answer there; a request that named F keeps the typed error.
TEST(ShardServingTest, LatestFollowsFrontierPastOverwrittenSlot) {
  for (int shards : {1, 4}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    ShardHarness h(shards, /*service_workers=*/1, TestConfig());
    h.PublishBoth();
    const int resolved = h.fleet.next_slot();
    // F needs [F - window, F) and a ring keeps window + 2 slots, so the
    // third push past F overwrites F - window.
    const int pushes =
        h.ring.capacity() - h.ring.first_predictable_slot() + 1;
    ASSERT_LE(resolved + pushes, h.flow.num_slots);
    std::atomic<bool> pushed{false};
    h.router.SetResolvedHookForTest([&](int slot) {
      if (slot != resolved || pushed.exchange(true)) return;
      for (int t = resolved; t < resolved + pushes; ++t) h.PushBoth(t);
    });
    h.StartBoth();

    const PredictResponse got = h.router.Predict({});
    ASSERT_TRUE(got.ok()) << got.status.ToString();
    EXPECT_TRUE(pushed.load());
    EXPECT_EQ(got.slot, resolved + pushes);
    const PredictResponse want = h.reference.Predict({});
    ASSERT_TRUE(want.ok()) << want.status.ToString();
    EXPECT_EQ(want.slot, got.slot);
    ExpectBitEqual(got.predictions, want.predictions);
    EXPECT_EQ(h.router.stats().failed, 0);
    EXPECT_GE(h.router.stats().retries, 1);

    PredictRequest pinned;
    pinned.slot = resolved;
    const PredictResponse stale = h.router.Predict(pinned);
    EXPECT_EQ(stale.kind, PredictResponse::Kind::kFailed);
    EXPECT_EQ(stale.status.code(), StatusCode::kFailedPrecondition);
    EXPECT_NE(stale.status.message().find("overwritten"), std::string::npos);
    h.router.Stop();
    h.fleet.Stop();
    h.reference.Stop();
  }
}

// Station-set routing: a cluster-local query fans to exactly one shard, a
// scattered query to several; both return rows in request-station order,
// bitwise equal to the matching unsharded rows.
TEST(ShardServingTest, StationSubsetsRouteAndMergeInRequestOrder) {
  ShardHarness h(/*num_shards=*/2, /*service_workers=*/2, TestConfig());
  h.PublishBoth();
  h.StartBoth();

  // Cluster-local: district 0 lives wholly on one shard.
  const std::vector<int> local{0, 1};
  // Scattered, deliberately out of ascending order and cross-shard.
  const std::vector<int> scattered{7, 0, 5, 2};
  for (const std::vector<int>& stations : {local, scattered}) {
    PredictRequest request;
    request.stations = stations;
    PredictResponse want = h.reference.Predict(request);
    PredictResponse got = h.router.Predict(request);
    ASSERT_TRUE(want.ok()) << want.status.ToString();
    ASSERT_TRUE(got.ok()) << got.status.ToString();
    ExpectBitEqual(got.predictions, want.predictions);
  }
  // The local query fanned to one shard; the scattered one to both.
  const RouterStats stats = h.router.stats();
  EXPECT_EQ(stats.fanouts, 2);

  // Out-of-range stations fail typed at the router, before any fan-out.
  PredictRequest bad;
  bad.stations = {99};
  PredictResponse rejected = h.router.Predict(bad);
  EXPECT_EQ(rejected.kind, PredictResponse::Kind::kFailed);
  EXPECT_EQ(h.router.stats().fanouts, stats.fanouts);
}

// The sparse-FCG replay plan (closure walk + SpMM) must stay bitwise equal
// to the unsharded branch, which dispatches sparse below the same density
// threshold.
TEST(ShardServingTest, SparseFcgReplayParity) {
  core::StgnnConfig config = TestConfig();
  config.sparse_density_threshold = 1.0f;  // always dispatch sparse
  ShardHarness h(/*num_shards=*/2, /*service_workers=*/1, config);
  h.PublishBoth();
  h.StartBoth();
  for (int rep = 0; rep < 3; ++rep) {
    PredictResponse want = h.reference.Predict({});
    PredictResponse got = h.router.Predict({});
    ASSERT_TRUE(want.ok()) << want.status.ToString();
    ASSERT_TRUE(got.ok()) << got.status.ToString();
    ExpectBitEqual(got.predictions, want.predictions);
  }
}

// Without the aggregators' self term the replay passes the layers no self
// rows, on the sparse FCG plan and in every attention layer.
TEST(ShardServingTest, NoSelfTermReplayParity) {
  core::StgnnConfig config = TestConfig();
  config.sparse_density_threshold = 1.0f;  // always dispatch sparse
  config.aggregator_self_term = false;
  ShardHarness h(/*num_shards=*/2, /*service_workers=*/1, config);
  h.PublishBoth();
  h.StartBoth();
  PredictResponse want = h.reference.Predict({});
  PredictResponse got = h.router.Predict({});
  ASSERT_TRUE(want.ok()) << want.status.ToString();
  ASSERT_TRUE(got.ok()) << got.status.ToString();
  ExpectBitEqual(got.predictions, want.predictions);
}

// Quantized snapshots shard bitwise too: the int8 dispatch keys on the
// B-operand parameter identity, which the sharded forward preserves by
// construction, and activation quantisation is per-row.
TEST(ShardServingTest, QuantizedShardedParity) {
  core::StgnnConfig config = TestConfig();
  ShardHarness h(/*num_shards=*/2, /*service_workers=*/1, config);
  ModelSnapshot snapshot(h.model, h.normalizer, h.scale, h.config);
  QuantizeSnapshot(&snapshot, tensor::Precision::kInt8);
  ASSERT_NE(snapshot.quantized, nullptr);
  h.PublishBoth(snapshot);
  h.StartBoth();
  PredictResponse want = h.reference.Predict({});
  PredictResponse got = h.router.Predict({});
  ASSERT_TRUE(want.ok()) << want.status.ToString();
  ASSERT_TRUE(got.ok()) << got.status.ToString();
  ExpectBitEqual(got.predictions, want.predictions);
}

// Ablated configs can't shard; the router surfaces the shard engine's typed
// refusal instead of wedging.
TEST(ShardServingTest, NonShardableConfigFailsTyped) {
  core::StgnnConfig config = TestConfig();
  config.ablation.use_fcg = false;
  ShardHarness h(/*num_shards=*/2, /*service_workers=*/1, config);
  h.fleet.Publish(
      ModelSnapshot(h.model, h.normalizer, h.scale, config));
  h.fleet.Start();
  h.router.Start();
  PredictResponse response = h.router.Predict({});
  EXPECT_EQ(response.kind, PredictResponse::Kind::kFailed);
  EXPECT_NE(response.status.message().find("sharded serving requires"),
            std::string::npos)
      << response.status.ToString();
}

// Hot-swap under concurrent load: every served response must be wholly one
// version's rows — bitwise equal to that version's direct forward — and the
// router must never merge a torn mix (enforced by version checks + retry).
TEST(ShardServingTest, HotSwapUnderLoadNeverTearsVersions) {
  ShardHarness h(/*num_shards=*/2, /*service_workers=*/2, TestConfig());
  std::vector<std::shared_ptr<const core::StgnnDjdModel>> models;
  const int kVersions = 4;
  for (int v = 0; v < kVersions; ++v) {
    models.push_back(MakeModel(h.flow.num_stations, h.config, 100 + v));
  }
  const int frontier = h.ring.next_slot();
  // Per-version expected full-city rows at the fixed frontier.
  std::vector<Tensor> expected;
  const data::StHistory history = data::BuildStHistory(
      h.flow, frontier, h.config.short_term_slots, h.config.long_term_days,
      h.scale);
  for (const auto& m : models) {
    const autograd::Variable out =
        m->Forward(history, /*training=*/false, nullptr);
    expected.push_back(tensor::Relu(h.normalizer.Denormalize(out.value())));
  }

  h.fleet.Publish(ModelSnapshot(models[0], h.normalizer, h.scale, h.config));
  h.fleet.Start();
  h.router.Start();

  std::atomic<bool> done{false};
  std::atomic<int> served{0};
  std::vector<std::thread> clients;
  std::atomic<bool> torn{false};
  for (int c = 0; c < 3; ++c) {
    clients.emplace_back([&] {
      while (!done.load()) {
        PredictResponse response = h.router.Predict({});
        if (!response.ok()) continue;  // version race mid-swap: retried out
        const int v = static_cast<int>(response.model_version) - 1;
        ASSERT_GE(v, 0);
        ASSERT_LT(v, kVersions);
        const Tensor& want = expected[v];
        ASSERT_EQ(response.predictions.shape(), want.shape());
        for (int64_t i = 0; i < want.size(); ++i) {
          if (response.predictions.flat(i) != want.flat(i)) {
            torn.store(true);
            return;
          }
        }
        served.fetch_add(1);
      }
    });
  }
  for (int v = 1; v < kVersions; ++v) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    h.fleet.Publish(ModelSnapshot(models[v], h.normalizer, h.scale, h.config));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  done.store(true);
  for (auto& c : clients) c.join();
  EXPECT_FALSE(torn.load()) << "a response mixed rows from two versions";
  EXPECT_GT(served.load(), 0);
  EXPECT_EQ(h.router.stats().failed, 0);
}

// A publisher held up between shard swaps (5 ms before each swap after the
// first) must not fail a request: a router retry waits for the in-flight
// publish instead of spending its retries against shards still on the old
// version.
TEST(ShardServingTest, RetriesWaitOutAnInFlightFleetPublish) {
  ShardHarness h(/*num_shards=*/2, /*service_workers=*/2, TestConfig());
  const int kVersions = 4;
  std::vector<std::shared_ptr<const core::StgnnDjdModel>> models;
  for (int v = 0; v < kVersions; ++v) {
    models.push_back(MakeModel(h.flow.num_stations, h.config, 200 + v));
  }
  h.fleet.SetPublishHookForTest([](int) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  });
  h.fleet.Publish(ModelSnapshot(models[0], h.normalizer, h.scale, h.config));
  h.fleet.Start();
  h.router.Start();

  std::atomic<bool> done{false};
  std::atomic<int> served{0};
  std::atomic<int> failed{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 3; ++c) {
    clients.emplace_back([&] {
      while (!done.load()) {
        const PredictResponse response = h.router.Predict({});
        response.ok() ? served.fetch_add(1) : failed.fetch_add(1);
      }
    });
  }
  for (int v = 1; v < kVersions; ++v) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    h.fleet.Publish(ModelSnapshot(models[v], h.normalizer, h.scale, h.config));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  done.store(true);
  for (auto& c : clients) c.join();
  EXPECT_GT(served.load(), 0);
  EXPECT_EQ(failed.load(), 0);
  EXPECT_EQ(h.router.stats().failed, 0);
  EXPECT_EQ(h.fleet.current_version(), static_cast<uint64_t>(kVersions));
}

// Every shard's ring checks the whole [n, n] slot, owned rows or not, so a
// NaN in a row only the last shard stores is refused by shard 0 before any
// shard commits: no shard's frontier moves. The corrected slot then pushes
// and serves bitwise like the unsharded service.
TEST(ShardServingTest, RefusedFleetPushMovesNoShard) {
  ShardHarness h(/*num_shards=*/4, /*service_workers=*/1, TestConfig());
  h.PublishBoth();
  h.StartBoth();
  const int frontier = h.fleet.next_slot();
  const int station = h.partition.owned[3].back();
  Tensor bad = h.flow.outflow[frontier];
  bad.at(station, 0) = std::numeric_limits<float>::quiet_NaN();
  const Status refused =
      h.fleet.Push(frontier, h.flow.inflow[frontier], bad);
  EXPECT_EQ(refused.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(refused.message().find("outflow[" + std::to_string(station) +
                                   ", 0]"),
            std::string::npos)
      << refused.ToString();
  for (int s = 0; s < h.fleet.num_shards(); ++s) {
    EXPECT_EQ(h.fleet.engine(s)->next_slot(), frontier) << "shard " << s;
  }

  h.PushBoth(frontier);
  const PredictResponse want = h.reference.Predict({});
  const PredictResponse got = h.router.Predict({});
  ASSERT_TRUE(want.ok()) << want.status.ToString();
  ASSERT_TRUE(got.ok()) << got.status.ToString();
  EXPECT_EQ(got.slot, frontier + 1);
  ExpectBitEqual(got.predictions, want.predictions);
}

// A build round whose payload has the wrong shape (a socket transport
// would read it off the wire) fails typed, and the same build then
// completes with well-formed payloads: the engine still serves, bitwise
// like the unsharded service. One shard owns every row, so each round's
// exports are the next round's full payloads.
TEST(ShardServingTest, MalformedRoundPayloadsFailTypedAndTheEngineServes) {
  ShardHarness h(/*num_shards=*/1, /*service_workers=*/1, TestConfig());
  const uint64_t version = h.PublishBoth();
  ShardEngine* engine = h.fleet.engine(0);
  const int slot = h.fleet.next_slot();
  const int n = h.flow.num_stations;
  auto expect_malformed = [](const Status& status) {
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
        << status.ToString();
    EXPECT_NE(status.message().find("malformed shard round payload"),
              std::string::npos)
        << status.ToString();
  };

  const ShardConvRows conv = engine->ConvRows(slot, version).ValueOrDie();
  expect_malformed(engine
                       ->FuseRows(slot, version, conv.inflow_short,
                                  conv.outflow_short, Tensor({n, n - 1}),
                                  conv.outflow_long)
                       .status());
  const ShardFusedRows fused =
      engine
          ->FuseRows(slot, version, conv.inflow_short, conv.outflow_short,
                     conv.inflow_long, conv.outflow_long)
          .ValueOrDie();

  expect_malformed(engine
                       ->BuildLocal(slot, version, fused.temporal_inflow,
                                    fused.temporal_outflow,
                                    Tensor({n + 1, n}))
                       .status());
  PcgHeadExports exports =
      engine
          ->BuildLocal(slot, version, fused.temporal_inflow,
                       fused.temporal_outflow, fused.node_features)
          .ValueOrDie();

  for (int layer = 0; !exports.d.empty(); ++layer) {
    PcgLayerHalo halo;
    for (size_t u = 0; u < exports.d.size(); ++u) {
      halo.d_full.push_back(exports.d[u].Transpose());
      halo.v_full.push_back(exports.v[u]);
    }
    PcgLayerHalo missing_head = halo;
    missing_head.v_full.pop_back();
    expect_malformed(
        engine->PcgLayer(slot, version, layer, missing_head).status());
    PcgLayerHalo column_scores = halo;
    column_scores.d_full[0] = exports.d[0];  // [n, 1], not [1, n]
    expect_malformed(
        engine->PcgLayer(slot, version, layer, column_scores).status());
    PcgLayerHalo narrow_values = halo;
    narrow_values.v_full[1] = Tensor({n, 1});
    expect_malformed(
        engine->PcgLayer(slot, version, layer, narrow_values).status());
    exports = engine->PcgLayer(slot, version, layer, halo).ValueOrDie();
  }
  EXPECT_TRUE(engine->HasContext(slot, version));

  h.StartBoth();
  const PredictResponse want = h.reference.Predict({});
  const PredictResponse got = h.router.Predict({});
  ASSERT_TRUE(want.ok()) << want.status.ToString();
  ASSERT_TRUE(got.ok()) << got.status.ToString();
  EXPECT_EQ(got.slot, slot);
  ExpectBitEqual(got.predictions, want.predictions);
}

}  // namespace
}  // namespace stgnn::serve
