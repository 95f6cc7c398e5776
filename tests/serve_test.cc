// Serving runtime battery: feature-ring assembly parity and wraparound
// (sparse cells against the dense offline builder, bit for bit), ingest
// validation, the online trainer's sparse-store scores, typed
// insufficient-history errors, latency histogram, model registry
// hot-swap (including the checkpoint path), micro-batched serving that is
// bit-identical to a direct StgnnDjdModel::Forward at 1/2/7 workers,
// hot-swap under load with zero dropped or torn requests, the
// admission-control / deadline shedding semantics, and late binding of
// requests that arrive during a forward. Runs under TSAN in CI.

#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstring>
#include <functional>
#include <future>
#include <limits>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <unistd.h>

#include "common/rng.h"
#include "common/trace.h"
#include "data/window.h"
#include "gtest/gtest.h"
#include "nn/serialize.h"
#include "online/online_trainer.h"
#include "serve/engine.h"
#include "serve/feature_ring.h"
#include "serve/histogram.h"
#include "serve/model_registry.h"
#include "serve/prediction_service.h"

namespace stgnn::serve {
namespace {

using tensor::Tensor;

// A small deterministic flow dataset: integer-count flow matrices with the
// demand/supply row sums the paper defines. Big enough to exercise the
// model, small enough for TSAN.
data::FlowDataset MakeFlow(int n = 8, int slots_per_day = 6, int days = 4) {
  data::FlowDataset flow;
  flow.city_name = "serve-test";
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

// The direct (non-serving) prediction path: Forward -> Denormalize -> Relu,
// exactly like StgnnDjdPredictor::PredictHorizon.
Tensor DirectPrediction(const core::StgnnDjdModel& model,
                        const data::MinMaxNormalizer& normalizer,
                        const data::StHistory& history) {
  const autograd::Variable out =
      model.Forward(history, /*training=*/false, nullptr);
  return tensor::Relu(normalizer.Denormalize(out.value()));
}

void FillRing(FeatureRing* ring, const data::FlowDataset& flow, int upto) {
  for (int t = ring->next_slot(); t < upto; ++t) {
    ASSERT_TRUE(ring->Push(t, flow.inflow[t], flow.outflow[t]).ok());
  }
}

void ExpectBitEqual(const Tensor& got, const Tensor& want) {
  ASSERT_EQ(got.shape(), want.shape());
  for (int64_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(got.flat(i), want.flat(i)) << "element " << i;
  }
}

// --- FeatureRing -----------------------------------------------------------

TEST(FeatureRingTest, MatchesBuildStHistoryAcrossWraparound) {
  const data::FlowDataset flow = MakeFlow();
  const int k = 3;
  const int d = 1;
  const float scale = 0.5f;
  FeatureRing ring(flow.num_stations, k, d, flow.slots_per_day, scale);
  // window = max(3, 6) = 6, capacity 8; pushing all 24 slots wraps the
  // storage three times. At every frontier the assembled history must be
  // bit-identical to the offline BuildStHistory.
  ASSERT_EQ(ring.capacity(), 8);
  for (int t = 0; t < flow.num_slots; ++t) {
    if (t >= ring.first_predictable_slot()) {
      ASSERT_TRUE(ring.ReadyFor(t));
      const Result<data::StHistory> assembled = ring.History(t);
      ASSERT_TRUE(assembled.ok()) << assembled.status().ToString();
      const data::StHistory direct =
          data::BuildStHistory(flow, t, k, d, scale);
      ExpectBitEqual((*assembled).inflow_short, direct.inflow_short);
      ExpectBitEqual((*assembled).outflow_short, direct.outflow_short);
      ExpectBitEqual((*assembled).inflow_long, direct.inflow_long);
      ExpectBitEqual((*assembled).outflow_long, direct.outflow_long);
    }
    ASSERT_TRUE(ring.Push(t, flow.inflow[t], flow.outflow[t]).ok());
  }
}

TEST(FeatureRingTest, TypedErrors) {
  const data::FlowDataset flow = MakeFlow();
  FeatureRing ring(flow.num_stations, 3, 1, flow.slots_per_day, 1.0f);
  FillRing(&ring, flow, flow.num_slots);
  const int frontier = ring.next_slot();

  // Insufficient history is a typed error, not an abort or a clamp.
  EXPECT_EQ(ring.History(ring.first_predictable_slot() - 1).status().code(),
            StatusCode::kFailedPrecondition);
  // Beyond the ingest frontier: the history does not exist yet.
  EXPECT_EQ(ring.History(frontier + 1).status().code(),
            StatusCode::kOutOfRange);
  // Far enough behind the frontier that the ring overwrote its context.
  const Status overwritten = ring.History(frontier - 5).status();
  EXPECT_EQ(overwritten.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(overwritten.message().find("overwritten"), std::string::npos);
  // Out-of-order ingest and shape mismatches are rejected.
  EXPECT_EQ(ring.Push(frontier + 2, flow.inflow[0], flow.outflow[0]).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ring.Push(frontier, Tensor({2, 2}), Tensor({2, 2})).code(),
            StatusCode::kInvalidArgument);
}

TEST(FeatureRingTest, RePushOfIngestedOrOverwrittenSlotFailsTyped) {
  const data::FlowDataset flow = MakeFlow();
  FeatureRing ring(flow.num_stations, 3, 1, flow.slots_per_day, 1.0f);
  FillRing(&ring, flow, flow.num_slots);
  const int frontier = ring.next_slot();

  // A still-retained slot: re-ingesting would rewrite live served history.
  const Status live = ring.Push(frontier - 1, flow.inflow[0], flow.outflow[0]);
  EXPECT_EQ(live.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(live.message().find("already ingested"), std::string::npos);
  // A slot the ring already overwrote fails the same way, flagged as such.
  const Status old = ring.Push(0, flow.inflow[0], flow.outflow[0]);
  EXPECT_EQ(old.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(old.message().find("overwritten"), std::string::npos);
  // Neither failure perturbed the ring: the frontier still serves.
  EXPECT_TRUE(ring.History(frontier).ok());
  EXPECT_EQ(ring.next_slot(), frontier);
}

TEST(FeatureRingTest, HistoryStraddlingInFlightIngestFailsTyped) {
  const data::FlowDataset flow = MakeFlow();
  FeatureRing ring(flow.num_stations, 3, 1, flow.slots_per_day, 1.0f);
  FillRing(&ring, flow, flow.num_slots);  // full: retains [16, 24), cap 8
  const int frontier = ring.next_slot();  // 24

  // The pause hook runs between the ingest reserve and the row copy, on
  // this thread with no lock held: Push(24) is mid-overwrite of the cell
  // holding slot 16 (= 24 - capacity). A window needing slot 16 must fail
  // typed; windows that don't still assemble during the in-flight copy.
  bool hook_ran = false;
  ring.SetIngestPauseForTest([&] {
    hook_ran = true;
    const Status straddle = ring.History(frontier - 2).status();  // 16..21
    EXPECT_EQ(straddle.code(), StatusCode::kFailedPrecondition);
    EXPECT_NE(straddle.message().find("in-flight"), std::string::npos);
    EXPECT_TRUE(ring.History(frontier - 1).ok());  // needs 17..22
    EXPECT_TRUE(ring.History(frontier).ok());      // needs 18..23
  });
  ASSERT_TRUE(ring.Push(frontier, flow.inflow[0], flow.outflow[0]).ok());
  ring.SetIngestPauseForTest(nullptr);
  EXPECT_TRUE(hook_ran);

  // After the commit the same request fails typed as overwritten.
  const Status after = ring.History(frontier - 2).status();
  EXPECT_EQ(after.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(after.message().find("overwritten"), std::string::npos);
  EXPECT_TRUE(ring.History(frontier + 1).ok());
}

TEST(FeatureRingTest, SnapshotWindowCopiesExactScaledRowsOrFailsTyped) {
  const data::FlowDataset flow = MakeFlow();
  const float scale = 0.5f;
  FeatureRing ring(flow.num_stations, 3, 1, flow.slots_per_day, scale);
  FillRing(&ring, flow, flow.num_slots);
  const int frontier = ring.next_slot();          // 24
  const int oldest = frontier - ring.capacity();  // 16: retains [16, 24)

  // A retained range copies out exactly the pre-scaled stored rows.
  const Result<SlotWindow> window = ring.SnapshotWindow(oldest, frontier - 1);
  ASSERT_TRUE(window.ok()) << window.status().ToString();
  EXPECT_EQ((*window).first, oldest);
  EXPECT_EQ((*window).count(), ring.capacity());
  EXPECT_EQ((*window).last(), frontier - 1);
  for (int slot = oldest; slot < frontier; ++slot) {
    Tensor want_in = flow.inflow[slot];
    Tensor want_out = flow.outflow[slot];
    for (float& v : want_in.mutable_data()) v *= scale;
    for (float& v : want_out.mutable_data()) v *= scale;
    ExpectBitEqual((*window).inflow[slot - oldest].ToDense(), want_in);
    ExpectBitEqual((*window).outflow[slot - oldest].ToDense(), want_out);
  }
  // A single-slot range works too.
  ASSERT_TRUE(ring.SnapshotWindow(frontier - 1, frontier - 1).ok());

  // Malformed ranges.
  EXPECT_EQ(ring.SnapshotWindow(-1, 0).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ring.SnapshotWindow(frontier - 1, frontier - 2).status().code(),
            StatusCode::kInvalidArgument);
  // Not yet ingested: retry after the next Push, don't treat as fatal.
  EXPECT_EQ(ring.SnapshotWindow(frontier - 1, frontier).status().code(),
            StatusCode::kOutOfRange);
  // Fell behind retention (even when only the range's first slot did).
  const Status behind = ring.SnapshotWindow(oldest - 1, oldest).status();
  EXPECT_EQ(behind.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(behind.message().find("overwritten"), std::string::npos);

  // A copy that would straddle an in-flight overwrite fails typed; ranges
  // clear of the invalidated cell still copy out mid-ingest.
  bool hook_ran = false;
  ring.SetIngestPauseForTest([&] {
    hook_ran = true;
    const Status straddle =
        ring.SnapshotWindow(oldest, frontier - 1).status();
    EXPECT_EQ(straddle.code(), StatusCode::kFailedPrecondition);
    EXPECT_NE(straddle.message().find("in-flight"), std::string::npos);
    EXPECT_TRUE(ring.SnapshotWindow(oldest + 1, frontier - 1).ok());
  });
  ASSERT_TRUE(ring.Push(frontier, flow.inflow[0], flow.outflow[0]).ok());
  ring.SetIngestPauseForTest(nullptr);
  EXPECT_TRUE(hook_ran);
}

// Ingest races SnapshotWindow callers (the online trainer's read path):
// every successful copy must be bitwise-correct for its claimed range, and
// every refusal must be one of the three typed errors. Runs under TSAN.
TEST(FeatureRingTest, SnapshotWindowConcurrentWithIngestStaysConsistent) {
  const data::FlowDataset flow = MakeFlow();
  FeatureRing ring(flow.num_stations, 3, 1, flow.slots_per_day, 1.0f);
  FillRing(&ring, flow, ring.first_predictable_slot());

  std::atomic<bool> done{false};
  std::atomic<int> copies{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      while (!done.load()) {
        const int frontier = ring.next_slot();
        const Result<SlotWindow> window =
            ring.SnapshotWindow(frontier - 2, frontier - 1);
        if (!window.ok()) {
          const StatusCode code = window.status().code();
          ASSERT_TRUE(code == StatusCode::kInvalidArgument ||
                      code == StatusCode::kOutOfRange ||
                      code == StatusCode::kFailedPrecondition)
              << window.status().ToString();
          continue;
        }
        copies.fetch_add(1);
        ASSERT_EQ((*window).count(), 2);
        for (int i = 0; i < 2; ++i) {
          const int slot = (*window).first + i;
          ExpectBitEqual((*window).inflow[i].ToDense(), flow.inflow[slot]);
          ExpectBitEqual((*window).outflow[i].ToDense(), flow.outflow[slot]);
        }
      }
    });
  }
  for (int t = ring.next_slot(); t < flow.num_slots; ++t) {
    ASSERT_TRUE(ring.Push(t, flow.inflow[t], flow.outflow[t]).ok());
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  done.store(true);
  for (auto& r : readers) r.join();
  EXPECT_GT(copies.load(), 0);
}

// Counts frontier advances; the ring calls it under its mutex.
struct CountingListener : RingListener {
  void OnRingAdvance(int, int) override { ++advances; }
  int advances = 0;
};

// A value that is not a flow count (NaN, ±Inf, negative) in any row, owned
// or not, refuses the whole slot: nothing is stored, the frontier and the
// listener do not move, and the retained slot the push would have
// overwritten stays intact. -0.0 is a zero count, stored with its sign, and
// a corrected push of the refused slot succeeds.
TEST(FeatureRingTest, PushRefusesNonCountsAndLeavesTheRingIntact) {
  const data::FlowDataset flow = MakeFlow();
  const float scale = 0.5f;
  const float kBad[] = {std::numeric_limits<float>::quiet_NaN(),
                        std::numeric_limits<float>::infinity(),
                        -std::numeric_limits<float>::infinity(), -2.0f,
                        -std::numeric_limits<float>::denorm_min()};
  const std::vector<int> owned = {1, 4, 6};
  for (const std::vector<int>& rows : {std::vector<int>{}, owned}) {
    SCOPED_TRACE("owned rows " + std::to_string(rows.size()));
    CountingListener listener;
    FeatureRing ring(flow.num_stations, 3, 1, flow.slots_per_day, scale,
                     rows);
    ring.SetListener(&listener);
    FillRing(&ring, flow, 20);  // full: retains [12, 20)
    const int frontier = ring.next_slot();
    const int oldest = frontier - ring.capacity();
    const int advances = listener.advances;
    const SlotWindow before =
        ring.SnapshotWindow(oldest, frontier - 1).ValueOrDie();

    for (float bad : kBad) {
      for (const char* matrix : {"inflow", "outflow"}) {
        for (int row : {1, 2}) {  // station 2 is not owned by the shard
          Tensor in = flow.inflow[frontier];
          Tensor out = flow.outflow[frontier];
          (std::string(matrix) == "inflow" ? in : out).at(row, 5) = bad;
          const Status refused = ring.Push(frontier, in, out);
          EXPECT_EQ(refused.code(), StatusCode::kInvalidArgument)
              << refused.ToString();
          EXPECT_NE(refused.message().find(std::string(matrix) + "[" +
                                           std::to_string(row) + ", 5]"),
                    std::string::npos)
              << refused.ToString();
          EXPECT_EQ(ring.next_slot(), frontier);
          EXPECT_EQ(listener.advances, advances);
        }
      }
    }
    const SlotWindow after =
        ring.SnapshotWindow(oldest, frontier - 1).ValueOrDie();
    for (int i = 0; i < after.count(); ++i) {
      ExpectBitEqual(after.inflow[i].ToDense(), before.inflow[i].ToDense());
      ExpectBitEqual(after.outflow[i].ToDense(),
                     before.outflow[i].ToDense());
    }
    EXPECT_TRUE(ring.History(frontier).ok());

    Tensor in = flow.inflow[frontier];
    in.at(1, 2) = -0.0f;
    ASSERT_TRUE(ring.Push(frontier, in, flow.outflow[frontier]).ok());
    EXPECT_EQ(ring.next_slot(), frontier + 1);
    EXPECT_EQ(listener.advances, advances + 1);
    const Tensor stored =
        ring.SnapshotWindow(frontier, frontier).ValueOrDie().inflow[0]
            .ToDense();
    const int station_row = rows.empty() ? 1 : 0;  // station 1
    EXPECT_EQ(stored.at(station_row, 2), 0.0f);
    EXPECT_TRUE(std::signbit(stored.at(station_row, 2)));
    ring.SetListener(nullptr);
  }
}

// Flows with the bit patterns a sparse cell must keep exact. Rows cycle
// through all zeros, fully dense, and a sparse mix of +0.0, -0.0 (stored
// with its sign), the smallest denormal (scaled to +0.0 by 1/3, so not
// stored), a larger denormal (still denormal after scaling), `big`, and
// small counts.
data::FlowDataset MakeEdgeFlow(int n, int slots_per_day, int days,
                               float big) {
  data::FlowDataset flow;
  flow.city_name = "edge-bits";
  flow.num_stations = n;
  flow.slots_per_day = slots_per_day;
  flow.num_slots = slots_per_day * days;
  common::Rng rng(2024);
  const float denorm = std::numeric_limits<float>::denorm_min();
  auto value = [&](int style) -> float {
    if (style == 0) return 0.0f;
    if (style == 1) return static_cast<float>(rng.UniformInt(4) + 1);
    switch (rng.UniformInt(10)) {
      case 5: return -0.0f;
      case 6: return denorm;
      case 7: return 1e-40f;
      case 8: return big;
      case 9: return static_cast<float>(rng.UniformInt(4) + 1);
      default: return 0.0f;
    }
  };
  flow.demand = Tensor({flow.num_slots, n});
  flow.supply = Tensor({flow.num_slots, n});
  for (int t = 0; t < flow.num_slots; ++t) {
    Tensor in({n, n});
    Tensor out({n, n});
    for (int i = 0; i < n; ++i) {
      const int style = (i + t) % 4;
      for (int j = 0; j < n; ++j) {
        in.at(i, j) = value(style);
        out.at(i, j) = value(style);
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

void ExpectSameBits(const Tensor& got, const Tensor& want) {
  ASSERT_EQ(got.shape(), want.shape());
  EXPECT_EQ(std::memcmp(got.data().data(), want.data().data(),
                        want.data().size() * sizeof(float)),
            0);
}

// The [c, o*n] rows of a [c, n*n] history channel that a ring owning
// stations `owned` holds.
Tensor OwnedBlocks(const Tensor& channel, const std::vector<int>& owned,
                   int n) {
  const int channels = channel.dim(0);
  std::vector<int> rows;
  for (int c = 0; c < channels; ++c) {
    for (int r : owned) rows.push_back(c * n + r);
  }
  return tensor::GatherRows(channel.Reshape({channels * n, n}), rows)
      .Reshape({channels, static_cast<int>(owned.size()) * n});
}

void ExpectHistorySameBits(const data::StHistory& got,
                           const data::StHistory& want) {
  ExpectSameBits(got.inflow_short, want.inflow_short);
  ExpectSameBits(got.outflow_short, want.outflow_short);
  ExpectSameBits(got.inflow_long, want.inflow_long);
  ExpectSameBits(got.outflow_long, want.outflow_long);
}

// Every assembly from sparse cells is bitwise data::BuildStHistory's: the
// full ring's History, a scattered-rows ring's History, SnapshotWindow's
// copied cells, and the shared ScatterHistory the online trainer assembles
// its store with. n = 37 runs two 16-float scan blocks and a 5-float tail
// per row; 50 slots wrap the 12-slot ring four times.
TEST(FeatureRingTest, SparseCellsAssembleBitwiseLikeBuildStHistory) {
  const int n = 37;
  const int k = 3;
  const int d = 2;
  const int spd = 5;
  const float scale = 1.0f / 3.0f;
  const data::FlowDataset flow = MakeEdgeFlow(n, spd, /*days=*/10, 3e38f);
  const std::vector<int> scattered = {0, 5, 6, 17, 31, 36};
  FeatureRing full(n, k, d, spd, scale);
  FeatureRing shard(n, k, d, spd, scale, scattered);
  ASSERT_EQ(full.capacity(), 12);
  const int window = full.first_predictable_slot();
  for (int t = 0; t < flow.num_slots; ++t) {
    if (t >= window) {
      const data::StHistory want = data::BuildStHistory(flow, t, k, d, scale);
      ExpectHistorySameBits(full.History(t).ValueOrDie(), want);

      const data::StHistory rows = shard.History(t).ValueOrDie();
      ExpectSameBits(rows.inflow_short,
                     OwnedBlocks(want.inflow_short, scattered, n));
      ExpectSameBits(rows.outflow_short,
                     OwnedBlocks(want.outflow_short, scattered, n));
      ExpectSameBits(rows.inflow_long,
                     OwnedBlocks(want.inflow_long, scattered, n));
      ExpectSameBits(rows.outflow_long,
                     OwnedBlocks(want.outflow_long, scattered, n));

      // The trainer's path: cells copied out, then the shared scatter.
      const SlotWindow copied =
          full.SnapshotWindow(t - window, t - 1).ValueOrDie();
      std::vector<SlotFlows> store;
      for (int i = 0; i < copied.count(); ++i) {
        store.push_back({copied.inflow[i], copied.outflow[i]});
      }
      data::StHistory assembled = ZeroHistory(k, d, n * n);
      ScatterHistory(
          t, spd,
          [&](int slot) -> const SlotFlows& {
            return store[slot - copied.first];
          },
          &assembled);
      ExpectHistorySameBits(assembled, want);
    }
    ASSERT_TRUE(full.Push(t, flow.inflow[t], flow.outflow[t]).ok());
    ASSERT_TRUE(shard.Push(t, flow.inflow[t], flow.outflow[t]).ok());

    // The new cells hold exactly the scaled entries whose bits are not
    // +0.0, and densify to the scaled matrices bit for bit.
    const SlotWindow cell = full.SnapshotWindow(t, t).ValueOrDie();
    const SlotWindow cell_rows = shard.SnapshotWindow(t, t).ValueOrDie();
    for (int m = 0; m < 2; ++m) {
      const Tensor scaled =
          tensor::MulScalar(m == 0 ? flow.inflow[t] : flow.outflow[t], scale);
      const tensor::Csr& stored = m == 0 ? cell.inflow[0] : cell.outflow[0];
      int64_t kept = 0;
      for (float v : scaled.data()) kept += std::bit_cast<uint32_t>(v) != 0;
      EXPECT_EQ(stored.nnz(), kept);
      ExpectSameBits(stored.ToDense(), scaled);
      ExpectSameBits(
          (m == 0 ? cell_rows.inflow[0] : cell_rows.outflow[0]).ToDense(),
          tensor::GatherRows(scaled, scattered));
    }
  }
}

// The online trainer's holdout scores read its sparse store: each round's
// live RMSE and MAE must equal a reference built from the dense flows —
// BuildStHistory for the baseline's predictions, dense row sums of the
// scaled flows for the targets — accumulated in the gate's order.
TEST(FeatureRingTest, TrainerScoresItsSparseStoreLikeDenseRows) {
  const int n = 37;
  const int spd = 5;
  const core::StgnnConfig config = TestConfig(/*k=*/3, /*d=*/2);
  const float scale = 1.0f / 3.0f;
  const data::FlowDataset flow = MakeEdgeFlow(n, spd, /*days=*/10, 1e4f);
  const data::MinMaxNormalizer normalizer =
      data::MinMaxNormalizer::Fit(flow.demand, flow.supply, flow.train_end);
  const auto model = MakeModel(n, config, 11);
  ModelRegistry registry;
  registry.Publish(ModelSnapshot(model, normalizer, scale, config));
  FeatureRing ring(n, config.short_term_slots, config.long_term_days, spd,
                   scale);
  online::OnlineTrainerOptions options;
  options.steps_per_round = 1;
  options.train_window = 2;
  options.holdout_slots = 2;
  options.learning_rate = 1e-4f;
  options.improvement_margin = 1e9f;  // never publishes
  online::OnlineTrainer trainer(
      &ring, online::SnapshotChannel::ForRegistry(&registry), options);
  ASSERT_TRUE(trainer.WarmStart().ok());

  int evaluated = 0;
  for (int t = 0; t < flow.num_slots; ++t) {
    ASSERT_TRUE(ring.Push(t, flow.inflow[t], flow.outflow[t]).ok());
    const online::PollResult round = trainer.Poll().ValueOrDie();
    if (!round.evaluated) continue;
    ++evaluated;
    const int t_max = t + 1 - config.horizon;
    double sum_sq = 0.0;
    double sum_abs = 0.0;
    int64_t count = 0;
    for (int s = t_max - options.holdout_slots + 1; s <= t_max; ++s) {
      const Tensor prediction =
          model
              ->Forward(data::BuildStHistory(flow, s, config.short_term_slots,
                                             config.long_term_days, scale),
                        /*training=*/false, nullptr)
              .value();
      const Tensor in = tensor::MulScalar(flow.inflow[s], scale);
      const Tensor out = tensor::MulScalar(flow.outflow[s], scale);
      Tensor target({n, 2});
      for (int i = 0; i < n; ++i) {
        float demand = 0.0f;
        float supply = 0.0f;
        for (int j = 0; j < n; ++j) {
          demand += out.at(i, j);
          supply += in.at(i, j);
        }
        target.at(i, 0) = normalizer.Normalize(demand / scale);
        target.at(i, 1) = normalizer.Normalize(supply / scale);
      }
      for (int64_t i = 0; i < prediction.size(); ++i) {
        const double err = prediction.flat(i) - target.flat(i);
        sum_sq += err * err;
        sum_abs += std::abs(err);
        ++count;
      }
    }
    ASSERT_TRUE(std::isfinite(sum_sq));
    EXPECT_EQ(round.live.rmse, std::sqrt(sum_sq / count)) << "frontier " << t;
    EXPECT_EQ(round.live.mae, sum_abs / count) << "frontier " << t;
  }
  EXPECT_GT(evaluated, 20);
}

// --- LatencyHistogram ------------------------------------------------------

TEST(LatencyHistogramTest, PercentilesAndMean) {
  LatencyHistogram hist;
  EXPECT_EQ(hist.PercentileNs(50), 0.0);
  for (int i = 1; i <= 100; ++i) hist.Record(i * 1000);  // 1..100 us
  EXPECT_EQ(hist.count(), 100);
  EXPECT_NEAR(hist.MeanNs(), 50500.0, 1.0);  // exact sum, not bucketed
  // Bucketed estimates: within 3% of the exact order statistic.
  EXPECT_NEAR(hist.PercentileNs(50), 50000.0, 50000.0 * 0.03);
  EXPECT_NEAR(hist.PercentileNs(95), 95000.0, 95000.0 * 0.03);
  EXPECT_NEAR(hist.PercentileNs(99), 99000.0, 99000.0 * 0.03);
  EXPECT_GT(hist.PercentileNs(99), hist.PercentileNs(95));
  EXPECT_GT(hist.PercentileNs(95), hist.PercentileNs(50));
  hist.Reset();
  EXPECT_EQ(hist.count(), 0);
  EXPECT_EQ(hist.MeanNs(), 0.0);
}

// Every latency from 100 ns to an hour, including both sides of each
// power of two, reads back within 3%; small values read back exactly.
TEST(LatencyHistogramTest, EveryValueFrom100NsTo1HourWithin3Percent) {
  LatencyHistogram hist;
  std::vector<int64_t> values;
  for (double v = 100.0; v <= 3.6e12; v *= 1.0137) {
    values.push_back(static_cast<int64_t>(v));
  }
  for (int e = 7; e <= 41; ++e) {
    const int64_t p = int64_t{1} << e;
    values.insert(values.end(), {p - 1, p, p + 1});
  }
  values.push_back(int64_t{3600} * 1000000000);
  for (int64_t v : values) {
    hist.Reset();
    hist.Record(v);
    const double got = hist.PercentileNs(50);
    ASSERT_NEAR(got, static_cast<double>(v), 0.03 * static_cast<double>(v))
        << "value " << v;
  }
  for (int64_t v = 0; v < 64; ++v) {
    hist.Reset();
    hist.Record(v);
    ASSERT_EQ(hist.PercentileNs(50), static_cast<double>(v));
  }
}

// --- ModelRegistry ---------------------------------------------------------

TEST(ModelRegistryTest, PublishAssignsMonotonicVersions) {
  const data::FlowDataset flow = MakeFlow();
  const core::StgnnConfig config = TestConfig();
  const data::MinMaxNormalizer normalizer = data::MinMaxNormalizer::Fit(
      flow.demand, flow.supply, flow.train_end);
  ModelRegistry registry;
  EXPECT_EQ(registry.Current(), nullptr);
  EXPECT_EQ(registry.current_version(), 0u);
  EXPECT_EQ(registry.Publish(ModelSnapshot(
                MakeModel(flow.num_stations, config, 5), normalizer, 1.0f,
                config)),
            1u);
  EXPECT_EQ(registry.Publish(ModelSnapshot(
                MakeModel(flow.num_stations, config, 6), normalizer, 1.0f,
                config)),
            2u);
  EXPECT_EQ(registry.current_version(), 2u);
  EXPECT_EQ(registry.Current()->version, 2u);
}

TEST(ModelRegistryTest, SnapshotFromCheckpointReproducesForward) {
  const data::FlowDataset flow = MakeFlow();
  const core::StgnnConfig config = TestConfig();
  const data::MinMaxNormalizer normalizer = data::MinMaxNormalizer::Fit(
      flow.demand, flow.supply, flow.train_end);
  const auto trained = MakeModel(flow.num_stations, config, 1234);
  // Per-process name: concurrent copies of this binary must not share it.
  const std::string path = ::testing::TempDir() + "/serve_ckpt_" +
                           std::to_string(getpid()) + ".bin";
  ASSERT_TRUE(nn::SaveParameters(*trained, path).ok());

  Result<ModelSnapshot> loaded = SnapshotFromCheckpoint(
      config, flow.num_stations, path, normalizer, 1.0f);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const int t = flow.FirstPredictableSlot(config.short_term_slots,
                                          config.long_term_days);
  const data::StHistory history = data::BuildStHistory(
      flow, t, config.short_term_slots, config.long_term_days, 1.0f);
  ExpectBitEqual(DirectPrediction(*(*loaded).model, normalizer, history),
                 DirectPrediction(*trained, normalizer, history));

  EXPECT_FALSE(SnapshotFromCheckpoint(config, flow.num_stations,
                                      path + ".missing", normalizer, 1.0f)
                   .ok());
}

// --- PredictionService -----------------------------------------------------

struct ServingHarness {
  explicit ServingHarness(ServiceOptions options, int upto_slot = -1)
      : flow(MakeFlow()),
        config(TestConfig()),
        scale(1.0f / flow.max_train_flow),
        normalizer(data::MinMaxNormalizer::Fit(flow.demand, flow.supply,
                                               flow.train_end)),
        ring(flow.num_stations, config.short_term_slots,
             config.long_term_days, flow.slots_per_day, scale),
        model(MakeModel(flow.num_stations, config, 5)),
        service(&registry, &ring, options) {
    const int frontier =
        upto_slot >= 0 ? upto_slot : ring.first_predictable_slot() + 4;
    for (int t = 0; t < frontier; ++t) {
      const Status st = ring.Push(t, flow.inflow[t], flow.outflow[t]);
      STGNN_CHECK(st.ok()) << st.ToString();
    }
  }

  void PublishModel() {
    registry.Publish(ModelSnapshot(model, normalizer, scale, config));
  }

  Tensor Expected(int t) const {
    return DirectPrediction(
        *model, normalizer,
        data::BuildStHistory(flow, t, config.short_term_slots,
                             config.long_term_days, scale));
  }

  data::FlowDataset flow;
  core::StgnnConfig config;
  float scale;
  data::MinMaxNormalizer normalizer;
  ModelRegistry registry;
  FeatureRing ring;
  std::shared_ptr<const core::StgnnDjdModel> model;
  PredictionService service;
};

TEST(PredictionServiceTest, BatchedServingMatchesDirectForward) {
  for (int workers : {1, 2, 7}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    ServingHarness h({.num_workers = workers, .max_batch = 4,
                      .max_queue = 64});
    h.PublishModel();
    h.service.Start();
    const int frontier = h.ring.next_slot();
    const Tensor expected = h.Expected(frontier);

    const std::vector<std::vector<int>> station_sets = {
        {}, {0}, {2, 4}, {1, 0, 3}, {7, 6, 5, 4, 3, 2, 1, 0}};
    std::vector<std::future<PredictResponse>> futures;
    for (int i = 0; i < 15; ++i) {
      PredictRequest request;
      // Mix "latest" with the same slot named explicitly: both resolve to
      // the frontier and must coalesce into shared batches.
      request.slot = (i % 2 == 0) ? PredictRequest::kLatestSlot : frontier;
      request.stations = station_sets[i % station_sets.size()];
      futures.push_back(h.service.SubmitAsync(std::move(request)));
    }
    for (size_t i = 0; i < futures.size(); ++i) {
      PredictResponse response = futures[i].get();
      ASSERT_TRUE(response.ok()) << response.status.ToString();
      EXPECT_EQ(response.slot, frontier);
      EXPECT_EQ(response.model_version, 1u);
      EXPECT_GE(response.batch_size, 1);
      EXPECT_LE(response.batch_size, 4);
      EXPECT_GE(response.latency_ns, 0);
      const std::vector<int>& stations =
          station_sets[i % station_sets.size()];
      const int rows = stations.empty() ? h.flow.num_stations
                                        : static_cast<int>(stations.size());
      ASSERT_EQ(response.predictions.shape(), (tensor::Shape{rows, 2}));
      for (int r = 0; r < rows; ++r) {
        const int src = stations.empty() ? r : stations[r];
        ASSERT_EQ(response.predictions.at(r, 0), expected.at(src, 0));
        ASSERT_EQ(response.predictions.at(r, 1), expected.at(src, 1));
      }
    }

    // Advance the frontier and serve the next slot: still bit-identical.
    ASSERT_TRUE(h.ring
                    .Push(frontier, h.flow.inflow[frontier],
                          h.flow.outflow[frontier])
                    .ok());
    PredictResponse next = h.service.Predict({});
    ASSERT_TRUE(next.ok()) << next.status.ToString();
    EXPECT_EQ(next.slot, frontier + 1);
    ExpectBitEqual(next.predictions, h.Expected(frontier + 1));

    const ServiceStats stats = h.service.stats();
    EXPECT_EQ(stats.submitted, 16);
    EXPECT_EQ(stats.served, 16);
    EXPECT_EQ(stats.shed_queue_full + stats.shed_deadline + stats.failed, 0);
    EXPECT_GE(stats.batches, 1);
    EXPECT_EQ(h.service.latency_histogram().count(), 16);
  }
}

TEST(PredictionServiceTest, HotSwapUnderLoadDropsAndTearsNothing) {
  ServingHarness h({.num_workers = 2, .max_batch = 8, .max_queue = 4096});
  const auto model_b = MakeModel(h.flow.num_stations, h.config, 77);
  const int frontier = h.ring.next_slot();
  const Tensor expected_a = h.Expected(frontier);
  const Tensor expected_b = DirectPrediction(
      *model_b, h.normalizer,
      data::BuildStHistory(h.flow, frontier, h.config.short_term_slots,
                           h.config.long_term_days, h.scale));

  // v1 = A; the swapper then alternates B, A, B, ... so even versions are
  // B and odd versions are A.
  h.PublishModel();
  h.service.Start();

  std::thread swapper([&] {
    for (int i = 0; i < 20; ++i) {
      if (i % 2 == 0) {
        h.registry.Publish(
            ModelSnapshot(model_b, h.normalizer, h.scale, h.config));
      } else {
        h.registry.Publish(
            ModelSnapshot(h.model, h.normalizer, h.scale, h.config));
      }
      std::this_thread::yield();
    }
  });

  constexpr int kRequests = 150;
  std::vector<std::future<PredictResponse>> futures;
  futures.reserve(kRequests);
  for (int i = 0; i < kRequests; ++i) {
    futures.push_back(h.service.SubmitAsync({}));
  }
  swapper.join();

  for (auto& future : futures) {
    PredictResponse response = future.get();
    // Zero dropped: every request gets a real prediction through all the
    // swaps. Zero torn: the rows must be bitwise one model's output, the
    // one named by the reported version.
    ASSERT_TRUE(response.ok()) << response.status.ToString();
    ASSERT_GE(response.model_version, 1u);
    ASSERT_LE(response.model_version, 21u);
    const Tensor& expected =
        (response.model_version % 2 == 1) ? expected_a : expected_b;
    ExpectBitEqual(response.predictions, expected);
  }
  const ServiceStats stats = h.service.stats();
  EXPECT_EQ(stats.served, kRequests);
  EXPECT_EQ(stats.shed_queue_full + stats.shed_deadline + stats.failed, 0);
  EXPECT_EQ(h.registry.current_version(), 21u);
}

TEST(PredictionServiceTest, QueueFullRejectsAtAdmission) {
  ServingHarness h({.num_workers = 1, .max_batch = 4, .max_queue = 2});
  h.PublishModel();
  // Workers not started yet: the first two requests occupy the bounded
  // queue, the third must be rejected immediately.
  auto first = h.service.SubmitAsync({});
  auto second = h.service.SubmitAsync({});
  PredictResponse third = h.service.SubmitAsync({}).get();
  EXPECT_EQ(third.kind, PredictResponse::Kind::kRejectedQueueFull);

  h.service.Start();
  EXPECT_TRUE(first.get().ok());
  EXPECT_TRUE(second.get().ok());
  const ServiceStats stats = h.service.stats();
  EXPECT_EQ(stats.shed_queue_full, 1);
  EXPECT_EQ(stats.served, 2);
}

TEST(PredictionServiceTest, DeadlineShedsExpiredRequests) {
  ServingHarness h({.num_workers = 1, .max_batch = 4, .max_queue = 16});
  h.PublishModel();
  PredictRequest expired;
  expired.deadline_ns = common::trace::NowNs() - 1;
  auto shed = h.service.SubmitAsync(std::move(expired));
  PredictRequest fresh;
  fresh.deadline_ns = common::trace::NowNs() + int64_t{60} * 1000000000;
  auto served = h.service.SubmitAsync(std::move(fresh));

  h.service.Start();
  EXPECT_EQ(shed.get().kind, PredictResponse::Kind::kRejectedDeadline);
  EXPECT_TRUE(served.get().ok());
  const ServiceStats stats = h.service.stats();
  EXPECT_EQ(stats.shed_deadline, 1);
  EXPECT_EQ(stats.served, 1);
}

TEST(PredictionServiceTest, StopDrainsQueueAndRejectsLateSubmits) {
  ServingHarness h({.num_workers = 2, .max_batch = 4, .max_queue = 64});
  h.PublishModel();
  std::vector<std::future<PredictResponse>> futures;
  for (int i = 0; i < 5; ++i) futures.push_back(h.service.SubmitAsync({}));
  h.service.Start();
  h.service.Stop();
  for (auto& future : futures) {
    EXPECT_TRUE(future.get().ok());  // drained, not dropped
  }
  PredictResponse late = h.service.Predict({});
  EXPECT_EQ(late.kind, PredictResponse::Kind::kFailed);
  EXPECT_EQ(late.status.code(), StatusCode::kFailedPrecondition);
}

TEST(PredictionServiceTest, TypedFailures) {
  // No model published.
  {
    ServingHarness h({.num_workers = 1, .max_batch = 4, .max_queue = 16});
    h.service.Start();
    PredictResponse response = h.service.Predict({});
    EXPECT_EQ(response.kind, PredictResponse::Kind::kFailed);
    EXPECT_EQ(response.status.code(), StatusCode::kFailedPrecondition);
  }
  // Station index outside [0, n) fails that request only.
  {
    ServingHarness h({.num_workers = 1, .max_batch = 4, .max_queue = 16});
    h.PublishModel();
    h.service.Start();
    PredictRequest bad;
    bad.stations = {h.flow.num_stations + 3};
    auto bad_future = h.service.SubmitAsync(std::move(bad));
    auto good_future = h.service.SubmitAsync({});
    PredictResponse bad_response = bad_future.get();
    EXPECT_EQ(bad_response.kind, PredictResponse::Kind::kFailed);
    EXPECT_EQ(bad_response.status.code(), StatusCode::kInvalidArgument);
    EXPECT_TRUE(good_future.get().ok());
  }
  // Published model whose window disagrees with the ring.
  {
    ServingHarness h({.num_workers = 1, .max_batch = 4, .max_queue = 16});
    core::StgnnConfig other = h.config;
    other.short_term_slots += 1;
    h.registry.Publish(ModelSnapshot(
        MakeModel(h.flow.num_stations, other, 5), h.normalizer, h.scale,
        other));
    h.service.Start();
    PredictResponse response = h.service.Predict({});
    EXPECT_EQ(response.kind, PredictResponse::Kind::kFailed);
    EXPECT_EQ(response.status.code(), StatusCode::kFailedPrecondition);
    EXPECT_NE(response.status.message().find("does not match"),
              std::string::npos);
  }
  // A slot with no history yet (ahead of the frontier) fails typed.
  {
    ServingHarness h({.num_workers = 1, .max_batch = 4, .max_queue = 16});
    h.PublishModel();
    h.service.Start();
    PredictRequest ahead;
    ahead.slot = h.ring.next_slot() + 3;
    PredictResponse response = h.service.Predict(std::move(ahead));
    EXPECT_EQ(response.kind, PredictResponse::Kind::kFailed);
    EXPECT_EQ(response.status.code(), StatusCode::kOutOfRange);
  }
}

// Forwards to a LocalEngine, but runs `before_first` ahead of the first
// Execute: ingest that lands after the service resolved a batch's slot and
// before the engine reads the ring.
class IngestRacingEngine : public InferenceEngine {
 public:
  IngestRacingEngine(LocalEngine* inner, std::function<void()> before_first)
      : inner_(inner), before_first_(std::move(before_first)) {}

  int num_stations() const override { return inner_->num_stations(); }
  int num_rows() const override { return inner_->num_rows(); }
  int row_of(int station) const override { return inner_->row_of(station); }
  int next_slot() const override { return inner_->next_slot(); }
  Result<EngineOutput> Execute(int slot) override {
    if (before_first_) std::exchange(before_first_, nullptr)();
    return inner_->Execute(slot);
  }
  const SlotCacheStats& cache_stats() const override {
    return inner_->cache_stats();
  }

 private:
  LocalEngine* inner_;
  std::function<void()> before_first_;
};

// A batch resolves "latest" to the frontier F; then enough slots land to
// overwrite history F needs before the batch executes. The latest request
// must follow the frontier (bitwise the direct forward there), while the
// request that named F explicitly keeps its typed error.
TEST(PredictionServiceTest, LatestFollowsFrontierPastOverwrittenSlot) {
  const data::FlowDataset flow = MakeFlow();
  const core::StgnnConfig config = TestConfig();
  const float scale = 1.0f / flow.max_train_flow;
  const data::MinMaxNormalizer normalizer = data::MinMaxNormalizer::Fit(
      flow.demand, flow.supply, flow.train_end);
  FeatureRing ring(flow.num_stations, config.short_term_slots,
                   config.long_term_days, flow.slots_per_day, scale);
  const int resolved = ring.first_predictable_slot() + 2;
  for (int t = 0; t < resolved; ++t) {
    ASSERT_TRUE(ring.Push(t, flow.inflow[t], flow.outflow[t]).ok());
  }
  // Slot F needs [F - window, F); the ring keeps window + 2 slots, so the
  // third push past F overwrites F - window.
  const int pushes = ring.capacity() - ring.first_predictable_slot() + 1;
  ASSERT_LE(resolved + pushes, flow.num_slots);
  ModelRegistry registry;
  const std::shared_ptr<const core::StgnnDjdModel> model =
      MakeModel(flow.num_stations, config, 5);
  registry.Publish(ModelSnapshot(model, normalizer, scale, config));
  LocalEngine local(&registry, &ring);
  IngestRacingEngine engine(&local, [&] {
    for (int t = resolved; t < resolved + pushes; ++t) {
      ASSERT_TRUE(ring.Push(t, flow.inflow[t], flow.outflow[t]).ok());
    }
  });
  PredictionService service(&engine,
                            {.num_workers = 1, .max_batch = 4,
                             .max_queue = 16});
  // Queued before Start, both resolve to F and share the first batch.
  PredictRequest pinned;
  pinned.slot = resolved;
  auto pinned_future = service.SubmitAsync(pinned);
  auto latest_future = service.SubmitAsync({});
  service.Start();

  const PredictResponse latest = latest_future.get();
  ASSERT_TRUE(latest.ok()) << latest.status.ToString();
  EXPECT_EQ(latest.slot, resolved + pushes);
  ExpectBitEqual(latest.predictions,
                 DirectPrediction(*model, normalizer,
                                  data::BuildStHistory(
                                      flow, resolved + pushes,
                                      config.short_term_slots,
                                      config.long_term_days, scale)));
  const PredictResponse stale = pinned_future.get();
  EXPECT_EQ(stale.kind, PredictResponse::Kind::kFailed);
  EXPECT_EQ(stale.status.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(stale.status.message().find("overwritten"), std::string::npos);
  EXPECT_EQ(stale.slot, resolved);
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.served, 1);
  EXPECT_EQ(stats.failed, 1);
  service.Stop();
}

// --- Late binding ----------------------------------------------------------

// Forwards to a LocalEngine, then holds each result until the test opens
// the gate. A request submitted while an execution is held arrives "during
// the forward": after the execution read the registry and the ring, before
// the service answers its batch.
class GatedEngine : public InferenceEngine {
 public:
  explicit GatedEngine(LocalEngine* inner) : inner_(inner) {}

  int num_stations() const override { return inner_->num_stations(); }
  int num_rows() const override { return inner_->num_rows(); }
  int row_of(int station) const override { return inner_->row_of(station); }
  int next_slot() const override { return inner_->next_slot(); }
  Result<EngineOutput> Execute(int slot) override {
    Result<EngineOutput> out = inner_->Execute(slot);
    std::unique_lock<std::mutex> lock(mu_);
    ++executes_;
    cv_.notify_all();
    cv_.wait(lock, [this] { return open_; });
    return out;
  }
  const SlotCacheStats& cache_stats() const override {
    return inner_->cache_stats();
  }

  // Blocks until the first execution is held at the gate.
  void AwaitFirstExecute() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return executes_ > 0; });
  }
  // Lets every held and future execution through.
  void Open() {
    std::lock_guard<std::mutex> lock(mu_);
    open_ = true;
    cv_.notify_all();
  }
  int executes() const {
    std::lock_guard<std::mutex> lock(mu_);
    return executes_;
  }

 private:
  LocalEngine* const inner_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  int executes_ = 0;
  bool open_ = false;
};

// One worker serving through a GatedEngine over the harness city.
struct GatedHarness {
  explicit GatedHarness(int max_batch)
      : flow(MakeFlow()),
        config(TestConfig()),
        scale(1.0f / flow.max_train_flow),
        normalizer(data::MinMaxNormalizer::Fit(flow.demand, flow.supply,
                                               flow.train_end)),
        ring(flow.num_stations, config.short_term_slots,
             config.long_term_days, flow.slots_per_day, scale),
        model(MakeModel(flow.num_stations, config, 5)),
        local(&registry, &ring),
        gate(&local),
        service(&gate, {.num_workers = 1, .max_batch = max_batch,
                        .max_queue = 64}) {
    for (int t = 0; t < ring.first_predictable_slot() + 4; ++t) {
      const Status st = ring.Push(t, flow.inflow[t], flow.outflow[t]);
      STGNN_CHECK(st.ok()) << st.ToString();
    }
    registry.Publish(ModelSnapshot(model, normalizer, scale, config));
    service.Start();
  }
  // A failed assertion must not leave the worker held at the gate.
  ~GatedHarness() {
    gate.Open();
    service.Stop();
  }

  // The direct forward on a served model: call it before the service
  // executes (the model caches its attention matrices).
  Tensor Expected(const core::StgnnDjdModel& m, int t) const {
    return DirectPrediction(
        m, normalizer,
        data::BuildStHistory(flow, t, config.short_term_slots,
                             config.long_term_days, scale));
  }

  data::FlowDataset flow;
  core::StgnnConfig config;
  float scale;
  data::MinMaxNormalizer normalizer;
  ModelRegistry registry;
  FeatureRing ring;
  std::shared_ptr<const core::StgnnDjdModel> model;
  LocalEngine local;
  GatedEngine gate;
  PredictionService service;
};

// The rows of `stations` (all when empty) of `full`, bit for bit.
void ExpectRows(const PredictResponse& response, const Tensor& full,
                const std::vector<int>& stations) {
  ASSERT_TRUE(response.ok()) << response.status.ToString();
  const int rows =
      stations.empty() ? full.dim(0) : static_cast<int>(stations.size());
  ASSERT_EQ(response.predictions.shape(), (tensor::Shape{rows, full.dim(1)}));
  for (int r = 0; r < rows; ++r) {
    const int src = stations.empty() ? r : stations[r];
    for (int c = 0; c < full.dim(1); ++c) {
      ASSERT_EQ(response.predictions.at(r, c), full.at(src, c))
          << "row " << r << " col " << c;
    }
  }
}

// Requests that arrive while R1's execution runs are answered by it: one
// execution, one batch of four, every row bitwise the direct forward.
TEST(LateBindingTest, RequestsArrivingDuringForwardJoinIt) {
  GatedHarness h(/*max_batch=*/4);
  const int frontier = h.ring.next_slot();
  const Tensor expected = h.Expected(*h.model, frontier);
  const std::vector<std::vector<int>> stations = {{}, {2, 4}, {0}, {}};
  std::vector<std::future<PredictResponse>> futures;
  futures.push_back(h.service.SubmitAsync({}));
  h.gate.AwaitFirstExecute();
  for (int i = 1; i < 4; ++i) {
    PredictRequest request;
    // "Latest" and the frontier named explicitly both resolve to it.
    request.slot = i == 1 ? frontier : PredictRequest::kLatestSlot;
    request.stations = stations[i];
    futures.push_back(h.service.SubmitAsync(std::move(request)));
  }
  h.gate.Open();
  for (int i = 0; i < 4; ++i) {
    SCOPED_TRACE("request " + std::to_string(i + 1));
    const PredictResponse response = futures[i].get();
    ExpectRows(response, expected, stations[i]);
    EXPECT_EQ(response.slot, frontier);
    EXPECT_EQ(response.model_version, 1u);
    EXPECT_EQ(response.batch_size, 4);
  }
  EXPECT_EQ(h.gate.executes(), 1);
  const ServiceStats stats = h.service.stats();
  EXPECT_EQ(stats.batches, 1);
  EXPECT_EQ(stats.served, 4);
  EXPECT_EQ(stats.batch_size_counts[4], 1);
}

// A Publish that returns while the forward runs excludes every later
// submit from it: they are served at the new version by a second forward.
TEST(LateBindingTest, PublishDuringForwardExcludesLaterSubmits) {
  GatedHarness h(/*max_batch=*/4);
  const int frontier = h.ring.next_slot();
  const auto model_b = MakeModel(h.flow.num_stations, h.config, 77);
  const Tensor expected_a = h.Expected(*h.model, frontier);
  const Tensor expected_b = h.Expected(*model_b, frontier);
  auto first = h.service.SubmitAsync({});
  h.gate.AwaitFirstExecute();
  ASSERT_EQ(h.registry.Publish(
                ModelSnapshot(model_b, h.normalizer, h.scale, h.config)),
            2u);
  auto second = h.service.SubmitAsync({});
  auto third = h.service.SubmitAsync({});
  h.gate.Open();

  const PredictResponse r1 = first.get();
  ExpectRows(r1, expected_a, {});
  EXPECT_EQ(r1.model_version, 1u);
  EXPECT_EQ(r1.batch_size, 1);
  for (auto* future : {&second, &third}) {
    const PredictResponse response = future->get();
    ExpectRows(response, expected_b, {});
    EXPECT_EQ(response.model_version, 2u);
    EXPECT_EQ(response.batch_size, 2);
  }
  EXPECT_EQ(h.gate.executes(), 2);
}

// A Push that returns while the forward runs sends later "latest"
// requests to the new frontier, served by a second forward. No later
// request joins the forward from before the Push, not even one that names
// its slot.
TEST(LateBindingTest, PushDuringForwardSendsLaterLatestToNewFrontier) {
  GatedHarness h(/*max_batch=*/4);
  const int frontier = h.ring.next_slot();
  const Tensor expected = h.Expected(*h.model, frontier);
  const Tensor expected_next = h.Expected(*h.model, frontier + 1);
  auto first = h.service.SubmitAsync({});
  h.gate.AwaitFirstExecute();
  ASSERT_TRUE(h.ring
                  .Push(frontier, h.flow.inflow[frontier],
                        h.flow.outflow[frontier])
                  .ok());
  PredictRequest pinned;
  pinned.slot = frontier;
  auto named = h.service.SubmitAsync(std::move(pinned));
  auto second = h.service.SubmitAsync({});
  auto third = h.service.SubmitAsync({});
  h.gate.Open();

  for (auto* future : {&first, &named}) {
    const PredictResponse response = future->get();
    ExpectRows(response, expected, {});
    EXPECT_EQ(response.slot, frontier);
    EXPECT_EQ(response.batch_size, 1);
  }
  for (auto* future : {&second, &third}) {
    const PredictResponse response = future->get();
    ExpectRows(response, expected_next, {});
    EXPECT_EQ(response.slot, frontier + 1);
    EXPECT_EQ(response.batch_size, 2);
  }
  EXPECT_EQ(h.gate.executes(), 3);
}

// max_batch bounds what one forward serves: of six arrivals during the
// forward, three join R1 and the other three form the next batch.
TEST(LateBindingTest, BindingStopsAtMaxBatch) {
  GatedHarness h(/*max_batch=*/4);
  const Tensor expected = h.Expected(*h.model, h.ring.next_slot());
  std::vector<std::future<PredictResponse>> futures;
  futures.push_back(h.service.SubmitAsync({}));
  h.gate.AwaitFirstExecute();
  for (int i = 0; i < 6; ++i) futures.push_back(h.service.SubmitAsync({}));
  h.gate.Open();
  for (int i = 0; i < 7; ++i) {
    SCOPED_TRACE("request " + std::to_string(i + 1));
    const PredictResponse response = futures[i].get();
    ExpectRows(response, expected, {});
    EXPECT_EQ(response.batch_size, i < 4 ? 4 : 3);
  }
  EXPECT_EQ(h.gate.executes(), 2);
}

// A request whose deadline passes during the forward is shed when it would
// be bound, not served; the rest of the run still joins.
TEST(LateBindingTest, DeadlinePassedDuringForwardIsShed) {
  GatedHarness h(/*max_batch=*/4);
  auto first = h.service.SubmitAsync({});
  h.gate.AwaitFirstExecute();
  PredictRequest hurried;
  hurried.deadline_ns = common::trace::NowNs() + 1000000;  // 1 ms
  auto expiring = h.service.SubmitAsync(std::move(hurried));
  auto patient = h.service.SubmitAsync({});
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  h.gate.Open();

  EXPECT_EQ(expiring.get().kind, PredictResponse::Kind::kRejectedDeadline);
  const PredictResponse r1 = first.get();
  const PredictResponse r3 = patient.get();
  ASSERT_TRUE(r1.ok()) << r1.status.ToString();
  ASSERT_TRUE(r3.ok()) << r3.status.ToString();
  EXPECT_EQ(r1.batch_size, 2);
  EXPECT_EQ(r3.batch_size, 2);
  EXPECT_EQ(h.gate.executes(), 1);
  const ServiceStats stats = h.service.stats();
  EXPECT_EQ(stats.shed_deadline, 1);
  EXPECT_EQ(stats.served, 2);
}

}  // namespace
}  // namespace stgnn::serve
