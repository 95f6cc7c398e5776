// Drift harness for the online-learning loop (DESIGN.md §11): simulates a
// city with a structural demand shock, serves a frozen offline-trained
// model next to an OnlineTrainer that fine-tunes on the live FeatureRing,
// and records the RMSE-over-time of both — the frozen model keeps
// mispredicting the new demand level while the online one recovers within
// about a day.
//
// Per city size the harness: generates `--days` hourly days with a
// persistent log-activity shock from `--shock-day`; trains STGNN-DJD
// offline on the pre-shock train split; publishes it as v1 into a
// ModelRegistry; warm-starts an OnlineTrainer against the registry; then
// streams the remaining slots one by one — evaluate both models on the
// incoming slot, Push it into the ring, Poll the trainer (which may
// validate and hot-swap a candidate). Results land in BENCH_online.json.
//
//   stgnn_drift [--n 128,512] [--seed 17] [--days 12] [--shock-day 10]
//               [--shock-log 1.2] [--epochs 5] [--samples 32]
//               [--steps-per-round 2] [--train-window 24] [--holdout 24]
//               [--margin 0.01] [--patience 2] [--out BENCH_online.json]
//               [--print-counters] [--smoke]
//
// --smoke is the CI liveness gate: a tiny city, asserting that at least
// one validated swap happened and that the online model's final-day RMSE
// beats the frozen baseline's. Exit 1 on violation.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "common/counters.h"
#include "common/cpuid.h"
#include "common/check.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "core/config.h"
#include "core/stgnn_djd.h"
#include "data/city_simulator.h"
#include "data/flow_dataset.h"
#include "data/window.h"
#include "eval/metrics.h"
#include "eval/rolling_metrics.h"
#include "online/online_trainer.h"
#include "serve/feature_ring.h"
#include "serve/model_registry.h"
#include "tensor/tensor.h"

namespace {

using namespace stgnn;

struct Options {
  std::vector<int> sizes = {128, 512};
  uint64_t seed = 17;
  int days = 12;
  int shock_day = 10;
  double shock_log = 1.2;
  int epochs = 5;
  int samples = 32;  // offline max_samples_per_epoch
  int steps_per_round = 2;
  int train_window = 24;  // a full day, so no hour-of-day is forgotten
  int holdout = 24;       // the gate judges candidates across a whole day

  double margin = 0.01;
  int patience = 2;
  std::string out = "BENCH_online.json";
  bool print_counters = false;
  bool smoke = false;
};

struct SwapEvent {
  int slot = 0;
  uint64_t version = 0;
  double candidate_rmse = 0.0;
  double live_rmse = 0.0;
};

struct Series {
  std::vector<int> slot;
  std::vector<double> online_rmse;
  std::vector<double> frozen_rmse;
};

struct RangeSummary {
  double online = 0.0;
  double frozen = 0.0;
};

struct RunResult {
  int n = 0;
  int shock_slot = 0;
  int stream_begin = 0;
  Series series;
  std::vector<SwapEvent> swaps;
  RangeSummary pre_shock;
  RangeSummary shock_day;
  RangeSummary final_day;  // last slots_per_day slots (RollingMetrics)
  online::OnlineTrainerStats trainer;
  bool smoke_ok = true;
};

data::CityConfig DriftCity(int n, const Options& options) {
  data::CityConfig city;
  city.name = "drift-" + std::to_string(n);
  city.num_districts = n >= 16 ? 16 : 2;
  STGNN_CHECK_EQ(n % city.num_districts, 0)
      << "station count must divide evenly into districts";
  city.stations_per_district = n / city.num_districts;
  city.num_days = options.days;
  city.slot_minutes = 60;
  // Calmer background activity than the default city: the shock should be
  // the dominant non-stationarity, not one more swing of the weather AR(1)
  // (whose level the models already read off their flow inputs).
  city.daily_activity_sigma = 0.25;
  city.block_activity_sigma = 0.15;
  city.shock_day = options.shock_day;
  city.shock_log_activity = options.shock_log;
  // Distinct stream per size so the two runs are independent draws.
  city.seed = options.seed + static_cast<uint64_t>(n);
  return city;
}

core::StgnnConfig DriftConfig(const Options& options) {
  core::StgnnConfig config;
  config.short_term_slots = 8;
  config.long_term_days = 1;
  config.fcg_layers = 1;
  config.pcg_layers = 1;
  config.attention_heads = 2;
  config.dropout = 0.0f;  // deterministic fine-tuning
  config.epochs = options.epochs;
  config.batch_size = 8;
  config.max_samples_per_epoch = options.samples;
  config.horizon = 1;
  config.seed = 7;
  return config;
}

// Denormalised RMSE of one model on one slot (what a serving response for
// that slot would have predicted).
double SlotRmse(const core::StgnnDjdModel& model,
                const data::MinMaxNormalizer& normalizer,
                const data::StHistory& history, const data::FlowDataset& flow,
                int t) {
  const tensor::Tensor raw =
      model.Forward(history, /*training=*/false, nullptr).value();
  tensor::Tensor prediction = normalizer.Denormalize(raw);
  for (float& value : prediction.mutable_data()) {
    value = std::max(0.0f, value);
  }
  eval::MetricsAccumulator accumulator;
  accumulator.Add(prediction, data::TargetAt(flow, t));
  return accumulator.Compute().rmse;
}

RangeSummary MeanOver(const Series& series, int first_slot, int last_slot) {
  RangeSummary summary;
  int count = 0;
  for (size_t i = 0; i < series.slot.size(); ++i) {
    if (series.slot[i] < first_slot || series.slot[i] > last_slot) continue;
    summary.online += series.online_rmse[i];
    summary.frozen += series.frozen_rmse[i];
    ++count;
  }
  if (count > 0) {
    summary.online /= count;
    summary.frozen /= count;
  }
  return summary;
}

RunResult RunOne(int n, const Options& options) {
  RunResult result;
  result.n = n;

  const data::CityConfig city = DriftCity(n, options);
  const data::TripDataset trips = data::CitySimulator(city).Generate();
  // Train on one full week so weekend intensity profiles are
  // in-distribution for the frozen model; validation takes the next day
  // and the rest streams. The shock is the only out-of-distribution event.
  const data::FlowDataset flow = data::BuildFlowDataset(
      trips, 7.0 / options.days, 1.0 / options.days);
  const int slots_per_day = flow.slots_per_day;
  result.shock_slot = options.shock_day * slots_per_day;
  result.stream_begin = flow.val_end;
  std::printf(
      "[n=%d] %d stations, %d slots (%d/day), train=[0,%d) val=[%d,%d) "
      "stream=[%d,%d), shock at slot %d\n",
      n, flow.num_stations, flow.num_slots, slots_per_day, flow.train_end,
      flow.train_end, flow.val_end, flow.val_end, flow.num_slots,
      result.shock_slot);

  // Offline training on the pre-shock split — the frozen baseline.
  core::StgnnConfig config = DriftConfig(options);
  core::StgnnDjdPredictor predictor(config);
  predictor.Train(flow);
  const data::MinMaxNormalizer normalizer = data::MinMaxNormalizer::Fit(
      flow.demand, flow.supply, flow.train_end);
  const float input_scale =
      config.input_scale_multiplier / flow.max_train_flow;

  // v1 into the registry. The predictor's own model draws the frozen
  // curve.
  serve::ModelRegistry registry;
  {
    serve::ModelSnapshot snapshot(predictor.model()->Clone(), normalizer,
                                  input_scale, config);
    serve::QuantizeSnapshot(&snapshot, config.infer_precision);
    registry.Publish(std::move(snapshot));
  }
  // Ring warmed with everything up to the stream start.
  serve::FeatureRing ring(n, config.short_term_slots, config.long_term_days,
                          slots_per_day, input_scale);
  for (int t = 0; t < flow.val_end; ++t) {
    STGNN_CHECK(ring.Push(t, flow.inflow[t], flow.outflow[t]).ok());
  }

  online::OnlineTrainerOptions trainer_options;
  trainer_options.steps_per_round = options.steps_per_round;
  trainer_options.train_window = options.train_window;
  trainer_options.holdout_slots = options.holdout;
  trainer_options.improvement_margin = static_cast<float>(options.margin);
  trainer_options.patience = options.patience;
  trainer_options.seed = options.seed;
  online::OnlineTrainer trainer(
      &ring, online::SnapshotChannel::ForRegistry(&registry),
      trainer_options);
  STGNN_CHECK(trainer.WarmStart().ok());

  // Stream the held-out slots. Predictions are made for slot t before its
  // observations are pushed — exactly serving's "latest" order.
  eval::RollingMetrics rolling_online(slots_per_day);
  eval::RollingMetrics rolling_frozen(slots_per_day);
  for (int t = flow.val_end; t < flow.num_slots; ++t) {
    const data::StHistory history = data::BuildStHistory(
        flow, t, config.short_term_slots, config.long_term_days, input_scale);
    const auto live = registry.Current();
    const double online_rmse =
        SlotRmse(*live->model, live->normalizer, history, flow, t);
    const double frozen_rmse =
        SlotRmse(*predictor.model(), normalizer, history, flow, t);
    result.series.slot.push_back(t);
    result.series.online_rmse.push_back(online_rmse);
    result.series.frozen_rmse.push_back(frozen_rmse);
    rolling_online.Add(online_rmse, online_rmse);
    rolling_frozen.Add(frozen_rmse, frozen_rmse);

    STGNN_CHECK(ring.Push(t, flow.inflow[t], flow.outflow[t]).ok());
    const online::PollResult poll = trainer.Poll().ValueOrDie();
    if (poll.published) {
      result.swaps.push_back({t, poll.published_version,
                              poll.candidate.rmse, poll.live.rmse});
      std::printf(
          "[n=%d] slot %d: swap to v%llu (holdout rmse %.4f vs live %.4f)\n",
          n, t, static_cast<unsigned long long>(poll.published_version),
          poll.candidate.rmse, poll.live.rmse);
    }
  }

  result.trainer = trainer.stats();
  result.pre_shock =
      MeanOver(result.series, result.stream_begin, result.shock_slot - 1);
  result.shock_day = MeanOver(result.series, result.shock_slot,
                              result.shock_slot + slots_per_day - 1);
  result.final_day.online = rolling_online.mean_rmse();
  result.final_day.frozen = rolling_frozen.mean_rmse();
  std::printf(
      "[n=%d] rmse pre-shock online/frozen %.3f/%.3f, shock day "
      "%.3f/%.3f, final day %.3f/%.3f, swaps=%lld rejected=%lld\n",
      n, result.pre_shock.online, result.pre_shock.frozen,
      result.shock_day.online, result.shock_day.frozen,
      result.final_day.online, result.final_day.frozen,
      static_cast<long long>(result.trainer.swaps),
      static_cast<long long>(result.trainer.rejected_candidates));

  result.smoke_ok = result.trainer.swaps >= 1 &&
                    result.final_day.online < result.final_day.frozen;
  return result;
}

int WriteJson(const std::string& path, const Options& options,
              const std::vector<RunResult>& runs) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"schema\": \"stgnn-bench-online-v1\",\n");
  std::fprintf(f, "  \"hardware_threads\": %d,\n", common::HardwareThreads());
  std::fprintf(f, "  \"isa\": \"%s\",\n", common::IsaName(common::ActiveIsa()));
  std::fprintf(f,
               "  \"scenario\": \"hourly city, %d days, persistent "
               "log-activity shock %.2f from day %d; offline model frozen "
               "at v1, online trainer fine-tunes on the live ring\",\n",
               options.days, options.shock_log, options.shock_day);
  std::fprintf(f, "  \"seed\": %llu,\n",
               static_cast<unsigned long long>(options.seed));
  std::fprintf(f, "  \"rmse_units\": \"trips (denormalised)\",\n");
  std::fprintf(f, "  \"runs\": [\n");
  for (size_t i = 0; i < runs.size(); ++i) {
    const RunResult& r = runs[i];
    std::fprintf(f, "    {\"n\": %d, \"shock_slot\": %d, ", r.n, r.shock_slot);
    std::fprintf(f, "\"stream_begin\": %d,\n", r.stream_begin);
    std::fprintf(f, "     \"summary\": {\n");
    std::fprintf(f,
                 "       \"pre_shock\": {\"online\": %.4f, \"frozen\": "
                 "%.4f},\n",
                 r.pre_shock.online, r.pre_shock.frozen);
    std::fprintf(f,
                 "       \"shock_day\": {\"online\": %.4f, \"frozen\": "
                 "%.4f},\n",
                 r.shock_day.online, r.shock_day.frozen);
    std::fprintf(f,
                 "       \"final_day\": {\"online\": %.4f, \"frozen\": %.4f, "
                 "\"frozen_over_online\": %.3f}},\n",
                 r.final_day.online, r.final_day.frozen,
                 r.final_day.online > 0.0
                     ? r.final_day.frozen / r.final_day.online
                     : 0.0);
    std::fprintf(f,
                 "     \"trainer\": {\"rounds\": %lld, \"steps\": %lld, "
                 "\"evaluations\": %lld, \"swaps\": %lld, "
                 "\"rejected_candidates\": %lld},\n",
                 static_cast<long long>(r.trainer.rounds),
                 static_cast<long long>(r.trainer.steps),
                 static_cast<long long>(r.trainer.evaluations),
                 static_cast<long long>(r.trainer.swaps),
                 static_cast<long long>(r.trainer.rejected_candidates));
    std::fprintf(f, "     \"swaps\": [");
    for (size_t s = 0; s < r.swaps.size(); ++s) {
      std::fprintf(f,
                   "%s{\"slot\": %d, \"version\": %llu, \"candidate_rmse\": "
                   "%.4f, \"live_rmse\": %.4f}",
                   s > 0 ? ", " : "", r.swaps[s].slot,
                   static_cast<unsigned long long>(r.swaps[s].version),
                   r.swaps[s].candidate_rmse, r.swaps[s].live_rmse);
    }
    std::fprintf(f, "],\n");
    std::fprintf(f, "     \"series\": {\"slot\": [");
    for (size_t s = 0; s < r.series.slot.size(); ++s) {
      std::fprintf(f, "%s%d", s > 0 ? ", " : "", r.series.slot[s]);
    }
    std::fprintf(f, "],\n      \"online_rmse\": [");
    for (size_t s = 0; s < r.series.online_rmse.size(); ++s) {
      std::fprintf(f, "%s%.4f", s > 0 ? ", " : "", r.series.online_rmse[s]);
    }
    std::fprintf(f, "],\n      \"frozen_rmse\": [");
    for (size_t s = 0; s < r.series.frozen_rmse.size(); ++s) {
      std::fprintf(f, "%s%.4f", s > 0 ? ", " : "", r.series.frozen_rmse[s]);
    }
    std::fprintf(f, "]}}%s\n", i + 1 < runs.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--n") {
      options.sizes.clear();
      for (const std::string& part : stgnn::common::Split(next(), ',')) {
        options.sizes.push_back(stgnn::common::ParseInt(part).ValueOrDie());
      }
    } else if (arg == "--seed") {
      options.seed =
          static_cast<uint64_t>(stgnn::common::ParseInt(next()).ValueOrDie());
    } else if (arg == "--days") {
      options.days = stgnn::common::ParseInt(next()).ValueOrDie();
    } else if (arg == "--shock-day") {
      options.shock_day = stgnn::common::ParseInt(next()).ValueOrDie();
    } else if (arg == "--shock-log") {
      options.shock_log = stgnn::common::ParseDouble(next()).ValueOrDie();
    } else if (arg == "--epochs") {
      options.epochs = stgnn::common::ParseInt(next()).ValueOrDie();
    } else if (arg == "--samples") {
      options.samples = stgnn::common::ParseInt(next()).ValueOrDie();
    } else if (arg == "--steps-per-round") {
      options.steps_per_round = stgnn::common::ParseInt(next()).ValueOrDie();
    } else if (arg == "--train-window") {
      options.train_window = stgnn::common::ParseInt(next()).ValueOrDie();
    } else if (arg == "--holdout") {
      options.holdout = stgnn::common::ParseInt(next()).ValueOrDie();
    } else if (arg == "--margin") {
      options.margin = stgnn::common::ParseDouble(next()).ValueOrDie();
    } else if (arg == "--patience") {
      options.patience = stgnn::common::ParseInt(next()).ValueOrDie();
    } else if (arg == "--out") {
      options.out = next();
    } else if (arg == "--print-counters") {
      options.print_counters = true;
    } else if (arg == "--smoke") {
      // CI liveness gate: one tiny city (16 one-station districts), hard
      // assertions on the loop closing — at least one validated swap, and
      // the online model beating the frozen one on the final day.
      options.smoke = true;
      options.sizes = {16};
    } else {
      std::fprintf(stderr, "unknown argument %s\n", arg.c_str());
      return 2;
    }
  }

  STGNN_CHECK(options.days >= 10)
      << "need 7 train days + 1 val day + streamed days";
  STGNN_CHECK(options.shock_day >= 9 && options.shock_day < options.days)
      << "shock must land inside the streamed window";

  std::vector<RunResult> runs;
  for (int n : options.sizes) {
    runs.push_back(RunOne(n, options));
  }

  const int rc = WriteJson(options.out, options, runs);
  if (rc != 0) return rc;

  if (options.print_counters) {
    std::printf("%s", stgnn::common::counters::Format().c_str());
  }

  if (options.smoke) {
    bool ok = true;
    for (const RunResult& r : runs) {
      if (!r.smoke_ok) {
        std::fprintf(stderr,
                     "ONLINE_SMOKE FAILED n=%d: swaps=%lld final online "
                     "%.4f vs frozen %.4f\n",
                     r.n, static_cast<long long>(r.trainer.swaps),
                     r.final_day.online, r.final_day.frozen);
        ok = false;
      }
    }
    if (!ok) return 1;
    std::printf("ONLINE_SMOKE OK\n");
  }
  return 0;
}
