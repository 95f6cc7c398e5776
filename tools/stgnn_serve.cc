// Load-test harness for the serving runtime.
//
// Replays city-simulator traffic against a PredictionService: per graph
// size n it generates a synthetic city, fills a FeatureRing with the
// observed flow slots, publishes an StgnnDjd snapshot, then drives the
// service and records throughput, the micro-batch size distribution, tail
// latency (p50/p95/p99 from the always-on serving histogram), and the shed
// rate to a tracked JSON (BENCH_serve.json).
//
// Three runs per n:
//   - "saturation": closed-loop with a deep in-flight window, so the queue
//     is never empty and the service batches as hard as max_batch allows;
//   - "batch1": the same load against max_batch = 1, the no-batching
//     baseline the speedup claim is measured against;
//   - "no_cache": the saturation load with the snapshot's serve_cache off,
//     the baseline for the slot-cache p50/p99 claim.
// Every run, unsharded or sharded, builds the frontier's slot context
// before its clock starts and reports that build as warm_build_ms.
// With --qps the saturation run becomes open-loop (paced submission), which
// is what the CI smoke uses: a low rate that a healthy service must absorb
// with zero sheds. The smoke additionally runs the load with the cache on
// AND off and hard-fails if the order-independent prediction checksums
// differ (the cached path must be bit-identical) or if the cache-on run's
// hit rate falls below (batches - workers) / batches.
//
// --shards K1,K2,... adds the sharded sweep: per --shard-n size (default
// the 1024/4096 ServingScale cities) it builds a ShardFleet + ShardRouter
// per K and replays a deterministic cluster-local query mix (seven
// single-district requests then one full-city request, repeating) against
// every fleet AND against the unsharded service. All runs of one size must
// produce the same order-independent prediction checksum — the sharded
// stack is required to be bitwise invisible — and the tool exits non-zero
// on any mismatch. The JSON gains a "shard_scaling" map of saturation
// throughput relative to the K=1 fleet. In --smoke the sweep runs K in
// {1, 4} against the n=16 city and the checksum gate doubles as the CI
// cross-config diff.
//
// Usage: stgnn_serve [--n 128,256,512] [--workers W] [--max-batch B]
//                    [--queue Q] [--requests R] [--qps QPS] [--out PATH]
//                    [--shards K,...] [--shard-n N,...] [--shard-requests R]
//                    [--seed S] [--smoke] [--print-counters]
// --seed reseeds the simulated city's activity process (0 = the preset
// default), so two runs with the same seed replay the identical trip
// stream — the knob BENCH_online.json-style drift scenarios pin.
// Regenerate the tracked record from the repo root with:
//   ./build/tools/stgnn_serve --shards 1,2,4 --shard-n 1024 --out BENCH_serve.json
// (the default --shard-n also sweeps the n=4096 city, which holds several
// GB of flow matrices).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/counters.h"
#include "common/cpuid.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "core/config.h"
#include "core/stgnn_djd.h"
#include "data/city_simulator.h"
#include "data/flow_dataset.h"
#include "graph/partition.h"
#include "serve/engine.h"
#include "serve/feature_ring.h"
#include "serve/model_registry.h"
#include "serve/prediction_service.h"
#include "serve/shard_router.h"

namespace stgnn {
namespace {

struct Options {
  std::vector<int> sizes = {128, 256, 512};
  int workers = 2;
  int max_batch = 16;
  int max_queue = 1024;
  int requests = 96;  // saturation-run request count per n
  double qps = 0.0;   // 0 = closed-loop saturation
  std::string out = "BENCH_serve.json";
  bool smoke = false;
  bool print_counters = false;
  // Sharded sweep: empty = skip. Each K gets its own fleet + router run
  // over every shard-n size; 0 shard-requests picks a per-size default.
  std::vector<int> shards;
  std::vector<int> shard_sizes = {1024, 4096};
  int shard_requests = 0;
  // City-simulator seed override; 0 keeps each preset's default.
  uint64_t seed = 0;
};

struct RunResult {
  std::string mode;
  int n = 0;
  int workers = 0;
  int max_batch = 0;
  int64_t requests = 0;
  int64_t served = 0;
  int64_t shed = 0;
  int64_t failed = 0;
  double wall_s = 0.0;
  double throughput_rps = 0.0;
  double mean_batch = 0.0;
  double mean_us = 0.0;
  double p50_us = 0.0;
  double p95_us = 0.0;
  double p99_us = 0.0;
  bool serve_cache = true;
  // Order-independent FNV-1a digest over every served (slot, prediction
  // bits) pair: cache-on and cache-off runs of the same load must agree.
  uint64_t checksum = 0;
  // Sharded runs only: effective shard count (0 = unsharded service) and
  // the router/halo tallies of the run.
  int shards = 0;
  int64_t fanouts = 0;
  int64_t merges = 0;
  int64_t version_rejects = 0;
  int64_t retries = 0;
  int64_t halo_rows = 0;
  // Wall time of the slot's context build before the timed window (halo
  // rounds for a fleet, one engine execution for the unsharded service).
  double warm_build_ms = 0.0;
  int64_t batches = 0;
  int64_t assemblies = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t cache_invalidations = 0;
  std::vector<int64_t> batch_size_counts;

  double hit_rate() const {
    const uint64_t lookups = cache_hits + cache_misses;
    return lookups > 0 ? static_cast<double>(cache_hits) / lookups : 0.0;
  }
};

// FNV-1a over the resolved slot and the raw float bits of the prediction
// rows. Summed (wrapping) across responses so the digest is independent of
// completion order — concurrent workers finish batches in any order.
uint64_t ResponseDigest(const serve::PredictResponse& response) {
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  mix(static_cast<uint64_t>(response.slot));
  const tensor::Tensor& p = response.predictions;
  for (int64_t i = 0; i < p.size(); ++i) {
    const float value = p.flat(i);
    uint32_t bits;
    std::memcpy(&bits, &value, sizeof(bits));
    mix(bits);
  }
  return h;
}

// The serving fixture for one graph size: simulated city, ring warmed with
// every slot up to the frontier, and a published (untrained — serving cost
// does not depend on the weights) model snapshot.
struct Fixture {
  explicit Fixture(int n, uint64_t seed = 0) {
    data::CityConfig city = data::CityConfig::Tiny();
    if (n >= 1024) {
      // The sharded-scale cities: 32x32 / 64x64 district grids at two-hour
      // slots (the ServingScale presets the partition heuristic targets).
      city = data::CityConfig::ServingScale(n);
    } else {
      if (n > 8) {
        city.name = "serve-" + std::to_string(n);
        city.num_districts = 16;
        city.stations_per_district = n / 16;
        STGNN_CHECK_EQ(city.num_districts * city.stations_per_district, n)
            << "--n values must be multiples of 16";
      }
      // One-hour slots over two days: enough history for k=8 slots plus
      // d=1 day at a load-test-friendly forward cost.
      city.slot_minutes = 60;
      city.num_days = 2;
    }
    // Applied after the preset branch so it survives the ServingScale
    // reassignment above.
    if (seed != 0) city.seed = seed;
    num_districts = city.num_districts;
    stations_per_district = city.stations_per_district;
    data::TripDataset trips = data::CitySimulator(city).Generate();
    data::CleanseTrips(&trips);
    flow = std::make_unique<data::FlowDataset>(data::BuildFlowDataset(trips));

    config.short_term_slots = 8;
    config.long_term_days = 1;
    config.fcg_layers = 1;
    config.pcg_layers = 1;
    config.attention_heads = 2;
    config.dropout = 0.0f;
    config.horizon = 1;
    config.seed = 7;
    const float scale =
        config.input_scale_multiplier / flow->max_train_flow;

    ring = std::make_unique<serve::FeatureRing>(
        flow->num_stations, config.short_term_slots, config.long_term_days,
        flow->slots_per_day, scale);
    // Warm the ring past the first predictable slot; requests then ask for
    // "latest" like an online caller would. The two-hour ServingScale
    // cities only have a couple of slots to spare past the window, hence
    // the clamp.
    frontier = std::min(ring->first_predictable_slot() + 6,
                        flow->num_slots - 2);
    STGNN_CHECK_GT(frontier, ring->first_predictable_slot());
    for (int t = 0; t < frontier; ++t) {
      const Status st = ring->Push(t, flow->inflow[t], flow->outflow[t]);
      STGNN_CHECK(st.ok()) << st.ToString();
    }

    common::Rng rng(config.seed);
    model = std::make_shared<const core::StgnnDjdModel>(flow->num_stations,
                                                        config, &rng);
    normalizer = std::make_unique<data::MinMaxNormalizer>(
        data::MinMaxNormalizer::Fit(flow->demand, flow->supply,
                                    flow->train_end));
    input_scale = scale;
    Publish(/*serve_cache=*/true);
  }

  // Republishes the same weights with the slot cache toggled — the knob
  // lives in the snapshot's config, so a hot-swap flips it. When the
  // config asks for a reduced inference precision (STGNN_INFER_PRECISION),
  // the snapshot carries quantized weights and the service serves through
  // the quantized path.
  serve::ModelSnapshot MakeSnapshot(bool serve_cache) const {
    core::StgnnConfig snapshot_config = config;
    snapshot_config.serve_cache = serve_cache;
    serve::ModelSnapshot snapshot(model, *normalizer, input_scale,
                                  snapshot_config);
    if (config.infer_precision != tensor::Precision::kFp32) {
      serve::QuantizeSnapshot(&snapshot, config.infer_precision);
    }
    return snapshot;
  }

  void Publish(bool serve_cache) { registry.Publish(MakeSnapshot(serve_cache)); }

  // Replays the warmed slots into a fleet's shard rings (each keeps only
  // its owned rows).
  void WarmFleet(serve::ShardFleet* fleet) const {
    for (int t = 0; t < frontier; ++t) {
      const Status st = fleet->Push(t, flow->inflow[t], flow->outflow[t]);
      STGNN_CHECK(st.ok()) << st.ToString();
    }
  }

  // Frees the per-slot [n, n] flow matrices once every ring is warmed — at
  // n = 4096 they are the bulk of the fixture's footprint.
  void ReleaseFlow() {
    flow->inflow.clear();
    flow->inflow.shrink_to_fit();
    flow->outflow.clear();
    flow->outflow.shrink_to_fit();
  }

  int num_districts = 0;
  int stations_per_district = 0;
  int frontier = 0;
  std::unique_ptr<data::FlowDataset> flow;
  core::StgnnConfig config;
  std::unique_ptr<serve::FeatureRing> ring;
  serve::ModelRegistry registry;
  std::shared_ptr<const core::StgnnDjdModel> model;
  std::unique_ptr<data::MinMaxNormalizer> normalizer;
  float input_scale = 1.0f;
};

// The deterministic cluster-local query mix of the sharded sweep: seven
// single-district requests (district hopping in a fixed pseudo-random
// order) then one full-city request, repeating. District locality is what
// the partitioner preserves, so most requests fan out to exactly one shard.
serve::PredictRequest MixRequest(int i, const Fixture& fixture) {
  serve::PredictRequest request;
  if (i % 8 == 7) return request;  // full city
  const int district = static_cast<int>(
      (static_cast<uint64_t>(i) * 131) % fixture.num_districts);
  const int per = fixture.stations_per_district;
  request.stations.reserve(per);
  for (int s = district * per; s < (district + 1) * per; ++s) {
    request.stations.push_back(s);
  }
  return request;
}

// Drives `requests` kLatestSlot queries through a fresh service. qps > 0
// paces submission open-loop; qps == 0 keeps a deep window of futures in
// flight so the workers always find a full queue (saturation).
// make_request (when set) supplies each request body — the sharded sweep
// uses it to replay the same mix un- and sharded.
RunResult Drive(const std::string& mode, Fixture* fixture,
                const serve::ServiceOptions& service_options, int requests,
                double qps, bool serve_cache,
                const std::function<serve::PredictRequest(int)>& make_request =
                    nullptr) {
  fixture->Publish(serve_cache);
  serve::LocalEngine engine(&fixture->registry, fixture->ring.get());
  // As in DriveFleet, the frontier's context is built before the clock
  // starts (it amortises over the slot's lifetime) and reported on its own
  // as warm_build_ms. The warm-up calls the engine directly, so it is in no
  // served count and no checksum. With the cache off it builds nothing that
  // lasts, and warm_build_ms is one cold execution.
  const auto build_start = std::chrono::steady_clock::now();
  {
    const Result<serve::EngineOutput> warmed =
        engine.Execute(fixture->ring->next_slot());
    STGNN_CHECK(warmed.ok()) << warmed.status().ToString();
  }
  const double warm_build_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - build_start)
          .count();
  serve::PredictionService service(&engine, service_options);
  service.Start();

  const int window = qps > 0.0 ? service_options.max_queue
                               : 4 * service_options.max_batch;
  std::deque<std::future<serve::PredictResponse>> inflight;
  int64_t shed = 0;
  int64_t failed = 0;
  uint64_t checksum = 0;
  auto account = [&](serve::PredictResponse response) {
    switch (response.kind) {
      case serve::PredictResponse::Kind::kOk:
        checksum += ResponseDigest(response);  // wrapping, order-independent
        break;
      case serve::PredictResponse::Kind::kRejectedQueueFull:
      case serve::PredictResponse::Kind::kRejectedDeadline:
        ++shed;
        break;
      case serve::PredictResponse::Kind::kFailed:
        ++failed;
        std::fprintf(stderr, "  request failed: %s\n",
                     response.status.ToString().c_str());
        break;
    }
  };

  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < requests; ++i) {
    if (qps > 0.0) {
      std::this_thread::sleep_until(
          start + std::chrono::duration_cast<
                      std::chrono::steady_clock::duration>(
                      std::chrono::duration<double>(i / qps)));
    }
    inflight.push_back(
        service.SubmitAsync(make_request ? make_request(i)
                                         : serve::PredictRequest{}));
    while (static_cast<int>(inflight.size()) >= window) {
      account(inflight.front().get());
      inflight.pop_front();
    }
  }
  while (!inflight.empty()) {
    account(inflight.front().get());
    inflight.pop_front();
  }
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  service.Stop();

  const serve::ServiceStats stats = service.stats();
  const serve::LatencyHistogram& hist = service.latency_histogram();
  RunResult result;
  result.mode = mode;
  result.n = fixture->flow->num_stations;
  result.workers = service_options.num_workers;
  result.max_batch = service_options.max_batch;
  result.requests = requests;
  result.served = stats.served;
  result.shed = shed;
  result.failed = failed;
  result.wall_s = wall_s;
  result.throughput_rps = wall_s > 0.0 ? stats.served / wall_s : 0.0;
  result.mean_batch =
      stats.batches > 0
          ? static_cast<double>(stats.served) / stats.batches
          : 0.0;
  result.mean_us = hist.MeanNs() / 1e3;
  result.p50_us = hist.PercentileNs(50) / 1e3;
  result.p95_us = hist.PercentileNs(95) / 1e3;
  result.p99_us = hist.PercentileNs(99) / 1e3;
  result.serve_cache = serve_cache;
  result.checksum = checksum;
  result.warm_build_ms = warm_build_ms;
  result.batches = stats.batches;
  result.assemblies = stats.assemblies;
  const serve::SlotCache::Stats& cache = service.cache_stats();
  result.cache_hits = cache.hits.load();
  result.cache_misses = cache.misses.load();
  result.cache_invalidations = cache.invalidations.load();
  result.batch_size_counts = stats.batch_size_counts;
  return result;
}

// Drives the cluster-local mix through a fleet's fan-out router,
// closed-loop at saturation: every request is in flight at once. Each
// router worker carries one fan-out end to end (it blocks on the
// sub-futures), so the worker count IS the concurrency the shard services
// see. A K-shard fleet's throughput ceiling is K * max_batch requests per
// owned-row replay; offering less than K * max_batch concurrency starves
// the per-shard queues, caps every K at the same small-batch rate, and
// hides exactly the scaling the partition buys — so the offered load
// scales with the fleet, not with a fixed constant.
RunResult DriveFleet(Fixture* fixture, serve::ShardFleet* fleet,
                     const Options& options, int requests) {
  serve::RouterOptions router_options;
  router_options.num_workers = std::min(requests, 256);
  router_options.max_queue =
      std::max(options.max_queue, 2 * router_options.num_workers);
  serve::ShardRouter router(fleet, router_options);
  fleet->Start();
  router.Start();

  // The halo-exchange build is once per (slot, version) and amortises over
  // the slot's whole lifetime (slots are hours of wall-clock in
  // production), so it stays outside the timed window: the sweep measures
  // steady-state replay throughput, and the build is reported on its own
  // (warm_build_ms, plus the halo rows it exchanged). The halo baseline is
  // read before the build, which is the only place rows are exchanged.
  const int64_t halo_before =
      common::counters::FindOrCreate("serve.shard.halo_rows")->value();
  const auto build_start = std::chrono::steady_clock::now();
  {
    const Status warmed =
        fleet->EnsureContext(fleet->next_slot(), fleet->current_version());
    STGNN_CHECK(warmed.ok()) << warmed.ToString();
  }
  const double warm_build_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - build_start)
          .count();

  const int window = router_options.num_workers;
  std::deque<std::future<serve::PredictResponse>> inflight;
  int64_t shed = 0;
  int64_t failed = 0;
  uint64_t checksum = 0;
  auto account = [&](serve::PredictResponse response) {
    switch (response.kind) {
      case serve::PredictResponse::Kind::kOk:
        checksum += ResponseDigest(response);
        break;
      case serve::PredictResponse::Kind::kRejectedQueueFull:
      case serve::PredictResponse::Kind::kRejectedDeadline:
        ++shed;
        break;
      case serve::PredictResponse::Kind::kFailed:
        ++failed;
        std::fprintf(stderr, "  routed request failed: %s\n",
                     response.status.ToString().c_str());
        break;
    }
  };

  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < requests; ++i) {
    inflight.push_back(router.SubmitAsync(MixRequest(i, *fixture)));
    while (static_cast<int>(inflight.size()) >= window) {
      account(inflight.front().get());
      inflight.pop_front();
    }
  }
  while (!inflight.empty()) {
    account(inflight.front().get());
    inflight.pop_front();
  }
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  router.Stop();
  fleet->Stop();

  const serve::RouterStats router_stats = router.stats();
  const serve::LatencyHistogram& hist = router.latency_histogram();
  RunResult result;
  result.mode = "shard_mix";
  result.n = fixture->flow->num_stations;
  result.workers = options.workers;
  result.max_batch = options.max_batch;
  result.requests = requests;
  result.served = router_stats.served;
  result.shed = shed;
  result.failed = failed;
  result.wall_s = wall_s;
  result.throughput_rps = wall_s > 0.0 ? router_stats.served / wall_s : 0.0;
  result.mean_us = hist.MeanNs() / 1e3;
  result.p50_us = hist.PercentileNs(50) / 1e3;
  result.p95_us = hist.PercentileNs(95) / 1e3;
  result.p99_us = hist.PercentileNs(99) / 1e3;
  result.checksum = checksum;
  result.shards = fleet->num_shards();
  result.fanouts = router_stats.fanouts;
  result.merges = router_stats.merges;
  result.version_rejects = router_stats.version_rejects;
  result.retries = router_stats.retries;
  result.halo_rows =
      common::counters::FindOrCreate("serve.shard.halo_rows")->value() -
      halo_before;
  result.warm_build_ms = warm_build_ms;
  int64_t batches = 0;
  uint64_t hits = 0;
  uint64_t misses = 0;
  double mean_batch_num = 0.0;
  for (int s = 0; s < fleet->num_shards(); ++s) {
    const serve::ServiceStats shard_stats = fleet->service(s)->stats();
    batches += shard_stats.batches;
    mean_batch_num += static_cast<double>(shard_stats.served);
    const serve::SlotCacheStats& cache = fleet->service(s)->cache_stats();
    hits += cache.hits.load();
    misses += cache.misses.load();
  }
  result.batches = batches;
  result.mean_batch = batches > 0 ? mean_batch_num / batches : 0.0;
  result.cache_hits = hits;
  result.cache_misses = misses;
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
  std::fprintf(f, "  \"schema\": \"stgnn-bench-serve-v5\",\n");
  std::fprintf(f, "  \"hardware_threads\": %d,\n", common::HardwareThreads());
  std::fprintf(f, "  \"isa\": \"%s\",\n",
               common::IsaName(common::ActiveIsa()));
  std::fprintf(f, "  \"precision\": \"%s\",\n",
               tensor::PrecisionName(core::DefaultInferPrecision()));
  std::fprintf(f,
               "  \"model\": \"untrained StgnnDjd k=8 d=1 fcg=1 pcg=1 "
               "heads=2, hourly slots\",\n");
  std::fprintf(f, "  \"qps\": %.1f,\n", options.qps);
  std::fprintf(f, "  \"runs\": [\n");
  for (size_t i = 0; i < runs.size(); ++i) {
    const RunResult& r = runs[i];
    std::fprintf(
        f,
        "    {\"mode\": \"%s\", \"n\": %d, \"shards\": %d, \"workers\": %d, "
        "\"max_batch\": %d, \"requests\": %lld, \"served\": %lld, "
        "\"shed\": %lld, \"failed\": %lld, \"wall_s\": %.3f, "
        "\"throughput_rps\": %.2f, \"mean_batch_size\": %.2f, "
        "\"warm_build_ms\": %.1f,\n"
        "     \"latency_us\": {\"mean\": %.1f, \"p50\": %.1f, "
        "\"p95\": %.1f, \"p99\": %.1f},\n"
        "     \"serve_cache\": %s, \"checksum\": \"%016llx\",\n"
        "     \"cache\": {\"hits\": %llu, \"misses\": %llu, "
        "\"invalidations\": %llu, \"assemblies\": %lld, "
        "\"hit_rate\": %.3f},\n",
        r.mode.c_str(), r.n, r.shards, r.workers, r.max_batch,
        static_cast<long long>(r.requests), static_cast<long long>(r.served),
        static_cast<long long>(r.shed), static_cast<long long>(r.failed),
        r.wall_s, r.throughput_rps, r.mean_batch, r.warm_build_ms,
        r.mean_us, r.p50_us, r.p95_us, r.p99_us,
        r.serve_cache ? "true" : "false",
        static_cast<unsigned long long>(r.checksum),
        static_cast<unsigned long long>(r.cache_hits),
        static_cast<unsigned long long>(r.cache_misses),
        static_cast<unsigned long long>(r.cache_invalidations),
        static_cast<long long>(r.assemblies), r.hit_rate());
    if (r.shards > 0) {
      std::fprintf(f,
                   "     \"router\": {\"fanouts\": %lld, \"merges\": %lld, "
                   "\"version_rejects\": %lld, \"retries\": %lld, "
                   "\"halo_rows\": %lld},\n",
                   static_cast<long long>(r.fanouts),
                   static_cast<long long>(r.merges),
                   static_cast<long long>(r.version_rejects),
                   static_cast<long long>(r.retries),
                   static_cast<long long>(r.halo_rows));
    }
    std::fprintf(f, "     \"batch_size_counts\": [");
    for (size_t b = 0; b < r.batch_size_counts.size(); ++b) {
      std::fprintf(f, "%s%lld", b > 0 ? ", " : "",
                   static_cast<long long>(r.batch_size_counts[b]));
    }
    std::fprintf(f, "]}%s\n", i + 1 < runs.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"speedup_vs_batch1\": {");
  bool first = true;
  for (const RunResult& r : runs) {
    if (r.mode != "saturation") continue;
    for (const RunResult& base : runs) {
      if (base.mode == "batch1" && base.n == r.n &&
          base.throughput_rps > 0.0) {
        std::fprintf(f, "%s\"%d\": %.2f", first ? "" : ", ", r.n,
                     r.throughput_rps / base.throughput_rps);
        first = false;
      }
    }
  }
  std::fprintf(f, "},\n");
  // Slot-cache latency claim: cached saturation vs the no_cache baseline.
  std::fprintf(f, "  \"cache_latency_speedup\": {");
  first = true;
  for (const RunResult& r : runs) {
    if (r.mode != "saturation" || !r.serve_cache) continue;
    for (const RunResult& base : runs) {
      if (base.mode == "no_cache" && base.n == r.n && r.p50_us > 0.0 &&
          r.p99_us > 0.0) {
        std::fprintf(f, "%s\"%d\": {\"p50\": %.2f, \"p99\": %.2f}",
                     first ? "" : ", ", r.n, base.p50_us / r.p50_us,
                     base.p99_us / r.p99_us);
        first = false;
      }
    }
  }
  std::fprintf(f, "},\n");
  // Shard-scaling claim: K-shard aggregate saturation throughput on the
  // cluster-local mix relative to the K=1 fleet of the same size.
  std::fprintf(f, "  \"shard_scaling\": {");
  first = true;
  for (const RunResult& base : runs) {
    if (base.mode != "shard_mix" || base.shards != 1 ||
        base.throughput_rps <= 0.0) {
      continue;
    }
    std::fprintf(f, "%s\"%d\": {", first ? "" : ", ", base.n);
    first = false;
    bool first_k = true;
    for (const RunResult& r : runs) {
      if (r.mode != "shard_mix" || r.n != base.n) continue;
      std::fprintf(f, "%s\"%d\": %.2f", first_k ? "" : ", ", r.shards,
                   r.throughput_rps / base.throughput_rps);
      first_k = false;
    }
    std::fprintf(f, "}");
  }
  std::fprintf(f, "}\n}\n");
  std::fclose(f);
  std::fprintf(stderr, "wrote %s\n", path.c_str());
  return 0;
}

int Main(const Options& options) {
  std::vector<RunResult> runs;
  for (int n : options.sizes) {
    std::fprintf(stderr, "n=%d: generating city + warming ring...\n", n);
    Fixture fixture(n, options.seed);
    serve::ServiceOptions batched;
    batched.num_workers = options.workers;
    batched.max_batch = options.max_batch;
    batched.max_queue = options.max_queue;

    const char* mode = options.qps > 0.0 ? "paced" : "saturation";
    std::fprintf(stderr, "n=%d: %s run (%d requests)...\n", n, mode,
                 options.requests);
    runs.push_back(Drive(mode, &fixture, batched, options.requests,
                         options.qps, /*serve_cache=*/true));

    if (options.smoke) {
      // The same paced load with the slot cache off: the checksums of both
      // runs must agree bit for bit (checked below).
      std::fprintf(stderr, "n=%d: cache-off run (%d requests)...\n", n,
                   options.requests);
      runs.push_back(Drive("no_cache", &fixture, batched, options.requests,
                           options.qps, /*serve_cache=*/false));
    } else {
      // The no-batching baseline: same service, max_batch = 1, fewer
      // requests (each one pays a full forward).
      serve::ServiceOptions single = batched;
      single.max_batch = 1;
      const int base_requests = std::max(8, options.requests / 12);
      std::fprintf(stderr, "n=%d: batch1 baseline (%d requests)...\n", n,
                   base_requests);
      runs.push_back(Drive("batch1", &fixture, single, base_requests, 0.0,
                           /*serve_cache=*/true));
      // The slot-cache baseline: the saturation load, cold prefix every
      // batch.
      std::fprintf(stderr, "n=%d: no_cache baseline (%d requests)...\n", n,
                   options.requests);
      runs.push_back(Drive("no_cache", &fixture, batched, options.requests,
                           options.qps, /*serve_cache=*/false));
    }
  }

  // Sharded sweep: per size, one fleet per K (all warmed before the flow
  // matrices are released) plus the unsharded service, all replaying the
  // same deterministic cluster-local mix.
  for (int n : options.shards.empty() ? std::vector<int>{}
                                      : options.shard_sizes) {
    std::fprintf(stderr, "shard n=%d: generating city + warming rings...\n",
                 n);
    Fixture fixture(n, options.seed);
    serve::ServiceOptions batched;
    batched.num_workers = options.workers;
    batched.max_batch = options.max_batch;
    batched.max_queue = options.max_queue;
    // Enough in-flight work to saturate the widest fleet's aggregate batch
    // capacity (K * max_batch); n >= 4096 keeps a token count — at that
    // size the sweep is a memory/parity check, not a scaling bench.
    const int requests = options.shard_requests > 0 ? options.shard_requests
                         : n >= 4096                ? 8
                                                    : 512;

    std::vector<std::unique_ptr<serve::ShardFleet>> fleets;
    for (int k : options.shards) {
      const graph::Partition partition = graph::PartitionStations(
          fixture.num_districts, fixture.stations_per_district, k);
      serve::ShardFleetOptions fleet_options;
      fleet_options.service = batched;
      auto fleet = std::make_unique<serve::ShardFleet>(
          partition, fixture.config.short_term_slots,
          fixture.config.long_term_days, fixture.flow->slots_per_day,
          fixture.input_scale, fleet_options);
      fixture.WarmFleet(fleet.get());
      fleet->Publish(fixture.MakeSnapshot(/*serve_cache=*/true));
      fleets.push_back(std::move(fleet));
    }
    fixture.ReleaseFlow();

    std::fprintf(stderr, "shard n=%d: unsharded mix baseline (%d requests)...\n",
                 n, requests);
    runs.push_back(Drive("unsharded_mix", &fixture, batched, requests, 0.0,
                         /*serve_cache=*/true,
                         [&fixture](int i) { return MixRequest(i, fixture); }));
    for (auto& fleet : fleets) {
      std::fprintf(stderr, "shard n=%d: K=%d fleet mix (%d requests)...\n", n,
                   fleet->num_shards(), requests);
      runs.push_back(DriveFleet(&fixture, fleet.get(), options, requests));
      fleet.reset();  // release this fleet's rings before the next run
    }
  }

  const int rc = WriteJson(options.out, options, runs);
  if (rc != 0) return rc;

  for (const RunResult& r : runs) {
    std::fprintf(stderr,
                 "  %-13s n=%-4d K=%d cache=%s served=%-4lld shed=%-3lld "
                 "throughput=%8.2f req/s mean_batch=%5.2f p50=%.0f us "
                 "p99=%.0f us checksum=%016llx\n",
                 r.mode.c_str(), r.n, r.shards, r.serve_cache ? "on " : "off",
                 static_cast<long long>(r.served),
                 static_cast<long long>(r.shed), r.throughput_rps,
                 r.mean_batch, r.p50_us, r.p99_us,
                 static_cast<unsigned long long>(r.checksum));
  }

  // The sharded stack must be bitwise invisible. Every mix run of one size
  // — unsharded service or any-K fleet — replayed the identical request
  // sequence against the identical weights, so their order-independent
  // checksums must agree exactly. This is the cross-config diff the CI
  // smoke relies on; it holds for the full bench sweep too.
  for (const RunResult& r : runs) {
    if (r.mode != "shard_mix" && r.mode != "unsharded_mix") continue;
    if (r.failed != 0 || r.shed != 0 || r.served != r.requests) {
      std::fprintf(stderr,
                   "shard sweep FAILED: %s n=%d K=%d served=%lld/%lld "
                   "shed=%lld failed=%lld\n",
                   r.mode.c_str(), r.n, r.shards,
                   static_cast<long long>(r.served),
                   static_cast<long long>(r.requests),
                   static_cast<long long>(r.shed),
                   static_cast<long long>(r.failed));
      return 1;
    }
    std::printf("SHARD_CHECKSUM precision=%s n=%d shards=%d value=%016llx\n",
                tensor::PrecisionName(core::DefaultInferPrecision()), r.n,
                r.shards, static_cast<unsigned long long>(r.checksum));
    for (const RunResult& base : runs) {
      if (base.mode != "unsharded_mix" || base.n != r.n) continue;
      if (r.checksum != base.checksum) {
        std::fprintf(stderr,
                     "shard sweep FAILED: n=%d K=%d checksum %016llx != "
                     "unsharded %016llx\n",
                     r.n, r.shards, static_cast<unsigned long long>(r.checksum),
                     static_cast<unsigned long long>(base.checksum));
        return 1;
      }
    }
  }

  if (options.print_counters) {
    for (const RunResult& r : runs) {
      std::printf(
          "serve.cache[%s n=%d cache=%s]: hits=%llu misses=%llu "
          "invalidations=%llu assemblies=%lld batches=%lld hit_rate=%.3f\n",
          r.mode.c_str(), r.n, r.serve_cache ? "on" : "off",
          static_cast<unsigned long long>(r.cache_hits),
          static_cast<unsigned long long>(r.cache_misses),
          static_cast<unsigned long long>(r.cache_invalidations),
          static_cast<long long>(r.assemblies),
          static_cast<long long>(r.batches), r.hit_rate());
    }
    const std::string table = common::counters::Format();
    std::fputs(table.empty() ? "(no non-zero counters)\n" : table.c_str(),
               stdout);
  }

  if (options.smoke) {
    // A healthy service must absorb the smoke load completely.
    for (const RunResult& r : runs) {
      if (r.shed != 0 || r.failed != 0 || r.served != r.requests) {
        std::fprintf(stderr,
                     "smoke FAILED: n=%d served=%lld/%lld shed=%lld "
                     "failed=%lld\n",
                     r.n, static_cast<long long>(r.served),
                     static_cast<long long>(r.requests),
                     static_cast<long long>(r.shed),
                     static_cast<long long>(r.failed));
        return 1;
      }
    }
    // The cache must be invisible in the outputs (bitwise) and effective
    // in the work: the whole smoke load targets one frontier slot, so the
    // cache-on run does at most one cold assembly per worker (racing
    // workers may each miss once) and hits everything else.
    for (const RunResult& r : runs) {
      if (r.mode != "paced" || !r.serve_cache) continue;
      for (const RunResult& base : runs) {
        if (base.mode != "no_cache" || base.n != r.n) continue;
        if (r.checksum != base.checksum) {
          std::fprintf(stderr,
                       "smoke FAILED: n=%d cache-on checksum %016llx != "
                       "cache-off %016llx\n",
                       r.n, static_cast<unsigned long long>(r.checksum),
                       static_cast<unsigned long long>(base.checksum));
          return 1;
        }
        if (base.cache_hits + base.cache_misses != 0) {
          std::fprintf(stderr,
                       "smoke FAILED: n=%d cache-off run consulted the "
                       "cache\n",
                       r.n);
          return 1;
        }
      }
      const int64_t min_hits = r.batches - options.workers;
      if (static_cast<int64_t>(r.cache_hits) < min_hits ||
          r.assemblies > options.workers) {
        std::fprintf(stderr,
                     "smoke FAILED: n=%d hits=%llu < %lld or "
                     "assemblies=%lld > workers=%d\n",
                     r.n, static_cast<unsigned long long>(r.cache_hits),
                     static_cast<long long>(min_hits),
                     static_cast<long long>(r.assemblies), options.workers);
        return 1;
      }
    }
    // When a reduced precision is selected the quantized path must have
    // actually engaged: a snapshot with quantized tensors, bytes saved,
    // and every batch served through the scope. A silent fp32 fallback
    // would pass every latency/checksum check above, so this is the
    // liveness gate for the quantized serving path.
    const tensor::Precision precision = core::DefaultInferPrecision();
#if defined(STGNN_TRACING_ENABLED)
    if (precision != tensor::Precision::kFp32) {
      const int64_t quant_tensors =
          common::counters::FindOrCreate("quant.tensors")->value();
      const int64_t quant_bytes =
          common::counters::FindOrCreate("quant.bytes_saved")->value();
      const int64_t quant_batches =
          common::counters::FindOrCreate("serve.quantized_batches")->value();
      if (quant_tensors <= 0 || quant_bytes <= 0 || quant_batches <= 0) {
        std::fprintf(stderr,
                     "smoke FAILED: precision=%s but quant.tensors=%lld, "
                     "quant.bytes_saved=%lld, serve.quantized_batches=%lld "
                     "(quantized path never engaged)\n",
                     tensor::PrecisionName(precision),
                     static_cast<long long>(quant_tensors),
                     static_cast<long long>(quant_bytes),
                     static_cast<long long>(quant_batches));
        return 1;
      }
    }
    // A K > 1 fleet cuts the city, so building its slot context must
    // exchange halo rows; zero means the tally is read in the wrong place.
    for (const RunResult& r : runs) {
      if (r.mode == "shard_mix" && r.shards > 1 && r.halo_rows <= 0) {
        std::fprintf(stderr,
                     "smoke FAILED: n=%d K=%d reported %lld halo rows\n",
                     r.n, r.shards, static_cast<long long>(r.halo_rows));
        return 1;
      }
    }
#endif
    // Stable per-precision digest for CI to diff: the quantized paths must
    // change prediction bits relative to an fp32 run of the same load.
    for (const RunResult& r : runs) {
      if (r.mode == "paced" && r.serve_cache) {
        std::printf("SMOKE_CHECKSUM precision=%s isa=%s n=%d value=%016llx\n",
                    tensor::PrecisionName(precision),
                    common::IsaName(common::ActiveIsa()), r.n,
                    static_cast<unsigned long long>(r.checksum));
      }
    }
    std::fprintf(stderr, "smoke OK\n");
  }
  return 0;
}

}  // namespace
}  // namespace stgnn

int main(int argc, char** argv) {
  stgnn::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--n") {
      options.sizes.clear();
      for (const std::string& part : stgnn::common::Split(next(), ',')) {
        options.sizes.push_back(
            stgnn::common::ParseInt(part).ValueOrDie());
      }
    } else if (arg == "--workers") {
      options.workers = stgnn::common::ParseInt(next()).ValueOrDie();
    } else if (arg == "--max-batch") {
      options.max_batch = stgnn::common::ParseInt(next()).ValueOrDie();
    } else if (arg == "--queue") {
      options.max_queue = stgnn::common::ParseInt(next()).ValueOrDie();
    } else if (arg == "--requests") {
      options.requests = stgnn::common::ParseInt(next()).ValueOrDie();
    } else if (arg == "--qps") {
      options.qps = stgnn::common::ParseDouble(next()).ValueOrDie();
    } else if (arg == "--shards") {
      options.shards.clear();
      for (const std::string& part : stgnn::common::Split(next(), ',')) {
        options.shards.push_back(stgnn::common::ParseInt(part).ValueOrDie());
      }
    } else if (arg == "--shard-n") {
      options.shard_sizes.clear();
      for (const std::string& part : stgnn::common::Split(next(), ',')) {
        options.shard_sizes.push_back(
            stgnn::common::ParseInt(part).ValueOrDie());
      }
    } else if (arg == "--shard-requests") {
      options.shard_requests = stgnn::common::ParseInt(next()).ValueOrDie();
    } else if (arg == "--seed") {
      options.seed = static_cast<uint64_t>(
          stgnn::common::ParseInt(next()).ValueOrDie());
    } else if (arg == "--out") {
      options.out = next();
    } else if (arg == "--print-counters") {
      options.print_counters = true;
    } else if (arg == "--smoke") {
      // Tiny city, gentle paced load, hard-fail on any shed: the CI
      // liveness check for the serving path. The sharded sweep rides along
      // at n=16 (16 one-station districts, so K=4 is a real four-way
      // partition) and its checksum gate is the cross-config diff.
      options.smoke = true;
      options.sizes = {8};
      options.requests = 40;
      options.qps = 50.0;
      options.max_batch = 8;
      options.shards = {1, 4};
      options.shard_sizes = {16};
      options.shard_requests = 40;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", arg.c_str());
      return 2;
    }
  }
  return stgnn::Main(options);
}
