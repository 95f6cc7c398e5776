#ifndef STGNN_SERVE_SHARD_ROUTER_H_
#define STGNN_SERVE_SHARD_ROUTER_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "common/result.h"
#include "graph/partition.h"
#include "serve/prediction_service.h"
#include "serve/shard_engine.h"
#include "serve/transport.h"
#include "tensor/tensor.h"

namespace stgnn::serve {

struct ShardFleetOptions {
  // Per-shard PredictionService options (each shard keeps its own queue,
  // batching, and shedding).
  ServiceOptions service;
  // Per-shard slot-context cache capacity.
  size_t cache_capacity = 4;
};

// The K-shard serving fleet: per shard, a ModelRegistry + owned-rows
// FeatureRing + ShardEngine + PredictionService. The fleet is the
// coordinator side of the halo exchange — EnsureContext drives the build
// rounds of transport.h against every shard through ShardChannel pointers
// (in-process today), assembling the full matrices between rounds.
//
// Ingest fans the same full [n, n] matrices to every shard ring (each
// stores only its owned rows, so total fleet ring memory equals one
// unsharded ring). Publish fans the same snapshot to every shard registry
// in shard order; per-registry versions stay in lockstep (1, 2, ...), which
// is what lets the router detect torn mixes by version alone.
class ShardFleet {
 public:
  ShardFleet(const graph::Partition& partition, int short_term_slots,
             int long_term_days, int slots_per_day, float scale,
             ShardFleetOptions options = {});
  ~ShardFleet();

  ShardFleet(const ShardFleet&) = delete;
  ShardFleet& operator=(const ShardFleet&) = delete;

  void Start();  // starts every shard service
  void Stop();

  // Ingest fan-out; fails on the first shard ring that refuses.
  Status Push(int slot, const tensor::Tensor& inflow,
              const tensor::Tensor& outflow);

  // Publishes one snapshot to every shard registry and returns the (lockstep)
  // version all of them assigned. Publishes are serialised.
  uint64_t Publish(const ModelSnapshot& snapshot);

  // Returns once no Publish is between its first and last shard swap. A
  // router retrying a version race waits here, so a publisher descheduled
  // between two shards cannot outlast the retries.
  void AwaitPublish() const;

  // Runs before each shard swap after the first, inside Publish (tests
  // widen the torn window with it).
  void SetPublishHookForTest(std::function<void(int shard)> hook);

  // The slot "latest" resolves to: the minimum ingest frontier across
  // shards (they ingest the same stream, so normally all agree).
  int next_slot() const;
  uint64_t current_version() const;

  // The live snapshot (null until the first Publish). Shard registries hold
  // the same snapshot in lockstep, so shard 0's copy speaks for the fleet —
  // this is what lets an online trainer warm-start from a sharded
  // deployment exactly as from a single registry.
  std::shared_ptr<const ModelSnapshot> Current() const;

  // Ensures every shard holds a finished context for (slot, version),
  // running the build rounds if needed. Concurrent callers for the same key
  // share one build. Fails typed — notably with "stale shard version" when
  // a publish lands mid-build (callers re-resolve and retry).
  Status EnsureContext(int slot, uint64_t version);

  int num_shards() const { return static_cast<int>(shards_.size()); }
  const graph::Partition& partition() const { return partition_; }
  PredictionService* service(int shard) { return shards_[shard]->service.get(); }
  ShardEngine* engine(int shard) { return shards_[shard]->engine.get(); }
  const ShardTransport& transport() const { return *transport_; }

 private:
  struct Shard {
    std::unique_ptr<ModelRegistry> registry;
    std::unique_ptr<FeatureRing> ring;
    std::unique_ptr<ShardEngine> engine;
    std::unique_ptr<PredictionService> service;
  };

  // The build rounds, uncoordinated (callers hold the build-once latch).
  Status BuildContexts(int slot, uint64_t version);

  const graph::Partition partition_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::unique_ptr<InProcessTransport> transport_;

  // Held across a Publish's shard swaps.
  mutable std::mutex publish_mu_;
  std::function<void(int)> publish_hook_for_test_;

  // Build-once latch per (slot, version): the first caller runs the rounds,
  // the rest wait on its outcome.
  std::mutex build_mu_;
  std::map<std::pair<int, uint64_t>, std::shared_future<Status>> inflight_;
};

struct RouterOptions {
  int num_workers = 2;
  int max_queue = 256;
  // Fan-out attempts per request: a hot-swap or a racing ring advance can
  // invalidate the ensured contexts between fan-out and merge; each retry
  // re-resolves the live version and rebuilds.
  int max_retries = 8;
};

struct RouterStats {
  int64_t submitted = 0;
  int64_t served = 0;
  int64_t failed = 0;
  int64_t shed_queue_full = 0;
  int64_t shed_deadline = 0;
  int64_t fanouts = 0;
  int64_t merges = 0;
  // Fan-outs discarded because sub-responses spanned a hot-swap (mixed
  // versions) or a shard refused with a stale/missing context.
  int64_t version_rejects = 0;
  int64_t retries = 0;
};

// The fan-out router: the single front door of the sharded fleet. Accepts
// the same PredictRequest as an unsharded PredictionService; splits the
// station list by partition owner, fans sub-requests to the owning shards'
// services, and merges the sub-responses back into request-station order.
// Version consistency is enforced at the merge: all sub-responses must
// carry the same model version, else the fan-out is discarded and retried —
// a response can never mix two models' rows across a hot-swap.
//
// An empty station list fans to every shard and merges the owned rows back
// into global station order, bitwise equal to the unsharded full response.
class ShardRouter {
 public:
  ShardRouter(ShardFleet* fleet, RouterOptions options = {});
  ~ShardRouter();

  ShardRouter(const ShardRouter&) = delete;
  ShardRouter& operator=(const ShardRouter&) = delete;

  void Start();
  void Stop();

  std::future<PredictResponse> SubmitAsync(PredictRequest request);
  PredictResponse Predict(PredictRequest request);

  RouterStats stats() const;
  const RouterOptions& options() const { return options_; }
  const LatencyHistogram& latency_histogram() const { return latency_; }

  // Test seam: runs on the serving thread each time a request's slot is
  // resolved, before its contexts are ensured, so a test can land ingest
  // exactly inside that window. Set before Start().
  void SetResolvedHookForTest(std::function<void(int slot)> hook);

 private:
  struct Entry {
    PredictRequest request;
    std::promise<PredictResponse> promise;
    int64_t submit_ns = 0;
  };

  void WorkerLoop();
  // One routed request, including the retry loop. Does not fill latency.
  PredictResponse Serve(const PredictRequest& request);
  void Respond(Entry* entry, PredictResponse response);

  ShardFleet* const fleet_;
  const RouterOptions options_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Entry> queue_;
  bool stop_ = false;
  bool started_ = false;
  std::vector<std::thread> workers_;
  RouterStats stats_;
  std::function<void(int)> resolved_hook_for_test_;

  LatencyHistogram latency_;
};

}  // namespace stgnn::serve

#endif  // STGNN_SERVE_SHARD_ROUTER_H_
