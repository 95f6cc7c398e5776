#ifndef STGNN_SERVE_TRANSPORT_H_
#define STGNN_SERVE_TRANSPORT_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "tensor/tensor.h"

namespace stgnn::serve {

// Round payloads. Each carries one shard's rows of a stage, in the order of
// the shard's owned station ids; the coordinator scatters them into full
// matrices.

// Round 1: the four 1x1-conv outputs (Eq. (1)-(4)).
struct ShardConvRows {
  tensor::Tensor inflow_short;   // [o, n]
  tensor::Tensor outflow_short;  // [o, n]
  tensor::Tensor inflow_long;    // [o, n]
  tensor::Tensor outflow_long;   // [o, n]
};

// Round 2: the fused temporal matrices and node features (Eq. (5)-(9)).
struct ShardFusedRows {
  tensor::Tensor temporal_inflow;   // Î rows, [o, n]
  tensor::Tensor temporal_outflow;  // Ô rows, [o, n]
  tensor::Tensor node_features;     // T rows, [o, n]
};

// Rounds 3+: per head, the destination scores and values of one attention
// layer's input rows.
struct PcgHeadExports {
  std::vector<tensor::Tensor> d;  // per head, [o, 1]
  std::vector<tensor::Tensor> v;  // per head, [o, f]
};

// The same, assembled over every station: what the coordinator hands each
// shard back as the layer's halo.
struct PcgLayerHalo {
  std::vector<tensor::Tensor> d_full;  // per head, [1, n]
  std::vector<tensor::Tensor> v_full;  // per head, [n, f]
};

// Wire protocol of the sharded serving fleet: the build-round RPCs the
// coordinator (ShardFleet::EnsureContext) drives against every shard to
// construct one (slot, model version) serving context. Each round exports
// the shard's rows of one stage; the coordinator scatters the exports into
// full matrices and hands them back as the next round's halo. The payloads
// are plain tensors + row lists — nothing in-process-only crosses this
// interface, so a socket transport can serialise the same calls and the
// fleet, router, and engines keep working unchanged.
//
// Every round names the model version it is building for. A shard whose
// registry has moved past that version refuses with a typed
// FailedPrecondition containing "stale shard version"; the coordinator
// restarts the build at the new version (the router retries on top).
//
// Thread-safety: CurrentVersion/NextSlot are lock-free reads; the round
// calls are internally serialised per shard.
class ShardChannel {
 public:
  virtual ~ShardChannel() = default;

  // Version of the shard's live snapshot (0 when none published).
  virtual uint64_t CurrentVersion() const = 0;
  // Ingest frontier of the shard's ring.
  virtual int NextSlot() const = 0;
  // True when the shard already holds a finished context for (slot,
  // version) — the coordinator's fast path skips the build rounds. Counts
  // a hit or a miss in the shard's cache stats, so a hot-swap shows up as
  // exactly one miss per shard (the probe that triggers the rebuild).
  virtual bool HasContext(int slot, uint64_t version) = 0;

  // Round 1: the shard's rows of the four 1x1-conv outputs, computed from
  // its own ring rows. Starts (or joins) the build for (slot, version).
  virtual Result<ShardConvRows> ConvRows(int slot, uint64_t version) = 0;

  // Round 2: the shard's rows of the fused temporal matrices and node
  // features, from the assembled full conv matrices.
  virtual Result<ShardFusedRows> FuseRows(
      int slot, uint64_t version, const tensor::Tensor& inflow_short_full,
      const tensor::Tensor& outflow_short_full,
      const tensor::Tensor& inflow_long_full,
      const tensor::Tensor& outflow_long_full) = 0;

  // Round 3: the shard derives the slot's full FCG locally from the
  // assembled embeddings (deterministic — every shard builds the identical
  // graph), prepares its FCG replay plan, and returns its exports for the
  // first attention layer.
  virtual Result<PcgHeadExports> BuildLocal(
      int slot, uint64_t version, const tensor::Tensor& temporal_inflow_full,
      const tensor::Tensor& temporal_outflow_full,
      const tensor::Tensor& node_features_full) = 0;

  // Rounds 4..3+L: stores attention layer `layer`'s assembled halo in the
  // building context and returns the shard's exports for layer+1. The last
  // layer finalises the context into the shard's slot cache and returns
  // empty exports.
  virtual Result<PcgHeadExports> PcgLayer(int slot, uint64_t version,
                                          int layer,
                                          const PcgLayerHalo& halo) = 0;
};

}  // namespace stgnn::serve

#endif  // STGNN_SERVE_TRANSPORT_H_
