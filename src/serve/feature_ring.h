#ifndef STGNN_SERVE_FEATURE_RING_H_
#define STGNN_SERVE_FEATURE_RING_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "data/window.h"
#include "tensor/csr.h"
#include "tensor/tensor.h"

namespace stgnn::serve {

// Observer of ring frontier advances, used to invalidate derived per-slot
// state (the serving SlotCache) in the same critical section that commits
// the new slot — so no reader can observe the new frontier before the
// invalidation ran.
class RingListener {
 public:
  virtual ~RingListener() = default;

  // Called with the ring's mutex held, immediately after a Push commits.
  // `frontier` is the new next_slot(); `min_servable_slot` is the smallest
  // t for which History(t) can still succeed. The callee must not call back
  // into the ring (the mutex is held) and must be fast.
  virtual void OnRingAdvance(int frontier, int min_servable_slot) = 0;
};

// One retained slot's pre-scaled flows as CSR rows. Row r is the ring's
// r-th stored station row (station owned_rows()[r], or station r when the
// ring owns all), and an entry is stored iff its float bits are not +0.0,
// so -0.0 and denormals keep their bits. A slot touches few station pairs
// (well under 1% at perfbench's n=512), so a cell holds a few thousand
// entries rather than 2n² floats.
struct SlotFlows {
  tensor::Csr inflow;   // [num_owned, n]
  tensor::Csr outflow;  // [num_owned, n]
};

// Copy-out of consecutive retained slots, as returned by
// FeatureRing::SnapshotWindow: each slot's stored cells, copied under the
// ring mutex so they can never be torn by a concurrent ingest.
struct SlotWindow {
  int first = 0;  // slot held by inflow[0] / outflow[0]
  std::vector<tensor::Csr> inflow;
  std::vector<tensor::Csr> outflow;

  int count() const { return static_cast<int>(inflow.size()); }
  int last() const { return first + count() - 1; }
};

// Stores the [n, n] matrix `flow` times `scale` as CSR: the rows
// `owned_rows` (ascending; empty = all), each keeping the entries whose
// scaled bits are not +0.0. Every row is checked, stored or not:
// InvalidArgument names `name`, the row and the column of the first value
// that is not a flow count (finite and >= 0; -0.0 is a zero count). The
// multiply is BuildStHistory's, so the stored values are bitwise its.
Result<tensor::Csr> ScaledFlowRows(const tensor::Tensor& flow, float scale,
                                   const std::vector<int>& owned_rows,
                                   const std::string& name);

// Zeroed history tensors: [k, row_elems] short-term, [d, row_elems]
// long-term.
data::StHistory ZeroHistory(int k, int d, int64_t row_elems);

// Assembles the history for predicting slot t into `history` (from
// ZeroHistory): short-term channel c holds slot t - k + c and long-term
// channel c slot t - (d - c) * slots_per_day, where `cell(s)` returns slot
// s's stored flows. Only the stored entries are written; the rest stay
// +0.0, exactly the entries ScaledFlowRows dropped, so the result is
// bitwise data::BuildStHistory's on the same flows and scale (restricted
// to the stored rows). The serving ring and the online trainer's store
// both assemble through this.
void ScatterHistory(int t, int slots_per_day,
                    const std::function<const SlotFlows&(int)>& cell,
                    data::StHistory* history);

// Rolling window of per-slot flow matrices, sized to exactly the history
// STGNN-DJD's flow convolution reads: the last k slots plus the same slot
// of the last d days, i.e. max(k, d * slots_per_day) slots (plus a small
// slack, see below). Ingest pushes each new slot's I^t/O^t matrix once and
// the ring keeps it as CSR rows (SlotFlows), pre-multiplied by `scale`;
// History() then zero-fills a data::StHistory and scatters the stored
// entries into it — no dataset re-slicing and no re-scaling. The values
// (and their float rounding) are therefore bit-identical to
// data::BuildStHistory on the same flows with the same scale.
//
// Slack: capacity is window + 2 slots so that (a) predicting slot t stays
// valid after slot t's own observation arrives (the online setting
// predicts t, then ingests t), and (b) an ingest racing a concurrent
// History() call cannot invalidate a just-resolved request.
//
// Thread-safe: Push and History may be called concurrently from any
// threads. Push runs in two phases so the O(n²) validating scan happens
// OUTSIDE the mutex: a short reserve step marks the target cell in-flight,
// the scan builds the new cell in a spare, and a short commit step swaps it
// in, publishes the slot and notifies the listener. A History() whose
// window includes the cell being overwritten mid-push — i.e. one that
// straddles the in-flight invalidation — fails with a typed
// FailedPrecondition instead of a torn read; after the commit the same
// request fails typed as "overwritten".
class FeatureRing {
 public:
  // `scale` is the model's input scale (input_scale_multiplier /
  // max_train_flow); rows are stored pre-scaled.
  //
  // `owned_rows` selects the sharded mode: when non-empty, Push still takes
  // (and checks) the full [n, n] matrices — every shard sees the same
  // ingest stream — but only the listed station rows are stored, and
  // History() returns [c, o*n] tensors whose r-th row block is station
  // owned_rows[r]. The per-element multiply is unchanged, so the stored
  // values are bit-identical to the matching rows of an unsharded ring —
  // the fleet's total ring memory equals one unsharded ring's. Empty = own
  // all rows.
  FeatureRing(int num_stations, int short_term_slots, int long_term_days,
              int slots_per_day, float scale,
              std::vector<int> owned_rows = {});

  int num_stations() const { return num_stations_; }
  // Station ids stored by this ring, ascending; empty means all.
  const std::vector<int>& owned_rows() const { return owned_; }
  // Rows stored per slot: owned_rows().size(), or num_stations() when all.
  int num_owned() const {
    return owned_.empty() ? num_stations_ : static_cast<int>(owned_.size());
  }
  int short_term_slots() const { return k_; }
  int long_term_days() const { return d_; }
  int slots_per_day() const { return slots_per_day_; }
  // Slots retained: max(k, d * slots_per_day) + 2.
  int capacity() const { return capacity_; }

  // Appends the [n, n] flow matrices observed at `slot`. Slots must arrive
  // in order with no gaps. Typed errors, never aborts:
  //  - FailedPrecondition: `slot` was already ingested (its rows are live
  //    or already overwritten — re-ingest would rewrite served history), or
  //    another Push is still in flight;
  //  - InvalidArgument: `slot` is ahead of the frontier (a gap), the
  //    matrices have the wrong shape, or an entry of any row, owned or
  //    not, is NaN, ±Inf or negative (the message names the matrix, row
  //    and column; -0.0 is a zero count and is stored bit-exact).
  // A refused Push stores nothing: next_slot() does not move, the listener
  // is not called, and the retained slot it would have overwritten stays
  // intact, so a corrected Push of the same slot then succeeds.
  Status Push(int slot, const tensor::Tensor& inflow,
              const tensor::Tensor& outflow);

  // The ingest frontier: the slot the next Push must carry, and the slot a
  // "latest" prediction request resolves to.
  int next_slot() const;

  // First slot with enough history once the ring has seen slots [0, t):
  // max(k, d * slots_per_day), mirroring FlowDataset::FirstPredictableSlot.
  int first_predictable_slot() const { return window_; }

  // Smallest t for which History(t) can currently succeed (ignoring the
  // frontier bound): history older than this has been overwritten.
  int min_servable_slot() const;

  // True iff History(t) would succeed right now.
  bool ReadyFor(int t) const;

  // Assembles the short/long-term flow history for predicting slot t.
  // Typed errors instead of aborts, so a serving request with insufficient
  // context is a normal rejected response:
  //  - FailedPrecondition: t predates the first predictable slot, the
  //    slots it needs have already been overwritten (t too far behind the
  //    frontier), or an in-flight Push is currently overwriting a slot in
  //    t's window (the assembly would straddle the invalidation);
  //  - OutOfRange: t is ahead of the ingest frontier (history not yet
  //    observed).
  Result<data::StHistory> History(int t) const;

  // Copies the stored cells of slots [first, last] (inclusive) out of the
  // ring — the streaming trainer's bulk export, which must never observe a
  // row mid-overwrite. Typed errors, never aborts:
  //  - InvalidArgument: first < 0 or first > last;
  //  - OutOfRange: last is at or ahead of the ingest frontier (not yet
  //    observed — retry after the next Push commits);
  //  - FailedPrecondition: a requested slot was already overwritten (the
  //    caller fell behind the ring's retention), or an in-flight Push is
  //    rewriting a requested slot's cell (the copy would straddle the
  //    invalidation — the same guard History() uses).
  Result<SlotWindow> SnapshotWindow(int first, int last) const;

  // Registers the frontier-advance listener (the serving slot cache).
  // Pass nullptr to clear. At most one listener may be registered at a
  // time; replacing a live listener is a programming error.
  void SetListener(RingListener* listener);

  // Test-only fault-injection seam: invoked between the ingest reserve and
  // the scan, while no lock is held, so a test can deterministically
  // interleave a History() call with an in-flight invalidation.
  void SetIngestPauseForTest(std::function<void()> hook);

 private:
  // The cell holding a retained slot.
  const SlotFlows& CellAt(int slot) const { return cells_[slot % capacity_]; }
  // min_servable_slot() with mu_ already held.
  int MinServableLocked() const {
    return std::max(window_, next_slot_ - stored_ + window_);
  }

  const int num_stations_;
  const int k_;
  const int d_;
  const int slots_per_day_;
  const int window_;    // max(k, d * slots_per_day)
  const int capacity_;  // window_ + 2
  const float scale_;
  const std::vector<int> owned_;  // empty = all rows
  const int64_t row_size_;        // num_owned() * n

  mutable std::mutex mu_;
  int next_slot_ = 0;  // slots [next_slot_ - stored_, next_slot_) retained
  int stored_ = 0;
  // In-flight ingest state: while a Push is between reserve and commit,
  // `invalidating_slot_` names the retained slot whose cell is being
  // overwritten (-1 when the target cell held no live slot).
  bool write_in_flight_ = false;
  int invalidating_slot_ = -1;
  RingListener* listener_ = nullptr;
  std::function<void()> ingest_pause_for_test_;
  std::vector<SlotFlows> cells_;  // capacity_ slots
};

}  // namespace stgnn::serve

#endif  // STGNN_SERVE_FEATURE_RING_H_
