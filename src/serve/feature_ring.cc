#include "serve/feature_ring.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <limits>
#include <string>
#include <utility>

#include "common/counters.h"
#include "common/trace.h"

namespace stgnn::serve {

using tensor::Csr;
using tensor::Tensor;

namespace {

// Inputs per block of the ingest scan.
constexpr int kScanBlock = 16;

uint32_t Bits(float x) { return std::bit_cast<uint32_t>(x); }

// A flow count is finite and >= 0; -0.0 >= 0 holds, so it is a zero count.
bool IsCount(float x) {
  return x >= 0.0f && x <= std::numeric_limits<float>::max();
}

// Bit b is set iff x[b] or x[b] * scale has non-zero bits. Kept a loop
// (not unrolled) so GCC vectorizes it into compares and an OR reduction;
// once fully unrolled inside the row scan, it stays scalar.
uint32_t BlockMask(const float* x, float scale) {
  uint32_t mask = 0;
#pragma GCC unroll 1
  for (int b = 0; b < kScanBlock; ++b) {
    mask |= static_cast<uint32_t>((Bits(x[b]) | Bits(x[b] * scale)) != 0)
            << b;
  }
  return mask;
}

// Scans one row of n flow counts. When `cols` is non-null, appends
// (column, x * scale) for every entry whose scaled bits are not +0.0.
// Returns the first column whose value is not a count, or -1. Only the
// entries of a block's mask are visited: an entry whose input and scaled
// value are both +0.0 has nothing to store and nothing to refuse (a bad
// count has non-zero bits), so an all-zero block — the common case — costs
// the mask alone.
int ScanRow(const float* x, int n, float scale, std::vector<int>* cols,
            std::vector<float>* values) {
  auto entry = [&](int j) {
    if (!IsCount(x[j])) return false;
    const float scaled = x[j] * scale;
    if (cols != nullptr && Bits(scaled) != 0) {
      cols->push_back(j);
      values->push_back(scaled);
    }
    return true;
  };
  int j = 0;
  for (; j + kScanBlock <= n; j += kScanBlock) {
    for (uint32_t mask = BlockMask(x + j, scale); mask != 0;
         mask &= mask - 1) {
      const int b = j + std::countr_zero(mask);
      if (!entry(b)) return b;
    }
  }
  for (; j < n; ++j) {
    if (!entry(j)) return j;
  }
  return -1;
}

}  // namespace

Result<Csr> ScaledFlowRows(const Tensor& flow, float scale,
                           const std::vector<int>& owned_rows,
                           const std::string& name) {
  STGNN_CHECK_EQ(flow.ndim(), 2);
  const int n = flow.dim(0);
  const int cols = flow.dim(1);
  const bool all = owned_rows.empty();
  const int rows = all ? n : static_cast<int>(owned_rows.size());
  std::vector<int> row_ptr(1, 0);
  row_ptr.reserve(rows + 1);
  std::vector<int> col_idx;
  std::vector<float> values;
  size_t next_owned = 0;
  for (int i = 0; i < n; ++i) {
    const float* row = flow.data().data() + static_cast<size_t>(i) * cols;
    const bool stored = all || (next_owned < owned_rows.size() &&
                                owned_rows[next_owned] == i);
    const int bad = stored ? ScanRow(row, cols, scale, &col_idx, &values)
                           : ScanRow(row, cols, scale, nullptr, nullptr);
    if (bad >= 0) {
      char value[32];
      std::snprintf(value, sizeof(value), "%.9g", row[bad]);
      return Status::InvalidArgument(
          name + "[" + std::to_string(i) + ", " + std::to_string(bad) +
          "] = " + value + " is not a flow count (finite and >= 0)");
    }
    if (stored) {
      row_ptr.push_back(static_cast<int>(col_idx.size()));
      ++next_owned;
    }
  }
  // Copies sized to the entries: the vectors above grew by doubling.
  return Csr(rows, cols, std::move(row_ptr),
             std::vector<int>(col_idx.begin(), col_idx.end()),
             std::vector<float>(values.begin(), values.end()));
}

data::StHistory ZeroHistory(int k, int d, int64_t row_elems) {
  const int elems = static_cast<int>(row_elems);
  data::StHistory history;
  history.inflow_short = Tensor({k, elems});
  history.outflow_short = Tensor({k, elems});
  history.inflow_long = Tensor({d, elems});
  history.outflow_long = Tensor({d, elems});
  return history;
}

void ScatterHistory(int t, int slots_per_day,
                    const std::function<const SlotFlows&(int)>& cell,
                    data::StHistory* history) {
  const int k = history->inflow_short.dim(0);
  const int d = history->inflow_long.dim(0);
  const size_t row_elems = static_cast<size_t>(history->inflow_short.dim(1));
  auto scatter = [&](int slot, int channel, Tensor* inflow, Tensor* outflow) {
    const SlotFlows& flows = cell(slot);
    STGNN_CHECK_EQ(static_cast<size_t>(flows.inflow.rows()) *
                       flows.inflow.cols(),
                   row_elems);
    STGNN_CHECK_EQ(static_cast<size_t>(flows.outflow.rows()) *
                       flows.outflow.cols(),
                   row_elems);
    flows.inflow.ScatterTo(inflow->mutable_data().data() +
                           static_cast<size_t>(channel) * row_elems);
    flows.outflow.ScatterTo(outflow->mutable_data().data() +
                            static_cast<size_t>(channel) * row_elems);
  };
  for (int c = 0; c < k; ++c) {
    scatter(t - k + c, c, &history->inflow_short, &history->outflow_short);
  }
  for (int c = 0; c < d; ++c) {
    scatter(t - (d - c) * slots_per_day, c, &history->inflow_long,
            &history->outflow_long);
  }
}

FeatureRing::FeatureRing(int num_stations, int short_term_slots,
                         int long_term_days, int slots_per_day, float scale,
                         std::vector<int> owned_rows)
    : num_stations_(num_stations),
      k_(short_term_slots),
      d_(long_term_days),
      slots_per_day_(slots_per_day),
      window_(std::max(k_, d_ * slots_per_day_)),
      capacity_(window_ + 2),
      scale_(scale),
      owned_(std::move(owned_rows)),
      row_size_(static_cast<int64_t>(owned_.empty()
                                         ? num_stations
                                         : static_cast<int>(owned_.size())) *
                num_stations),
      cells_(capacity_) {
  STGNN_CHECK_GT(num_stations_, 0);
  STGNN_CHECK_GE(k_, 1);
  STGNN_CHECK_GE(d_, 0);
  STGNN_CHECK_GE(slots_per_day_, 1);
  for (size_t r = 0; r < owned_.size(); ++r) {
    STGNN_CHECK(owned_[r] >= 0 && owned_[r] < num_stations_);
    STGNN_CHECK(r == 0 || owned_[r] > owned_[r - 1])
        << "owned_rows must be ascending";
  }
}

Status FeatureRing::Push(int slot, const Tensor& inflow,
                         const Tensor& outflow) {
  STGNN_TRACE_SCOPE("Serve.Ingest");
  const int n = num_stations_;
  if (inflow.ndim() != 2 || inflow.dim(0) != n || inflow.dim(1) != n ||
      outflow.ndim() != 2 || outflow.dim(0) != n || outflow.dim(1) != n) {
    return Status::InvalidArgument(
        "FeatureRing::Push expects [" + std::to_string(n) + ", " +
        std::to_string(n) + "] flow matrices, got inflow " +
        tensor::ShapeToString(inflow.shape()) + " outflow " +
        tensor::ShapeToString(outflow.shape()));
  }
  // Phase 1 (reserve): validate the slot and mark the target cell
  // in-flight; the scan then runs unlocked.
  std::function<void()> pause;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (slot < next_slot_) {
      const int oldest_retained = next_slot_ - stored_;
      return Status::FailedPrecondition(
          "slot " + std::to_string(slot) +
          (slot < oldest_retained ? " was already ingested and overwritten"
                                  : " was already ingested") +
          " (frontier " + std::to_string(next_slot_) +
          "); re-ingest would rewrite served history");
    }
    if (slot > next_slot_) {
      return Status::InvalidArgument(
          "out-of-order ingest: expected slot " + std::to_string(next_slot_) +
          ", got " + std::to_string(slot));
    }
    if (write_in_flight_) {
      return Status::FailedPrecondition(
          "concurrent ingest of slot " + std::to_string(next_slot_) +
          " already in flight");
    }
    write_in_flight_ = true;
    // The cell we are about to rewrite holds this retained slot (when the
    // ring is full); a History() needing it must fail typed, not tear.
    invalidating_slot_ = stored_ == capacity_ ? next_slot_ - capacity_ : -1;
    pause = ingest_pause_for_test_;
  }
  if (pause) pause();

  // Pre-scale at ingest so History() is a scatter of stored entries. One
  // multiply per element, exactly like BuildStHistory's CopyFlowRow, so
  // values are bit-identical to the offline assembly path. The new cell is
  // built in a spare outside the mutex; the retained cell it replaces is
  // untouched until the commit swaps them, so a refused slot leaves it
  // intact.
  Result<Csr> in = ScaledFlowRows(inflow, scale_, owned_, "inflow");
  Result<Csr> out = ScaledFlowRows(outflow, scale_, owned_, "outflow");
  const Status scanned = in.ok() ? out.status() : in.status();
  SlotFlows spare;
  if (scanned.ok()) spare = SlotFlows{std::move(*in), std::move(*out)};

  // Phase 2 (commit): publish the slot and notify the listener inside the
  // same critical section, so no reader can see the new frontier before the
  // derived caches were invalidated.
  {
    std::lock_guard<std::mutex> lock(mu_);
    write_in_flight_ = false;
    invalidating_slot_ = -1;
    if (!scanned.ok()) {
      return Status::InvalidArgument("FeatureRing::Push refused slot " +
                                     std::to_string(slot) + ": " +
                                     scanned.message());
    }
    // The replaced cell lands in `spare` and is freed after the unlock.
    std::swap(cells_[slot % capacity_], spare);
    ++next_slot_;
    if (stored_ < capacity_) ++stored_;
    if (listener_ != nullptr) {
      listener_->OnRingAdvance(next_slot_, MinServableLocked());
    }
  }
  STGNN_COUNTER_INC("serve.ingested_slots");
  return Status::OK();
}

int FeatureRing::next_slot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return next_slot_;
}

int FeatureRing::min_servable_slot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return MinServableLocked();
}

bool FeatureRing::ReadyFor(int t) const {
  return History(t).ok();
}

void FeatureRing::SetListener(RingListener* listener) {
  std::lock_guard<std::mutex> lock(mu_);
  STGNN_CHECK(listener == nullptr || listener_ == nullptr)
      << "FeatureRing supports a single listener; clear the old one first";
  listener_ = listener;
}

void FeatureRing::SetIngestPauseForTest(std::function<void()> hook) {
  std::lock_guard<std::mutex> lock(mu_);
  ingest_pause_for_test_ = std::move(hook);
}

Result<data::StHistory> FeatureRing::History(int t) const {
  STGNN_TRACE_SCOPE("Serve.Assemble");
  // Zero-filled before taking the mutex; only the stored entries are
  // written under it.
  data::StHistory history = ZeroHistory(k_, d_, row_size_);
  std::lock_guard<std::mutex> lock(mu_);
  if (t < window_) {
    return Status::FailedPrecondition(
        "slot " + std::to_string(t) + " predates the first predictable slot " +
        std::to_string(window_) + " (needs " + std::to_string(k_) +
        " slots and " + std::to_string(d_) + " days of history)");
  }
  if (t > next_slot_) {
    return Status::OutOfRange("slot " + std::to_string(t) +
                              " is ahead of the ingest frontier " +
                              std::to_string(next_slot_));
  }
  const int oldest_retained = next_slot_ - stored_;
  if (t - window_ < oldest_retained) {
    return Status::FailedPrecondition(
        "slot " + std::to_string(t) + " needs slot " +
        std::to_string(t - window_) + ", already overwritten (ring retains [" +
        std::to_string(oldest_retained) + ", " + std::to_string(next_slot_) +
        "))");
  }
  // An in-flight Push is replacing the cell that still holds
  // `invalidating_slot_`. If t's window includes that slot, fail typed
  // (after the commit the same request fails as "overwritten" above).
  if (write_in_flight_ && invalidating_slot_ >= 0 &&
      invalidating_slot_ >= t - window_ && invalidating_slot_ < t) {
    return Status::FailedPrecondition(
        "slot " + std::to_string(t) + " needs slot " +
        std::to_string(invalidating_slot_) +
        ", which an in-flight ingest is overwriting (assembly would "
        "straddle the invalidation)");
  }
  ScatterHistory(
      t, slots_per_day_,
      [this](int slot) -> const SlotFlows& { return CellAt(slot); },
      &history);
  return history;
}

Result<SlotWindow> FeatureRing::SnapshotWindow(int first, int last) const {
  STGNN_TRACE_SCOPE("Serve.SnapshotWindow");
  std::lock_guard<std::mutex> lock(mu_);
  if (first < 0 || first > last) {
    return Status::InvalidArgument(
        "SnapshotWindow wants slots [" + std::to_string(first) + ", " +
        std::to_string(last) + "]: not a valid slot range");
  }
  if (last >= next_slot_) {
    return Status::OutOfRange("slot " + std::to_string(last) +
                              " has not been ingested yet (frontier " +
                              std::to_string(next_slot_) + ")");
  }
  const int oldest_retained = next_slot_ - stored_;
  if (first < oldest_retained) {
    return Status::FailedPrecondition(
        "slot " + std::to_string(first) + " was already overwritten (ring "
        "retains [" + std::to_string(oldest_retained) + ", " +
        std::to_string(next_slot_) + "))");
  }
  if (write_in_flight_ && invalidating_slot_ >= first &&
      invalidating_slot_ <= last) {
    return Status::FailedPrecondition(
        "slot " + std::to_string(invalidating_slot_) +
        " is being overwritten by an in-flight ingest (copy would straddle "
        "the invalidation)");
  }
  SlotWindow window;
  window.first = first;
  const int count = last - first + 1;
  window.inflow.reserve(count);
  window.outflow.reserve(count);
  for (int slot = first; slot <= last; ++slot) {
    window.inflow.push_back(CellAt(slot).inflow);
    window.outflow.push_back(CellAt(slot).outflow);
  }
  return window;
}

}  // namespace stgnn::serve
