#ifndef STGNN_SERVE_HISTOGRAM_H_
#define STGNN_SERVE_HISTOGRAM_H_

#include <atomic>
#include <cstdint>

namespace stgnn::serve {

// Lock-free latency histogram with log-linear buckets.
//
// Unlike the counter/trace macros this is *always* compiled in: tail
// latency is a serving product metric, not a debugging aid, so the
// percentiles reported by PredictionService::stats() must exist in
// STGNN_ENABLE_TRACING=OFF builds too. Record is one relaxed fetch_add per
// counter, safe from any number of threads; the bucket comes from the
// value's bit width, not a logarithm.
//
// Values below 2 * kSubBuckets ns get one bucket each. Above that, every
// power of two [2^e, 2^(e+1)) is split into kSubBuckets equal buckets of
// width 2^e / kSubBuckets, so a bucket's midpoint is within
// 1 / (2 * kSubBuckets) ~ 1.6% of every value in it. The top bucket starts
// at 2^kMaxExponent ns (~2.4 h) and absorbs everything above.
class LatencyHistogram {
 public:
  static constexpr int kSubBucketBits = 5;
  static constexpr int kSubBuckets = 1 << kSubBucketBits;  // 32
  static constexpr int kMaxExponent = 43;
  static constexpr int kBuckets =
      (kMaxExponent - kSubBucketBits + 1) * kSubBuckets + 1;

  LatencyHistogram() = default;
  LatencyHistogram(const LatencyHistogram&) = delete;
  LatencyHistogram& operator=(const LatencyHistogram&) = delete;

  void Record(int64_t ns);

  int64_t count() const { return count_.load(std::memory_order_relaxed); }

  // Mean over all recorded samples (exact, not bucketed). 0 when empty.
  double MeanNs() const;

  // Estimated p-th percentile (p in [0, 100]) as the midpoint of the bucket
  // holding the rank-ceil(p/100 * count) sample. 0 when empty. Concurrent
  // Records may or may not be included; the estimate is only approximate
  // while writers are active.
  double PercentileNs(double p) const;

  void Reset();

 private:
  static int BucketFor(int64_t ns);
  // Midpoint of the integer values bucket `bucket` holds.
  static double BucketMidpointNs(int bucket);

  std::atomic<int64_t> buckets_[kBuckets] = {};
  std::atomic<int64_t> count_{0};
  std::atomic<int64_t> sum_ns_{0};
};

}  // namespace stgnn::serve

#endif  // STGNN_SERVE_HISTOGRAM_H_
