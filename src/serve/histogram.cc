#include "serve/histogram.h"

#include <bit>
#include <cmath>

namespace stgnn::serve {

int LatencyHistogram::BucketFor(int64_t ns) {
  const uint64_t v = ns < 0 ? 0 : static_cast<uint64_t>(ns);
  if (v < static_cast<uint64_t>(kSubBuckets)) return static_cast<int>(v);
  const int exponent = std::bit_width(v) - 1;  // v in [2^e, 2^(e+1))
  if (exponent >= kMaxExponent) return kBuckets - 1;
  // The top kSubBucketBits + 1 bits: mantissa in [kSubBuckets, 2 kSubBuckets).
  const int shift = exponent - kSubBucketBits;
  const int mantissa = static_cast<int>(v >> shift);
  return shift * kSubBuckets + mantissa;
}

double LatencyHistogram::BucketMidpointNs(int bucket) {
  if (bucket < kSubBuckets) return bucket;
  const int shift = bucket / kSubBuckets - 1;
  const uint64_t mantissa = kSubBuckets + bucket % kSubBuckets;
  const uint64_t lower = mantissa << shift;
  if (bucket == kBuckets - 1) return static_cast<double>(lower);
  return static_cast<double>(lower) +
         static_cast<double>((uint64_t{1} << shift) - 1) / 2.0;
}

void LatencyHistogram::Record(int64_t ns) {
  if (ns < 0) ns = 0;
  buckets_[BucketFor(ns)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_ns_.fetch_add(ns, std::memory_order_relaxed);
}

double LatencyHistogram::MeanNs() const {
  const int64_t n = count_.load(std::memory_order_relaxed);
  if (n == 0) return 0.0;
  return static_cast<double>(sum_ns_.load(std::memory_order_relaxed)) / n;
}

double LatencyHistogram::PercentileNs(double p) const {
  if (p < 0.0) p = 0.0;
  if (p > 100.0) p = 100.0;
  const int64_t n = count_.load(std::memory_order_relaxed);
  if (n == 0) return 0.0;
  int64_t rank = static_cast<int64_t>(std::ceil(p / 100.0 * n));
  if (rank < 1) rank = 1;
  int64_t seen = 0;
  for (int b = 0; b < kBuckets; ++b) {
    seen += buckets_[b].load(std::memory_order_relaxed);
    if (seen >= rank) return BucketMidpointNs(b);
  }
  return BucketMidpointNs(kBuckets - 1);
}

void LatencyHistogram::Reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_ns_.store(0, std::memory_order_relaxed);
}

}  // namespace stgnn::serve
