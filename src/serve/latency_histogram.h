// Fixed-size log-linear histogram for the server's latency percentiles.
//
// Each power-of-two octave [2^e, 2^(e+1)) µs is split into kSubBuckets
// equal-width buckets, so a bucket's width is at most 1/kSubBuckets of
// its lower edge. Percentile() reports bucket midpoints, which are
// within kMaxRelativeError = 1/(2·kSubBuckets) of every value in the
// bucket. Values below 1 µs share bucket 0 (reported as 0.5 µs), and
// values past the top octave (~2^40 µs, 12 days) clamp into the last
// bucket. Memory is a fixed array of counters, however many values are
// recorded; not thread-safe (the server guards it with its stats lock).
#pragma once

#include <array>
#include <cstdint>

namespace hwp3d::serve {

class LatencyHistogram {
 public:
  static constexpr int kSubBuckets = 32;
  static constexpr int kOctaves = 40;
  static constexpr int kBuckets = 1 + kOctaves * kSubBuckets;
  static constexpr double kMaxRelativeError = 1.0 / (2 * kSubBuckets);

  void Record(double us);

  // The q-quantile (q in [0, 1]) with the sorted-sample convention
  // x[lo]·(1-f) + x[hi]·f at rank q·(count-1), each order statistic
  // replaced by its bucket midpoint: for values >= 1 µs, within
  // kMaxRelativeError of the exact quantile. 0 when empty.
  double Percentile(double q) const;

  int64_t count() const { return count_; }

 private:
  static int BucketOf(double us);
  static double Midpoint(int bucket);
  // Midpoint of the bucket holding the rank-th smallest value.
  double ValueAtRank(int64_t rank) const;

  std::array<int64_t, kBuckets> counts_{};
  int64_t count_ = 0;
};

}  // namespace hwp3d::serve
