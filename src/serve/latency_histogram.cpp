#include "serve/latency_histogram.h"

#include <algorithm>
#include <cmath>

namespace hwp3d::serve {

int LatencyHistogram::BucketOf(double us) {
  if (!(us >= 1.0)) return 0;  // also NaN
  int exp = 0;
  const double mant = std::frexp(us, &exp);  // us = mant·2^exp, mant in [0.5, 1)
  const int octave = exp - 1;                // us in [2^octave, 2^(octave+1))
  if (octave >= kOctaves) return kBuckets - 1;
  const int sub = static_cast<int>((2.0 * mant - 1.0) * kSubBuckets);
  return 1 + octave * kSubBuckets + std::min(sub, kSubBuckets - 1);
}

double LatencyHistogram::Midpoint(int bucket) {
  if (bucket == 0) return 0.5;
  const int octave = (bucket - 1) / kSubBuckets;
  const int sub = (bucket - 1) % kSubBuckets;
  return std::ldexp(1.0 + (sub + 0.5) / kSubBuckets, octave);
}

void LatencyHistogram::Record(double us) {
  ++counts_[static_cast<size_t>(BucketOf(us))];
  ++count_;
}

double LatencyHistogram::ValueAtRank(int64_t rank) const {
  int64_t seen = 0;
  for (int b = 0; b < kBuckets; ++b) {
    seen += counts_[static_cast<size_t>(b)];
    if (seen > rank) return Midpoint(b);
  }
  return Midpoint(kBuckets - 1);
}

double LatencyHistogram::Percentile(double q) const {
  if (count_ == 0) return 0.0;
  const double pos = std::clamp(q, 0.0, 1.0) * static_cast<double>(count_ - 1);
  const int64_t lo = static_cast<int64_t>(pos);
  const int64_t hi = std::min(lo + 1, count_ - 1);
  const double frac = pos - static_cast<double>(lo);
  return ValueAtRank(lo) * (1.0 - frac) + ValueAtRank(hi) * frac;
}

}  // namespace hwp3d::serve
