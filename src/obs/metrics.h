// Metrics registry: named counters, gauges, and histograms with optional
// labels, aggregated process-wide and exportable as JSONL or a
// report::Table summary.
//
//   auto& skipped = obs::MetricsRegistry::Get().GetCounter(
//       "exec.blocks_skipped", {{"layer", "conv2a"}});
//   skipped.Add(n);   // lock-free after the first lookup
//
// Look metrics up once (outside hot loops) and hold the reference —
// references are stable for the registry's lifetime. The registry is
// always on; its cost is the instrument sites' atomics.
//
// Export:
//   obs::MetricsRegistry::Get().WriteJsonl("metrics.jsonl");
//   obs::MetricsRegistry::Get().SummaryTable().Print();
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "report/table.h"

namespace hwp3d::obs {

// Label key/value pairs; canonicalized (sorted by key) on lookup.
using LabelSet = std::vector<std::pair<std::string, std::string>>;

class Counter {
 public:
  void Add(int64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

// Log-linear histogram over non-negative values. Each power-of-two
// octave [2^e, 2^(e+1)), e in [0, kOctaves), is split into kSubBuckets
// equal-width buckets, so a bucket is at most 1/kSubBuckets of its
// lower edge wide. Values below 1 share bucket 0; values at or past
// 2^kOctaves clamp into the last bucket. Memory is a fixed array of
// kBuckets counters (~10 KB) however many values are observed. Exact
// count/sum/min/max ride along. Thread-safe.
class Histogram {
 public:
  struct Stats {
    int64_t count = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;
    double mean() const { return count > 0 ? sum / count : 0.0; }
  };
  static constexpr int kSubBuckets = 32;
  static constexpr int kOctaves = 40;
  static constexpr int kBuckets = 1 + kOctaves * kSubBuckets;
  // Bucket midpoints are within this of every value >= 1 in the bucket.
  static constexpr double kMaxRelativeError = 1.0 / (2 * kSubBuckets);

  void Observe(double v);
  Stats stats() const;
  std::vector<int64_t> buckets() const;  // size kBuckets

  // The q-quantile (q in [0, 1]) with the sorted-sample convention
  // x[lo]·(1-f) + x[hi]·f at rank q·(count-1), each order statistic
  // replaced by its bucket midpoint: for values >= 1, within
  // kMaxRelativeError of the exact quantile. 0 when empty.
  double Percentile(double q) const;

  // Exclusive upper edge of bucket `b` (1 for bucket 0).
  static double BucketUpperEdge(int b);

 private:
  static int BucketOf(double v);
  // Midpoint of the bucket holding the rank-th smallest value; mu_ held.
  double ValueAtRank(int64_t rank) const;

  mutable std::mutex mu_;
  Stats stats_;
  std::array<int64_t, kBuckets> counts_{};
};

enum class MetricKind { Counter, Gauge, Histogram };

// Read-only view of one metric, for export and tests.
struct MetricSnapshot {
  std::string name;
  LabelSet labels;
  MetricKind kind = MetricKind::Counter;
  int64_t counter_value = 0;        // Counter
  double gauge_value = 0.0;         // Gauge
  Histogram::Stats histogram;       // Histogram
  std::vector<int64_t> buckets;     // Histogram (non-empty buckets only
                                    // appear in the JSONL export)
};

class MetricsRegistry {
 public:
  static MetricsRegistry& Get();

  // Returns the metric registered under (name, labels), creating it on
  // first use. Throws if the name+labels is already registered as a
  // different kind.
  Counter& GetCounter(std::string_view name, LabelSet labels = {});
  Gauge& GetGauge(std::string_view name, LabelSet labels = {});
  Histogram& GetHistogram(std::string_view name, LabelSet labels = {});

  // Sums a counter across all label sets sharing `name`.
  int64_t CounterTotal(std::string_view name) const;

  std::vector<MetricSnapshot> Snapshot() const;

  // One JSON object per line, e.g.
  //   {"type":"counter","name":"exec.blocks_skipped",
  //    "labels":{"layer":"conv2a"},"value":128}
  std::string ToJsonl() const;
  bool WriteJsonl(const std::string& path) const;

  // End-of-run summary rendered through report::Table.
  report::Table SummaryTable() const;

  // Drops every registered metric (tests only). Invalidates every
  // reference handed out, including those that compiled models and
  // servers resolved at construction: reset before building them.
  void Reset();

 private:
  // Holds only the instrument of its own kind: a histogram's buckets
  // are ~10 KB, which no counter or gauge should carry.
  struct Entry {
    std::string name;
    LabelSet labels;
    MetricKind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Entry& Lookup(std::string_view name, LabelSet labels, MetricKind kind);

  mutable std::mutex mu_;
  std::deque<Entry> entries_;               // stable addresses
  std::map<std::string, Entry*> by_key_;    // canonical key -> entry
};

}  // namespace hwp3d::obs
