#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "common/error.h"
#include "common/strings.h"
#include "obs/json_util.h"

namespace hwp3d::obs {

namespace {

// The point `frac` of the way through histogram bucket `b`: 0.5 is its
// midpoint, 1 its exclusive upper edge. Bucket 0 is [0, 1).
double BucketPoint(int b, double frac) {
  if (b == 0) return frac;
  const int octave = (b - 1) / Histogram::kSubBuckets;
  const int sub = (b - 1) % Histogram::kSubBuckets;
  return std::ldexp(1.0 + (sub + frac) / Histogram::kSubBuckets, octave);
}

std::string CanonicalKey(std::string_view name, const LabelSet& labels) {
  std::string key(name);
  key += '{';
  for (size_t i = 0; i < labels.size(); ++i) {
    if (i > 0) key += ',';
    key += labels[i].first;
    key += '=';
    key += labels[i].second;
  }
  key += '}';
  return key;
}

const char* KindName(MetricKind k) {
  switch (k) {
    case MetricKind::Counter: return "counter";
    case MetricKind::Gauge: return "gauge";
    case MetricKind::Histogram: return "histogram";
  }
  return "?";
}

void AppendLabels(std::ostringstream& os, const LabelSet& labels) {
  if (labels.empty()) return;
  os << ",\"labels\":{";
  for (size_t i = 0; i < labels.size(); ++i) {
    if (i > 0) os << ",";
    os << "\"" << JsonEscape(labels[i].first) << "\":\""
       << JsonEscape(labels[i].second) << "\"";
  }
  os << "}";
}

std::string LabelSuffix(const LabelSet& labels) {
  if (labels.empty()) return "";
  std::string s = "{";
  for (size_t i = 0; i < labels.size(); ++i) {
    if (i > 0) s += ',';
    s += labels[i].first + "=" + labels[i].second;
  }
  s += '}';
  return s;
}

std::string FmtDouble(double v) {
  // Trim trailing zeros for readable tables/JSON.
  if (v == static_cast<double>(static_cast<int64_t>(v)) &&
      std::abs(v) < 1e15) {
    return StrFormat("%lld", static_cast<long long>(v));
  }
  return StrFormat("%g", v);
}

}  // namespace

int Histogram::BucketOf(double v) {
  if (!(v >= 1.0)) return 0;  // also NaN
  int exp = 0;
  const double mant = std::frexp(v, &exp);  // v = mant·2^exp, mant in [0.5, 1)
  const int octave = exp - 1;               // v in [2^octave, 2^(octave+1))
  if (octave >= kOctaves) return kBuckets - 1;
  const int sub = static_cast<int>((2.0 * mant - 1.0) * kSubBuckets);
  return 1 + octave * kSubBuckets + std::min(sub, kSubBuckets - 1);
}

double Histogram::BucketUpperEdge(int b) { return BucketPoint(b, 1.0); }

void Histogram::Observe(double v) {
  std::lock_guard<std::mutex> lock(mu_);
  if (stats_.count == 0) {
    stats_.min = stats_.max = v;
  } else {
    stats_.min = std::min(stats_.min, v);
    stats_.max = std::max(stats_.max, v);
  }
  ++stats_.count;
  stats_.sum += v;
  ++counts_[static_cast<size_t>(BucketOf(v))];
}

Histogram::Stats Histogram::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

std::vector<int64_t> Histogram::buckets() const {
  std::lock_guard<std::mutex> lock(mu_);
  return std::vector<int64_t>(counts_.begin(), counts_.end());
}

double Histogram::ValueAtRank(int64_t rank) const {
  int64_t seen = 0;
  for (int b = 0; b < kBuckets; ++b) {
    seen += counts_[static_cast<size_t>(b)];
    if (seen > rank) return BucketPoint(b, 0.5);
  }
  return BucketPoint(kBuckets - 1, 0.5);
}

double Histogram::Percentile(double q) const {
  std::lock_guard<std::mutex> lock(mu_);
  const int64_t count = stats_.count;
  if (count == 0) return 0.0;
  const double pos = std::clamp(q, 0.0, 1.0) * static_cast<double>(count - 1);
  const int64_t lo = static_cast<int64_t>(pos);
  const int64_t hi = std::min(lo + 1, count - 1);
  const double frac = pos - static_cast<double>(lo);
  return ValueAtRank(lo) * (1.0 - frac) + ValueAtRank(hi) * frac;
}

MetricsRegistry& MetricsRegistry::Get() {
  static MetricsRegistry registry;
  return registry;
}

MetricsRegistry::Entry& MetricsRegistry::Lookup(std::string_view name,
                                                LabelSet labels,
                                                MetricKind kind) {
  std::sort(labels.begin(), labels.end());
  const std::string key = CanonicalKey(name, labels);
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = by_key_.find(key);
  if (it != by_key_.end()) {
    HWP_CHECK_MSG(it->second->kind == kind,
                  "metric " << key << " already registered as "
                            << KindName(it->second->kind));
    return *it->second;
  }
  entries_.emplace_back();
  Entry& e = entries_.back();
  e.name = std::string(name);
  e.labels = std::move(labels);
  e.kind = kind;
  switch (kind) {
    case MetricKind::Counter: e.counter = std::make_unique<Counter>(); break;
    case MetricKind::Gauge: e.gauge = std::make_unique<Gauge>(); break;
    case MetricKind::Histogram:
      e.histogram = std::make_unique<Histogram>();
      break;
  }
  by_key_.emplace(key, &e);
  return e;
}

Counter& MetricsRegistry::GetCounter(std::string_view name, LabelSet labels) {
  return *Lookup(name, std::move(labels), MetricKind::Counter).counter;
}

Gauge& MetricsRegistry::GetGauge(std::string_view name, LabelSet labels) {
  return *Lookup(name, std::move(labels), MetricKind::Gauge).gauge;
}

Histogram& MetricsRegistry::GetHistogram(std::string_view name,
                                         LabelSet labels) {
  return *Lookup(name, std::move(labels), MetricKind::Histogram).histogram;
}

int64_t MetricsRegistry::CounterTotal(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  int64_t total = 0;
  for (const Entry& e : entries_) {
    if (e.kind == MetricKind::Counter && e.name == name) {
      total += e.counter->value();
    }
  }
  return total;
}

std::vector<MetricSnapshot> MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<MetricSnapshot> out;
  out.reserve(entries_.size());
  for (const Entry& e : entries_) {
    MetricSnapshot s;
    s.name = e.name;
    s.labels = e.labels;
    s.kind = e.kind;
    switch (e.kind) {
      case MetricKind::Counter: s.counter_value = e.counter->value(); break;
      case MetricKind::Gauge: s.gauge_value = e.gauge->value(); break;
      case MetricKind::Histogram:
        s.histogram = e.histogram->stats();
        s.buckets = e.histogram->buckets();
        break;
    }
    out.push_back(std::move(s));
  }
  std::sort(out.begin(), out.end(),
            [](const MetricSnapshot& a, const MetricSnapshot& b) {
              return a.name != b.name ? a.name < b.name : a.labels < b.labels;
            });
  return out;
}

std::string MetricsRegistry::ToJsonl() const {
  std::ostringstream os;
  for (const MetricSnapshot& s : Snapshot()) {
    os << "{\"type\":\"" << KindName(s.kind) << "\",\"name\":\""
       << JsonEscape(s.name) << "\"";
    AppendLabels(os, s.labels);
    switch (s.kind) {
      case MetricKind::Counter:
        os << ",\"value\":" << s.counter_value;
        break;
      case MetricKind::Gauge:
        os << ",\"value\":" << FmtDouble(s.gauge_value);
        break;
      case MetricKind::Histogram: {
        os << ",\"count\":" << s.histogram.count
           << ",\"sum\":" << FmtDouble(s.histogram.sum)
           << ",\"min\":" << FmtDouble(s.histogram.min)
           << ",\"max\":" << FmtDouble(s.histogram.max)
           << ",\"mean\":" << FmtDouble(s.histogram.mean());
        os << ",\"buckets\":{";
        bool first = true;
        for (int k = 0; k < Histogram::kBuckets; ++k) {
          if (s.buckets[static_cast<size_t>(k)] == 0) continue;
          if (!first) os << ",";
          first = false;
          // Key: the bucket's exclusive upper edge.
          os << "\"" << FmtDouble(Histogram::BucketUpperEdge(k)) << "\":"
             << s.buckets[static_cast<size_t>(k)];
        }
        os << "}";
        break;
      }
    }
    os << "}\n";
  }
  return os.str();
}

bool MetricsRegistry::WriteJsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::string jsonl = ToJsonl();
  const size_t written = std::fwrite(jsonl.data(), 1, jsonl.size(), f);
  std::fclose(f);
  return written == jsonl.size();
}

report::Table MetricsRegistry::SummaryTable() const {
  report::Table table("Metrics summary");
  table.Header({"Metric", "Type", "Value", "Count", "Mean", "Min", "Max"});
  for (const MetricSnapshot& s : Snapshot()) {
    const std::string name = s.name + LabelSuffix(s.labels);
    switch (s.kind) {
      case MetricKind::Counter:
        table.Row({name, "counter", report::Table::Int(s.counter_value), "-",
                   "-", "-", "-"});
        break;
      case MetricKind::Gauge:
        table.Row({name, "gauge", FmtDouble(s.gauge_value), "-", "-", "-",
                   "-"});
        break;
      case MetricKind::Histogram:
        table.Row({name, "histogram", "-",
                   report::Table::Int(s.histogram.count),
                   FmtDouble(s.histogram.mean()), FmtDouble(s.histogram.min),
                   FmtDouble(s.histogram.max)});
        break;
    }
  }
  return table;
}

void MetricsRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  by_key_.clear();
  entries_.clear();
}

}  // namespace hwp3d::obs
