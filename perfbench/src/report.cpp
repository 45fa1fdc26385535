#include "report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>

namespace perfbench {

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

double TailQuantile(size_t samples) {
  for (const double q : {0.99, 0.95, 0.90, 0.75}) {
    if (static_cast<double>(samples) * (1.0 - q) >= 10.0) return q;
  }
  return 0.5;
}

void Report::Add(const std::string& name, double value,
                 const std::string& unit) {
  for (Metric& m : metrics_) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  metrics_.push_back({name, value, unit});
}

void Report::Note(const std::string& line) { notes_.push_back(line); }

void Report::Print(bool correct, int64_t attempted, int64_t failed) const {
  for (const std::string& line : notes_) std::printf("%s\n", line.c_str());
  for (const Metric& m : metrics_) {
    std::printf("  %-36s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    json += i == 0 ? "\"" : ", \"";
    json += m.name + "\": {\"value\": " + value + ", \"unit\": \"" +
            m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

double SpanSelfTimeUs(const std::vector<hwp3d::obs::TraceEvent>& events,
                      const std::string& prefix) {
  // Spans of one thread, sorted by start; a span nested in a matching
  // span has start and end inside it.
  std::map<uint32_t, std::vector<const hwp3d::obs::TraceEvent*>> by_tid;
  for (const auto& e : events) {
    if (e.phase == 'X') by_tid[e.tid].push_back(&e);
  }
  double self_us = 0.0;
  for (auto& [tid, spans] : by_tid) {
    std::sort(spans.begin(), spans.end(), [](auto* a, auto* b) {
      return a->ts_us != b->ts_us ? a->ts_us < b->ts_us
                                  : a->dur_us > b->dur_us;
    });
    for (size_t i = 0; i < spans.size(); ++i) {
      const auto* s = spans[i];
      if (s->name.rfind(prefix, 0) != 0) continue;
      const double end = s->ts_us + s->dur_us;
      double covered = 0.0;
      double covered_until = s->ts_us;
      for (size_t j = i + 1; j < spans.size() && spans[j]->ts_us < end; ++j) {
        const double cs = std::max(spans[j]->ts_us, covered_until);
        const double ce = std::min(spans[j]->ts_us + spans[j]->dur_us, end);
        if (ce > cs) {
          covered += ce - cs;
          covered_until = ce;
        }
      }
      self_us += s->dur_us - covered;
    }
  }
  return self_us;
}

double SpanTotalUs(const std::vector<hwp3d::obs::TraceEvent>& events,
                   const std::string& name) {
  double total = 0.0;
  for (const auto& e : events) {
    if (e.phase == 'X' && e.name == name) total += e.dur_us;
  }
  return total;
}

}  // namespace perfbench
