// Metric collection, order statistics and the result line of one run.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace perfbench {

// Order statistics over a copy of `v` (linear interpolation between
// closest ranks). Empty input gives 0.
double Quantile(std::vector<double> v, double q);
double Median(std::vector<double> v);

// The highest of the percentiles 99, 95, 90 and 75 that leaves at least
// ten samples beyond it, as a fraction (0.99 ...); 0.5 when even the 75th
// does not. Capped at 99 so runs of different length report the same
// percentile.
double TailQuantile(size_t samples);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// Metrics of one run, printed as a table and as the final JSON line.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  // A free-form line printed above the metrics (disturbance, checks).
  void Note(const std::string& line);

  // Prints the notes and the metric table to stdout, then the result
  // line {"correct","attempted","failed","metrics"} with every metric.
  void Print(bool correct, int64_t attempted, int64_t failed) const;

 private:
  std::vector<Metric> metrics_;
  std::vector<std::string> notes_;
};

// Sum over spans whose name starts with `prefix` of their self time:
// duration minus the part covered by spans nested in them on the same
// thread. Microseconds.
double SpanSelfTimeUs(const std::vector<hwp3d::obs::TraceEvent>& events,
                      const std::string& prefix);
// Total duration of spans named exactly `name`, microseconds.
double SpanTotalUs(const std::vector<hwp3d::obs::TraceEvent>& events,
                   const std::string& name);

}  // namespace perfbench
