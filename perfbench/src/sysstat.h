// Process and host readings taken around a timed phase: CPU time,
// involuntary context switches, host steal time and peak RSS.
#pragma once

#include <cstdint>
#include <string>

namespace perfbench {

struct ProcSample {
  double wall_s = 0.0;     // steady clock
  double cpu_s = 0.0;      // this process, all threads, user + sys
  int64_t nivcsw = 0;      // involuntary context switches, all threads
  int64_t host_steal = 0;  // /proc/stat "cpu" line, clock ticks
  int64_t host_total = 0;
};

ProcSample SampleProc();

// What happened between two samples.
struct Disturbance {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double steal_share = 0.0;  // host steal ticks / all host ticks
  int64_t nivcsw = 0;
};
Disturbance Between(const ProcSample& a, const ProcSample& b);

// Peak resident set size of this process so far, MB (2^20 bytes).
double PeakRssMb();

// Threads of this process right now (/proc/self/status).
int ThreadCount();

std::string FormatDisturbance(const std::string& phase, const Disturbance& d);

}  // namespace perfbench
