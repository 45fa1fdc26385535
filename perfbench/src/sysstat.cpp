#include "sysstat.h"

#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

namespace perfbench {

namespace {

double TimevalS(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
}

void ReadHostTicks(int64_t* steal, int64_t* total) {
  *steal = 0;
  *total = 0;
  std::ifstream in("/proc/stat");
  std::string cpu;
  if (!(in >> cpu) || cpu != "cpu") return;
  // user nice system idle iowait irq softirq steal [guest guest_nice]:
  // guest time is already counted in user, so the first eight add up.
  for (int field = 0; field < 8; ++field) {
    int64_t v = 0;
    if (!(in >> v)) return;
    *total += v;
    if (field == 7) *steal = v;
  }
}

}  // namespace

ProcSample SampleProc() {
  ProcSample s;
  s.wall_s = std::chrono::duration<double>(
                 std::chrono::steady_clock::now().time_since_epoch())
                 .count();
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  s.cpu_s = TimevalS(ru.ru_utime) + TimevalS(ru.ru_stime);
  s.nivcsw = ru.ru_nivcsw;
  ReadHostTicks(&s.host_steal, &s.host_total);
  return s;
}

Disturbance Between(const ProcSample& a, const ProcSample& b) {
  Disturbance d;
  d.wall_s = b.wall_s - a.wall_s;
  d.cpu_s = b.cpu_s - a.cpu_s;
  d.nivcsw = b.nivcsw - a.nivcsw;
  const int64_t ticks = b.host_total - a.host_total;
  d.steal_share = ticks > 0 ? static_cast<double>(b.host_steal - a.host_steal) /
                                  static_cast<double>(ticks)
                            : 0.0;
  return d;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

int ThreadCount() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("Threads:", 0) == 0) {
      return std::atoi(line.c_str() + std::strlen("Threads:"));
    }
  }
  return 0;
}

std::string FormatDisturbance(const std::string& phase, const Disturbance& d) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "disturbance[%s]: wall %.2f s, cpu %.2f s, host steal %.2f%%, "
                "involuntary ctx switches %lld",
                phase.c_str(), d.wall_s, d.cpu_s, 100.0 * d.steal_share,
                static_cast<long long>(d.nivcsw));
  return buf;
}

}  // namespace perfbench
