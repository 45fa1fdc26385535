// Builds the pruned default session for one seed and saves its
// checkpoint, so the checkpoint's bytes can be compared across thread
// counts, kernel retunes and builds:
//
//   HWP_THREADS=2 session_checkpoint <seed> <checkpoint-path>
//   md5sum <checkpoint-path>
//
// It also prints what the build cost: Build() wall time, the process's
// resident set after Build() and its peak, and the kernel scratch
// still held.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "common/logging.h"
#include "kernels/scratch.h"
#include "serve/inference_session.h"

namespace {

// A /proc/self/status field ("VmRSS:", "VmHWM:") in MB, or -1 where
// /proc is not available.
double StatusMb(const std::string& field) {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == field) {
      double kb = 0.0;
      status >> kb;
      return kb / 1024.0;
    }
    status.ignore(4096, '\n');
  }
  return -1.0;
}

}  // namespace

int main(int argc, char** argv) {
  char* end = nullptr;
  const unsigned long long seed =
      argc == 3 ? std::strtoull(argv[1], &end, 10) : 0;
  if (argc != 3 || end == argv[1] || *end != '\0') {
    std::fprintf(stderr, "usage: %s <seed> <checkpoint-path>\n", argv[0]);
    return 2;
  }
  hwp3d::SetLogLevel(hwp3d::LogLevel::Warning);

  const auto t0 = std::chrono::steady_clock::now();
  auto session =
      hwp3d::InferenceSession::Builder().Seed(seed).PruneToSparsity(0.5).Build();
  const double build_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  if (!session.ok()) {
    std::fprintf(stderr, "Build: %s\n", session.status().ToString().c_str());
    return 1;
  }
  std::printf("build_s=%.3f vmrss_mb=%.2f vmhwm_mb=%.2f scratch_bytes=%lld\n",
              build_s, StatusMb("VmRSS:"), StatusMb("VmHWM:"),
              static_cast<long long>(hwp3d::kernels::ScratchBytesInUse()));
  const hwp3d::Status saved = (*session)->SaveCheckpoint(argv[2]);
  if (!saved.ok()) {
    std::fprintf(stderr, "SaveCheckpoint: %s\n", saved.ToString().c_str());
    return 1;
  }
  return 0;
}
