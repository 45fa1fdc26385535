#include "kernels/isa.h"

#include <atomic>

#include "common/error.h"

namespace hwp3d::kernels {
namespace {

Isa Detect() {
#if HWP_HAVE_X86_VARIANTS
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx512f")) return Isa::kAvx512;
  if (__builtin_cpu_supports("avx2")) return Isa::kAvx2;
#endif
  return Isa::kSse2;
}

Isa Widest() {
  static const Isa widest = Detect();
  return widest;
}

std::atomic<Isa>& Active() {
  static std::atomic<Isa> active{Widest()};
  return active;
}

// The variants nest (AVX-512F implies AVX2, AVX2 implies SSE2), so a
// variant runs here when it is no wider than the widest one detected.
bool IsaSupported(Isa isa) {
  return static_cast<int>(isa) <= static_cast<int>(Widest());
}

}  // namespace

Isa ActiveIsa() { return Active().load(std::memory_order_relaxed); }

const char* IsaName(Isa isa) {
  switch (isa) {
    case Isa::kAvx512:
      return "avx512";
    case Isa::kAvx2:
      return "avx2";
    case Isa::kSse2:
      break;
  }
  return "sse2";
}

int64_t IsaLanes(Isa isa) {
  switch (isa) {
    case Isa::kAvx512:
      return simd::kLanes<simd::VecF16>;
    case Isa::kAvx2:
      return simd::kLanes<simd::VecF8>;
    case Isa::kSse2:
      break;
  }
  return simd::kLanes<simd::VecF4>;
}

namespace internal {

std::vector<Isa> SupportedIsas() {
  std::vector<Isa> out;
  for (Isa isa : {Isa::kSse2, Isa::kAvx2, Isa::kAvx512}) {
    if (IsaSupported(isa)) out.push_back(isa);
  }
  return out;
}

ScopedIsa::ScopedIsa(Isa isa) : prev_(ActiveIsa()) {
  HWP_CHECK_MSG(IsaSupported(isa),
                "ScopedIsa: " << IsaName(isa) << " is not supported here");
  Active().store(isa, std::memory_order_relaxed);
}

ScopedIsa::~ScopedIsa() { Active().store(prev_, std::memory_order_relaxed); }

}  // namespace internal
}  // namespace hwp3d::kernels
