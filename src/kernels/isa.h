// Instruction-set variants of the training kernels, chosen at run time.
//
// `Sgemm`'s micro-kernel and the direct conv engine (conv3d_gemm.h)
// are each written once over a vector width and compiled three times
// with `target` attributes: portable SSE2 (4 floats), AVX2 (8) and
// AVX-512F (16). The widest variant the host supports is chosen once,
// with `__builtin_cpu_supports`, so the default portable build still
// runs wide vectors where the CPU has them. There is no environment
// variable and no build option: every variant computes every output
// in the same order, so every host trains the same bits (the variant
// only changes how many lanes run that order side by side).
//
// The simd helpers below are for the kernel sources: vector types are
// only ever locals, loaded and stored through pointers, so no wide
// vector crosses a function boundary in a translation unit built for
// the baseline ISA (which is what GCC's -Wpsabi warns about).
#pragma once

#include <cstdint>
#include <cstring>
#include <vector>

namespace hwp3d::kernels {

enum class Isa { kSse2, kAvx2, kAvx512 };

// The variant the training kernels run.
Isa ActiveIsa();

// "sse2", "avx2" or "avx512".
const char* IsaName(Isa isa);

// Floats per vector register of `isa`'s kernels.
int64_t IsaLanes(Isa isa);

namespace internal {

// Every variant the host can run, narrowest first.
std::vector<Isa> SupportedIsas();

// Runs the kernels with `isa` for the lifetime of the object, then
// restores the previous choice. For tests that hold every variant to
// one reference; `isa` must be supported, and no kernel may be running
// on another thread while the choice changes.
class ScopedIsa {
 public:
  explicit ScopedIsa(Isa isa);
  ~ScopedIsa();
  ScopedIsa(const ScopedIsa&) = delete;
  ScopedIsa& operator=(const ScopedIsa&) = delete;

 private:
  Isa prev_;
};

}  // namespace internal

namespace simd {

#define HWP_ALWAYS_INLINE inline __attribute__((always_inline))

#if defined(__x86_64__) || defined(__i386__)
#define HWP_HAVE_X86_VARIANTS 1
#define HWP_TARGET_AVX2 __attribute__((target("avx2")))
#define HWP_TARGET_AVX512 __attribute__((target("avx512f")))
#else
#define HWP_HAVE_X86_VARIANTS 0
#endif

// One vector register of floats (GCC/Clang vector extension). Lane-wise
// * and + round exactly like the scalar float operations they replace;
// -ffp-contract=off (CMakeLists.txt) keeps GCC from fusing them into
// FMA inside the AVX2/AVX-512 clones.
using VecF4 = float __attribute__((vector_size(16)));
using VecF8 = float __attribute__((vector_size(32)));
using VecF16 = float __attribute__((vector_size(64)));

template <class Vec>
inline constexpr int64_t kLanes = sizeof(Vec) / sizeof(float);

template <class Vec>
HWP_ALWAYS_INLINE void Load(Vec* v, const float* p) {
  std::memcpy(v, p, sizeof(Vec));
}

template <class Vec>
HWP_ALWAYS_INLINE void Store(float* p, const Vec& v) {
  std::memcpy(p, &v, sizeof(Vec));
}

}  // namespace simd
}  // namespace hwp3d::kernels
