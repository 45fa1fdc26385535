// Conv/linear compute-engine selection.
//
// Two engines implement every dense layer contraction:
//   kNaive — the original 7-deep scalar loops with double accumulators.
//            Slow, but trivially auditable: it is the bit-exactness
//            reference the gemm engine is parity-tested against.
//   kGemm  — the direct conv engine (kernels/conv3d_gemm.h) and the
//            cache-blocked Sgemm for Linear, ISA-dispatched and run on
//            the persistent thread pool (src/kernels). The default.
//
// The process-wide default comes from HWP_CONV_ENGINE=naive|gemm
// (default gemm); tests and benches override it with SetEngine.
#pragma once

namespace hwp3d::kernels {

enum class Engine { kNaive, kGemm };

// Currently selected engine (HWP_CONV_ENGINE on first call, unless a
// SetEngine override happened earlier).
Engine CurrentEngine();

// Process-wide override, e.g. for parity tests and A/B benchmarks.
void SetEngine(Engine engine);

const char* EngineName(Engine engine);

}  // namespace hwp3d::kernels
