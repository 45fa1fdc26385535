#include "kernels/sgemm.h"

#include <algorithm>
#include <cstring>

#include "kernels/scratch.h"
#include "kernels/thread_pool.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace hwp3d::kernels {
namespace {

inline float OpElem(const float* a, int64_t lda, bool trans, int64_t r,
                    int64_t c) {
  return trans ? a[c * lda + r] : a[r * lda + c];
}

// Packs op(A)[ic:ic+mc, pc:pc+kc] into mr-row micro-panels, each
// panel kc×mr with the row index fastest, zero-padded to mr rows.
void PackA(const float* a, int64_t lda, bool trans, int64_t ic, int64_t pc,
           int64_t mc, int64_t kc, int64_t mr_tile, float* ap) {
  for (int64_t i0 = 0; i0 < mc; i0 += mr_tile) {
    const int64_t mr = std::min(mr_tile, mc - i0);
    for (int64_t p = 0; p < kc; ++p) {
      float* dst = ap + p * mr_tile;
      for (int64_t i = 0; i < mr; ++i) {
        dst[i] = OpElem(a, lda, trans, ic + i0 + i, pc + p);
      }
      for (int64_t i = mr; i < mr_tile; ++i) dst[i] = 0.0f;
    }
    ap += kc * mr_tile;
  }
}

// Packs op(B)[pc:pc+kc, jc:jc+nc] into nr-column micro-panels, each
// panel kc×nr with the column index fastest, zero-padded to nr.
void PackB(const float* b, int64_t ldb, bool trans, int64_t pc, int64_t jc,
           int64_t kc, int64_t nc, int64_t nr_tile, float* bp) {
  for (int64_t j0 = 0; j0 < nc; j0 += nr_tile) {
    const int64_t nr = std::min(nr_tile, nc - j0);
    for (int64_t p = 0; p < kc; ++p) {
      float* dst = bp + p * nr_tile;
      if (!trans) {
        const float* src = b + (pc + p) * ldb + jc + j0;
        for (int64_t j = 0; j < nr; ++j) dst[j] = src[j];
      } else {
        for (int64_t j = 0; j < nr; ++j) {
          dst[j] = b[(jc + j0 + j) * ldb + pc + p];
        }
      }
      for (int64_t j = nr; j < nr_tile; ++j) dst[j] = 0.0f;
    }
    bp += kc * nr_tile;
  }
}

// C[mr×nr] += Ap · Bp over kc. The MR×NV accumulator vectors are
// named locals the compiler keeps in registers (see SgemmTile); each p
// step is a rank-1 update: NV contiguous B loads, MR broadcasts of A.
// Every accumulator lane sums its kc products in p order from 0.0f.
template <class Vec, int64_t MR, int64_t NV>
HWP_ALWAYS_INLINE void MicroKernel(int64_t kc, const float* ap,
                                   const float* bp, float* c, int64_t ldc,
                                   int64_t mr, int64_t nr) {
  constexpr int64_t V = simd::kLanes<Vec>;
  constexpr int64_t NR = NV * V;
  Vec acc[MR][NV] = {};
  for (int64_t p = 0; p < kc; ++p) {
    const float* av = ap + p * MR;
    Vec bv[NV];
    for (int64_t v = 0; v < NV; ++v) simd::Load(&bv[v], bp + p * NR + v * V);
    for (int64_t i = 0; i < MR; ++i) {
      const float ai = av[i];
      for (int64_t v = 0; v < NV; ++v) acc[i][v] += ai * bv[v];
    }
  }
  if (mr == MR && nr == NR) {
    for (int64_t i = 0; i < MR; ++i) {
      float* crow = c + i * ldc;
      for (int64_t v = 0; v < NV; ++v) {
        Vec sum;
        simd::Load(&sum, crow + v * V);
        sum += acc[i][v];
        simd::Store(crow + v * V, sum);
      }
    }
  } else {
    for (int64_t i = 0; i < mr; ++i) {
      float* crow = c + i * ldc;
      for (int64_t j = 0; j < nr; ++j) crow[j] += acc[i][j / V][j % V];
    }
  }
}

using MicroKernelFn = void (*)(int64_t kc, const float* ap, const float* bp,
                               float* c, int64_t ldc, int64_t mr, int64_t nr);

// Every variant uses MR = 4 (kMC is a multiple of it).
constexpr int64_t kMR = 4;
static_assert(kMC % kMR == 0, "kMC must be a multiple of MR");

void MicroKernelSse2(int64_t kc, const float* ap, const float* bp, float* c,
                     int64_t ldc, int64_t mr, int64_t nr) {
  MicroKernel<simd::VecF4, kMR, 3>(kc, ap, bp, c, ldc, mr, nr);
}

#if HWP_HAVE_X86_VARIANTS
HWP_TARGET_AVX2 void MicroKernelAvx2(int64_t kc, const float* ap,
                                     const float* bp, float* c, int64_t ldc,
                                     int64_t mr, int64_t nr) {
  MicroKernel<simd::VecF8, kMR, 2>(kc, ap, bp, c, ldc, mr, nr);
}

HWP_TARGET_AVX512 void MicroKernelAvx512(int64_t kc, const float* ap,
                                         const float* bp, float* c,
                                         int64_t ldc, int64_t mr, int64_t nr) {
  MicroKernel<simd::VecF16, kMR, 1>(kc, ap, bp, c, ldc, mr, nr);
}
#endif

// NC is the largest multiple of NR up to 1024.
constexpr SgemmTile Tile(int64_t nr) { return {kMR, nr, 1024 / nr * nr}; }

struct Variant {
  SgemmTile tile;
  MicroKernelFn kernel;
};

Variant VariantFor(Isa isa) {
  switch (isa) {
#if HWP_HAVE_X86_VARIANTS
    case Isa::kAvx512:
      return {Tile(16), MicroKernelAvx512};
    case Isa::kAvx2:
      return {Tile(16), MicroKernelAvx2};
#endif
    default:
      return {Tile(12), MicroKernelSse2};
  }
}

int64_t CeilDiv(int64_t a, int64_t b) { return (a + b - 1) / b; }

}  // namespace

SgemmTile SgemmTileFor(Isa isa) { return VariantFor(isa).tile; }

void Sgemm(bool trans_a, bool trans_b, int64_t m, int64_t n, int64_t k,
           const float* a, int64_t lda, const float* b, int64_t ldb,
           float* c, int64_t ldc, bool accumulate) {
  if (m <= 0 || n <= 0) return;
  if (!accumulate) {
    for (int64_t i = 0; i < m; ++i) {
      std::memset(c + i * ldc, 0, sizeof(float) * static_cast<size_t>(n));
    }
  }
  if (k <= 0) return;

  static obs::Counter& calls =
      obs::MetricsRegistry::Get().GetCounter("kernels.gemm.calls");
  static obs::Counter& flops =
      obs::MetricsRegistry::Get().GetCounter("kernels.gemm.flops");
  static obs::Counter& pack_us_total =
      obs::MetricsRegistry::Get().GetCounter("kernels.gemm.pack_us");
  static obs::Counter& compute_us_total =
      obs::MetricsRegistry::Get().GetCounter("kernels.gemm.compute_us");
  static obs::Histogram& gflops_hist =
      obs::MetricsRegistry::Get().GetHistogram("kernels.gemm.gflops");

  obs::TraceScope span("kernels/sgemm");
  if (span.active()) {
    span.AddArg("m", m);
    span.AddArg("n", n);
    span.AddArg("k", k);
  }
  const double t_start = obs::NowUs();
  double pack_us = 0.0;

  const Variant variant = VariantFor(ActiveIsa());
  const int64_t MR = variant.tile.mr, NR = variant.tile.nr;
  const int64_t NC = variant.tile.nc;
  thread_local ScratchBuffer<float> bpack;
  thread_local ScratchBuffer<float> apack;
  ThreadPool& pool = ThreadPool::Get();

  for (int64_t jc = 0; jc < n; jc += NC) {
    const int64_t nc = std::min(NC, n - jc);
    const int64_t njr = CeilDiv(nc, NR);
    for (int64_t pc = 0; pc < k; pc += kKC) {
      const int64_t kc = std::min(kKC, k - pc);
      double t0 = obs::NowUs();
      float* bp = bpack.Resize(static_cast<size_t>(njr * kc * NR));
      PackB(b, ldb, trans_b, pc, jc, kc, nc, NR, bp);
      pack_us += obs::NowUs() - t0;
      for (int64_t ic = 0; ic < m; ic += kMC) {
        const int64_t mc = std::min(kMC, m - ic);
        t0 = obs::NowUs();
        float* ap =
            apack.Resize(static_cast<size_t>(CeilDiv(mc, MR) * kc * MR));
        PackA(a, lda, trans_a, ic, pc, mc, kc, MR, ap);
        pack_us += obs::NowUs() - t0;
        // Column micro-panels fan out across the pool; each task owns a
        // disjoint nr-wide strip of C, and the pc blocks accumulate in
        // caller order, so the result is thread-count independent.
        pool.For(0, njr, [&, ap, bp](int64_t jr) {
          const int64_t j0 = jr * NR;
          const int64_t nr = std::min(NR, nc - j0);
          const float* bpanel = bp + jr * kc * NR;
          for (int64_t i0 = 0; i0 < mc; i0 += MR) {
            variant.kernel(kc, ap + (i0 / MR) * kc * MR, bpanel,
                           c + (ic + i0) * ldc + jc + j0, ldc,
                           std::min(MR, mc - i0), nr);
          }
        });
      }
    }
  }

  const double total_us = obs::NowUs() - t_start;
  const int64_t flop = 2 * m * n * k;
  calls.Add(1);
  flops.Add(flop);
  pack_us_total.Add(static_cast<int64_t>(pack_us));
  compute_us_total.Add(static_cast<int64_t>(std::max(0.0, total_us - pack_us)));
  if (total_us > 0.0) {
    gflops_hist.Observe(static_cast<double>(flop) / (total_us * 1e3));
  }
  if (span.active()) {
    span.AddArg("gflops", total_us > 0.0
                              ? static_cast<double>(flop) / (total_us * 1e3)
                              : 0.0);
  }
}

}  // namespace hwp3d::kernels
