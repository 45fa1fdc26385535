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

// Packs op(A)[ic:ic+mc, pc:pc+kc] into kMR-row micro-panels, each
// panel kc×kMR with the row index fastest, zero-padded to kMR rows.
void PackA(const float* a, int64_t lda, bool trans, int64_t ic, int64_t pc,
           int64_t mc, int64_t kc, float* ap) {
  for (int64_t i0 = 0; i0 < mc; i0 += kMR) {
    const int64_t mr = std::min(kMR, mc - i0);
    for (int64_t p = 0; p < kc; ++p) {
      float* dst = ap + p * kMR;
      for (int64_t i = 0; i < mr; ++i) {
        dst[i] = OpElem(a, lda, trans, ic + i0 + i, pc + p);
      }
      for (int64_t i = mr; i < kMR; ++i) dst[i] = 0.0f;
    }
    ap += kc * kMR;
  }
}

// Packs op(B)[pc:pc+kc, jc:jc+nc] into kNR-column micro-panels, each
// panel kc×kNR with the column index fastest, zero-padded to kNR.
void PackB(const float* b, int64_t ldb, bool trans, int64_t pc, int64_t jc,
           int64_t kc, int64_t nc, float* bp) {
  for (int64_t j0 = 0; j0 < nc; j0 += kNR) {
    const int64_t nr = std::min(kNR, nc - j0);
    for (int64_t p = 0; p < kc; ++p) {
      float* dst = bp + p * kNR;
      if (!trans) {
        const float* src = b + (pc + p) * ldb + jc + j0;
        for (int64_t j = 0; j < nr; ++j) dst[j] = src[j];
      } else {
        for (int64_t j = 0; j < nr; ++j) {
          dst[j] = b[(jc + j0 + j) * ldb + pc + p];
        }
      }
      for (int64_t j = nr; j < kNR; ++j) dst[j] = 0.0f;
    }
    bp += kc * kNR;
  }
}

// One SIMD register of floats (GCC/Clang vector extension). Lane-wise
// * and + round exactly like the scalar float operations they replace.
using Vec4 = float __attribute__((vector_size(16)));
inline constexpr int64_t kVec = 4;
inline constexpr int64_t kNV = kNR / kVec;  // vectors per B panel row
static_assert(kNR % kVec == 0, "kNR must be a whole number of vectors");

inline Vec4 LoadVec(const float* p) {
  Vec4 v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

// C[mr×nr] += Ap · Bp over kc. The kMR×kNV accumulator vectors are
// named locals the compiler keeps in registers (see kMR/kNR); each p
// step is a rank-1 update: kNV contiguous B loads, kMR broadcasts of A.
// Every accumulator lane sums its kc products in p order from 0.0f.
void MicroKernel(int64_t kc, const float* ap, const float* bp, float* c,
                 int64_t ldc, int64_t mr, int64_t nr) {
  Vec4 acc[kMR][kNV] = {};
  for (int64_t p = 0; p < kc; ++p) {
    const float* av = ap + p * kMR;
    Vec4 bv[kNV];
    for (int64_t v = 0; v < kNV; ++v) bv[v] = LoadVec(bp + p * kNR + v * kVec);
    for (int64_t i = 0; i < kMR; ++i) {
      const float ai = av[i];
      for (int64_t v = 0; v < kNV; ++v) acc[i][v] += ai * bv[v];
    }
  }
  if (mr == kMR && nr == kNR) {
    for (int64_t i = 0; i < kMR; ++i) {
      float* crow = c + i * ldc;
      for (int64_t v = 0; v < kNV; ++v) {
        const Vec4 sum = LoadVec(crow + v * kVec) + acc[i][v];
        std::memcpy(crow + v * kVec, &sum, sizeof(sum));
      }
    }
  } else {
    for (int64_t i = 0; i < mr; ++i) {
      float* crow = c + i * ldc;
      for (int64_t j = 0; j < nr; ++j) crow[j] += acc[i][j / kVec][j % kVec];
    }
  }
}

int64_t CeilDiv(int64_t a, int64_t b) { return (a + b - 1) / b; }

}  // namespace

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

  thread_local ScratchBuffer<float> bpack;
  thread_local ScratchBuffer<float> apack;
  ThreadPool& pool = ThreadPool::Get();

  for (int64_t jc = 0; jc < n; jc += kNC) {
    const int64_t nc = std::min(kNC, n - jc);
    const int64_t njr = CeilDiv(nc, kNR);
    for (int64_t pc = 0; pc < k; pc += kKC) {
      const int64_t kc = std::min(kKC, k - pc);
      double t0 = obs::NowUs();
      float* bp = bpack.Resize(static_cast<size_t>(njr * kc * kNR));
      PackB(b, ldb, trans_b, pc, jc, kc, nc, bp);
      pack_us += obs::NowUs() - t0;
      for (int64_t ic = 0; ic < m; ic += kMC) {
        const int64_t mc = std::min(kMC, m - ic);
        t0 = obs::NowUs();
        float* ap =
            apack.Resize(static_cast<size_t>(CeilDiv(mc, kMR) * kc * kMR));
        PackA(a, lda, trans_a, ic, pc, mc, kc, ap);
        pack_us += obs::NowUs() - t0;
        // Column micro-panels fan out across the pool; each task owns a
        // disjoint nr-wide strip of C, and the pc blocks accumulate in
        // caller order, so the result is thread-count independent.
        pool.For(0, njr, [&, ap, bp](int64_t jr) {
          const int64_t j0 = jr * kNR;
          const int64_t nr = std::min(kNR, nc - j0);
          const float* bpanel = bp + jr * kc * kNR;
          for (int64_t i0 = 0; i0 < mc; i0 += kMR) {
            MicroKernel(kc, ap + (i0 / kMR) * kc * kMR, bpanel,
                        c + (ic + i0) * ldc + jc + j0, ldc,
                        std::min(kMR, mc - i0), nr);
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
