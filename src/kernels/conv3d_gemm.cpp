#include "kernels/conv3d_gemm.h"

#include <algorithm>

#include "kernels/scratch.h"
#include "kernels/sgemm.h"
#include "kernels/thread_pool.h"
#include "obs/trace.h"

namespace hwp3d::kernels {
namespace {

// One sample's im2col matrix, K×P floats; forward and backward share
// each thread's buffer.
float* ThreadCols(int64_t K, int64_t P) {
  thread_local ScratchBuffer<float> cols;
  return cols.Resize(static_cast<size_t>(K * P));
}

}  // namespace

void Conv3dForwardGemm(const Conv3dGeom& g, const float* x, const float* w,
                       const float* bias, float* y) {
  HWP_TRACE_SCOPE("kernels/conv3d_forward_gemm");
  const int64_t K = g.cols_rows();
  const int64_t P = g.cols_cols();
  ThreadPool::Get().For(0, g.batch, [&](int64_t b) {
    float* cols = ThreadCols(K, P);
    Im2col3d(g, x + b * g.in_sample_size(), cols);
    float* yb = y + b * g.out_sample_size();
    if (bias != nullptr) {
      // Seed each output row with its bias, then accumulate the GEMM.
      for (int64_t m = 0; m < g.out_c; ++m) {
        std::fill(yb + m * P, yb + (m + 1) * P, bias[m]);
      }
    }
    Sgemm(/*trans_a=*/false, /*trans_b=*/false, g.out_c, P, K, w, K,
          cols, P, yb, P, /*accumulate=*/bias != nullptr);
  });
}

void Conv3dBackwardGemm(const Conv3dGeom& g, const float* x, const float* w,
                        const float* dy, float* dw, float* dx) {
  HWP_TRACE_SCOPE("kernels/conv3d_backward_gemm");
  const int64_t M = g.out_c;
  const int64_t K = g.cols_rows();
  const int64_t P = g.cols_cols();
  // dW's GEMM runs over k = P. Each sample leaves one M×K partial per
  // kKC block of P; the fold below adds them in (sample, block) order.
  const int64_t blocks = (P + kKC - 1) / kKC;
  const int64_t mk = M * K;
  thread_local ScratchBuffer<float> partial_scratch;
  float* partials =
      partial_scratch.Resize(static_cast<size_t>(g.batch * blocks * mk));
  ThreadPool::Get().For(0, g.batch, [&](int64_t b) {
    float* cols = ThreadCols(K, P);
    const float* dyb = dy + b * g.out_sample_size();
    Im2col3d(g, x + b * g.in_sample_size(), cols);
    // partial[b][blk][M×K] = dy_b[M×kc] · cols_b[K×kc]ᵀ over one block.
    for (int64_t blk = 0; blk < blocks; ++blk) {
      const int64_t pc = blk * kKC;
      Sgemm(/*trans_a=*/false, /*trans_b=*/true, M, K, std::min(kKC, P - pc),
            dyb + pc, P, cols + pc, P, partials + (b * blocks + blk) * mk, K,
            /*accumulate=*/false);
    }
    if (dx != nullptr) {
      // dcols[K×P] = Wᵀ[K×M] · dy_b[M×P], then scatter back to dx_b.
      // cols is spent once the dW partials are in, so dcols reuses it.
      float* dcols = cols;
      Sgemm(/*trans_a=*/true, /*trans_b=*/false, K, P, M, w, K, dyb, P,
            dcols, P, /*accumulate=*/false);
      Col2im3d(g, dcols, dx + b * g.in_sample_size());
    }
  });
  // A partial is Sgemm's block sum stored as 0.0f + sum, which is the
  // sum itself: it starts from +0.0f, so it is never −0.0f. Adding the
  // partials into dW in (sample, block) order therefore gives, bit for
  // bit, what Sgemm(accumulate=true) over all of P gives per sample.
  for (int64_t i = 0; i < g.batch * blocks; ++i) {
    const float* part = partials + i * mk;
    for (int64_t e = 0; e < mk; ++e) dw[e] += part[e];
  }
}

}  // namespace hwp3d::kernels
