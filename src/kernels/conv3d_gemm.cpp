#include "kernels/conv3d_gemm.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "kernels/isa.h"
#include "kernels/scratch.h"
#include "kernels/sgemm.h"
#include "kernels/thread_pool.h"
#include "obs/trace.h"

namespace hwp3d::kernels {
namespace {

// Rows of the forward / dx register tile: output channels, or input
// channels of one spatial tap.
constexpr int64_t kMB = 4;

int64_t RoundUp(int64_t a, int64_t b) { return (a + b - 1) / b * b; }

// acc[i][v] = Σ_{j < kk} wp[j·kMB + i] · src[off[j] + v·V + lane], each
// lane summed in j order from 0.0f.
template <class Vec, int64_t NV>
HWP_ALWAYS_INLINE void MacSum(int64_t kk, const float* wp, const int64_t* off,
                              const float* src, Vec (&acc)[kMB][NV]) {
  constexpr int64_t V = simd::kLanes<Vec>;
  for (int64_t i = 0; i < kMB; ++i)
    for (int64_t v = 0; v < NV; ++v) acc[i][v] = Vec{};
  for (int64_t j = 0; j < kk; ++j) {
    const float* s = src + off[j];
    Vec xv[NV];
    for (int64_t v = 0; v < NV; ++v) simd::Load(&xv[v], s + v * V);
    for (int64_t i = 0; i < kMB; ++i) {
      const float wi = wp[j * kMB + i];
      for (int64_t v = 0; v < NV; ++v) acc[i][v] += wi * xv[v];
    }
  }
}

// Forward: out[i][q] += Σ_{j < kk} wp[j·kMB + i] · src[off[j] + q] for
// q in [0, len), len a whole number of vectors.
template <class Vec, int64_t NV>
HWP_ALWAYS_INLINE void ForwardTile(int64_t kk, const float* wp,
                                   const int64_t* off, const float* src,
                                   float* out, int64_t ostride) {
  constexpr int64_t V = simd::kLanes<Vec>;
  Vec acc[kMB][NV];
  MacSum<Vec, NV>(kk, wp, off, src, acc);
  for (int64_t i = 0; i < kMB; ++i) {
    for (int64_t v = 0; v < NV; ++v) {
      Vec o;
      simd::Load(&o, out + i * ostride + v * V);
      o += acc[i][v];
      simd::Store(out + i * ostride + v * V, o);
    }
  }
}

template <class Vec, int64_t NV>
HWP_ALWAYS_INLINE void ForwardRows(int64_t kk, const float* wp,
                                   const int64_t* off, const float* src,
                                   float* out, int64_t len) {
  constexpr int64_t V = simd::kLanes<Vec>;
  int64_t q = 0;
  for (; q + NV * V <= len; q += NV * V) {
    ForwardTile<Vec, NV>(kk, wp, off, src + q, out + q, len);
  }
  for (; q < len; q += V) {
    ForwardTile<Vec, 1>(kk, wp, off, src + q, out + q, len);
  }
}

// dx: for q in [0, len), t_i[q] = Σ_m wp[m·kMB + i] · dyq[dy_off[m] + q]
// (m ascending from 0.0f per kKC block; block sums added into 0.0f),
// then dst[i][q] += t_i[q] · sign[q] for the rows i < rows. sign is +1
// at real positions and −1 at halo lanes, whose t is +0.0f (dyq is 0
// there): a halo lane adds −0.0f, which leaves any value unchanged.
template <class Vec, int64_t NV>
HWP_ALWAYS_INLINE void InputGradTile(int64_t M, const float* wp,
                                     const int64_t* dy_off, const float* dyq,
                                     float* const* dst, int64_t rows,
                                     const float* sign) {
  constexpr int64_t V = simd::kLanes<Vec>;
  Vec t[kMB][NV];
  MacSum<Vec, NV>(std::min(kKC, M), wp, dy_off, dyq, t);
  for (int64_t m0 = kKC; m0 < M; m0 += kKC) {
    Vec acc[kMB][NV];
    MacSum<Vec, NV>(std::min(kKC, M - m0), wp + m0 * kMB, dy_off + m0, dyq,
                    acc);
    for (int64_t i = 0; i < kMB; ++i)
      for (int64_t v = 0; v < NV; ++v) t[i][v] += acc[i][v];
  }
  Vec sv[NV];
  for (int64_t v = 0; v < NV; ++v) simd::Load(&sv[v], sign + v * V);
  for (int64_t i = 0; i < rows; ++i) {
    for (int64_t v = 0; v < NV; ++v) {
      Vec d;
      simd::Load(&d, dst[i] + v * V);
      d += t[i][v] * sv[v];
      simd::Store(dst[i] + v * V, d);
    }
  }
}

template <class Vec, int64_t NV>
HWP_ALWAYS_INLINE void InputGradRows(int64_t M, const float* wp,
                                     const int64_t* dy_off, const float* dyq,
                                     float* const* dst, int64_t rows,
                                     const float* sign, int64_t len) {
  constexpr int64_t V = simd::kLanes<Vec>;
  float* d[kMB];
  auto at = [&](int64_t q) {
    for (int64_t i = 0; i < rows; ++i) d[i] = dst[i] + q;
  };
  int64_t q = 0;
  for (; q + NV * V <= len; q += NV * V) {
    at(q);
    InputGradTile<Vec, NV>(M, wp, dy_off, dyq + q, d, rows, sign + q);
  }
  for (; q < len; q += V) {
    at(q);
    InputGradTile<Vec, 1>(M, wp, dy_off, dyq + q, d, rows, sign + q);
  }
}

// dW: part[t][m] = Σ_{j < np} taps[t][qof[j]] · dyT[j·mpad + m] over a
// tile of TK taps × NV vectors of output channels, each lane summed in
// j order from 0.0f. Only the k_real × m_real real entries are stored
// (part has row stride M); the rest of the tile is padding.
template <class Vec, int64_t NV, int64_t TK>
HWP_ALWAYS_INLINE void WeightGradTile(int64_t np, const int64_t* qof,
                                      const float* const* taps,
                                      const float* dyT, int64_t mpad,
                                      int64_t k_real, int64_t m_real,
                                      float* part, int64_t M) {
  constexpr int64_t V = simd::kLanes<Vec>;
  Vec acc[TK][NV] = {};
  for (int64_t j = 0; j < np; ++j) {
    Vec dv[NV];
    for (int64_t v = 0; v < NV; ++v) simd::Load(&dv[v], dyT + j * mpad + v * V);
    const int64_t q = qof[j];
    for (int64_t t = 0; t < TK; ++t) {
      const float xt = taps[t][q];
      for (int64_t v = 0; v < NV; ++v) acc[t][v] += xt * dv[v];
    }
  }
  float row[NV * V];
  for (int64_t t = 0; t < k_real; ++t) {
    for (int64_t v = 0; v < NV; ++v) simd::Store(row + v * V, acc[t][v]);
    std::copy(row, row + m_real, part + t * M);
  }
}

// Every output channel for one block of positions: tiles of TK taps
// (the last one filled up with tap 0 by the caller), passes of up to NV
// vectors of channels.
template <class Vec, int64_t NV, int64_t TK>
HWP_ALWAYS_INLINE void WeightGradBlock(int64_t np, const int64_t* qof,
                                       const float* const* taps, int64_t K,
                                       const float* dyT, int64_t M,
                                       int64_t mpad, float* part) {
  constexpr int64_t V = simd::kLanes<Vec>;
  for (int64_t k0 = 0; k0 < K; k0 += TK) {
    const int64_t k_real = std::min(TK, K - k0);
    int64_t m0 = 0;
    for (; m0 + NV * V <= mpad; m0 += NV * V) {
      WeightGradTile<Vec, NV, TK>(np, qof, taps + k0, dyT + m0, mpad, k_real,
                                  std::min(NV * V, M - m0),
                                  part + k0 * M + m0, M);
    }
    for (; m0 < mpad; m0 += V) {
      WeightGradTile<Vec, 1, TK>(np, qof, taps + k0, dyT + m0, mpad, k_real,
                                 std::min(V, M - m0), part + k0 * M + m0, M);
    }
  }
}

// One ISA variant of the three kernels. Register budgets (accumulators
// + loads + broadcast): forward and dx kMB·NV + NV + 1, dW TK·NV + NV + 1.
struct Kernels {
  void (*forward)(int64_t kk, const float* wp, const int64_t* off,
                  const float* src, float* out, int64_t len);
  void (*input_grad)(int64_t M, const float* wp, const int64_t* dy_off,
                     const float* dyq, float* const* dst, int64_t rows,
                     const float* sign, int64_t len);
  void (*weight_grad)(int64_t np, const int64_t* qof, const float* const* taps,
                      int64_t K, const float* dyT, int64_t M, int64_t mpad,
                      float* part);
  int64_t tk;  // taps per dW tile; the tap pointers fill up to a whole tile
};

// 16 XMM: 12 + 3 + 1 (forward, dx), 12 + 2 + 1 (dW).
void ForwardSse2(int64_t kk, const float* wp, const int64_t* off,
                 const float* src, float* out, int64_t len) {
  ForwardRows<simd::VecF4, 3>(kk, wp, off, src, out, len);
}
void InputGradSse2(int64_t M, const float* wp, const int64_t* dy_off,
                   const float* dyq, float* const* dst, int64_t rows,
                   const float* sign, int64_t len) {
  InputGradRows<simd::VecF4, 3>(M, wp, dy_off, dyq, dst, rows, sign, len);
}
void WeightGradSse2(int64_t np, const int64_t* qof, const float* const* taps,
                    int64_t K, const float* dyT, int64_t M, int64_t mpad,
                    float* part) {
  WeightGradBlock<simd::VecF4, 2, 6>(np, qof, taps, K, dyT, M, mpad, part);
}

#if HWP_HAVE_X86_VARIANTS
// 16 YMM: as SSE2.
HWP_TARGET_AVX2 void ForwardAvx2(int64_t kk, const float* wp,
                                 const int64_t* off, const float* src,
                                 float* out, int64_t len) {
  ForwardRows<simd::VecF8, 3>(kk, wp, off, src, out, len);
}
HWP_TARGET_AVX2 void InputGradAvx2(int64_t M, const float* wp,
                                   const int64_t* dy_off, const float* dyq,
                                   float* const* dst, int64_t rows,
                                   const float* sign, int64_t len) {
  InputGradRows<simd::VecF8, 3>(M, wp, dy_off, dyq, dst, rows, sign, len);
}
HWP_TARGET_AVX2 void WeightGradAvx2(int64_t np, const int64_t* qof,
                                    const float* const* taps, int64_t K,
                                    const float* dyT, int64_t M, int64_t mpad,
                                    float* part) {
  WeightGradBlock<simd::VecF8, 2, 6>(np, qof, taps, K, dyT, M, mpad, part);
}

// 32 ZMM: 16 + 4 + 1 (forward, dx), 24 + 2 + 1 (dW).
HWP_TARGET_AVX512 void ForwardAvx512(int64_t kk, const float* wp,
                                     const int64_t* off, const float* src,
                                     float* out, int64_t len) {
  ForwardRows<simd::VecF16, 4>(kk, wp, off, src, out, len);
}
HWP_TARGET_AVX512 void InputGradAvx512(int64_t M, const float* wp,
                                       const int64_t* dy_off,
                                       const float* dyq, float* const* dst,
                                       int64_t rows, const float* sign,
                                       int64_t len) {
  InputGradRows<simd::VecF16, 4>(M, wp, dy_off, dyq, dst, rows, sign, len);
}
HWP_TARGET_AVX512 void WeightGradAvx512(int64_t np, const int64_t* qof,
                                        const float* const* taps, int64_t K,
                                        const float* dyT, int64_t M,
                                        int64_t mpad, float* part) {
  WeightGradBlock<simd::VecF16, 2, 12>(np, qof, taps, K, dyT, M, mpad, part);
}
#endif

Kernels KernelsFor(Isa isa) {
  switch (isa) {
#if HWP_HAVE_X86_VARIANTS
    case Isa::kAvx512:
      return {ForwardAvx512, InputGradAvx512, WeightGradAvx512, 12};
    case Isa::kAvx2:
      return {ForwardAvx2, InputGradAvx2, WeightGradAvx2, 6};
#endif
    default:
      return {ForwardSse2, InputGradSse2, WeightGradSse2, 6};
  }
}

// One sample of x (or dx) in zero-padded phase planes: padded depth
// slice dz of channel n, phase (rh, rw) holds xpad[n][dz][i·Sh + rh]
// [j·Sw + rw] at ((n·Dp + dz)·phases + rh·Sw + rw)·plane + i·wq + j.
// Output position (oh, ow) of tap (kd, kh, kw) then sits in phase
// (kh % Sh, kw % Sw) at (oh + kh / Sh)·wq + ow + kw / Sw of depth slice
// od·Sd + kd: unit stride along ow for every stride. Positions run on
// the wq pitch, so ow in [Wo, wq) are halo lanes; `len` rounds Ho·wq up
// to whole vectors.
struct PhasePlanes {
  int64_t dp, hq, wq, phases, plane, depth_stride;
  int64_t len;     // positions computed per output depth slice
  int64_t floats;  // buffer size, with a tail for the last halo lanes

  PhasePlanes(const Conv3dGeom& g, int64_t lanes)
      : dp(g.in_d + 2 * g.p_d),
        hq((g.in_h + 2 * g.p_h + g.s_h - 1) / g.s_h),
        wq((g.in_w + 2 * g.p_w + g.s_w - 1) / g.s_w),
        phases(g.s_h * g.s_w),
        plane(hq * wq),
        depth_stride(phases * plane),
        len(RoundUp(g.out_h * wq, lanes)),
        floats(g.in_c * dp * depth_stride + len) {
    for (int64_t rw = 0; rw < g.s_w; ++rw) {
      const int64_t iw0 = ((rw - g.p_w) % g.s_w + g.s_w) % g.s_w;
      column_runs.push_back({iw0, rw * plane + (iw0 + g.p_w) / g.s_w});
    }
  }

  // Offset of tap k's window from depth slice od·Sd's base.
  int64_t TapOffset(const Conv3dGeom& g, int64_t n, int64_t kd, int64_t kh,
                    int64_t kw) const {
    const int64_t phase = (kh % g.s_h) * g.s_w + kw % g.s_w;
    return ((n * dp + kd) * phases + phase) * plane + (kh / g.s_h) * wq +
           kw / g.s_w;
  }

  // Zeroes xq and copies one sample in.
  void Fill(const Conv3dGeom& g, const float* x, float* xq) const {
    std::memset(xq, 0, sizeof(float) * static_cast<size_t>(floats));
    ForEachRow(g, [](const float* src, float* dst, int64_t iw0, int64_t n,
                     int64_t s) {
      for (int64_t iw = iw0; iw < n; iw += s) *dst++ = src[iw];
    }, x, xq);
  }

  // Copies the real positions of xq back out to one sample.
  void Drain(const Conv3dGeom& g, const float* xq, float* x) const {
    ForEachRow(g, [](float* dst, const float* src, int64_t iw0, int64_t n,
                     int64_t s) {
      for (int64_t iw = iw0; iw < n; iw += s) dst[iw] = *src++;
    }, x, xq);
  }

 private:
  // Calls f(sample row, first plane element, iw0, Wi, Sw) for every
  // input row and column phase. The phase arithmetic is hoisted out of
  // the element loops: a 64-bit division costs more than the copy.
  template <typename X, typename Q, typename F>
  void ForEachRow(const Conv3dGeom& g, F f, X* x, Q* xq) const {
    for (int64_t n = 0; n < g.in_c; ++n) {
      for (int64_t id = 0; id < g.in_d; ++id) {
        Q* slice = xq + (n * dp + id + g.p_d) * depth_stride;
        X* row = x + (n * g.in_d + id) * g.in_h * g.in_w;
        // Padded row ih + Ph lands in phase rh, row i of that phase.
        int64_t rh = g.p_h % g.s_h, i = g.p_h / g.s_h;
        for (int64_t ih = 0; ih < g.in_h; ++ih, row += g.in_w) {
          Q* rows = slice + rh * g.s_w * plane + i * wq;
          for (const ColumnRun& c : column_runs) {
            f(row, rows + c.dst, c.iw0, g.in_w, g.s_w);
          }
          if (++rh == g.s_h) rh = 0, ++i;
        }
      }
    }
  }

  // Padded column iw + Pw lands in phase rw = (iw + Pw) % Sw, column
  // (iw + Pw) / Sw: phase rw takes iw0, iw0 + Sw, ... from `dst` on.
  struct ColumnRun {
    int64_t iw0, dst;
  };
  std::vector<ColumnRun> column_runs;
};

// Per-thread scratch shared by the forward and backward passes, which
// never overlap on one thread: a sample in phase planes (x, then dx),
// and dy rearranged (for dW, then for dx).
float* PlaneScratch(int64_t n) {
  thread_local ScratchBuffer<float> planes;
  return planes.Resize(static_cast<size_t>(n));
}

float* DyScratch(int64_t n) {
  thread_local ScratchBuffer<float> dy;
  return dy.Resize(static_cast<size_t>(n));
}

}  // namespace

void Conv3dForwardGemm(const Conv3dGeom& g, const float* x, const float* w,
                       const float* bias, float* y) {
  HWP_TRACE_SCOPE("kernels/conv3d_forward_gemm");
  const Isa isa = ActiveIsa();
  const Kernels kern = KernelsFor(isa);
  const int64_t M = g.out_c, K = g.taps();
  const int64_t m_tiles = (M + kMB - 1) / kMB;
  const PhasePlanes pp(g, IsaLanes(isa));

  // Shared, read-only inside the region: tap offsets, k = (n, kd, kh,
  // kw) ascending, and the weights packed per kMB-channel tile as
  // [tile][k][kMB], zero past M.
  thread_local ScratchBuffer<int64_t> off_scratch;
  thread_local ScratchBuffer<float> w_scratch;
  int64_t* off = off_scratch.Resize(static_cast<size_t>(K));
  float* wpack = w_scratch.Resize(static_cast<size_t>(m_tiles * K * kMB));
  int64_t k = 0;
  for (int64_t n = 0; n < g.in_c; ++n)
    for (int64_t kd = 0; kd < g.k_d; ++kd)
      for (int64_t kh = 0; kh < g.k_h; ++kh)
        for (int64_t kw = 0; kw < g.k_w; ++kw)
          off[k++] = pp.TapOffset(g, n, kd, kh, kw);
  for (int64_t mt = 0; mt < m_tiles; ++mt) {
    for (k = 0; k < K; ++k) {
      for (int64_t i = 0; i < kMB; ++i) {
        const int64_t m = mt * kMB + i;
        wpack[(mt * K + k) * kMB + i] = m < M ? w[m * K + k] : 0.0f;
      }
    }
  }

  ThreadPool::Get().For(0, g.batch, [&](int64_t b) {
    thread_local ScratchBuffer<float> out_scratch;
    float* xq = PlaneScratch(pp.floats);
    float* out = out_scratch.Resize(static_cast<size_t>(kMB * pp.len));
    pp.Fill(g, x + b * g.in_sample_size(), xq);
    float* yb = y + b * g.out_sample_size();
    for (int64_t od = 0; od < g.out_d; ++od) {
      const float* src = xq + od * g.s_d * pp.depth_stride;
      for (int64_t mt = 0; mt < m_tiles; ++mt) {
        const int64_t rows = std::min(kMB, M - mt * kMB);
        for (int64_t i = 0; i < kMB; ++i) {
          const float seed =
              bias != nullptr && i < rows ? bias[mt * kMB + i] : 0.0f;
          std::fill(out + i * pp.len, out + (i + 1) * pp.len, seed);
        }
        for (int64_t k0 = 0; k0 < K; k0 += kKC) {
          kern.forward(std::min(kKC, K - k0), wpack + (mt * K + k0) * kMB,
                       off + k0, src, out, pp.len);
        }
        for (int64_t i = 0; i < rows; ++i) {
          float* dst =
              yb + ((mt * kMB + i) * g.out_d + od) * g.out_h * g.out_w;
          for (int64_t oh = 0; oh < g.out_h; ++oh) {
            const float* row = out + i * pp.len + oh * pp.wq;
            for (int64_t ow = 0; ow < g.out_w; ++ow) *dst++ = row[ow];
          }
        }
      }
    }
  });
}

void Conv3dBackwardGemm(const Conv3dGeom& g, const float* x, const float* w,
                        const float* dy, float* dw, float* dx) {
  HWP_TRACE_SCOPE("kernels/conv3d_backward_gemm");
  const Isa isa = ActiveIsa();
  const Kernels kern = KernelsFor(isa);
  const int64_t lanes = IsaLanes(isa);
  const int64_t M = g.out_c, K = g.taps(), P = g.positions();
  const int64_t taps_hw = g.k_d * g.k_h * g.k_w;
  const int64_t n_tiles = (g.in_c + kMB - 1) / kMB;
  const PhasePlanes pp(g, lanes);
  const int64_t slice_stride = g.s_d * pp.depth_stride;
  const int64_t mpad = RoundUp(M, lanes);
  const int64_t kpad = RoundUp(K, kern.tk);  // taps, last tile filled up
  const int64_t dyq_stride = g.out_d * pp.len;  // dy channel on the planes

  // Shared, read-only inside the region: each position's plane offset
  // (qof, P order), dy's channel offsets on the planes, +1/−1 for real
  // and halo plane positions, and Wᵀ packed per (spatial tap, kMB-
  // channel tile) as [kd][kh][kw][tile][m][kMB], zero past in_c.
  thread_local ScratchBuffer<int64_t> index_scratch;
  thread_local ScratchBuffer<float> sign_scratch;
  thread_local ScratchBuffer<float> wt_scratch;
  int64_t* qof = index_scratch.Resize(static_cast<size_t>(P + M));
  int64_t* dy_off = qof + P;
  int64_t p = 0;
  for (int64_t od = 0; od < g.out_d; ++od)
    for (int64_t oh = 0; oh < g.out_h; ++oh)
      for (int64_t ow = 0; ow < g.out_w; ++ow)
        qof[p++] = od * slice_stride + oh * pp.wq + ow;
  for (int64_t m = 0; m < M; ++m) dy_off[m] = m * dyq_stride;
  float* sign = nullptr;
  float* wtpack = nullptr;
  if (dx != nullptr) {
    sign = sign_scratch.Resize(static_cast<size_t>(pp.len));
    std::fill(sign, sign + pp.len, -1.0f);
    for (int64_t oh = 0; oh < g.out_h; ++oh) {
      std::fill(sign + oh * pp.wq, sign + oh * pp.wq + g.out_w, 1.0f);
    }
    wtpack =
        wt_scratch.Resize(static_cast<size_t>(taps_hw * n_tiles * M * kMB));
    for (int64_t s = 0; s < taps_hw; ++s)
      for (int64_t nt = 0; nt < n_tiles; ++nt)
        for (int64_t m = 0; m < M; ++m)
          for (int64_t i = 0; i < kMB; ++i) {
            const int64_t n = nt * kMB + i;
            wtpack[((s * n_tiles + nt) * M + m) * kMB + i] =
                n < g.in_c ? w[(m * g.in_c + n) * taps_hw + s] : 0.0f;
          }
  }

  // Each sample leaves one partial per kKC block of P, [K][M] (tap-
  // major); the fold below adds them in (sample, block) order.
  const int64_t blocks = (P + kKC - 1) / kKC;
  const int64_t part_size = K * M;
  thread_local ScratchBuffer<float> partial_scratch;
  float* partials = partial_scratch.Resize(
      static_cast<size_t>(g.batch * blocks * part_size));
  ThreadPool::Get().For(0, g.batch, [&](int64_t b) {
    thread_local ScratchBuffer<const float*> tap_scratch;
    float* xq = PlaneScratch(pp.floats);
    pp.Fill(g, x + b * g.in_sample_size(), xq);
    const float* dyb = dy + b * g.out_sample_size();

    // dW: per block, dy transposed to [kKC][mpad] (zero past M); tap k
    // of position p is xq[off_k + qof[p]], the taps past K repeat tap 0.
    float* dyT = DyScratch(kKC * mpad);
    const float** taps = tap_scratch.Resize(static_cast<size_t>(kpad));
    int64_t k = 0;
    for (int64_t n = 0; n < g.in_c; ++n)
      for (int64_t kd = 0; kd < g.k_d; ++kd)
        for (int64_t kh = 0; kh < g.k_h; ++kh)
          for (int64_t kw = 0; kw < g.k_w; ++kw)
            taps[k++] = xq + pp.TapOffset(g, n, kd, kh, kw);
    for (; k < kpad; ++k) taps[k] = taps[0];
    for (int64_t blk = 0; blk < blocks; ++blk) {
      const int64_t p0 = blk * kKC, np = std::min(kKC, P - p0);
      for (int64_t j = 0; j < np; ++j) {
        float* row = dyT + j * mpad;
        for (int64_t m = 0; m < M; ++m) row[m] = dyb[m * P + p0 + j];
        std::fill(row + M, row + mpad, 0.0f);
      }
      kern.weight_grad(np, qof + p0, taps, K, dyT, M, mpad,
                       partials + (b * blocks + blk) * part_size);
    }
    if (dx == nullptr) return;

    // dx: dy on the planes' pitch (0 at halo lanes) and the sample's dx
    // in phase planes, in the buffers dW is done with; each spatial tap
    // (kd, kh, kw), ascending, adds its t into kMB input channels at a
    // time. Channels never share a dx element, so every element still
    // receives its taps in (n, kd, kh, kw) order.
    float* dyq = DyScratch(M * dyq_stride);
    float* dxq = xq;
    std::fill(dyq, dyq + M * dyq_stride, 0.0f);
    const float* src = dyb;
    for (int64_t m = 0; m < M; ++m)
      for (int64_t od = 0; od < g.out_d; ++od)
        for (int64_t oh = 0; oh < g.out_h; ++oh) {
          float* dst = dyq + m * dyq_stride + od * pp.len + oh * pp.wq;
          for (int64_t ow = 0; ow < g.out_w; ++ow) *dst++ = *src++;
        }
    float* dxb = dx + b * g.in_sample_size();
    pp.Fill(g, dxb, dxq);
    int64_t s = 0;
    for (int64_t kd = 0; kd < g.k_d; ++kd)
      for (int64_t kh = 0; kh < g.k_h; ++kh)
        for (int64_t kw = 0; kw < g.k_w; ++kw, ++s)
          for (int64_t nt = 0; nt < n_tiles; ++nt) {
            const int64_t rows = std::min(kMB, g.in_c - nt * kMB);
            for (int64_t od = 0; od < g.out_d; ++od) {
              float* dst[kMB];
              for (int64_t i = 0; i < rows; ++i) {
                dst[i] = dxq + od * slice_stride +
                         pp.TapOffset(g, nt * kMB + i, kd, kh, kw);
              }
              kern.input_grad(M, wtpack + (s * n_tiles + nt) * M * kMB,
                              dy_off, dyq + od * pp.len, dst, rows, sign,
                              pp.len);
            }
          }
    pp.Drain(g, dxq, dxb);
  });
  // A partial is a block sum from +0.0f, which is what Sgemm stored
  // when it wrote the block into a zeroed C, so adding the partials
  // into dW in (sample, block) order gives, bit for bit, what
  // Sgemm(accumulate=true) over all of P gives per sample.
  for (int64_t i = 0; i < g.batch * blocks; ++i) {
    const float* part = partials + i * part_size;
    for (int64_t m = 0; m < M; ++m) {
      float* dw_m = dw + m * K;
      for (int64_t kk = 0; kk < K; ++kk) dw_m[kk] += part[kk * M + m];
    }
  }
}

}  // namespace hwp3d::kernels
