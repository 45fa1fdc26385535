// Bitwise order pinning of the direct conv engine, and the scratch
// release that follows training.
//
// Conv3dForwardGemm / Conv3dBackwardGemm convolve directly and fan
// their sample loop out over the ThreadPool. Their outputs must equal,
// bit for bit, the im2col + GEMM lowering they replace, run serially
// one sample at a time: y = W·im2col(x), dW += dy·im2col(x)ᵀ per
// sample, dx = col2im(Wᵀ·dy), every GEMM in Sgemm's documented order
// (kKC blocks of k, each summed from 0.0f). That lowering lives here,
// as the reference, and every ISA variant the host supports is held to
// it. The geometries cover every stride and padding the models use and
// put P and K across kKC boundaries; dW and dx accumulate into values
// that include −0.0f, which a stray +0.0f would flip.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <future>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "kernels/conv3d_gemm.h"
#include "kernels/isa.h"
#include "kernels/scratch.h"
#include "kernels/sgemm.h"
#include "kernels/thread_pool.h"

namespace hwp3d {
namespace {

using kernels::Conv3dGeom;
using kernels::Isa;

std::vector<float> Random(int64_t n, Rng& rng) {
  std::vector<float> v(static_cast<size_t>(n));
  for (float& f : v) f = static_cast<float>(rng.Uniform(-1.0, 1.0));
  return v;
}

// Random values with every fifth one −0.0f.
std::vector<float> RandomWithNegativeZeros(int64_t n, Rng& rng) {
  std::vector<float> v = Random(n, rng);
  for (size_t i = 0; i < v.size(); i += 5) v[i] = -0.0f;
  return v;
}

void ExpectBitwise(const std::vector<float>& want,
                   const std::vector<float>& got, const std::string& what) {
  ASSERT_EQ(want.size(), got.size()) << what;
  for (size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(0, std::memcmp(&want[i], &got[i], sizeof(float)))
        << what << " differs at " << i << ": " << want[i] << " vs " << got[i];
  }
}

// Valid output range [lo, hi) along one axis: the o with
// 0 <= o·s + shift < extent, clamped to [0, out).
void ValidRange(int64_t out, int64_t s, int64_t shift, int64_t extent,
                int64_t* lo, int64_t* hi) {
  *lo = shift < 0 ? (-shift + s - 1) / s : 0;
  *hi = extent > shift ? (extent - shift + s - 1) / s : 0;
  *lo = std::min(*lo, out);
  *hi = std::clamp(*hi, *lo, out);
}

// cols[K][P] of one sample: cols[((n·Kd + kd)·Kh + kh)·Kw + kw][p] =
// x[n][od·Sd + kd − Pd][oh·Sh + kh − Ph][ow·Sw + kw − Pw], 0 if padded.
void Im2col3d(const Conv3dGeom& g, const float* x, float* cols) {
  const int64_t P = g.positions();
  const int64_t khw = g.k_h * g.k_w, kdhw = g.k_d * khw;
  for (int64_t r = 0; r < g.taps(); ++r) {
    const int64_t n = r / kdhw, kd = (r / khw) % g.k_d;
    const int64_t kh = (r / g.k_w) % g.k_h, kw = r % g.k_w;
    float* dst = cols + r * P;
    for (int64_t od = 0; od < g.out_d; ++od)
      for (int64_t oh = 0; oh < g.out_h; ++oh)
        for (int64_t ow = 0; ow < g.out_w; ++ow) {
          const int64_t id = od * g.s_d + kd - g.p_d;
          const int64_t ih = oh * g.s_h + kh - g.p_h;
          const int64_t iw = ow * g.s_w + kw - g.p_w;
          const bool in = id >= 0 && id < g.in_d && ih >= 0 &&
                          ih < g.in_h && iw >= 0 && iw < g.in_w;
          *dst++ = in ? x[((n * g.in_d + id) * g.in_h + ih) * g.in_w + iw]
                      : 0.0f;
        }
  }
}

// Scatter-adds cols[K][P] into one dx sample, row by row in r order.
void Col2im3d(const Conv3dGeom& g, const float* cols, float* dx) {
  const int64_t P = g.positions();
  for (int64_t n = 0; n < g.in_c; ++n) {
    float* dx_n = dx + n * g.in_d * g.in_h * g.in_w;
    for (int64_t kd = 0; kd < g.k_d; ++kd)
      for (int64_t kh = 0; kh < g.k_h; ++kh)
        for (int64_t kw = 0; kw < g.k_w; ++kw) {
          const int64_t r = ((n * g.k_d + kd) * g.k_h + kh) * g.k_w + kw;
          const float* src = cols + r * P;
          const int64_t sd = kd - g.p_d, sh = kh - g.p_h, sw = kw - g.p_w;
          int64_t ow_lo, ow_hi;
          ValidRange(g.out_w, g.s_w, sw, g.in_w, &ow_lo, &ow_hi);
          for (int64_t od = 0; od < g.out_d; ++od) {
            const int64_t id = od * g.s_d + sd;
            if (id < 0 || id >= g.in_d) continue;
            for (int64_t oh = 0; oh < g.out_h; ++oh) {
              const int64_t ih = oh * g.s_h + sh;
              if (ih < 0 || ih >= g.in_h) continue;
              float* drow = dx_n + (id * g.in_h + ih) * g.in_w + sw;
              const float* srow = src + (od * g.out_h + oh) * g.out_w;
              for (int64_t ow = ow_lo; ow < ow_hi; ++ow) {
                drow[ow * g.s_w] += srow[ow];
              }
            }
          }
        }
  }
}

// C[m×n] (+)= A·B in Sgemm's order, A(i, p) and B(p, j) given as
// element accessors: per kKC block of k, products in ascending p from
// 0.0f, the block sums added into C (zeroed unless accumulating).
template <typename A, typename B>
void ReferenceGemm(int64_t m, int64_t n, int64_t k, A a, B b, float* c,
                   bool accumulate) {
  for (int64_t i = 0; i < m; ++i)
    for (int64_t j = 0; j < n; ++j) {
      float& cij = c[i * n + j];
      if (!accumulate) cij = 0.0f;
      for (int64_t pc = 0; pc < k; pc += kernels::kKC) {
        float block = 0.0f;
        for (int64_t p = pc; p < std::min(pc + kernels::kKC, k); ++p) {
          block += a(i, p) * b(p, j);
        }
        cij += block;
      }
    }
}

// The serial lowering the engine replaces, one sample at a time.
void ReferenceForward(const Conv3dGeom& g, const float* x, const float* w,
                      const float* bias, float* y) {
  const int64_t K = g.taps(), P = g.positions();
  std::vector<float> cols(static_cast<size_t>(K * P));
  for (int64_t b = 0; b < g.batch; ++b) {
    Im2col3d(g, x + b * g.in_sample_size(), cols.data());
    float* yb = y + b * g.out_sample_size();
    if (bias != nullptr) {
      for (int64_t m = 0; m < g.out_c; ++m) {
        std::fill(yb + m * P, yb + (m + 1) * P, bias[m]);
      }
    }
    ReferenceGemm(
        g.out_c, P, K, [&](int64_t m, int64_t k) { return w[m * K + k]; },
        [&](int64_t k, int64_t p) { return cols[k * P + p]; }, yb,
        /*accumulate=*/bias != nullptr);
  }
}

void ReferenceBackward(const Conv3dGeom& g, const float* x, const float* w,
                       const float* dy, float* dw, float* dx) {
  const int64_t M = g.out_c, K = g.taps(), P = g.positions();
  std::vector<float> cols(static_cast<size_t>(K * P));
  std::vector<float> dcols(static_cast<size_t>(K * P));
  for (int64_t b = 0; b < g.batch; ++b) {
    const float* dyb = dy + b * g.out_sample_size();
    Im2col3d(g, x + b * g.in_sample_size(), cols.data());
    ReferenceGemm(
        M, K, P, [&](int64_t m, int64_t p) { return dyb[m * P + p]; },
        [&](int64_t p, int64_t k) { return cols[k * P + p]; }, dw,
        /*accumulate=*/true);
    if (dx != nullptr) {
      ReferenceGemm(
          K, P, M, [&](int64_t k, int64_t m) { return w[m * K + k]; },
          [&](int64_t m, int64_t p) { return dyb[m * P + p]; }, dcols.data(),
          /*accumulate=*/false);
      Col2im3d(g, dcols.data(), dx + b * g.in_sample_size());
    }
  }
}

Conv3dGeom Geom(int64_t batch, int64_t in_c, int64_t out_c,
                std::array<int64_t, 3> in, std::array<int64_t, 3> k,
                std::array<int64_t, 3> s, std::array<int64_t, 3> p) {
  Conv3dGeom g;
  g.batch = batch;
  g.in_c = in_c;
  g.out_c = out_c;
  g.in_d = in[0], g.in_h = in[1], g.in_w = in[2];
  g.k_d = k[0], g.k_h = k[1], g.k_w = k[2];
  g.s_d = s[0], g.s_h = s[1], g.s_w = s[2];
  g.p_d = p[0], g.p_h = p[1], g.p_w = p[2];
  g.out_d = (g.in_d + 2 * g.p_d - g.k_d) / g.s_d + 1;
  g.out_h = (g.in_h + 2 * g.p_h - g.k_h) / g.s_h + 1;
  g.out_w = (g.in_w + 2 * g.p_w - g.k_w) / g.s_w + 1;
  return g;
}

// Every stride and padding the served model trains with, plus the
// edges of the engine's tiling. M is off the 4-row register tile in
// most; P crosses a kKC block at 257 and 600; K crosses one at
// 12·3·3·3 = 324, which restarts the forward sums mid-channel.
std::vector<Conv3dGeom> Geometries(int64_t batch) {
  return {
      // in_c = 3, M = 5, P = 257.
      Geom(batch, 3, 5, {1, 1, 259}, {1, 1, 3}, {1, 1, 1}, {0, 0, 0}),
      // 3×3×3 with padding on every axis, P = 600.
      Geom(batch, 4, 8, {6, 10, 10}, {3, 3, 3}, {1, 1, 1}, {1, 1, 1}),
      // Spatial 1×3×3 at stride (1, 2, 2), P = 600.
      Geom(batch, 8, 8, {6, 20, 20}, {1, 3, 3}, {1, 2, 2}, {0, 1, 1}),
      // The (2+1)D spatial conv, M = 18 mid channels.
      Geom(batch, 8, 18, {6, 10, 10}, {1, 3, 3}, {1, 1, 1}, {0, 1, 1}),
      // Temporal 3×1×1 at stride (2, 1, 1), M = 7.
      Geom(batch, 18, 7, {6, 5, 5}, {3, 1, 1}, {2, 1, 1}, {1, 0, 0}),
      // The 1×1×1 stride-2 shortcut.
      Geom(batch, 8, 8, {6, 10, 10}, {1, 1, 1}, {2, 2, 2}, {0, 0, 0}),
      // K = 324 > kKC, odd extents, M = 6.
      Geom(batch, 12, 6, {3, 5, 7}, {3, 3, 3}, {1, 1, 1}, {1, 1, 1}),
  };
}

struct OrderCase {
  int64_t batch;
  bool bias;
  bool with_dx;
};

class Conv3dGemmOrderTest
    : public ::testing::TestWithParam<std::tuple<OrderCase, Isa>> {};

TEST_P(Conv3dGemmOrderTest, MatchesSerialLoweringBitwise) {
  static_assert(kernels::kKC == 256, "geometries assume kKC = 256");
  const auto [c, isa] = GetParam();
  kernels::internal::ScopedIsa use(isa);
  Rng rng(17 + static_cast<uint64_t>(c.batch));
  for (const Conv3dGeom& g : Geometries(c.batch)) {
    SCOPED_TRACE(::testing::Message()
                 << kernels::IsaName(isa) << " B=" << g.batch
                 << " N=" << g.in_c << " M=" << g.out_c << " K=" << g.taps()
                 << " P=" << g.positions() << " bias=" << c.bias
                 << " dx=" << c.with_dx);
    const std::vector<float> x = Random(g.batch * g.in_sample_size(), rng);
    const std::vector<float> w = Random(g.out_c * g.taps(), rng);
    const std::vector<float> bias = Random(g.out_c, rng);
    const std::vector<float> dy = Random(g.batch * g.out_sample_size(), rng);
    const float* bias_ptr = c.bias ? bias.data() : nullptr;

    std::vector<float> y_want(
        static_cast<size_t>(g.batch * g.out_sample_size()));
    std::vector<float> y_got(y_want.size());
    ReferenceForward(g, x.data(), w.data(), bias_ptr, y_want.data());
    kernels::Conv3dForwardGemm(g, x.data(), w.data(), bias_ptr, y_got.data());
    ExpectBitwise(y_want, y_got, "y");

    // dW and dx accumulate into what is already there.
    const std::vector<float> dw0 =
        RandomWithNegativeZeros(g.out_c * g.taps(), rng);
    const std::vector<float> dx0 =
        RandomWithNegativeZeros(g.batch * g.in_sample_size(), rng);
    std::vector<float> dw_want = dw0, dw_got = dw0;
    std::vector<float> dx_want = dx0, dx_got = dx0;
    ReferenceBackward(g, x.data(), w.data(), dy.data(), dw_want.data(),
                      c.with_dx ? dx_want.data() : nullptr);
    kernels::Conv3dBackwardGemm(g, x.data(), w.data(), dy.data(),
                                dw_got.data(),
                                c.with_dx ? dx_got.data() : nullptr);
    ExpectBitwise(dw_want, dw_got, "dW");
    ExpectBitwise(dx_want, dx_got, "dx");
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, Conv3dGemmOrderTest,
    ::testing::Combine(
        ::testing::Values(OrderCase{1, true, true}, OrderCase{1, false, false},
                          OrderCase{3, true, false}, OrderCase{3, false, true},
                          OrderCase{8, true, true}, OrderCase{8, false, false},
                          OrderCase{8, false, true}, OrderCase{8, true, false}),
        ::testing::ValuesIn(kernels::internal::SupportedIsas())),
    [](const ::testing::TestParamInfo<std::tuple<OrderCase, Isa>>& info) {
      const OrderCase& c = std::get<0>(info.param);
      std::string name = kernels::IsaName(std::get<1>(info.param));
      name += "_B" + std::to_string(c.batch);
      name += c.bias ? "_bias" : "_nobias";
      name += c.with_dx ? "_dx" : "_nodx";
      return name;
    });

// Runs one forward and one backward pass at B = 8, so every pool thread
// holds conv scratch.
void RunConvOnce(std::vector<float>* y_out) {
  Rng rng(5);
  const Conv3dGeom g =
      Geom(8, 4, 8, {6, 10, 10}, {3, 3, 3}, {1, 1, 1}, {1, 1, 1});
  const std::vector<float> x = Random(g.batch * g.in_sample_size(), rng);
  const std::vector<float> w = Random(g.out_c * g.taps(), rng);
  const std::vector<float> dy = Random(g.batch * g.out_sample_size(), rng);
  std::vector<float> y(static_cast<size_t>(g.batch * g.out_sample_size()));
  std::vector<float> dw(static_cast<size_t>(g.out_c * g.taps()), 0.0f);
  std::vector<float> dx(static_cast<size_t>(g.batch * g.in_sample_size()),
                        0.0f);
  kernels::Conv3dForwardGemm(g, x.data(), w.data(), nullptr, y.data());
  kernels::Conv3dBackwardGemm(g, x.data(), w.data(), dy.data(), dw.data(),
                              dx.data());
  *y_out = std::move(y);
}

TEST(ScratchReleaseTest, FreesEveryIdleBufferAndResizeStillWorks) {
  std::vector<float> first, again;
  RunConvOnce(&first);
  const int64_t held = kernels::ScratchBytesInUse();
  ASSERT_GT(held, 0);
  EXPECT_EQ(kernels::ReleaseIdleScratch(), held);
  EXPECT_EQ(kernels::ScratchBytesInUse(), 0);
  EXPECT_EQ(kernels::ReleaseIdleScratch(), 0);

  RunConvOnce(&again);
  EXPECT_GT(kernels::ScratchBytesInUse(), 0);
  ExpectBitwise(first, again, "y after release");
  kernels::ReleaseIdleScratch();
  EXPECT_EQ(kernels::ScratchBytesInUse(), 0);
}

TEST(ScratchReleaseTest, KeepsBuffersOfOtherThreads) {
  kernels::ReleaseIdleScratch();
  std::promise<void> resized, may_exit;
  std::thread other([&] {
    thread_local kernels::ScratchBuffer<float> buf;
    buf.Resize(1000);
    resized.set_value();
    may_exit.get_future().wait();
  });
  resized.get_future().wait();
  const int64_t held = kernels::ScratchBytesInUse();
  EXPECT_GE(held, static_cast<int64_t>(1000 * sizeof(float)));
  EXPECT_EQ(kernels::ReleaseIdleScratch(), 0);
  EXPECT_EQ(kernels::ScratchBytesInUse(), held);
  may_exit.set_value();
  other.join();
  EXPECT_EQ(kernels::ScratchBytesInUse(), 0);
}

TEST(ScratchReleaseTest, RefusedInsideParallelRegion) {
  ThreadPool& pool = ThreadPool::Get();
  if (pool.threads() < 2) GTEST_SKIP() << "one-thread pool runs no region";
  EXPECT_ANY_THROW(pool.For(0, 4, [](int64_t) { kernels::ReleaseIdleScratch(); }));
}

}  // namespace
}  // namespace hwp3d
