// Bitwise order pinning of the sample-parallel conv engine, and the
// scratch release that follows training.
//
// Conv3dForwardGemm / Conv3dBackwardGemm fan their sample loop out over
// the ThreadPool. Their outputs must equal, bit for bit, the serial
// loop they replace: one sample at a time, dW accumulated by
// Sgemm(accumulate=true) over all of P. The geometries put P across a
// kKC boundary at a non-multiple, so dW's per-block partials and their
// (sample, block) fold are exercised.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "kernels/conv3d_gemm.h"
#include "kernels/scratch.h"
#include "kernels/sgemm.h"
#include "kernels/thread_pool.h"

namespace hwp3d {
namespace {

using kernels::Conv3dGeom;

std::vector<float> Random(int64_t n, Rng& rng) {
  std::vector<float> v(static_cast<size_t>(n));
  for (float& f : v) f = static_cast<float>(rng.Uniform(-1.0, 1.0));
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

// The serial loop the engine replaces, one sample at a time.
void ReferenceForward(const Conv3dGeom& g, const float* x, const float* w,
                      const float* bias, float* y) {
  const int64_t K = g.cols_rows(), P = g.cols_cols();
  std::vector<float> cols(static_cast<size_t>(K * P));
  for (int64_t b = 0; b < g.batch; ++b) {
    kernels::Im2col3d(g, x + b * g.in_sample_size(), cols.data());
    float* yb = y + b * g.out_sample_size();
    if (bias != nullptr) {
      for (int64_t m = 0; m < g.out_c; ++m) {
        std::fill(yb + m * P, yb + (m + 1) * P, bias[m]);
      }
    }
    kernels::Sgemm(false, false, g.out_c, P, K, w, K, cols.data(), P, yb, P,
                   /*accumulate=*/bias != nullptr);
  }
}

void ReferenceBackward(const Conv3dGeom& g, const float* x, const float* w,
                       const float* dy, float* dw, float* dx) {
  const int64_t K = g.cols_rows(), P = g.cols_cols();
  std::vector<float> cols(static_cast<size_t>(K * P));
  std::vector<float> dcols(static_cast<size_t>(K * P));
  for (int64_t b = 0; b < g.batch; ++b) {
    const float* dyb = dy + b * g.out_sample_size();
    kernels::Im2col3d(g, x + b * g.in_sample_size(), cols.data());
    kernels::Sgemm(false, true, g.out_c, K, P, dyb, P, cols.data(), P, dw, K,
                   /*accumulate=*/true);
    if (dx != nullptr) {
      kernels::Sgemm(true, false, K, P, g.out_c, w, K, dyb, P, dcols.data(),
                     P, /*accumulate=*/false);
      kernels::Col2im3d(g, dcols.data(), dx + b * g.in_sample_size());
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

// P = 257 (one column past a kKC block), P = 600 (two blocks and a
// remainder), and a strided P = 600.
std::vector<Conv3dGeom> Geometries(int64_t batch) {
  return {Geom(batch, 3, 5, {1, 1, 259}, {1, 1, 3}, {1, 1, 1}, {0, 0, 0}),
          Geom(batch, 4, 8, {6, 10, 10}, {3, 3, 3}, {1, 1, 1}, {1, 1, 1}),
          Geom(batch, 8, 8, {6, 20, 20}, {1, 3, 3}, {1, 2, 2}, {0, 1, 1})};
}

struct OrderCase {
  int64_t batch;
  bool bias;
  bool with_dx;
};

class Conv3dGemmOrderTest : public ::testing::TestWithParam<OrderCase> {};

TEST_P(Conv3dGemmOrderTest, MatchesSerialSampleLoopBitwise) {
  static_assert(kernels::kKC == 256, "geometries assume kKC = 256");
  const OrderCase c = GetParam();
  Rng rng(17 + static_cast<uint64_t>(c.batch));
  for (const Conv3dGeom& g : Geometries(c.batch)) {
    const int64_t P = g.cols_cols();
    SCOPED_TRACE(::testing::Message()
                 << "B=" << g.batch << " P=" << P << " bias=" << c.bias
                 << " dx=" << c.with_dx);
    const std::vector<float> x = Random(g.batch * g.in_sample_size(), rng);
    const std::vector<float> w = Random(g.out_c * g.cols_rows(), rng);
    const std::vector<float> bias = Random(g.out_c, rng);
    const std::vector<float> dy = Random(g.batch * g.out_sample_size(), rng);
    const float* bias_ptr = c.bias ? bias.data() : nullptr;

    std::vector<float> y_want(static_cast<size_t>(g.batch * g.out_sample_size()));
    std::vector<float> y_got(y_want.size());
    ReferenceForward(g, x.data(), w.data(), bias_ptr, y_want.data());
    kernels::Conv3dForwardGemm(g, x.data(), w.data(), bias_ptr, y_got.data());
    ExpectBitwise(y_want, y_got, "y");

    // dW accumulates into what is already there; dx scatter-adds.
    const std::vector<float> dw0 = Random(g.out_c * g.cols_rows(), rng);
    const std::vector<float> dx0 = Random(g.batch * g.in_sample_size(), rng);
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
    ::testing::Values(OrderCase{1, true, true}, OrderCase{1, false, false},
                      OrderCase{3, true, false}, OrderCase{3, false, true},
                      OrderCase{8, true, true}, OrderCase{8, false, false},
                      OrderCase{8, false, true}, OrderCase{8, true, false}),
    [](const ::testing::TestParamInfo<OrderCase>& info) {
      std::string name = "B";
      name += std::to_string(info.param.batch);
      name += info.param.bias ? "_bias" : "_nobias";
      name += info.param.with_dx ? "_dx" : "_nodx";
      return name;
    });

// Runs one forward and one backward pass at B = 8, so every pool thread
// holds conv scratch.
void RunConvOnce(std::vector<float>* y_out) {
  Rng rng(5);
  const Conv3dGeom g =
      Geom(8, 4, 8, {6, 10, 10}, {3, 3, 3}, {1, 1, 1}, {1, 1, 1});
  const std::vector<float> x = Random(g.batch * g.in_sample_size(), rng);
  const std::vector<float> w = Random(g.out_c * g.cols_rows(), rng);
  const std::vector<float> dy = Random(g.batch * g.out_sample_size(), rng);
  std::vector<float> y(static_cast<size_t>(g.batch * g.out_sample_size()));
  std::vector<float> dw(static_cast<size_t>(g.out_c * g.cols_rows()), 0.0f);
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
