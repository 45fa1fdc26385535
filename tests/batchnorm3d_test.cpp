// Bitwise parity of nn::BatchNorm3d with its per-element definition.
//
// BatchNorm3d walks contiguous (b, c) slabs with raw pointers. The
// reference below is the same arithmetic written with the 5-index
// accessor, one element at a time, in (b, d, h, w) order with the same
// float/double types. Every output — y, running statistics, dx, and
// the gamma/beta gradients — must match it bit for bit, on an odd shape
// so no slab length lines up with a vector width.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <string>

#include "common/rng.h"
#include "nn/batchnorm3d.h"

namespace hwp3d {
namespace {

// Per-element reference with BatchNorm3d's state laid out explicitly.
struct RefBatchNorm {
  int64_t C;
  float eps, momentum;
  TensorF gamma, beta, running_mean, running_var;
  TensorF gamma_grad, beta_grad;
  TensorF x, mean, inv_std;  // cached by a training forward

  TensorF Forward(const TensorF& in, bool train) {
    const int64_t B = in.dim(0);
    const int64_t D = in.dim(2), H = in.dim(3), W = in.dim(4);
    const int64_t per_channel = B * D * H * W;
    TensorF mu(Shape{C}), is(Shape{C});
    if (train) {
      for (int64_t c = 0; c < C; ++c) {
        double s = 0.0;
        for (int64_t b = 0; b < B; ++b)
          for (int64_t d = 0; d < D; ++d)
            for (int64_t h = 0; h < H; ++h)
              for (int64_t w = 0; w < W; ++w) s += in(b, c, d, h, w);
        mu[c] = static_cast<float>(s / per_channel);
      }
      for (int64_t c = 0; c < C; ++c) {
        double s = 0.0;
        for (int64_t b = 0; b < B; ++b)
          for (int64_t d = 0; d < D; ++d)
            for (int64_t h = 0; h < H; ++h)
              for (int64_t w = 0; w < W; ++w) {
                const double dev = in(b, c, d, h, w) - mu[c];
                s += dev * dev;
              }
        const float var = static_cast<float>(s / per_channel);
        is[c] = 1.0f / std::sqrt(var + eps);
        running_mean[c] =
            (1.0f - momentum) * running_mean[c] + momentum * mu[c];
        running_var[c] = (1.0f - momentum) * running_var[c] + momentum * var;
      }
    } else {
      for (int64_t c = 0; c < C; ++c) {
        mu[c] = running_mean[c];
        is[c] = 1.0f / std::sqrt(running_var[c] + eps);
      }
    }
    TensorF y(in.shape());
    for (int64_t b = 0; b < B; ++b)
      for (int64_t c = 0; c < C; ++c)
        for (int64_t d = 0; d < D; ++d)
          for (int64_t h = 0; h < H; ++h)
            for (int64_t w = 0; w < W; ++w)
              y(b, c, d, h, w) =
                  gamma[c] * (in(b, c, d, h, w) - mu[c]) * is[c] + beta[c];
    if (train) {
      x = in;
      mean = mu;
      inv_std = is;
    }
    return y;
  }

  TensorF Backward(const TensorF& dy) {
    const int64_t B = x.dim(0);
    const int64_t D = x.dim(2), H = x.dim(3), W = x.dim(4);
    const double n = static_cast<double>(B * D * H * W);
    TensorF dx(x.shape());
    for (int64_t c = 0; c < C; ++c) {
      const float mu = mean[c], is = inv_std[c], g = gamma[c];
      double sum_dy = 0.0, sum_dy_xhat = 0.0;
      for (int64_t b = 0; b < B; ++b)
        for (int64_t d = 0; d < D; ++d)
          for (int64_t h = 0; h < H; ++h)
            for (int64_t w = 0; w < W; ++w) {
              const float xhat = (x(b, c, d, h, w) - mu) * is;
              const float gy = dy(b, c, d, h, w);
              sum_dy += gy;
              sum_dy_xhat += static_cast<double>(gy) * xhat;
            }
      gamma_grad[c] += static_cast<float>(sum_dy_xhat);
      beta_grad[c] += static_cast<float>(sum_dy);
      const double k = static_cast<double>(g) * is / n;
      for (int64_t b = 0; b < B; ++b)
        for (int64_t d = 0; d < D; ++d)
          for (int64_t h = 0; h < H; ++h)
            for (int64_t w = 0; w < W; ++w) {
              const float xhat = (x(b, c, d, h, w) - mu) * is;
              dx(b, c, d, h, w) = static_cast<float>(
                  k * (n * dy(b, c, d, h, w) - sum_dy - xhat * sum_dy_xhat));
            }
    }
    return dx;
  }
};

void ExpectBitwise(const TensorF& ref, const TensorF& got,
                   const std::string& what) {
  ASSERT_EQ(ref.shape(), got.shape()) << what;
  int64_t mismatches = 0;
  for (int64_t i = 0; i < ref.numel(); ++i) {
    if (std::bit_cast<uint32_t>(ref[i]) != std::bit_cast<uint32_t>(got[i]) &&
        mismatches++ < 5) {
      ADD_FAILURE() << what << "[" << i << "]: reference " << ref[i]
                    << ", batchnorm " << got[i];
    }
  }
  EXPECT_EQ(mismatches, 0) << what;
}

class BatchNorm3dBitwiseTest : public ::testing::Test {
 protected:
  static constexpr int64_t kB = 3, kC = 5, kD = 2, kH = 3, kW = 7;

  void SetUp() override {
    Rng rng(7);
    // Non-trivial affine parameters and running statistics.
    for (int64_t c = 0; c < kC; ++c) {
      bn_.gamma().value[c] = static_cast<float>(rng.Uniform(0.5, 1.5));
      bn_.beta().value[c] = static_cast<float>(rng.Uniform(-0.5, 0.5));
    }
    ref_ = {kC, 1e-5f, 0.1f, bn_.gamma().value, bn_.beta().value,
            bn_.running_mean(), bn_.running_var(),
            TensorF(Shape{kC}), TensorF(Shape{kC}), {}, {}, {}};
  }

  // Values spread over 2^±10, plus +3·2^49, −2^50, −2^49 at the start,
  // middle and end of every (b, c) slab. They cancel, but the running
  // double sum crosses binades on the way, so its rounding — and the
  // float it lands on — depends on the summation order (on a narrow
  // range the sums are exact and any order would pass).
  static TensorF Input(uint64_t seed) {
    Rng rng(seed);
    TensorF x(Shape{kB, kC, kD, kH, kW});
    for (int64_t i = 0; i < x.numel(); ++i) {
      const int exp = static_cast<int>(rng.UniformInt(-10, 10));
      x[i] = static_cast<float>(std::ldexp(rng.Uniform(-1.0, 1.5), exp));
    }
    const int64_t slab = kD * kH * kW;
    const float big = std::ldexp(1.0f, 49);
    for (int64_t s = 0; s < kB * kC; ++s) {
      x[s * slab] = 3.0f * big;
      x[s * slab + slab / 2] = -2.0f * big;
      x[s * slab + slab - 1] = -big;
    }
    return x;
  }

  nn::BatchNorm3d bn_{kC, "bn"};
  RefBatchNorm ref_;
};

TEST_F(BatchNorm3dBitwiseTest, TrainForwardAndRunningStats) {
  // Two steps, so the second one updates already-moved running stats.
  for (uint64_t seed : {1u, 2u}) {
    const TensorF x = Input(seed);
    ExpectBitwise(ref_.Forward(x, true), bn_.Forward(x, true), "y");
    ExpectBitwise(ref_.running_mean, bn_.running_mean(), "running_mean");
    ExpectBitwise(ref_.running_var, bn_.running_var(), "running_var");
  }
}

TEST_F(BatchNorm3dBitwiseTest, EvalForwardUsesRunningStats) {
  const TensorF warm = Input(3);
  ref_.Forward(warm, true);
  bn_.Forward(warm, true);
  const TensorF x = Input(4);
  ExpectBitwise(ref_.Forward(x, false), bn_.Forward(x, false), "y_eval");
}

TEST_F(BatchNorm3dBitwiseTest, BackwardAndParamGrads) {
  const TensorF x = Input(5);
  ref_.Forward(x, true);
  bn_.Forward(x, true);
  const TensorF dy = Input(6);
  // Grads accumulate: two backward passes over the same cache.
  for (int pass = 0; pass < 2; ++pass) {
    ExpectBitwise(ref_.Backward(dy), bn_.Backward(dy), "dx");
    ExpectBitwise(ref_.gamma_grad, bn_.gamma().grad, "gamma.grad");
    ExpectBitwise(ref_.beta_grad, bn_.beta().grad, "beta.grad");
  }
}

TEST_F(BatchNorm3dBitwiseTest, BackwardRejectsMismatchedGrad) {
  bn_.Forward(Input(8), true);
  EXPECT_ANY_THROW(bn_.Backward(TensorF(Shape{kB, kC, kD, kH, kW + 1})));
}

}  // namespace
}  // namespace hwp3d
