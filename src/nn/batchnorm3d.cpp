#include "nn/batchnorm3d.h"

#include <cmath>
#include <vector>

namespace hwp3d::nn {

BatchNorm3d::BatchNorm3d(int64_t channels, std::string name, float eps,
                         float momentum)
    : channels_(channels),
      name_(std::move(name)),
      eps_(eps),
      momentum_(momentum),
      gamma_(name_ + ".gamma", Shape{channels}),
      beta_(name_ + ".beta", Shape{channels}),
      running_mean_(Shape{channels}, 0.0f),
      running_var_(Shape{channels}, 1.0f) {
  HWP_CHECK_MSG(channels > 0, "BatchNorm3d needs positive channel count");
  gamma_.value.Fill(1.0f);
  beta_.value.Fill(0.0f);
}

// The loops below walk each contiguous (b, c) slab of S = D·H·W floats
// in (b, d, h, w) order with the same float/double types as the
// per-element definition, so sums and outputs are bitwise those of a
// plain 5-index loop (tests/batchnorm3d_test.cpp holds that reference).

namespace {

// Calls group.template operator()<G>(c0) for channel groups [c0, c0 + G)
// covering [0, C), G <= 8.
template <typename Group>
void ForChannelGroups(int64_t C, Group&& group) {
  int64_t c0 = 0;
  for (; c0 + 8 <= C; c0 += 8) group.template operator()<8>(c0);
  switch (C - c0) {
    case 7: group.template operator()<7>(c0); break;
    case 6: group.template operator()<6>(c0); break;
    case 5: group.template operator()<5>(c0); break;
    case 4: group.template operator()<4>(c0); break;
    case 3: group.template operator()<3>(c0); break;
    case 2: group.template operator()<2>(c0); break;
    case 1: group.template operator()<1>(c0); break;
    default: break;
  }
}

// Calls body(j, e) for the elements e of channels c0 + j, j < G, in one
// pass over the (b, i) slabs. Each channel still sees its own elements
// in (b, i) order, so a sum it accumulates is the per-channel loop's,
// bit for bit; the G channels' chains of double adds interleave, which
// hides the latency of each add.
template <int64_t G, typename Body>
void ForInterleavedSlabs(int64_t B, int64_t C, int64_t S, int64_t c0,
                         Body&& body) {
  for (int64_t b = 0; b < B; ++b) {
    const int64_t base = (b * C + c0) * S;
    for (int64_t i = 0; i < S; ++i) {
      for (int64_t j = 0; j < G; ++j) body(j, base + j * S + i);
    }
  }
}

}  // namespace

TensorF BatchNorm3d::Forward(const TensorF& x, bool train) {
  HWP_SHAPE_CHECK_MSG(x.rank() == 5 && x.dim(1) == channels_,
                      name_ << ": bad input " << x.shape().ToString());
  const int64_t B = x.dim(0), C = channels_;
  const int64_t S = x.dim(2) * x.dim(3) * x.dim(4);
  const int64_t per_channel = B * S;
  const float* xd = x.data();

  TensorF mean(Shape{C});
  TensorF inv_std(Shape{C});
  if (train) {
    ForChannelGroups(C, [&]<int64_t G>(int64_t c0) {
      double s[G] = {};
      ForInterleavedSlabs<G>(B, C, S, c0,
                             [&](int64_t j, int64_t e) { s[j] += xd[e]; });
      for (int64_t j = 0; j < G; ++j) {
        mean[c0 + j] = static_cast<float>(s[j] / per_channel);
      }
    });
    ForChannelGroups(C, [&]<int64_t G>(int64_t c0) {
      float mu[G];
      for (int64_t j = 0; j < G; ++j) mu[j] = mean[c0 + j];
      double s[G] = {};
      ForInterleavedSlabs<G>(B, C, S, c0, [&](int64_t j, int64_t e) {
        const double dev = xd[e] - mu[j];
        s[j] += dev * dev;
      });
      for (int64_t j = 0; j < G; ++j) {
        const int64_t c = c0 + j;
        const float var = static_cast<float>(s[j] / per_channel);
        inv_std[c] = 1.0f / std::sqrt(var + eps_);
        running_mean_[c] =
            (1.0f - momentum_) * running_mean_[c] + momentum_ * mean[c];
        running_var_[c] =
            (1.0f - momentum_) * running_var_[c] + momentum_ * var;
      }
    });
  } else {
    for (int64_t c = 0; c < C; ++c) {
      mean[c] = running_mean_[c];
      inv_std[c] = 1.0f / std::sqrt(running_var_[c] + eps_);
    }
  }

  TensorF y(x.shape());
  float* yd = y.data();
  for (int64_t b = 0; b < B; ++b)
    for (int64_t c = 0; c < C; ++c) {
      const float g = gamma_.value[c], bt = beta_.value[c];
      const float mu = mean[c], is = inv_std[c];
      const float* xs = xd + (b * C + c) * S;
      float* ys = yd + (b * C + c) * S;
      for (int64_t i = 0; i < S; ++i) ys[i] = g * (xs[i] - mu) * is + bt;
    }

  if (train) {
    cached_input_ = x;
    batch_mean_ = mean;
    batch_inv_std_ = inv_std;
  }
  return y;
}

TensorF BatchNorm3d::Backward(const TensorF& dy) {
  const TensorF& x = cached_input_;
  HWP_CHECK_MSG(!x.empty(), name_ << ": Backward before Forward(train=true)");
  HWP_SHAPE_CHECK_MSG(dy.shape() == x.shape(),
                      name_ << ": bad grad " << dy.shape().ToString());
  const int64_t B = x.dim(0), C = channels_;
  const int64_t S = x.dim(2) * x.dim(3) * x.dim(4);
  const double n = static_cast<double>(B * S);
  const float* xd = x.data();
  const float* dyd = dy.data();

  TensorF dx(x.shape());
  float* dxd = dx.data();
  // Reductions: sum dy, sum dy*xhat.
  std::vector<double> sum_dy(static_cast<size_t>(C));
  std::vector<double> sum_dy_xhat(static_cast<size_t>(C));
  ForChannelGroups(C, [&]<int64_t G>(int64_t c0) {
    float mu[G], is[G];
    for (int64_t j = 0; j < G; ++j) {
      mu[j] = batch_mean_[c0 + j];
      is[j] = batch_inv_std_[c0 + j];
    }
    double s_dy[G] = {}, s_dy_xhat[G] = {};
    ForInterleavedSlabs<G>(B, C, S, c0, [&](int64_t j, int64_t e) {
      const float xhat = (xd[e] - mu[j]) * is[j];
      const float gy = dyd[e];
      s_dy[j] += gy;
      s_dy_xhat[j] += static_cast<double>(gy) * xhat;
    });
    for (int64_t j = 0; j < G; ++j) {
      sum_dy[static_cast<size_t>(c0 + j)] = s_dy[j];
      sum_dy_xhat[static_cast<size_t>(c0 + j)] = s_dy_xhat[j];
    }
  });
  for (int64_t c = 0; c < C; ++c) {
    const float mu = batch_mean_[c];
    const float is = batch_inv_std_[c];
    const float g = gamma_.value[c];
    const double sum_dy_c = sum_dy[static_cast<size_t>(c)];
    const double sum_dy_xhat_c = sum_dy_xhat[static_cast<size_t>(c)];
    gamma_.grad[c] += static_cast<float>(sum_dy_xhat_c);
    beta_.grad[c] += static_cast<float>(sum_dy_c);

    // dx = (g*is/n) * (n*dy - sum_dy - xhat * sum_dy_xhat)
    const double k = static_cast<double>(g) * is / n;
    for (int64_t b = 0; b < B; ++b) {
      const float* xs = xd + (b * C + c) * S;
      const float* gs = dyd + (b * C + c) * S;
      float* dxs = dxd + (b * C + c) * S;
      for (int64_t i = 0; i < S; ++i) {
        const float xhat = (xs[i] - mu) * is;
        dxs[i] = static_cast<float>(
            k * (n * gs[i] - sum_dy_c - xhat * sum_dy_xhat_c));
      }
    }
  }
  return dx;
}

void BatchNorm3d::CollectParams(std::vector<Param*>& out) {
  out.push_back(&gamma_);
  out.push_back(&beta_);
}

void BatchNorm3d::CollectBuffers(std::vector<NamedBuffer>& out) {
  out.push_back({name_ + ".running_mean", &running_mean_});
  out.push_back({name_ + ".running_var", &running_var_});
}

void BatchNorm3d::FoldedAffine(TensorF& scale, TensorF& shift) const {
  scale = TensorF(Shape{channels_});
  shift = TensorF(Shape{channels_});
  for (int64_t c = 0; c < channels_; ++c) {
    const float is = 1.0f / std::sqrt(running_var_[c] + eps_);
    scale[c] = gamma_.value[c] * is;
    shift[c] = beta_.value[c] - gamma_.value[c] * running_mean_[c] * is;
  }
}

}  // namespace hwp3d::nn
