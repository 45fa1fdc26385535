#include "kernels/im2col.h"

#include <algorithm>
#include <cstring>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace hwp3d::kernels {
namespace {

// Valid output range [lo, hi) along one axis: the ow with
// 0 <= ow·s + shift < extent, clamped to [0, out).
inline void ValidRange(int64_t out, int64_t s, int64_t shift, int64_t extent,
                       int64_t* lo, int64_t* hi) {
  *lo = shift < 0 ? (-shift + s - 1) / s : 0;
  *hi = extent > shift ? (extent - shift + s - 1) / s : 0;
  *lo = std::min(*lo, out);
  *hi = std::clamp(*hi, *lo, out);
}

}  // namespace

void Im2col3d(const Conv3dGeom& g, const float* x, float* cols) {
  HWP_TRACE_SCOPE("kernels/im2col");
  static obs::Counter& us_total =
      obs::MetricsRegistry::Get().GetCounter("kernels.im2col.us");
  const double t0 = obs::NowUs();

  const int64_t K = g.cols_rows();
  const int64_t P = g.cols_cols();
  const int64_t khw = g.k_h * g.k_w;
  const int64_t kdhw = g.k_d * khw;
  for (int64_t r = 0; r < K; ++r) {
    const int64_t n = r / kdhw;
    const int64_t kd = (r / khw) % g.k_d;
    const int64_t kh = (r / g.k_w) % g.k_h;
    const int64_t kw = r % g.k_w;
    const int64_t sd = kd - g.p_d, sh = kh - g.p_h, sw = kw - g.p_w;
    int64_t ow_lo, ow_hi;
    ValidRange(g.out_w, g.s_w, sw, g.in_w, &ow_lo, &ow_hi);

    float* dst = cols + r * P;
    const float* src_n = x + n * g.in_d * g.in_h * g.in_w;
    for (int64_t od = 0; od < g.out_d; ++od) {
      const int64_t id = od * g.s_d + sd;
      if (id < 0 || id >= g.in_d) {
        std::memset(dst, 0, sizeof(float) * static_cast<size_t>(g.out_h * g.out_w));
        dst += g.out_h * g.out_w;
        continue;
      }
      for (int64_t oh = 0; oh < g.out_h; ++oh) {
        const int64_t ih = oh * g.s_h + sh;
        if (ih < 0 || ih >= g.in_h) {
          std::memset(dst, 0, sizeof(float) * static_cast<size_t>(g.out_w));
          dst += g.out_w;
          continue;
        }
        const float* row = src_n + (id * g.in_h + ih) * g.in_w + sw;
        for (int64_t ow = 0; ow < ow_lo; ++ow) dst[ow] = 0.0f;
        if (g.s_w == 1) {
          if (ow_hi > ow_lo) {
            std::memcpy(dst + ow_lo, row + ow_lo,
                        sizeof(float) * static_cast<size_t>(ow_hi - ow_lo));
          }
        } else {
          for (int64_t ow = ow_lo; ow < ow_hi; ++ow) dst[ow] = row[ow * g.s_w];
        }
        for (int64_t ow = ow_hi; ow < g.out_w; ++ow) dst[ow] = 0.0f;
        dst += g.out_w;
      }
    }
  }

  us_total.Add(static_cast<int64_t>(obs::NowUs() - t0));
}

void Col2im3d(const Conv3dGeom& g, const float* cols, float* dx) {
  HWP_TRACE_SCOPE("kernels/col2im");
  static obs::Counter& us_total =
      obs::MetricsRegistry::Get().GetCounter("kernels.col2im.us");
  const double t0 = obs::NowUs();

  const int64_t P = g.cols_cols();
  for (int64_t n = 0; n < g.in_c; ++n) {
    float* dx_n = dx + n * g.in_d * g.in_h * g.in_w;
    for (int64_t kd = 0; kd < g.k_d; ++kd) {
      for (int64_t kh = 0; kh < g.k_h; ++kh) {
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
  }

  us_total.Add(static_cast<int64_t>(obs::NowUs() - t0));
}

}  // namespace hwp3d::kernels
