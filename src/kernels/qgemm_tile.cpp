#include "kernels/qgemm_tile.h"

#include <limits>
#include <type_traits>

namespace hwp3d::kernels {

namespace {

template <typename Stride>
void PostProcess(const FixedAccum* acc, Stride acc_stride, int64_t n,
                 bool has_affine, Fixed16 scale, Fixed16 shift,
                 const Fixed16* shortcut, bool relu, Fixed16* out) {
  const Fixed16 zero;
  for (int64_t c = 0; c < n; ++c) {
    Fixed16 v = acc[c * acc_stride].ToFixed16();
    if (has_affine) v = v * scale + shift;
    if (shortcut != nullptr) v = v + shortcut[c];
    if (relu && v < zero) v = zero;
    out[c] = v;
  }
}

}  // namespace

void QOuterMacRow(FixedAccum* acc, int64_t acc_stride, const Fixed16* w_col,
                  int64_t tm_n, const Fixed16* in, int64_t in_stride,
                  int64_t n) {
  if (in_stride == 1) {
    // Contiguous input row (column stride 1, the common case): the
    // c-loop is a scalar×row widening MAC the compiler vectorizes.
    for (int64_t tm = 0; tm < tm_n; ++tm) {
      const Fixed16 w = w_col[tm];
      FixedAccum* a = acc + tm * acc_stride;
      for (int64_t c = 0; c < n; ++c) a[c].MulAdd(w, in[c]);
    }
  } else {
    for (int64_t tm = 0; tm < tm_n; ++tm) {
      const Fixed16 w = w_col[tm];
      FixedAccum* a = acc + tm * acc_stride;
      for (int64_t c = 0; c < n; ++c) a[c].MulAdd(w, in[c * in_stride]);
    }
  }
}

int64_t QChunkSlots(int32_t max_abs_w) {
  if (max_abs_w <= 0) return std::numeric_limits<int64_t>::max();
  constexpr int64_t kMaxAbsInput = int64_t{1} << 15;  // |kRawMin|
  return std::numeric_limits<int32_t>::max() /
         (int64_t{max_abs_w} * kMaxAbsInput);
}

void QOuterMacRow32(int32_t* acc, int64_t acc_stride, const Fixed16* w_col,
                    int64_t tm_n, const Fixed16* in, int64_t n) {
  for (int64_t tm = 0; tm < tm_n; ++tm) {
    const int32_t w = w_col[tm].raw();
    int32_t* a = acc + tm * acc_stride;
    for (int64_t c = 0; c < n; ++c) a[c] += w * in[c].raw();
  }
}

void QOuterMacCol32(int32_t* acc, const Fixed16* w_col, int64_t tm_n,
                    const Fixed16* in, int64_t n) {
  for (int64_t c = 0; c < n; ++c) {
    const int32_t x = in[c].raw();
    int32_t* a = acc + c * tm_n;
    for (int64_t tm = 0; tm < tm_n; ++tm) a[tm] += w_col[tm].raw() * x;
  }
}

void QFoldPartials(FixedAccum* wide, int32_t* partial, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    wide[i].AddPartial(partial[i]);
    partial[i] = 0;
  }
}

void QPostProcessRow(const FixedAccum* acc, int64_t acc_stride, int64_t n,
                     bool has_affine, Fixed16 scale, Fixed16 shift,
                     const Fixed16* shortcut, bool relu, Fixed16* out) {
  // The unit stride (channel-major blocks) gets its own instantiation
  // so the compiler can vectorize it.
  if (acc_stride == 1) {
    PostProcess(acc, std::integral_constant<int64_t, 1>{}, n, has_affine,
                scale, shift, shortcut, relu, out);
  } else {
    PostProcess(acc, acc_stride, n, has_affine, scale, shift, shortcut, relu,
                out);
  }
}

}  // namespace hwp3d::kernels
