#include "fpga/conv_call.h"

#include "common/error.h"

namespace hwp3d::fpga {

models::ConvLayerSpec CheckConvCall(const std::array<int64_t, 5>& kernel,
                                    const TensorQ& input,
                                    std::array<int64_t, 3> stride,
                                    const PostOps& post) {
  models::ConvLayerSpec spec;
  spec.M = kernel[0];
  spec.N = kernel[1];
  spec.Kd = kernel[2];
  spec.Kr = kernel[3];
  spec.Kc = kernel[4];
  spec.Sd = stride[0];
  spec.Sr = stride[1];
  spec.Sc = stride[2];
  HWP_SHAPE_CHECK_MSG(input.rank() == 4, "input must be rank-4 [N][D][R][C]");
  HWP_SHAPE_CHECK_MSG(input.dim(0) == spec.N, "input channel mismatch: "
                                                  << input.dim(0) << " vs "
                                                  << spec.N);
  spec.D = OutExtent(input.dim(1), spec.Kd, spec.Sd);
  spec.R = OutExtent(input.dim(2), spec.Kr, spec.Sr);
  spec.C = OutExtent(input.dim(3), spec.Kc, spec.Sc);
  HWP_SHAPE_CHECK_MSG(spec.D > 0 && spec.R > 0 && spec.C > 0, "empty output");
  if (post.has_affine) {
    HWP_SHAPE_CHECK_MSG(
        post.scale.numel() == spec.M && post.shift.numel() == spec.M,
        "affine params must be [M]");
  }
  if (post.shortcut != nullptr) {
    HWP_SHAPE_CHECK_MSG(post.shortcut->rank() == 4 &&
                            post.shortcut->dim(0) == spec.M &&
                            post.shortcut->dim(1) == spec.D &&
                            post.shortcut->dim(2) == spec.R &&
                            post.shortcut->dim(3) == spec.C,
                        "shortcut shape mismatch");
  }
  return spec;
}

}  // namespace hwp3d::fpga
