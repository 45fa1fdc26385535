// The argument prologue shared by the two conv executors,
// TiledConvSim::Run and PackedConvLayer::Run: shape checks on one call
// of the tiled engine and the layer spec PerfModel::LayerCycles times.
// Internal to src/fpga.
#pragma once

#include <array>
#include <cstdint>

#include "fpga/tiled_conv_sim.h"
#include "models/network_spec.h"

namespace hwp3d::fpga {

// Output extent of a valid convolution.
inline int64_t OutExtent(int64_t in, int64_t k, int64_t s) {
  return (in - k) / s + 1;
}

// Checks a call of the engine with kernel {M, N, Kd, Kr, Kc} on a
// pre-padded input [N][Di][Ri][Ci]: input rank and channels, a
// non-empty output, [M] affine parameters and an [M][D][R][C]
// shortcut. Throws ShapeError on a mismatch; otherwise returns the
// layer with its output extents D, R, C filled in.
models::ConvLayerSpec CheckConvCall(const std::array<int64_t, 5>& kernel,
                                    const TensorQ& input,
                                    std::array<int64_t, 3> stride,
                                    const PostOps& post);

}  // namespace hwp3d::fpga
