// Randomized property test of the packed executor against the
// simulator oracle: for seeded random layers — shapes, strides
// (including column strides that do not divide Sr·Ci), host padding
// and input slack, tilings, mask densities with fully pruned block rows,
// every post-op combination and 1–2 column outputs —
// PackedConvLayer::Run must equal TiledConvSim::Run bit for bit in the
// output and in every stats field.
//
// The saturation corners are swept on purpose: raw weights of -32768
// and 32767 pin the int32 chunk bound to 1 and 2 products, and
// activations at kRawMin maximise every product, so a chunk bound one
// too large overflows int32 — which the sanitize preset's UBSan
// (-fno-sanitize-recover) turns into an abort.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>

#include "common/rng.h"
#include "fpga/compiled_executor.h"
#include "fpga/tiled_conv_sim.h"
#include "kernels/qgemm_tile.h"
#include "tensor/shape.h"

namespace hwp3d {
namespace {

using fpga::PackedConvLayer;
using fpga::PostOps;
using fpga::TiledConvResult;
using fpga::TiledConvSim;

constexpr int kTrials = 1500;

// Random Q7.8 tensor; with probability `extreme` an element is one of
// the raw corners (kRawMin, kRawMax, 0) instead of a uniform draw.
TensorQ RandomRaw(const Shape& shape, Rng& rng, int16_t lo, int16_t hi,
                  double extreme) {
  TensorQ t(shape);
  for (int64_t i = 0; i < t.numel(); ++i) {
    int64_t raw = rng.UniformInt(lo, hi);
    if (rng.Flip(extreme)) {
      const int16_t corners[] = {Fixed16::kRawMin, Fixed16::kRawMax, 0};
      raw = corners[rng.UniformInt(0, 2)];
    }
    t[i] = Fixed16::FromRaw(static_cast<int16_t>(raw));
  }
  return t;
}

// What the sweep must have covered by the end (asserted, so a change to
// the generator cannot silently drop a corner).
struct Coverage {
  int non_divisible_stride = 0;  // (Sr·Ci) % Sc != 0
  int narrow_output = 0;         // C in {1, 2}
  int fully_pruned_row = 0;
  int chunk_one = 0;             // chunk_slots() == 1
  int chunk_two = 0;             // chunk_slots() == 2
  int raw_min_input = 0;
  int padded_input = 0;
  int all_post_ops = 0;
};

void RunTrial(int trial, Rng& rng, Coverage& cov) {
  const int64_t M = rng.UniformInt(1, 20);
  const int64_t N = rng.UniformInt(1, 12);
  const int64_t Kd = rng.UniformInt(1, 3);
  const int64_t Kr = rng.UniformInt(1, 3);
  const int64_t Kc = rng.UniformInt(1, 3);
  const std::array<int64_t, 3> stride = {rng.UniformInt(1, 2),
                                         rng.UniformInt(1, 3),
                                         rng.UniformInt(1, 3)};
  const int64_t D = rng.UniformInt(1, 3);
  const int64_t R = rng.UniformInt(1, 5);
  const int64_t C = rng.Flip(0.4) ? rng.UniformInt(1, 2) : rng.UniformInt(1, 9);
  // Input extent (O-1)·S + K plus up to S-1 trailing elements the valid
  // convolution never reads (as after host padding of odd extents).
  const auto extent = [&](int64_t out, int64_t k, int64_t s) {
    return (out - 1) * s + k + rng.UniformInt(0, s - 1);
  };
  const int64_t Di = extent(D, Kd, stride[0]);
  const int64_t Ri = extent(R, Kr, stride[1]);
  const int64_t Ci = extent(C, Kc, stride[2]);
  const fpga::Tiling tiling{rng.UniformInt(1, 8), rng.UniformInt(1, 6),
                            rng.UniformInt(1, 3), rng.UniformInt(1, 4),
                            rng.UniformInt(1, 4)};

  // Weights: mostly small trained-like values; some layers carry a raw
  // corner (chunk bound 1 or 2), some are entirely zero.
  const int weight_kind = static_cast<int>(rng.UniformInt(0, 5));
  TensorQ weights = RandomRaw(Shape{M, N, Kd, Kr, Kc}, rng, -300, 300, 0.0);
  if (weight_kind == 0) {
    weights[rng.UniformInt(0, weights.numel() - 1)] =
        Fixed16::FromRaw(Fixed16::kRawMin);
  } else if (weight_kind == 1) {
    weights[rng.UniformInt(0, weights.numel() - 1)] =
        Fixed16::FromRaw(Fixed16::kRawMax);
  } else if (weight_kind == 2) {
    weights = RandomRaw(weights.shape(), rng, -32768, 32767, 0.2);
  }
  // Activations: uniform, or saturated with many kRawMin elements.
  // Half the trials host-pad a smaller interior with PadInput, as Infer
  // does, so the halo is real zeros.
  const bool saturated_input = rng.Flip(0.3);
  std::array<int64_t, 3> pad = {0, 0, 0};
  if (rng.Flip()) {
    pad = {rng.UniformInt(0, (Di - 1) / 2), rng.UniformInt(0, (Ri - 1) / 2),
           rng.UniformInt(0, (Ci - 1) / 2)};
  }
  const Shape interior{N, Di - 2 * pad[0], Ri - 2 * pad[1], Ci - 2 * pad[2]};
  const TensorQ input = fpga::PadInput(
      saturated_input ? RandomRaw(interior, rng, -32768, 32767, 0.5)
                      : RandomRaw(interior, rng, -1024, 1024, 0.0),
      pad);

  const int64_t Dout = (Di - Kd) / stride[0] + 1;
  const int64_t Rout = (Ri - Kr) / stride[1] + 1;
  const int64_t Cout = (Ci - Kc) / stride[2] + 1;
  ASSERT_EQ(Dout, D);
  ASSERT_EQ(Rout, R);
  ASSERT_EQ(Cout, C);
  const TensorQ shortcut =
      RandomRaw(Shape{M, D, R, C}, rng, -2048, 2048, 0.05);
  PostOps post;
  post.has_affine = rng.Flip();
  if (post.has_affine) {
    post.scale = RandomRaw(Shape{M}, rng, -512, 512, 0.05);
    post.shift = RandomRaw(Shape{M}, rng, -512, 512, 0.05);
  }
  post.shortcut = rng.Flip() ? &shortcut : nullptr;
  post.relu = rng.Flip();

  // Mask: none (dense), or a density in [0, 1]; some trials also wipe
  // one whole output-channel block row.
  const int64_t blocks_m = CeilDiv(M, tiling.Tm);
  const int64_t blocks_n = CeilDiv(N, tiling.Tn);
  const bool masked = rng.Flip(0.8);
  core::BlockMask mask;
  bool pruned_row = false;
  if (masked) {
    const double keep = rng.Uniform(0.0, 1.0);
    mask.blocks_m = blocks_m;
    mask.blocks_n = blocks_n;
    mask.enabled.assign(static_cast<size_t>(blocks_m * blocks_n), 0);
    for (int64_t bm = 0; bm < blocks_m; ++bm)
      for (int64_t bn = 0; bn < blocks_n; ++bn)
        mask.set(bm, bn, rng.Flip(keep));
    if (rng.Flip(0.3)) {
      const int64_t bm = rng.UniformInt(0, blocks_m - 1);
      for (int64_t bn = 0; bn < blocks_n; ++bn) mask.set(bm, bn, false);
    }
    for (int64_t bm = 0; bm < blocks_m && !pruned_row; ++bm) {
      bool any = false;
      for (int64_t bn = 0; bn < blocks_n; ++bn) any |= mask.at(bm, bn);
      pruned_row = !any;
    }
  }

  SCOPED_TRACE(::testing::Message()
               << "trial " << trial << ": M=" << M << " N=" << N << " K="
               << Kd << "x" << Kr << "x" << Kc << " S=" << stride[0] << ","
               << stride[1] << "," << stride[2] << " in=" << Di << "x" << Ri
               << "x" << Ci << " tiling=" << tiling.ToString()
               << " masked=" << masked);

  const fpga::Ports ports;
  const TiledConvSim sim(tiling, ports);
  const TiledConvResult want =
      sim.Run(weights, input, stride, masked ? &mask : nullptr, post);
  const PackedConvLayer packed(weights, tiling, ports,
                               masked ? &mask : nullptr);
  const TiledConvResult got = packed.Run(input, stride, post);

  ASSERT_TRUE(want.output.SameShape(got.output));
  for (int64_t i = 0; i < want.output.numel(); ++i) {
    ASSERT_EQ(want.output[i].raw(), got.output[i].raw()) << "element " << i;
  }
  const fpga::TiledConvStats& a = want.stats;
  const fpga::TiledConvStats& b = got.stats;
  EXPECT_EQ(a.tile_iterations, b.tile_iterations);
  EXPECT_EQ(a.blocks_loaded, b.blocks_loaded);
  EXPECT_EQ(a.blocks_skipped, b.blocks_skipped);
  EXPECT_EQ(a.macs_executed, b.macs_executed);
  EXPECT_EQ(a.modeled_cycles, b.modeled_cycles);
  EXPECT_EQ(a.stall.wgt, b.stall.wgt);
  EXPECT_EQ(a.stall.in, b.stall.in);
  EXPECT_EQ(a.stall.comp, b.stall.comp);
  EXPECT_EQ(a.stall.out, b.stall.out);

  cov.non_divisible_stride += (stride[1] * Ci) % stride[2] != 0;
  cov.narrow_output += C <= 2;
  cov.fully_pruned_row += pruned_row;
  cov.chunk_one += packed.chunk_slots() == 1;
  cov.chunk_two += packed.chunk_slots() == 2;
  cov.raw_min_input += saturated_input;
  cov.padded_input += pad[0] + pad[1] + pad[2] > 0;
  cov.all_post_ops += post.has_affine && post.shortcut != nullptr && post.relu;
}

TEST(PackedParityTest, RandomLayersMatchSimulatorBitwise) {
  Rng rng(0x9e3779b97f4a7c15ULL);
  Coverage cov;
  for (int trial = 0; trial < kTrials; ++trial) {
    RunTrial(trial, rng, cov);
    if (HasFatalFailure()) return;
  }
  EXPECT_GT(cov.non_divisible_stride, 0);
  EXPECT_GT(cov.narrow_output, 0);
  EXPECT_GT(cov.fully_pruned_row, 0);
  EXPECT_GT(cov.chunk_one, 0);
  EXPECT_GT(cov.chunk_two, 0);
  EXPECT_GT(cov.raw_min_input, 0);
  EXPECT_GT(cov.padded_input, 0);
  EXPECT_GT(cov.all_post_ops, 0);
}

// The chunk bound itself: floor((2^31-1) / (max|w|·2^15)), never 0.
TEST(PackedParityTest, ChunkSlotsBound) {
  EXPECT_EQ(kernels::QChunkSlots(32768), 1);  // |kRawMin|: 2^30 per product
  EXPECT_EQ(kernels::QChunkSlots(32767), 2);
  EXPECT_EQ(kernels::QChunkSlots(256), 255);  // |w| <= 1.0 in Q7.8
  EXPECT_EQ(kernels::QChunkSlots(1), 65535);
  EXPECT_GT(kernels::QChunkSlots(0), int64_t{1} << 40);  // all-zero layer
  for (int32_t w = 1; w <= 32768; w += 127) {
    const int64_t L = kernels::QChunkSlots(w);
    ASSERT_GE(L, 1);
    // L worst-case products fit in int32; L + 1 would not.
    EXPECT_LE(L * w * 32768, int64_t{2147483647}) << w;
    EXPECT_GT((L + 1) * w * 32768, int64_t{2147483647}) << w;
  }
}

// A layer of all-kRawMin weights over all-kRawMin inputs makes every
// product +2^30: the worst case for the int32 partials, with L = 1.
TEST(PackedParityTest, SaturatedCornerLayer) {
  const int64_t M = 5, N = 7;
  TensorQ weights(Shape{M, N, 2, 3, 3}, Fixed16::FromRaw(Fixed16::kRawMin));
  TensorQ input(Shape{N, 3, 6, 5}, Fixed16::FromRaw(Fixed16::kRawMin));
  const fpga::Tiling tiling{4, 3, 2, 2, 2};
  const fpga::Ports ports;
  PostOps post;
  const PackedConvLayer packed(weights, tiling, ports, nullptr);
  EXPECT_EQ(packed.chunk_slots(), 1);
  for (const std::array<int64_t, 3> stride :
       {std::array<int64_t, 3>{1, 1, 1}, std::array<int64_t, 3>{1, 2, 2},
        std::array<int64_t, 3>{2, 1, 3}}) {
    const TiledConvResult want =
        TiledConvSim(tiling, ports).Run(weights, input, stride, nullptr, post);
    const TiledConvResult got = packed.Run(input, stride, post);
    ASSERT_TRUE(want.output.SameShape(got.output));
    for (int64_t i = 0; i < want.output.numel(); ++i) {
      ASSERT_EQ(want.output[i].raw(), got.output[i].raw()) << "element " << i;
      ASSERT_EQ(got.output[i].raw(), Fixed16::kRawMax);  // saturates high
    }
  }
}

}  // namespace
}  // namespace hwp3d
