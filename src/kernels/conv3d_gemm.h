// Direct Conv3d forward/backward for training (the HWP_CONV_ENGINE=gemm
// path).
//
// Per sample, with K = N·Kd·Kh·Kw taps k = (n, kd, kh, kw) and
// P = Do·Ho·Wo output positions p = (od, oh, ow):
//   forward   y[m][p]  = Σ_k W[m][k] · x_k[p]
//   weight    dW[m][k] += Σ_p dy[m][p] · x_k[p]
//   input     dx       += Σ_k scatter_k(t_k),  t_k[p] = Σ_m W[m][k] · dy[m][p]
// where x_k[p] = x[n][od·Sd + kd − Pd][oh·Sh + kh − Ph][ow·Sw + kw − Pw]
// (0 in the padding). The paper's W[M][N][Kd][Kh][Kw] layout is W[M][K]
// row-major, so the same weight tensor feeds the pruning core, the FPGA
// simulator and this engine.
//
// No K×P im2col matrix is built. Each sample is copied once into
// zero-padded planes (strided convs split each plane into Sh·Sw phase
// planes, as fpga::PackedConvLayer does), so every tap of every output
// position sits at a fixed offset on a unit-stride run. Positions are
// laid out on the padded plane's row pitch, so each output row carries
// a few halo lanes.
//  * Forward: a register tile of 4 output channels × a run of positions
//    walks the planes, one vector load per tap and 4 weight broadcasts;
//    halo lanes are computed and dropped.
//  * Input gradient: dy is laid out on the same pitch (0 at the halo
//    lanes); per spatial tap (kd, kh, kw), the same tile with 4 input
//    channels as its rows forms t = Σ_m W[m][k]·dy[m] and adds it into
//    the sample's dx, itself held in phase planes.
//  * Weight gradient: per kKC block of P, dy transposed to [P][M] and a
//    tile of taps × output-channel vectors walks the block's positions,
//    one broadcast of x per tap.
// The vector kernels are compiled per ISA variant (isa.h).
//
// Exactness: every output is bitwise what the im2col + Sgemm lowering
// this engine replaced gives (tests/conv3d_gemm_order_test.cpp keeps
// that lowering as its reference and runs every ISA variant):
//  * y: within each kKC block of k, products in ascending k from 0.0f,
//    padding taps included; the block sums are added, in block order,
//    into y seeded with the bias or with 0.0f.
//  * dx: for each tap in ascending (n, kd, kh, kw) order, t_k (m
//    ascending from 0.0f per kKC block of m, block sums added into
//    0.0f) is added into the existing dx; what lands in the padding is
//    dropped. A halo lane must not add +0.0f to a real dx element: it
//    would turn an accumulated −0.0f into +0.0f. Its t is exactly +0.0f
//    (dy is 0 there) and the kernel multiplies it by −1, so it adds
//    −0.0f, which leaves every float unchanged.
//  * dW: per sample and kKC block of P (im2col's P order), the
//    products of the block's positions summed from 0.0f, padding zeros
//    included, into one partial; the partials are folded into dW in
//    (sample, block) order, as Sgemm(accumulate=true) added its block
//    sums.
//
// Parallelism lives in the sample loop: samples fan out over the
// ThreadPool and every kernel inside runs inline on its participant. y
// and dx are written per sample into disjoint slices and the dW fold is
// serial, so every output is bitwise the same for any thread count.
#pragma once

#include <cstdint>

namespace hwp3d::kernels {

// Static problem geometry of one Conv3d call.
struct Conv3dGeom {
  int64_t batch = 0;
  int64_t in_c = 0, out_c = 0;
  int64_t in_d = 0, in_h = 0, in_w = 0;
  int64_t k_d = 1, k_h = 1, k_w = 1;
  int64_t s_d = 1, s_h = 1, s_w = 1;
  int64_t p_d = 0, p_h = 0, p_w = 0;
  int64_t out_d = 0, out_h = 0, out_w = 0;

  int64_t taps() const { return in_c * k_d * k_h * k_w; }        // K
  int64_t positions() const { return out_d * out_h * out_w; }    // P
  int64_t in_sample_size() const { return in_c * in_d * in_h * in_w; }
  int64_t out_sample_size() const { return out_c * positions(); }
};

// y[B][M][Do][Ho][Wo] = conv(x, w) (+ bias if non-null). Overwrites y.
void Conv3dForwardGemm(const Conv3dGeom& g, const float* x, const float* w,
                       const float* bias, float* y);

// Accumulates dw[M][K] (+=) and dx (+=; the caller zero-fills a fresh
// dx) from dy[B][M][Do][Ho][Wo]. Pass dx == nullptr to skip the
// input-gradient computation.
void Conv3dBackwardGemm(const Conv3dGeom& g, const float* x, const float* w,
                        const float* dy, float* dw, float* dx);

}  // namespace hwp3d::kernels
