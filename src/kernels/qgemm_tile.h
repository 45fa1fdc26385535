// Vectorizable Q7.8 fixed-point micro-kernels for the fast-path
// compiled executor (fpga::PackedConvLayer).
//
// The accelerator simulator accumulates int16 Q7.8 products in a wide
// DSP48-style accumulator (hwp3d::FixedAccum, an int64) and narrows to
// Q7.8 exactly once per output element. That accumulation is exact, so
// its result is independent of order and grouping: these kernels may
// reorder the loops for locality and SIMD, and may sum products in a
// narrower int32 first, while staying bitwise identical to
// TiledConvSim's per-element arithmetic.
//
// Exact int32 chunking. A product w·x of Q7.8 raws satisfies
// |w·x| <= max|w| · 2^15 (|x| <= 2^15 for every int16, kRawMin
// included), so any QChunkSlots(max|w|) = floor((2^31-1) / (max|w|·2^15))
// products sum in int32 without overflow — the bound is >= 1 even for
// max|w| = 2^15. The executor records max|w| per layer at pack time,
// accumulates up to that many products per element in int32
// (QOuterMacRow32, which widens 16→32 bits only, so SIMD lanes hold
// twice as many accumulators as int64 would) and folds the partials
// into the wide accumulators (QFoldPartials) before the bound is hit.
// Signed int32 overflow is therefore impossible by construction; the
// sanitize preset's -fno-sanitize-recover UBSan aborts if it ever
// happens.
//
// The workhorse is an outer-product update: one packed weight column
// (the Tm values of a (tn, kd, kr, kc) slot) times one strip of input
// positions, accumulated into a [tm][c] accumulator tile that stays in
// cache across the whole surviving-tile list of an output-channel
// block. The inner c-loop is a scalar-times-strip multiply-accumulate
// over contiguous (stride 1) or strided input, which compilers
// auto-vectorize (see the release-native preset for -march=native
// builds). QOuterMacRow is the int64-accumulating form, kept as the
// reference micro-kernel that perfbench's kernels.qmac_gmac_s times.
#pragma once

#include <cstdint>

#include "fixed/fixed_point.h"

namespace hwp3d::kernels {

// acc[tm * acc_stride + c] += w_col[tm] * in[c * in_stride]
// for tm in [0, tm_n), c in [0, n). `w_col` is one packed weight
// column ([tm] fastest, see PackedConvLayer's tile layout); `in` is one
// input feature row sampled at the layer's column stride.
void QOuterMacRow(FixedAccum* acc, int64_t acc_stride, const Fixed16* w_col,
                  int64_t tm_n, const Fixed16* in, int64_t in_stride,
                  int64_t n);

// Number of products with |w| <= max_abs_w (raw units, <= 2^15) that an
// int32 accumulator sums exactly: floor((2^31-1) / (max_abs_w·2^15)),
// at least 1; unbounded (INT64_MAX) when max_abs_w == 0.
int64_t QChunkSlots(int32_t max_abs_w);

// acc[tm * acc_stride + c] += w_col[tm] * in[c] with int32
// accumulators over a contiguous input strip. The caller guarantees no
// element receives more than QChunkSlots(max|w_col|) products between
// folds (see the file comment).
void QOuterMacRow32(int32_t* acc, int64_t acc_stride, const Fixed16* w_col,
                    int64_t tm_n, const Fixed16* in, int64_t n);

// Position-major twin of QOuterMacRow32 for strips shorter than the
// weight column: acc[c * tm_n + tm] += w_col[tm] * in[c], vectorized
// over the contiguous tm_n weights with in[c] broadcast. Same chunk
// contract as QOuterMacRow32.
void QOuterMacCol32(int32_t* acc, const Fixed16* w_col, int64_t tm_n,
                    const Fixed16* in, int64_t n);

// Folds int32 partial sums into the wide accumulators and clears them:
// wide[i] += partial[i]; partial[i] = 0 for i in [0, n).
void QFoldPartials(FixedAccum* wide, int32_t* partial, int64_t n);

// Narrows and post-processes one output channel's accumulators
// acc[c * acc_stride], c in [0, n), into the output row:
//   v = narrow(acc); if affine: v = v*scale + shift;
//   if shortcut: v = v + shortcut[c]; if relu: v = max(v, 0)
// in exactly the order and Q7.8 saturating arithmetic of the
// simulator's post-processing unit. `shortcut` may be null.
void QPostProcessRow(const FixedAccum* acc, int64_t acc_stride, int64_t n,
                     bool has_affine, Fixed16 scale, Fixed16 shift,
                     const Fixed16* shortcut, bool relu, Fixed16* out);

}  // namespace hwp3d::kernels
