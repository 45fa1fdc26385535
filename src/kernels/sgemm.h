// Cache-blocked single-precision GEMM.
//
// Row-major  C[m×n] (+)= op(A)[m×k] · op(B)[k×n]  with optional
// transposes, organized BLIS-style: the k dimension is split into KC
// blocks, op(B) panels (KC×NR) and op(A) panels (MC×KC in MR-row
// micro-panels) are packed into contiguous, zero-padded scratch so the
// MR×NR micro-kernel runs branch-free contiguous inner loops over
// vector registers. The micro-kernel is compiled once per ISA variant
// (isa.h) and the widest one the host supports runs. Column
// micro-panels of one (MC, KC, NC) block are distributed over the
// persistent ThreadPool; every C tile is written by exactly one task
// and the KC blocks accumulate in a fixed order, so results are bitwise
// identical for any thread count.
//
// Exactness. Each C element is computed in one fixed order: within a
// KC block the products op(A)[i,p]·op(B)[p,j] are summed in increasing
// p into a float that starts at 0.0f, and the block sums are added into
// C (zeroed first unless accumulating) in increasing block order. Only
// kKC enters that order; MR, NR, kMC and NC tile (i, j) and change
// which task computes an element, never how. Retuning them, or running
// another ISA variant with another tile, is therefore bitwise neutral,
// and tests/sgemm_test.cpp pins every variant to a scalar reference
// with exactly this order.
#pragma once

#include <cstdint>

#include "kernels/isa.h"

namespace hwp3d::kernels {

// Cache blocking: the KC×NR B panel targets L1, the MC×KC packed A
// block L2, the KC×NC packed B block the last-level cache. The
// micro-tile MR×NR and NC depend on the ISA variant (SgemmTileFor).
inline constexpr int64_t kMC = 96;
inline constexpr int64_t kKC = 256;  // fixes the summation order; see above

// C[m×n] (+)= op(A)[m×k] · op(B)[k×n]; op transposes when trans_* is
// set. lda/ldb are the leading dimensions of the *stored* (untransposed)
// matrices. accumulate=false overwrites C, true adds into it.
void Sgemm(bool trans_a, bool trans_b, int64_t m, int64_t n, int64_t k,
           const float* a, int64_t lda, const float* b, int64_t ldb,
           float* c, int64_t ldc, bool accumulate);

// Register micro-tile MR×NR and column block NC of one ISA variant.
// The micro-kernel keeps MR·NR/lanes accumulator vectors, the NR/lanes
// vectors of one B panel row and one broadcast A element in registers:
//   SSE2    4×12 (12 + 3 + 1 of 16 XMM)
//   AVX2    4×16 ( 8 + 2 + 1 of 16 YMM)
//   AVX-512 4×16 ( 4 + 1 + 1 of 32 ZMM)
// Four or more accumulators cover the add latency; a wider tile would
// only pad the small m (4–18 output channels) and n (4–72 taps) of the
// training GEMMs further.
struct SgemmTile {
  int64_t mr, nr, nc;
};
SgemmTile SgemmTileFor(Isa isa);

}  // namespace hwp3d::kernels
