// Cache-blocked single-precision GEMM.
//
// Row-major  C[m×n] (+)= op(A)[m×k] · op(B)[k×n]  with optional
// transposes, organized BLIS-style: the k dimension is split into KC
// blocks, op(B) panels (KC×NR) and op(A) panels (MC×KC in MR-row
// micro-panels) are packed into contiguous, zero-padded scratch so the
// MR×NR micro-kernel runs branch-free contiguous inner loops the
// compiler auto-vectorizes. Column micro-panels of one (MC, KC, NC)
// block are distributed over the persistent ThreadPool; every C tile is
// written by exactly one task and the KC blocks accumulate in a fixed
// order, so results are bitwise identical for any thread count.
//
// Exactness. Each C element is computed in one fixed order: within a
// KC block the products op(A)[i,p]·op(B)[p,j] are summed in increasing
// p into a float that starts at 0.0f, and the block sums are added into
// C (zeroed first unless accumulating) in increasing block order. Only
// kKC enters that order; kMR, kNR, kMC and kNC tile (i, j) and change
// which task computes an element, never how. Retuning them is therefore
// bitwise neutral, and tests/sgemm_test.cpp pins Sgemm to a scalar
// reference with exactly this order.
#pragma once

#include <cstdint>

namespace hwp3d::kernels {

// Micro-tile. The default build targets SSE2, which has 16 XMM
// registers of 4 floats: a 4×12 tile keeps its 12 accumulator vectors,
// the 3-vector B row and the broadcast A element in registers (16 in
// all) with no spills in the p loop; a 6×16 tile needs 24 accumulator
// vectors and spills to the stack on every rank-1 update.
inline constexpr int64_t kMR = 4;
inline constexpr int64_t kNR = 12;
// Cache blocking: the KC×NR B panel targets L1, the MC×KC packed A
// block L2, the KC×NC packed B block the last-level cache.
inline constexpr int64_t kMC = 96;
inline constexpr int64_t kKC = 256;  // fixes the summation order; see above
inline constexpr int64_t kNC = 1020;
static_assert(kMC % kMR == 0, "kMC must be a multiple of kMR");
static_assert(kNC % kNR == 0, "kNC must be a multiple of kNR");

// C[m×n] (+)= op(A)[m×k] · op(B)[k×n]; op transposes when trans_* is
// set. lda/ldb are the leading dimensions of the *stored* (untransposed)
// matrices. accumulate=false overwrites C, true adds into it.
void Sgemm(bool trans_a, bool trans_b, int64_t m, int64_t n, int64_t k,
           const float* a, int64_t lda, const float* b, int64_t ldb,
           float* c, int64_t ldc, bool accumulate);

}  // namespace hwp3d::kernels
