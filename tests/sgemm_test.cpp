// Bitwise exactness of kernels::Sgemm against an order-pinned scalar
// reference.
//
// Sgemm promises one summation order per C element: within each kKC
// block of k, products in increasing p summed into a float that starts
// at 0.0f; the block sums added into C (zeroed unless accumulating) in
// increasing block order. The register/cache tiling (MR, NR, kMC, NC)
// and the thread split must not change a single bit. Every micro-kernel
// variant the host supports (kernels/isa.h) runs, each with its own
// tile; the shapes below are derived from that tile, so they keep
// exercising the edge tiles and block crossings when it is retuned.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "kernels/isa.h"
#include "kernels/sgemm.h"

namespace hwp3d {
namespace {

using kernels::Isa;
using kernels::kKC;
using kernels::kMC;

struct Case {
  int64_t m, n, k;
  int64_t pad = 0;  // extra columns on every stored leading dimension
};

// Element (r, c) of op(X), X stored row-major with leading dimension ld.
float OpElem(const std::vector<float>& x, int64_t ld, bool trans, int64_t r,
             int64_t c) {
  return trans ? x[static_cast<size_t>(c * ld + r)]
               : x[static_cast<size_t>(r * ld + c)];
}

// The documented order, one element at a time.
void ReferenceSgemm(bool ta, bool tb, const Case& s,
                    const std::vector<float>& a, int64_t lda,
                    const std::vector<float>& b, int64_t ldb,
                    std::vector<float>& c, int64_t ldc, bool accumulate) {
  for (int64_t i = 0; i < s.m; ++i) {
    for (int64_t j = 0; j < s.n; ++j) {
      float& cij = c[static_cast<size_t>(i * ldc + j)];
      if (!accumulate) cij = 0.0f;
      for (int64_t pc = 0; pc < s.k; pc += kKC) {
        float block = 0.0f;
        for (int64_t p = pc; p < std::min(pc + kKC, s.k); ++p) {
          block += OpElem(a, lda, ta, i, p) * OpElem(b, ldb, tb, p, j);
        }
        cij += block;
      }
    }
  }
}

std::vector<float> Random(size_t n, Rng& rng) {
  std::vector<float> v(n);
  for (float& x : v) x = static_cast<float>(rng.Uniform(-1.0, 1.0));
  return v;
}

// Runs one (transpose, accumulate) variant of `s` through both and
// compares every stored float of C bit for bit, padding included (the
// padding must come back untouched).
void ExpectBitwise(const Case& s, bool ta, bool tb, bool accumulate,
                   uint64_t seed) {
  SCOPED_TRACE("m=" + std::to_string(s.m) + " n=" + std::to_string(s.n) +
               " k=" + std::to_string(s.k) + " pad=" + std::to_string(s.pad) +
               " trans_a=" + std::to_string(ta) +
               " trans_b=" + std::to_string(tb) +
               " accumulate=" + std::to_string(accumulate));
  Rng rng(seed);
  // Stored shapes: A is m×k (k×m when transposed), B is k×n (n×k).
  const int64_t a_rows = ta ? s.k : s.m, a_cols = ta ? s.m : s.k;
  const int64_t b_rows = tb ? s.n : s.k, b_cols = tb ? s.k : s.n;
  const int64_t lda = a_cols + s.pad, ldb = b_cols + s.pad;
  const int64_t ldc = s.n + s.pad;
  const std::vector<float> a = Random(static_cast<size_t>(a_rows * lda), rng);
  const std::vector<float> b = Random(static_cast<size_t>(b_rows * ldb), rng);
  std::vector<float> ref = Random(static_cast<size_t>(s.m * ldc), rng);
  std::vector<float> got = ref;

  ReferenceSgemm(ta, tb, s, a, lda, b, ldb, ref, ldc, accumulate);
  kernels::Sgemm(ta, tb, s.m, s.n, s.k, a.data(), lda, b.data(), ldb,
                 got.data(), ldc, accumulate);

  int64_t mismatches = 0;
  for (size_t i = 0; i < ref.size(); ++i) {
    if (std::bit_cast<uint32_t>(ref[i]) != std::bit_cast<uint32_t>(got[i])) {
      if (mismatches++ < 5) {
        ADD_FAILURE() << "C[" << i / static_cast<size_t>(ldc) << "]["
                      << i % static_cast<size_t>(ldc) << "]: reference "
                      << ref[i] << ", sgemm " << got[i];
      }
    }
  }
  EXPECT_EQ(mismatches, 0);
}

void ExpectAllVariantsBitwise(const Case& s, uint64_t seed) {
  for (bool ta : {false, true})
    for (bool tb : {false, true})
      for (bool acc : {false, true}) ExpectBitwise(s, ta, tb, acc, seed++);
}

// Runs each test under one ISA variant; kMR/kNR/kNC are its tile.
class SgemmTest : public ::testing::TestWithParam<Isa> {
 protected:
  SgemmTest()
      : use_(GetParam()),
        kMR(kernels::SgemmTileFor(GetParam()).mr),
        kNR(kernels::SgemmTileFor(GetParam()).nr),
        kNC(kernels::SgemmTileFor(GetParam()).nc) {}

  kernels::internal::ScopedIsa use_;
  const int64_t kMR, kNR, kNC;
};

TEST_P(SgemmTest, EdgeTilesMatchReference) {
  // m and n off the micro-tile grid, single KC block.
  ExpectAllVariantsBitwise({kMR + 3, kNR + 5, 7}, 1);
  ExpectAllVariantsBitwise({1, 1, 1}, 2);
  ExpectAllVariantsBitwise({kMR - 1, kNR - 1, 3}, 3);
}

TEST_P(SgemmTest, KCrossingKcMatchesReference) {
  // Two and three KC blocks, the last one partial.
  ExpectAllVariantsBitwise({kMR + 1, kNR + 1, kKC + 37}, 10);
  ExpectAllVariantsBitwise({3, 2 * kNR, 2 * kKC + 1}, 11);
}

TEST_P(SgemmTest, MCrossingMcMatchesReference) {
  ExpectAllVariantsBitwise({kMC + kMR + 1, kNR + 3, 9}, 20);
}

TEST_P(SgemmTest, NCrossingNcMatchesReference) {
  // n past one NC block with a ragged last micro-panel, k past one KC.
  ExpectAllVariantsBitwise({kMR + 2, kNC + kNR + 1, kKC + 3}, 30);
}

TEST_P(SgemmTest, LeadingDimensionsLargerThanExtents) {
  ExpectAllVariantsBitwise({kMR + 3, kNR + 7, kKC + 5, /*pad=*/3}, 40);
  ExpectAllVariantsBitwise({5, kNC + 2, 11, /*pad=*/kNR + 1}, 41);
}

TEST_P(SgemmTest, TrainingShapesMatchReference) {
  // The per-sample forward, dW and dX GEMMs of stage1.conv2.spatial in
  // the served toy model (18 mid channels, 8·3·3 = 72 im2col rows,
  // 6×10×10 = 600 positions).
  ExpectBitwise({18, 600, 72}, false, false, false, 50);
  ExpectBitwise({18, 72, 600}, false, true, true, 51);
  ExpectBitwise({72, 600, 18}, true, false, false, 52);
}

TEST_P(SgemmTest, EmptyKZeroesOrKeepsC) {
  const Case s{kMR + 1, kNR + 1, 0};
  ExpectBitwise(s, false, false, /*accumulate=*/false, 60);
  ExpectBitwise(s, false, false, /*accumulate=*/true, 61);
}

INSTANTIATE_TEST_SUITE_P(
    Isa, SgemmTest, ::testing::ValuesIn(kernels::internal::SupportedIsas()),
    [](const ::testing::TestParamInfo<Isa>& info) {
      return std::string(kernels::IsaName(info.param));
    });

}  // namespace
}  // namespace hwp3d
