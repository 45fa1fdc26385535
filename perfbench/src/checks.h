// Correctness checks the benchmark makes apart from the program: a
// naive Q7.8 convolution for sampled output elements, block and MAC
// counts recomputed from the masks, and the serving invariants.
// Each check takes the program's results as plain data, so the
// self-test can feed it a corrupted result and see it fail.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/block_partition.h"
#include "fixed/quantize.h"
#include "fpga/model_compiler.h"
#include "fpga/tiled_conv_sim.h"
#include "fpga/tiling.h"

namespace perfbench {

struct CheckResult {
  bool ok = true;
  std::string detail;  // first failure, empty when ok
};

// One output element [m][d][r][c].
struct OutPoint {
  int64_t m = 0, d = 0, r = 0, c = 0;
};

// `count` points drawn uniformly over an M x D x R x C output, plus its
// first and last element.
std::vector<OutPoint> SampleOutPoints(int64_t M, int64_t D, int64_t R,
                                      int64_t C, int count, hwp3d::Rng& rng);

// One layer as the engine is asked to run it.
struct ConvRef {
  const hwp3d::TensorQ* weights = nullptr;  // [M][N][Kd][Kr][Kc]
  const hwp3d::TensorQ* input = nullptr;    // [N][Di][Ri][Ci], pre-padded
  std::array<int64_t, 3> stride{1, 1, 1};
  const hwp3d::core::BlockMask* mask = nullptr;  // null = every block
  hwp3d::core::BlockConfig block;
  const hwp3d::fpga::PostOps* post = nullptr;
};

// Raw Q7.8 output at `p`: products of the enabled blocks summed exactly
// in int64, rounded and saturated to Q7.8, then affine, shortcut add and
// ReLU in that order, each rounded and saturated.
int16_t ReferenceOutput(const ConvRef& ref, const OutPoint& p);

// Output elements at `points` against `expected` raw values, bit for bit.
CheckResult CheckSampledOutputs(const hwp3d::TensorQ& output,
                                const std::vector<OutPoint>& points,
                                const std::vector<int16_t>& expected);

struct BlockCounts {
  int64_t loaded = 0;
  int64_t skipped = 0;
  int64_t macs = 0;
};

// Blocks loaded and skipped over all (Td, Tr, Tc) output tiles, and MACs
// executed, of a [M][N][K...] layer with a D x R x C output under `mask`.
BlockCounts ExpectedBlockCounts(const hwp3d::Shape& weight_shape, int64_t D,
                                int64_t R, int64_t C,
                                const hwp3d::core::BlockMask* mask,
                                const hwp3d::fpga::Tiling& tiling);

CheckResult CheckBlockCounts(const hwp3d::fpga::TiledConvStats& stats,
                             const BlockCounts& want);

int Argmax(const std::vector<float>& logits);

// Every repeat of a pool clip must return the logits and modeled stats
// of its first serving, bit for bit, whichever batch or replica ran it.
class RepeatCheck {
 public:
  explicit RepeatCheck(size_t clips) : first_(clips), seen_(clips, 0) {}

  void Observe(size_t clip, const std::vector<float>& logits,
               const hwp3d::fpga::CompiledRunStats& stats);
  const CheckResult& result() const { return result_; }
  int64_t repeats() const { return repeats_; }

 private:
  struct First {
    std::vector<float> logits;
    hwp3d::fpga::CompiledRunStats stats;
  };
  std::vector<First> first_;
  std::vector<uint8_t> seen_;
  int64_t repeats_ = 0;
  CheckResult result_;
};

// hits / total must reach `floor`.
CheckResult CheckFloor(const std::string& what, int64_t hits, int64_t total,
                       double floor);

}  // namespace perfbench
