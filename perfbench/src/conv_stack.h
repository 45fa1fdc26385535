// The paper's conv stack: all 37 conv layers of the Table I R(2+1)D,
// Table II block masks at (Tm, Tn) = (64, 8), run one by one through
// fpga::PackedConvLayer on a one-thread pool.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "checks.h"
#include "fpga/compiled_executor.h"
#include "fpga/spec_masks.h"
#include "kernels/thread_pool.h"
#include "models/network_spec.h"

namespace perfbench {

// The five conv groups of Table I, in network order.
const std::vector<std::string>& StackGroups();

struct StackLayer {
  hwp3d::models::ConvLayerSpec spec;  // output extents scaled down
  hwp3d::TensorQ weights;             // [M][N][Kd][Kr][Kc]
  hwp3d::TensorQ input;               // pre-padded [N][Di][Ri][Ci]
  hwp3d::TensorQ shortcut;            // [M][D][R][C] when has_shortcut_add
  hwp3d::fpga::PostOps post;          // points at `shortcut`
  std::unique_ptr<hwp3d::fpga::PackedConvLayer> packed;  // Table II mask
  std::unique_ptr<hwp3d::fpga::PackedConvLayer> dense;   // every block
  std::vector<OutPoint> points;   // sampled output elements
  std::vector<int16_t> expected;  // reference raw values at `points`
  BlockCounts counts;             // expected stats under the mask
};

struct ClipRun {
  std::vector<double> layer_s;  // wall seconds per layer
  std::vector<hwp3d::fpga::TiledConvStats> stats;
  int64_t failed = 0;  // layer runs that threw
  CheckResult check;   // outputs and stats against the reference
};

class ConvStack {
 public:
  // Draws Q7.8 weights, inputs, post-op parameters and shortcuts from
  // `seed`; spatial output extents are divided by `spatial_div`.
  ConvStack(uint64_t seed, int64_t spatial_div);

  ConvStack(const ConvStack&) = delete;
  ConvStack& operator=(const ConvStack&) = delete;

  // The timed set-up: Table II masks from fpga::GenerateSpecMasks, then
  // one PackedConvLayer per layer. Repeatable; each call rebuilds both.
  struct SetupTimes {
    double masks_s = 0.0;
    double pack_s = 0.0;
  };
  SetupTimes Setup();

  // Reference values and block counts for the checks (after Setup).
  void PrepareChecks();

  // One clip: every layer once, labelled with its name as a serving
  // stage is, each output and stats checked.
  ClipRun RunClip(hwp3d::ThreadPool& pool);

  // Packs every layer of `group` with all blocks enabled (for the
  // block-skip speed-up) and runs the group once: wall seconds, and
  // modeled cycles in `*modeled_cycles`.
  double RunGroupDense(const std::string& group, hwp3d::ThreadPool& pool,
                       int64_t* modeled_cycles);
  // Runs the group once with its Table II masks: wall seconds.
  double RunGroupPruned(const std::string& group, hwp3d::ThreadPool& pool);

  const std::vector<StackLayer>& layers() const { return layers_; }
  double packed_mb() const;

 private:
  hwp3d::models::NetworkSpec spec_;  // full-size, paper pruning targets
  uint64_t seed_;
  hwp3d::fpga::Tiling tiling_;
  hwp3d::fpga::Ports ports_;
  hwp3d::fpga::SpecMasks masks_;
  std::vector<StackLayer> layers_;
};

}  // namespace perfbench
