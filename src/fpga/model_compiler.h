// Compiles a trained TinyR2Plus1d onto the tiled accelerator simulator:
// quantizes every conv weight to Q7.8, folds each BatchNorm into the
// post-processing unit's per-channel affine, wires residual shortcuts
// through the shortcut port, and attaches the block-enable masks of a
// pruned model so the engine actually skips pruned tiles.
//
// This is the software counterpart of the paper's deployment flow:
// ADMM-pruned network -> 16-bit fixed-point accelerator with
// block-enable, FC head on the host. As in Algorithm 2, the network
// becomes a flat plan of calls to one tiled engine, each call with its
// own weights, post-ops and block-enable mask; both executors walk the
// same plan.
#pragma once

#include <array>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/block_partition.h"
#include "fpga/compiled_executor.h"
#include "fpga/tiled_conv_sim.h"
#include "models/tiny_r2plus1d.h"
#include "obs/metrics.h"

namespace hwp3d::fpga {

struct CompiledModelOptions {
  Tiling tiling{4, 4, 2, 4, 4};
  Ports ports;
  // Block masks for the prunable convs, indexed like
  // TinyR2Plus1d::PrunableConvs(); empty = dense execution.
  std::vector<core::BlockMask> masks;
  // Which engine runs the conv stages; both are bitwise identical
  // (asserted by compiled_executor_test). kSimulate is the
  // cycle-stepping oracle.
  ExecMode executor = ExecMode::kFast;
};

struct CompiledRunStats {
  int64_t modeled_cycles = 0;
  int64_t blocks_loaded = 0;
  int64_t blocks_skipped = 0;
  int64_t macs_executed = 0;
};

class CompiledTinyR2Plus1d {
 public:
  // Validates `options` against the model (mask count and per-conv
  // block grids under tiling.block()) and compiles it into a stage
  // plan; returns an actionable Status instead of throwing. The
  // compiled model snapshots weights and (eval-mode) BN statistics, so
  // it is self-contained and immutable: Infer/Classify are const and
  // safe to call from many threads at once, which is how every serving
  // lane shares one model.
  static StatusOr<CompiledTinyR2Plus1d> Compile(models::TinyR2Plus1d& model,
                                                CompiledModelOptions options);

  // Runs one clip [C][D][H][W] (float, host side) through the simulated
  // accelerator and the host FC; returns the logits. Each stage's stats
  // are added to its exec.*{layer} counters, whichever executor ran it
  // (see Stage::Meters).
  TensorF Infer(const TensorF& clip, CompiledRunStats* stats = nullptr) const;

  // Argmax convenience.
  int Classify(const TensorF& clip, CompiledRunStats* stats = nullptr) const;

  // The engine Infer dispatches to (options.executor).
  ExecMode executor() const { return exec_; }

  // Channels C a clip must carry: the first stage's input channels.
  int64_t input_channels() const { return plan_.front().weights.dim(1); }

 private:
  // One call of the tiled engine.
  struct Stage {
    // The stage's counters, labelled layer=<name> and resolved once by
    // Compile(): exec.runs, exec.macs_executed, exec.blocks_loaded,
    // exec.blocks_skipped, exec.modeled_cycles and
    // exec.stall.{wgt,in,comp,out}_cycles. Stages of the same layer in
    // different compiled models share them.
    struct Meters {
      static Meters For(const std::string& layer);
      void Add(const TiledConvStats& s) const;
      obs::Counter* runs = nullptr;
      obs::Counter* macs_executed = nullptr;
      obs::Counter* blocks_loaded = nullptr;
      obs::Counter* blocks_skipped = nullptr;
      obs::Counter* modeled_cycles = nullptr;
      obs::Counter* stall_wgt = nullptr;
      obs::Counter* stall_in = nullptr;
      obs::Counter* stall_comp = nullptr;
      obs::Counter* stall_out = nullptr;
    };

    std::string name;  // conv layer name, labels traces/metrics
    TensorQ weights;   // [M][N][Kd][Kr][Kc]
    std::array<int64_t, 3> stride;
    std::array<int64_t, 3> padding;
    PostOps post;  // affine/relu; the shortcut is bound at run time
    // Block-enable mask for the simulator (kSimulate, pruned convs) or
    // the block-CSR packed weights for the fast path (kFast).
    std::optional<core::BlockMask> mask;
    std::optional<PackedConvLayer> packed;
    // Activations: 0 is the quantized clip, i+1 is stage i's output.
    int input = 0;
    int shortcut = -1;  // added by the post-processing unit; -1 = none
    Meters meters;
  };

  CompiledTinyR2Plus1d(ExecMode exec, const Tiling& tiling,
                       const Ports& ports)
      : exec_(exec), sim_(tiling, ports) {}

  ExecMode exec_;
  TiledConvSim sim_;
  std::vector<Stage> plan_;
  // Host-side FC.
  TensorF fc_weight_;  // [out][in]
  TensorF fc_bias_;    // [out]
};

}  // namespace hwp3d::fpga
