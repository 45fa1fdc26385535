// Fast-path compiled executor: block-CSR pre-packed weights + Q7.8
// micro-kernels, with timing split from compute.
//
// TiledConvSim is the oracle: it walks Algorithm 2 cycle-by-cycle,
// counting every MAC and attributing every stall — perfect for DSE and
// ablations, far too slow for serving. PackedConvLayer is the serving
// counterpart of the same layer:
//
//  * Compute is functional. At pack time the quantized weight tensor is
//    re-laid-out into a block-CSR grid of Tm×Tn×Kd×Kr×Kc tiles — one
//    row list per output-channel block, PRUNED TILES PHYSICALLY ELIDED
//    — so per-request work touches only surviving tiles. This mirrors
//    the paper's co-design (the pruning block IS the tile the engine
//    loads): block-enable low means the tile simply isn't in the packed
//    stream, and skipping it costs zero wall-clock instead of a
//    walked-and-skipped loop iteration. Within a tile, weights are
//    stored [tn][kd][kr][kc][tm]: each (tn, kd, kr, kc) slot is one
//    contiguous Tm-column of weights.
//  * The inner loop walks the output plane, not the row. Stride-(Sr,
//    Sc) inputs are first split into Sr×Sc phase planes of
//    ceil(Ri/Sr)×ceil(Ci/Sc) (input (rr·Sr+φr, cc·Sc+φc) lands at
//    (rr, cc) of phase (φr, φc); stride-1 inputs are their own single
//    phase and are read in place). Output position q = r·Cph + c under
//    tap (kr, kc) then reads phase (kr%Sr, kc%Sc) at offset
//    q + (kr/Sr)·Cph + kc/Sc: one unit-stride strip of (R-1)·Cph + C
//    positions covers the whole output plane for every slot, whatever
//    the stride and whether or not Sc divides Sr·Ci. Strip positions
//    with c >= C read real inputs (or zero phase padding) of the same
//    plane and are computed, then dropped; each contiguous run of
//    valid positions is post-processed with one call.
//  * Accumulation is exact in int32 chunks. Pack time records the
//    layer's max |w| and from it L = kernels::QChunkSlots(max|w|) =
//    floor((2^31-1) / (max|w|·2^15)) >= 1: any L products sum in int32
//    without overflow, halo lanes included (they read real int16
//    values, |x| <= 2^15). Each slot adds one product per accumulator
//    (kernels::QOuterMacRow32, or its position-major twin
//    QOuterMacCol32 when the strip is shorter than the Tm-column), and
//    every L slots the int32 partials fold into the int64 FixedAccum.
//  * Timing is analytic. modeled_cycles / blocks_loaded / blocks_skipped
//    / stall come from PerfModel::LayerCycles + the mask's block counts
//    — the same accounting the simulator reproduces step by step (their
//    equality is asserted by sim_perf_consistency_test and
//    compiled_executor_test), so the cycle model stays bit-for-bit
//    intact while compute no longer pays for it.
//
// Results are bitwise identical to TiledConvSim::Run: products
// accumulate exactly (int32 chunks folded into 64 bits, so the sum is
// order- and grouping-independent), narrowing and the post-processing
// unit reuse the simulator's Fixed16 arithmetic in the same order.
// Output-channel blocks × output depth fan out on the hwp3d::ThreadPool;
// each task owns a disjoint output slab, so results are also
// thread-count invariant.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/block_partition.h"
#include "fixed/quantize.h"
#include "fpga/tiled_conv_sim.h"
#include "fpga/tiling.h"

namespace hwp3d {
class ThreadPool;
}

namespace hwp3d::fpga {

// Which engine executes compiled conv stages.
//  kSimulate — TiledConvSim, step-by-step cycle accounting (oracle).
//  kFast     — PackedConvLayer, pre-packed tiles + analytic timing.
enum class ExecMode { kSimulate, kFast };

const char* ExecModeName(ExecMode mode);

// "sim"/"simulate" -> kSimulate, "fast" -> kFast; nullopt otherwise.
std::optional<ExecMode> ParseExecMode(std::string_view name);

// One conv layer's weights packed for fast execution (see file
// comment). Immutable after construction; Run is const and safe to
// call concurrently, so serving lanes share one PackedConvLayer.
class PackedConvLayer {
 public:
  // weights: [M][N][Kd][Kr][Kc] quantized. `mask` (optional) must match
  // the ceil(M/Tm) x ceil(N/Tn) grid; its pruned tiles are elided from
  // the packed stream.
  PackedConvLayer(const TensorQ& weights, const Tiling& tiling,
                  const Ports& ports, const core::BlockMask* mask);

  // Mirror of TiledConvSim::Run (same shapes, same pre-padded input,
  // same PostOps), bitwise identical output and identical stats.
  // `pool` overrides the process-wide ThreadPool (tests use standalone
  // pools to prove thread-count invariance); null uses ThreadPool::Get.
  TiledConvResult Run(const TensorQ& input, std::array<int64_t, 3> stride,
                      const PostOps& post, std::string_view label = {},
                      ThreadPool* pool = nullptr) const;

  // Packed-stream footprint: surviving tiles only.
  int64_t packed_weights() const {
    return static_cast<int64_t>(wdata_.size());
  }
  int64_t surviving_tiles() const {
    return static_cast<int64_t>(tiles_.size());
  }
  int64_t total_tiles() const { return blocks_m_ * blocks_n_; }
  // Products per output element summed in int32 between folds into the
  // wide accumulator: kernels::QChunkSlots of the layer's max |w|.
  int64_t chunk_slots() const { return chunk_slots_; }

 private:
  struct Tile {
    int32_t bn = 0;       // input-channel block index
    int32_t tn_n = 0;     // channels in this block (partial at the edge)
    int64_t w_offset = 0; // into wdata_, layout [tn][kd][kr][kc][tm]
  };

  // Analytic stats for one run of `spec` (PerfModel + mask).
  TiledConvStats ModelStats(const models::ConvLayerSpec& spec) const;

  Tiling t_;
  Ports p_;
  int64_t M_ = 0, N_ = 0, Kd_ = 0, Kr_ = 0, Kc_ = 0;
  int64_t blocks_m_ = 0, blocks_n_ = 0;
  std::vector<Tile> tiles_;      // rows concatenated in bm order
  std::vector<int64_t> row_ptr_; // [blocks_m_+1] offsets into tiles_
  std::vector<Fixed16> wdata_;   // packed tile weights, pruned elided
  std::optional<core::BlockMask> mask_;  // kept for the analytic stats
  int64_t sum_mn_ = 0;  // Σ over surviving tiles of tm_n*tn_n (for MACs)
  // Slots whose products an int32 partial sums exactly, from the
  // layer's max |w| (kernels::QChunkSlots).
  int64_t chunk_slots_ = 1;
};

}  // namespace hwp3d::fpga
