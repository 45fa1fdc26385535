#include "fpga/compiled_executor.h"

#include <algorithm>
#include <cstdlib>

#include "common/error.h"
#include "fpga/conv_call.h"
#include "fpga/perf_model.h"
#include "kernels/qgemm_tile.h"
#include "kernels/scratch.h"
#include "kernels/thread_pool.h"
#include "obs/trace.h"
#include "tensor/shape.h"

namespace hwp3d::fpga {

namespace {

// Output positions are accumulated in column blocks of cb positions.
// The int32 partial strip [tm_n][cb] takes every slot's update, so it
// is sized to stay L1-resident: kStripElems int32 = 16 KiB, i.e. cb = 64
// positions at Tm = 64 and a whole toy-model plane at Tm = 4. Its int64
// partner strip (32 KiB at the same size) is touched only when the
// partials fold — at most once per chunk of QChunkSlots slots — and at
// post-processing, so it may sit in L2.
constexpr int64_t kStripElems = 4096;

// Re-lays `planes` input planes of Ri x Ci as Sr x Sc phase planes of
// ceil(Ri/Sr) x ceil(Ci/Sc) each ([plane][phi_r][phi_c][rr][cc] holds
// input (rr·Sr + phi_r, cc·Sc + phi_c)), zero-filling phase positions
// past the input's edge.
void SplitPhases(const Fixed16* in, int64_t planes, int64_t Ri, int64_t Ci,
                 int64_t Sr, int64_t Sc, Fixed16* out) {
  const int64_t Rph = CeilDiv(Ri, Sr), Cph = CeilDiv(Ci, Sc);
  for (int64_t pl = 0; pl < planes; ++pl, in += Ri * Ci) {
    for (int64_t fr = 0; fr < Sr; ++fr)
      for (int64_t fc = 0; fc < Sc; ++fc)
        for (int64_t rr = 0; rr < Rph; ++rr) {
          const int64_t ir = rr * Sr + fr;
          for (int64_t cc = 0; cc < Cph; ++cc, ++out) {
            const int64_t ic = cc * Sc + fc;
            *out = ir < Ri && ic < Ci ? in[ir * Ci + ic] : Fixed16{};
          }
        }
  }
}

}  // namespace

const char* ExecModeName(ExecMode mode) {
  return mode == ExecMode::kFast ? "fast" : "sim";
}

std::optional<ExecMode> ParseExecMode(std::string_view name) {
  if (name == "sim" || name == "simulate") return ExecMode::kSimulate;
  if (name == "fast") return ExecMode::kFast;
  return std::nullopt;
}

PackedConvLayer::PackedConvLayer(const TensorQ& weights, const Tiling& tiling,
                                 const Ports& ports,
                                 const core::BlockMask* mask)
    : t_(tiling), p_(ports) {
  HWP_SHAPE_CHECK_MSG(weights.rank() == 5, "weights must be rank-5");
  M_ = weights.dim(0);
  N_ = weights.dim(1);
  Kd_ = weights.dim(2);
  Kr_ = weights.dim(3);
  Kc_ = weights.dim(4);
  blocks_m_ = CeilDiv(M_, t_.Tm);
  blocks_n_ = CeilDiv(N_, t_.Tn);
  if (mask != nullptr) {
    HWP_CHECK_MSG(mask->blocks_m == blocks_m_ && mask->blocks_n == blocks_n_,
                  "block mask grid mismatch");
    mask_ = *mask;
  }

  const int64_t k_vol = Kd_ * Kr_ * Kc_;
  int32_t max_abs_w = 0;
  row_ptr_.reserve(static_cast<size_t>(blocks_m_) + 1);
  row_ptr_.push_back(0);
  for (int64_t bm = 0; bm < blocks_m_; ++bm) {
    const int64_t m0 = bm * t_.Tm;
    const int64_t tm_n = std::min(t_.Tm, M_ - m0);
    for (int64_t bn = 0; bn < blocks_n_; ++bn) {
      if (mask != nullptr && !mask->at(bm, bn)) continue;  // elided
      const int64_t n0 = bn * t_.Tn;
      const int64_t tn_n = std::min(t_.Tn, N_ - n0);
      Tile tile;
      tile.bn = static_cast<int32_t>(bn);
      tile.tn_n = static_cast<int32_t>(tn_n);
      tile.w_offset = static_cast<int64_t>(wdata_.size());
      // Layout [tn][kd][kr][kc][tm]: the executor walks (tn, kd, kr,
      // kc) outer and reads one contiguous tm-column per slot.
      wdata_.resize(wdata_.size() +
                    static_cast<size_t>(tn_n * k_vol * tm_n));
      Fixed16* w = wdata_.data() + tile.w_offset;
      for (int64_t tn = 0; tn < tn_n; ++tn)
        for (int64_t kd = 0; kd < Kd_; ++kd)
          for (int64_t kr = 0; kr < Kr_; ++kr)
            for (int64_t kc = 0; kc < Kc_; ++kc)
              for (int64_t tm = 0; tm < tm_n; ++tm) {
                *w = weights(m0 + tm, n0 + tn, kd, kr, kc);
                max_abs_w = std::max(max_abs_w, std::abs(int32_t{w->raw()}));
                ++w;
              }
      tiles_.push_back(tile);
      sum_mn_ += tm_n * tn_n;
    }
    row_ptr_.push_back(static_cast<int64_t>(tiles_.size()));
  }
  chunk_slots_ = kernels::QChunkSlots(max_abs_w);
}

TiledConvStats PackedConvLayer::ModelStats(
    const models::ConvLayerSpec& spec) const {
  const PerfModel pm(t_, p_);
  const LayerLatency lat =
      pm.LayerCycles(spec, mask_.has_value() ? &*mask_ : nullptr);
  TiledConvStats stats;
  stats.tile_iterations = lat.tile_iterations;
  stats.blocks_loaded = lat.blocks_loaded;
  stats.blocks_skipped = lat.blocks_skipped;
  stats.modeled_cycles = lat.cycles;
  stats.stall = lat.stall;
  // The simulator counts one MAC per (enabled block element, kernel
  // element, output element); spatial tiles partition D×R×C exactly, so
  // the count factorizes over the surviving-tile channel area.
  stats.macs_executed =
      sum_mn_ * Kd_ * Kr_ * Kc_ * spec.D * spec.R * spec.C;
  return stats;
}

TiledConvResult PackedConvLayer::Run(const TensorQ& input,
                                     std::array<int64_t, 3> stride,
                                     const PostOps& post,
                                     std::string_view label,
                                     ThreadPool* pool) const {
  obs::TraceScope span("exec/conv");
  if (span.active() && !label.empty()) {
    span.SetName("exec/" + std::string(label));
  }
  const models::ConvLayerSpec spec =
      CheckConvCall({M_, N_, Kd_, Kr_, Kc_}, input, stride, post);
  const auto [Sd, Sr, Sc] = stride;
  const int64_t Di = input.dim(1), Ri = input.dim(2), Ci = input.dim(3);
  const int64_t D = spec.D, R = spec.R, C = spec.C;

  // Plane walk over a polyphase view of the input (see the class
  // comment): phase planes are Rph x Cph, and output position
  // q = r·Cph + c reads offset q + (kr/Sr)·Cph + kc/Sc of phase plane
  // (kr % Sr, kc % Sc), so one unit-stride strip of (R-1)·Cph + C
  // positions covers the whole output plane. Positions with c >= C read
  // real inputs (or zero phase padding) of the same plane; they are
  // computed and dropped. Stride-1 layers are their own single phase.
  const int64_t Rph = CeilDiv(Ri, Sr), Cph = CeilDiv(Ci, Sc);
  const int64_t phase_vol = Rph * Cph;
  const int64_t plane_vol = Sr * Sc * phase_vol;  // one input depth slice
  const int64_t strip = (R - 1) * Cph + C;
  const Fixed16* in = input.data();
  if (Sr > 1 || Sc > 1) {
    thread_local kernels::ScratchBuffer<Fixed16> phase_scratch;
    Fixed16* phases =
        phase_scratch.Resize(static_cast<size_t>(N_ * Di * plane_vol));
    SplitPhases(in, N_ * Di, Ri, Ci, Sr, Sc, phases);
    in = phases;
  }

  TiledConvResult result;
  result.output = TensorQ(Shape{M_, D, R, C});
  Fixed16* out = result.output.data();

  // One task per (output-channel block, output depth): disjoint output
  // slabs, fixed inner order — bitwise identical for any thread count.
  const auto run_slab = [&](int64_t idx) {
    const int64_t bm = idx / D;
    const int64_t d = idx % D;
    const int64_t m0 = bm * t_.Tm;
    const int64_t tm_n = std::min(t_.Tm, M_ - m0);
    const Tile* row_begin = tiles_.data() + row_ptr_[bm];
    const Tile* row_end = tiles_.data() + row_ptr_[bm + 1];
    const int64_t cb_max =
        std::min(strip, std::max<int64_t>(kStripElems / tm_n, 1));

    thread_local kernels::ScratchBuffer<int32_t> partial_scratch;
    thread_local kernels::ScratchBuffer<FixedAccum> acc_scratch;
    int32_t* partial =
        partial_scratch.Resize(static_cast<size_t>(tm_n * cb_max));
    FixedAccum* acc = acc_scratch.Resize(static_cast<size_t>(tm_n * cb_max));

    // Accumulator block layout: channel-major [tm][cb], vectorized
    // over positions, unless the block is shorter than the weight
    // column (large Tm over 1-2 column planes); then position-major
    // [cb][tm], vectorized over the Tm weights.
    const bool by_position = cb_max < tm_n;
    for (int64_t p0 = 0; p0 < strip; p0 += cb_max) {
      const int64_t cb = std::min(cb_max, strip - p0);
      const int64_t tm_step = by_position ? 1 : cb;
      const int64_t pos_step = by_position ? tm_n : 1;
      std::fill_n(partial, tm_n * cb, 0);
      for (int64_t i = 0; i < tm_n * cb; ++i) acc[i].Reset();
      // Slots left before the int32 partials must fold (file comment of
      // kernels/qgemm_tile.h).
      int64_t slots_left = chunk_slots_;
      // Only surviving tiles exist in the packed row: pruned blocks cost
      // nothing here, not even a branch.
      for (const Tile* tile = row_begin; tile != row_end; ++tile) {
        const int64_t n0 = static_cast<int64_t>(tile->bn) * t_.Tn;
        const Fixed16* w_slot = wdata_.data() + tile->w_offset;
        for (int64_t tn = 0; tn < tile->tn_n; ++tn) {
          const Fixed16* in_chan = in + (n0 + tn) * Di * plane_vol + p0;
          for (int64_t kd = 0; kd < Kd_; ++kd) {
            const Fixed16* in_plane = in_chan + (d * Sd + kd) * plane_vol;
            for (int64_t kr = 0; kr < Kr_; ++kr) {
              const Fixed16* in_row =
                  in_plane + (kr % Sr) * Sc * phase_vol + (kr / Sr) * Cph;
              for (int64_t kc = 0; kc < Kc_; ++kc, w_slot += tm_n) {
                const Fixed16* src = in_row + (kc % Sc) * phase_vol + kc / Sc;
                if (by_position) {
                  kernels::QOuterMacCol32(partial, w_slot, tm_n, src, cb);
                } else {
                  kernels::QOuterMacRow32(partial, cb, w_slot, tm_n, src, cb);
                }
                if (--slots_left == 0) {
                  kernels::QFoldPartials(acc, partial, tm_n * cb);
                  slots_left = chunk_slots_;
                }
              }
            }
          }
        }
      }
      kernels::QFoldPartials(acc, partial, tm_n * cb);
      // Post-processing unit: one call per contiguous run of valid
      // positions (c < C) and output channel of the block.
      for (int64_t p = p0; p < p0 + cb;) {
        const int64_t c = p % Cph;
        if (c >= C) {
          p += Cph - c;
          continue;
        }
        // Rows abut in the output when Cph == C, so the valid run then
        // continues to the end of the block.
        const int64_t len =
            Cph == C ? p0 + cb - p : std::min(C - c, p0 + cb - p);
        const int64_t plane_off = (p / Cph) * C + c;
        for (int64_t tm = 0; tm < tm_n; ++tm) {
          const int64_t m = m0 + tm;
          const int64_t out_off = (m * D + d) * R * C + plane_off;
          kernels::QPostProcessRow(
              acc + tm * tm_step + (p - p0) * pos_step, pos_step, len,
              post.has_affine,
              post.has_affine ? post.scale[m] : Fixed16{},
              post.has_affine ? post.shift[m] : Fixed16{},
              post.shortcut != nullptr ? post.shortcut->data() + out_off
                                       : nullptr,
              post.relu, out + out_off);
        }
        p += len;
      }
    }
  };

  ThreadPool& tp = pool != nullptr ? *pool : ThreadPool::Get();
  tp.For(0, blocks_m_ * D, run_slab);

  // Timing split from compute: the cycle accounting comes from the
  // analytic model + mask counts, not from walking the loop nest.
  result.stats = ModelStats(spec);

  const TiledConvStats& s = result.stats;
  if (span.active()) {
    if (!label.empty()) span.AddArg("layer", std::string(label));
    span.AddArg("macs", s.macs_executed);
    span.AddArg("blocks_loaded", s.blocks_loaded);
    span.AddArg("blocks_skipped", s.blocks_skipped);
    span.AddArg("modeled_cycles", s.modeled_cycles);
    span.AddArg("packed_tiles", surviving_tiles());
  }
  return result;
}

}  // namespace hwp3d::fpga
