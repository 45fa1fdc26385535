#include "fpga/model_compiler.h"

#include <algorithm>

#include "common/error.h"
#include "common/strings.h"
#include "obs/trace.h"

namespace hwp3d::fpga {

namespace {

// Quantizes a folded BN (or identity) into Q7.8 post-op parameters.
PostOps FoldBn(nn::BatchNorm3d* bn, bool relu) {
  PostOps post;
  post.relu = relu;
  if (bn != nullptr) {
    TensorF scale, shift;
    bn->FoldedAffine(scale, shift);
    post.has_affine = true;
    post.scale = Quantize(scale);
    post.shift = Quantize(shift);
  }
  return post;
}

}  // namespace

StatusOr<CompiledTinyR2Plus1d> CompiledTinyR2Plus1d::Compile(
    models::TinyR2Plus1d& model, CompiledModelOptions options) {
  const auto prunable = model.PrunableConvs();
  if (!options.masks.empty() && options.masks.size() != prunable.size()) {
    return InvalidArgumentError(StrFormat(
        "mask count %zu does not match the %zu prunable convs of '%s'; "
        "pass one mask per PrunableConvs() entry or none for dense "
        "execution",
        options.masks.size(), prunable.size(), model.name().c_str()));
  }
  for (size_t i = 0; i < options.masks.size(); ++i) {
    core::BlockPartition part(prunable[i]->weight().value.shape(),
                              options.tiling.block());
    const core::BlockMask& mask = options.masks[i];
    if (mask.blocks_m != part.blocks_m() || mask.blocks_n != part.blocks_n()) {
      return InvalidArgumentError(StrFormat(
          "%s: mask grid %lldx%lld does not match the %lldx%lld block "
          "grid induced by tiling %s — re-run pruning with block size "
          "(Tm=%lld, Tn=%lld) or change the tiling",
          prunable[i]->name().c_str(), (long long)mask.blocks_m,
          (long long)mask.blocks_n, (long long)part.blocks_m(),
          (long long)part.blocks_n(),
          options.tiling.ToString().c_str(), (long long)options.tiling.Tm,
          (long long)options.tiling.Tn));
    }
  }

  CompiledTinyR2Plus1d compiled(options.executor, options.tiling,
                                options.ports);
  std::vector<Stage>& plan = compiled.plan_;
  // Appends one engine call on activation `input` and returns the index
  // of its output activation.
  const auto add = [&](nn::Conv3d& conv, nn::BatchNorm3d* bn, bool relu,
                       int input, int shortcut = -1) {
    Stage stage;
    stage.name = conv.name();
    stage.weights = Quantize(conv.weight().value);
    stage.stride = conv.config().stride;
    stage.padding = conv.config().padding;
    stage.post = FoldBn(bn, relu);
    stage.input = input;
    stage.shortcut = shortcut;
    // Only PrunableConvs() carry masks; the stem and the projection
    // shortcuts run dense.
    const auto it = std::find(prunable.begin(), prunable.end(), &conv);
    const core::BlockMask* mask =
        options.masks.empty() || it == prunable.end()
            ? nullptr
            : &options.masks[static_cast<size_t>(it - prunable.begin())];
    if (options.executor == ExecMode::kFast) {
      stage.packed.emplace(stage.weights, options.tiling, options.ports,
                           mask);
    } else if (mask != nullptr) {
      stage.mask = *mask;
    }
    plan.push_back(std::move(stage));
    return static_cast<int>(plan.size());
  };
  // One (2+1)D pair: spatial (BN-mid + ReLU folded) then temporal.
  const auto add_pair = [&](nn::Conv2Plus1d& pair, nn::BatchNorm3d& bn,
                            int input, int shortcut = -1) {
    const int mid = add(pair.spatial(), &pair.bn_mid(), true, input);
    return add(pair.temporal(), &bn, true, mid, shortcut);
  };
  try {
    int x = add_pair(model.stem(), model.stem_bn(), 0);
    for (nn::ResidualBlock* rb : {&model.stage1(), &model.stage2()}) {
      const int shortcut =
          rb->has_projection()
              ? add(*rb->shortcut_conv(), rb->shortcut_bn(), false, x)
              : x;
      const int h = add_pair(rb->conv1(), rb->bn1(), x);
      // bn2's affine is applied before the shortcut add + final ReLU.
      x = add_pair(rb->conv2(), rb->bn2(), h, shortcut);
    }
  } catch (const Error& e) {
    // Anything the validation above missed is a library bug, but
    // surface it as a Status rather than tearing the server down.
    return InternalError(StrFormat("model compilation failed: %s", e.what()));
  }
  compiled.fc_weight_ = model.fc().weight().value;
  compiled.fc_bias_ = model.fc().bias().value;
  return compiled;
}

TensorF CompiledTinyR2Plus1d::Infer(const TensorF& clip,
                                    CompiledRunStats* stats) const {
  HWP_TRACE_SCOPE("compiled/Infer");
  HWP_SHAPE_CHECK_MSG(clip.rank() == 4,
                      "Infer expects a [C][D][H][W] clip, got "
                          << clip.shape().ToString());
  std::vector<TensorQ> acts;
  acts.reserve(plan_.size() + 1);
  acts.push_back(Quantize(clip));
  for (const Stage& stage : plan_) {
    // Unpadded stages (1x1x1 shortcuts) read the activation in place.
    const bool pad = stage.padding != std::array<int64_t, 3>{0, 0, 0};
    const TensorQ padded =
        pad ? PadInput(acts[stage.input], stage.padding) : TensorQ();
    const TensorQ& stage_in = pad ? padded : acts[stage.input];
    PostOps post = stage.post;
    post.shortcut = stage.shortcut >= 0 ? &acts[stage.shortcut] : nullptr;
    TiledConvResult r =
        stage.packed.has_value()
            ? stage.packed->Run(stage_in, stage.stride, post, stage.name)
            : sim_.Run(stage.weights, stage_in, stage.stride,
                       stage.mask.has_value() ? &*stage.mask : nullptr, post,
                       stage.name);
    if (stats != nullptr) {
      stats->modeled_cycles += r.stats.modeled_cycles;
      stats->blocks_loaded += r.stats.blocks_loaded;
      stats->blocks_skipped += r.stats.blocks_skipped;
      stats->macs_executed += r.stats.macs_executed;
    }
    acts.push_back(std::move(r.output));
  }
  const TensorQ& x = acts.back();

  // Host side: global average pool + FC, in float (as in the paper the
  // FC layer contributes negligibly and runs on the PS).
  const int64_t C = x.dim(0);
  const int64_t vol = x.dim(1) * x.dim(2) * x.dim(3);
  TensorF pooled(Shape{C});
  for (int64_t c = 0; c < C; ++c) {
    double acc = 0.0;
    for (int64_t i = 0; i < vol; ++i) acc += x[c * vol + i].ToFloat();
    pooled[c] = static_cast<float>(acc / static_cast<double>(vol));
  }
  const int64_t K = fc_weight_.dim(0);
  TensorF logits(Shape{K});
  for (int64_t k = 0; k < K; ++k) {
    double acc = fc_bias_[k];
    for (int64_t c = 0; c < C; ++c) acc += fc_weight_(k, c) * pooled[c];
    logits[k] = static_cast<float>(acc);
  }
  return logits;
}

int CompiledTinyR2Plus1d::Classify(const TensorF& clip,
                                   CompiledRunStats* stats) const {
  const TensorF logits = Infer(clip, stats);
  int best = 0;
  for (int64_t k = 1; k < logits.numel(); ++k) {
    if (logits[k] > logits[best]) best = static_cast<int>(k);
  }
  return best;
}

}  // namespace hwp3d::fpga
