#include "serve/inference_session.h"

#include <utility>
#ifdef __GLIBC__
#include <malloc.h>  // malloc_trim
#endif

#include "common/rng.h"
#include "common/strings.h"
#include "core/admm.h"
#include "core/block_partition.h"
#include "kernels/scratch.h"
#include "nn/checkpoint.h"
#include "nn/trainer.h"
#include "obs/trace.h"

namespace hwp3d {

namespace {

// A block is considered pruned iff every one of its weights is exactly
// zero — the invariant HardPrune/ReapplyMasks maintain, so a pruned
// checkpoint round-trips to the same masks it was trained with.
core::BlockMask DeriveZeroBlockMask(const TensorF& w,
                                    const core::BlockPartition& part) {
  core::BlockMask mask = part.FullMask();
  const std::vector<double> sq_norms = part.BlockSqNorms(w);
  for (int64_t b = 0; b < mask.num_blocks(); ++b) {
    if (sq_norms[static_cast<size_t>(b)] == 0.0) mask.enabled[b] = 0;
  }
  return mask;
}

}  // namespace

// --- Builder setters --------------------------------------------------

InferenceSession::Builder& InferenceSession::Builder::ModelConfig(
    const models::TinyR2Plus1dConfig& cfg) {
  model_cfg_ = cfg;
  return *this;
}
InferenceSession::Builder& InferenceSession::Builder::DataConfig(
    const data::SyntheticVideoConfig& cfg) {
  data_cfg_ = cfg;
  return *this;
}
InferenceSession::Builder& InferenceSession::Builder::Seed(uint64_t seed) {
  seed_ = seed;
  return *this;
}
InferenceSession::Builder& InferenceSession::Builder::TrainEpochs(int epochs) {
  train_epochs_ = epochs;
  return *this;
}
InferenceSession::Builder& InferenceSession::Builder::TrainLr(float lr) {
  train_lr_ = lr;
  return *this;
}
InferenceSession::Builder& InferenceSession::Builder::TrainData(
    int batch_count, int batch_size) {
  train_batch_count_ = batch_count;
  batch_size_ = batch_size;
  return *this;
}
InferenceSession::Builder& InferenceSession::Builder::EvalData(
    int batch_count) {
  eval_batch_count_ = batch_count;
  return *this;
}
InferenceSession::Builder& InferenceSession::Builder::FromCheckpoint(
    std::string path) {
  checkpoint_ = std::move(path);
  return *this;
}
InferenceSession::Builder& InferenceSession::Builder::PruneToSparsity(
    double eta) {
  prune_ = true;
  sparsity_ = eta;
  return *this;
}
InferenceSession::Builder& InferenceSession::Builder::AdmmRhoSchedule(
    std::vector<double> rhos) {
  rho_schedule_ = std::move(rhos);
  return *this;
}
InferenceSession::Builder& InferenceSession::Builder::AdmmEpochsPerRound(
    int epochs) {
  admm_epochs_per_round_ = epochs;
  return *this;
}
InferenceSession::Builder& InferenceSession::Builder::RetrainEpochs(
    int epochs) {
  retrain_epochs_ = epochs;
  return *this;
}
InferenceSession::Builder& InferenceSession::Builder::UseZeroBlockMasks(
    bool enable) {
  zero_block_masks_ = enable;
  return *this;
}
InferenceSession::Builder& InferenceSession::Builder::Tiling(
    const fpga::Tiling& tiling) {
  tiling_ = tiling;
  return *this;
}
InferenceSession::Builder& InferenceSession::Builder::Ports(
    const fpga::Ports& ports) {
  ports_ = ports;
  return *this;
}
InferenceSession::Builder& InferenceSession::Builder::Executor(
    fpga::ExecMode mode) {
  executor_ = mode;
  return *this;
}
InferenceSession::Builder& InferenceSession::Builder::Replicas(int n) {
  server_.replicas = n;
  return *this;
}
InferenceSession::Builder& InferenceSession::Builder::MaxBatch(int n) {
  server_.max_batch = n;
  return *this;
}
InferenceSession::Builder& InferenceSession::Builder::MaxDelayUs(int64_t us) {
  server_.max_delay_us = us;
  return *this;
}
InferenceSession::Builder& InferenceSession::Builder::QueueCapacity(size_t n) {
  server_.queue_capacity = n;
  return *this;
}
InferenceSession::Builder& InferenceSession::Builder::DefaultDeadlineUs(
    int64_t us) {
  server_.default_deadline_us = us;
  return *this;
}
InferenceSession::Builder& InferenceSession::Builder::Retry(
    const RetryConfig& retry) {
  server_.retry = retry;
  return *this;
}
InferenceSession::Builder& InferenceSession::Builder::QuarantineAfter(int k) {
  server_.quarantine_after = k;
  return *this;
}
InferenceSession::Builder& InferenceSession::Builder::WatchdogTimeoutUs(
    int64_t us) {
  server_.watchdog_timeout_us = us;
  return *this;
}

// --- Build ------------------------------------------------------------

StatusOr<std::unique_ptr<InferenceSession>>
InferenceSession::Builder::Build() {
  HWP_TRACE_SCOPE("session/build");

  if (server_.replicas < 1) {
    return InvalidArgumentError(
        StrFormat("Replicas(%d): need at least 1", server_.replicas));
  }
  if (server_.max_batch < 1) {
    return InvalidArgumentError(
        StrFormat("MaxBatch(%d): need at least 1", server_.max_batch));
  }
  if (server_.queue_capacity < 1) {
    return InvalidArgumentError("QueueCapacity(0): need at least 1");
  }
  if (server_.max_delay_us < 0) {
    return InvalidArgumentError(StrFormat(
        "MaxDelayUs(%lld): must be >= 0 (0 = flush every request "
        "immediately)",
        static_cast<long long>(server_.max_delay_us)));
  }
  if (server_.quarantine_after < 1) {
    return InvalidArgumentError(StrFormat(
        "QuarantineAfter(%d): need at least 1", server_.quarantine_after));
  }
  if (server_.retry.max_attempts < 1) {
    return InvalidArgumentError(StrFormat(
        "Retry: max_attempts (%d) must be >= 1", server_.retry.max_attempts));
  }
  if (server_.watchdog_timeout_us < 0) {
    return InvalidArgumentError(StrFormat(
        "WatchdogTimeoutUs(%lld): must be >= 0 (0 disables the watchdog)",
        static_cast<long long>(server_.watchdog_timeout_us)));
  }
  if (checkpoint_.empty() && train_epochs_ < 1) {
    return InvalidArgumentError(
        "no weight source: set TrainEpochs(>= 1) to train from scratch "
        "or FromCheckpoint(path) to load saved weights");
  }
  if (prune_) {
    if (!(sparsity_ >= 0.0 && sparsity_ < 1.0)) {
      return InvalidArgumentError(StrFormat(
          "PruneToSparsity(%g): block sparsity must lie in [0, 1)",
          sparsity_));
    }
    if (rho_schedule_.empty()) {
      return InvalidArgumentError(
          "AdmmRhoSchedule: need at least one rho round");
    }
    if (zero_block_masks_) {
      return InvalidArgumentError(
          "PruneToSparsity and UseZeroBlockMasks are mutually exclusive "
          "mask sources; pick one");
    }
  }

  auto session = std::unique_ptr<InferenceSession>(new InferenceSession());
  session->data_cfg_ = data_cfg_;

  Rng rng(seed_);
  models::TinyR2Plus1dConfig mcfg = model_cfg_;
  // The facade owns consistency between the data and the model heads.
  mcfg.in_channels = data_cfg_.channels;
  mcfg.num_classes = data_cfg_.num_classes;
  session->model_ = std::make_unique<models::TinyR2Plus1d>(mcfg, rng);
  models::TinyR2Plus1d& model = *session->model_;

  data::SyntheticVideoDataset dataset(data_cfg_);
  std::vector<nn::Batch> train;
  const bool needs_train_data = checkpoint_.empty() || prune_;
  if (needs_train_data) {
    train = dataset.MakeBatches(train_batch_count_, batch_size_, rng);
  }
  if (eval_batch_count_ > 0) {
    session->eval_batches_ =
        dataset.MakeBatches(eval_batch_count_, batch_size_, rng);
  }

  // 1. Weights: load or pretrain.
  if (!checkpoint_.empty()) {
    HWP_RETURN_IF_ERROR(nn::LoadCheckpoint(checkpoint_, model));
  } else {
    HWP_TRACE_SCOPE("session/pretrain");
    nn::Sgd opt(model.Params(),
                {.lr = train_lr_, .momentum = 0.9f, .weight_decay = 0.0f});
    for (int e = 0; e < train_epochs_; ++e) {
      nn::TrainEpoch(model, opt, train, {});
    }
  }

  // 2. Masks: ADMM pipeline, zero-block recovery, or dense.
  if (prune_) {
    HWP_TRACE_SCOPE("session/prune");
    const core::BlockConfig block = tiling_.block();
    std::vector<core::PruneLayerSpec> specs;
    for (nn::Conv3d* c : model.PrunableConvs()) {
      specs.push_back({&c->weight(), block, sparsity_, c->name()});
    }
    core::AdmmConfig admm_cfg;
    admm_cfg.rho_schedule = rho_schedule_;
    core::AdmmPruner pruner(specs, admm_cfg);
    core::PipelineConfig pcfg;
    pcfg.admm = admm_cfg;
    pcfg.epochs_per_round = admm_epochs_per_round_;
    pcfg.retrain_epochs = retrain_epochs_;
    // Same lr ratio the tuned examples use (pretrain 0.05 -> ADMM 0.02).
    pcfg.admm_lr = 0.4f * train_lr_;
    pcfg.retrain_lr = 0.4f * train_lr_;
    session->prune_result_ = std::make_unique<core::PipelineResult>(
        core::RunAdmmPipeline(model, pruner, train, session->eval_batches_,
                              pcfg));
    session->masks_ = pruner.masks();
  } else if (zero_block_masks_) {
    const core::BlockConfig block = tiling_.block();
    for (nn::Conv3d* c : model.PrunableConvs()) {
      const core::BlockPartition part(c->weight().value.shape(), block);
      session->masks_.push_back(DeriveZeroBlockMask(c->weight().value, part));
    }
  }

  // Training is over: free the conv-engine scratch every pool thread
  // grew, so serving starts from its own, much smaller working set, and
  // hand the freed pages back: glibc keeps them in the per-thread
  // arenas the pool workers allocated from, which are not trimmed on
  // free.
  kernels::ReleaseIdleScratch();
#ifdef __GLIBC__
  malloc_trim(0);
#endif

  // 3. Compile onto the fixed-point accelerator.
  fpga::CompiledModelOptions copts;
  copts.tiling = tiling_;
  copts.ports = ports_;
  copts.masks = session->masks_;
  copts.executor = executor_;
  StatusOr<fpga::CompiledTinyR2Plus1d> compiled =
      fpga::CompiledTinyR2Plus1d::Compile(model, std::move(copts));
  if (!compiled.ok()) return compiled.status();

  // 4. Serve.
  session->server_ = std::make_unique<serve::InferenceServer>(
      std::make_shared<const fpga::CompiledTinyR2Plus1d>(
          std::move(compiled).value()),
      server_);
  return StatusOr<std::unique_ptr<InferenceSession>>(std::move(session));
}

// --- Session ----------------------------------------------------------

InferenceSession::~InferenceSession() {
  if (server_) server_->Shutdown();
}

StatusOr<serve::InferenceResult> InferenceSession::Submit(
    const TensorF& clip, int64_t deadline_us) {
  return server_->Submit(clip, deadline_us);
}

std::future<StatusOr<serve::InferenceResult>> InferenceSession::SubmitAsync(
    TensorF clip, int64_t deadline_us) {
  return server_->SubmitAsync(std::move(clip), deadline_us);
}

serve::ServerStats InferenceSession::Stats() const {
  return server_->Stats();
}

Status InferenceSession::Drain() {
  server_->Shutdown();
  return Status::Ok();
}

TensorF InferenceSession::HostLogits(const TensorF& clip) {
  // Forward wants a [B][C][D][H][W] batch; wrap the clip as B = 1.
  std::vector<int64_t> dims{1};
  for (int d = 0; d < clip.rank(); ++d) dims.push_back(clip.dim(d));
  TensorF batched{Shape(std::move(dims))};
  for (int64_t i = 0; i < clip.numel(); ++i) batched[i] = clip[i];
  const TensorF logits = model_->Forward(batched, /*train=*/false);
  TensorF out(Shape{logits.dim(1)});
  for (int64_t k = 0; k < logits.dim(1); ++k) out[k] = logits(0, k);
  return out;
}

Status InferenceSession::SaveCheckpoint(const std::string& path) const {
  return nn::SaveCheckpoint(path, *model_);
}

}  // namespace hwp3d
