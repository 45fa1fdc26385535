// Serve-layer behavior: queue batching (flush at max_batch and at
// max_delay), admission-control backpressure, deadline expiry, graceful
// drain, and the bitwise replica-count invariance the server promises.
// Tests assert counts/statuses, never timing upper bounds (CI hosts are
// slow and single-core).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <future>
#include <type_traits>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "data/synthetic_video.h"
#include "fpga/model_compiler.h"
#include "models/tiny_r2plus1d.h"
#include "nn/trainer.h"
#include "obs/trace.h"
#include "serve/inference_session.h"
#include "serve/latency_histogram.h"
#include "serve/request_queue.h"
#include "serve/server.h"
#include "tensor/tensor_ops.h"

namespace hwp3d {
namespace {

using serve::InferenceResult;
using serve::Request;
using serve::RequestQueue;

Request MakeRequest() {
  Request req;
  req.clip = TensorF(Shape{1});
  req.enqueue_us = obs::NowUs();
  return req;
}

// --- RequestQueue -----------------------------------------------------

TEST(RequestQueueTest, FlushesImmediatelyAtMaxBatch) {
  RequestQueue q(16);
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(q.Push(MakeRequest()).ok());
  // max_delay is far in the future; only the size trigger can flush.
  const auto batch = q.PopBatch(/*max_batch=*/4, /*max_delay_us=*/60'000'000);
  EXPECT_EQ(batch.size(), 4u);
  EXPECT_EQ(q.size(), 0u);
}

TEST(RequestQueueTest, FlushesPartialBatchAfterMaxDelay) {
  RequestQueue q(16);
  ASSERT_TRUE(q.Push(MakeRequest()).ok());
  const double start_us = obs::NowUs();
  const auto batch = q.PopBatch(/*max_batch=*/8, /*max_delay_us=*/5'000);
  EXPECT_EQ(batch.size(), 1u);
  // The flush timer is anchored to the enqueue time, so at least
  // max_delay_us must have passed since then (lower bound only).
  EXPECT_GE(obs::NowUs() - batch[0].enqueue_us, 5'000.0);
  (void)start_us;
}

TEST(RequestQueueTest, RejectsWhenFullAndAfterClose) {
  RequestQueue q(2);
  ASSERT_TRUE(q.Push(MakeRequest()).ok());
  ASSERT_TRUE(q.Push(MakeRequest()).ok());
  EXPECT_EQ(q.Push(MakeRequest()).code(), StatusCode::kResourceExhausted);

  q.Close();
  EXPECT_EQ(q.Push(MakeRequest()).code(), StatusCode::kUnavailable);

  // Closed but not drained: consumers still receive the backlog...
  EXPECT_EQ(q.PopBatch(8, 1'000'000).size(), 2u);
  // ...and then the empty shutdown signal.
  EXPECT_TRUE(q.PopBatch(8, 1'000'000).empty());
}

// The server's latency record: 1e5 observations in a fixed-size
// histogram, percentiles within the stated relative error of the exact
// sorted-sample percentiles.
TEST(LatencyHistogramTest, ConstantMemoryAndBoundedError) {
  // A fixed array of counters, no heap: memory cannot grow with the
  // number of recorded requests.
  static_assert(std::is_trivially_copyable_v<serve::LatencyHistogram>);
  static_assert(sizeof(serve::LatencyHistogram) <= 16 * 1024);

  serve::LatencyHistogram hist;
  EXPECT_EQ(hist.Percentile(0.5), 0.0);
  Rng rng(77);
  std::vector<double> exact;
  constexpr int kObservations = 100000;
  exact.reserve(kObservations);
  for (int i = 0; i < kObservations; ++i) {
    // Log-normal around ~1 ms with a long tail up to seconds.
    const double us = std::exp(rng.Normal(std::log(1000.0), 1.2)) + 1.0;
    exact.push_back(us);
    hist.Record(us);
  }
  EXPECT_EQ(hist.count(), kObservations);
  std::sort(exact.begin(), exact.end());
  for (const double q : {0.0, 0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 0.999, 1.0}) {
    const double pos = q * static_cast<double>(exact.size() - 1);
    const size_t lo = static_cast<size_t>(pos);
    const size_t hi = std::min(lo + 1, exact.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    const double want = exact[lo] * (1.0 - frac) + exact[hi] * frac;
    EXPECT_LE(std::abs(hist.Percentile(q) - want),
              serve::LatencyHistogram::kMaxRelativeError * want)
        << "q=" << q;
  }
}

TEST(RequestQueueTest, NearFlushWaitDoesNotBusySpin) {
  // Regression: with sub-microsecond time left before the flush point,
  // the wait used to truncate to wait_for(0) and busy-spin the CPU
  // until the deadline passed. The wait must always ceil to >= 1 us, so
  // the pop needs only a handful of wakeups, not thousands.
  RequestQueue q(16);
  Request req = MakeRequest();
  req.enqueue_us = obs::NowUs() - 0.6;  // flush lands 0.4 us away at 1 us delay
  ASSERT_TRUE(q.Push(std::move(req)).ok());
  const auto batch = q.PopBatch(/*max_batch=*/8, /*max_delay_us=*/1);
  EXPECT_EQ(batch.size(), 1u);
  EXPECT_LE(q.pop_wait_iterations(), 64);
}

// --- InferenceServer over a compiled model ----------------------------

class ServeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SetLogLevel(LogLevel::Warning);
    models::TinyR2Plus1dConfig mcfg;
    mcfg.num_classes = 4;
    mcfg.stem_channels = 4;
    mcfg.stage1_channels = 8;
    mcfg.stage2_channels = 8;
    model_ = std::make_unique<models::TinyR2Plus1d>(mcfg, rng_);
    data::SyntheticVideoConfig dcfg;
    dcfg.num_classes = 4;
    dcfg.frames = 6;
    dcfg.height = 10;
    dcfg.width = 10;
    dataset_ = std::make_unique<data::SyntheticVideoDataset>(dcfg);
    auto batches = dataset_->MakeBatches(8, 8, rng_);
    nn::Sgd opt(model_->Params(),
                {.lr = 0.02f, .momentum = 0.9f, .weight_decay = 0.0f});
    nn::TrainEpoch(*model_, opt, batches, {});

    fpga::CompiledModelOptions copts;
    copts.tiling = fpga::Tiling{4, 4, 2, 5, 5};
    auto compiled = fpga::CompiledTinyR2Plus1d::Compile(*model_, copts);
    ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
    compiled_ = std::make_shared<const fpga::CompiledTinyR2Plus1d>(
        std::move(compiled).value());
  }
  void TearDown() override { SetLogLevel(LogLevel::Info); }

  TensorF MakeClip(int label, uint64_t seed) {
    Rng rng(seed);
    return dataset_->MakeSample(label, rng).clip;
  }

  Rng rng_{11};
  std::unique_ptr<models::TinyR2Plus1d> model_;
  std::unique_ptr<data::SyntheticVideoDataset> dataset_;
  std::shared_ptr<const fpga::CompiledTinyR2Plus1d> compiled_;
};

TEST_F(ServeTest, FullBatchRunsAsOneDispatch) {
  serve::ServerConfig cfg;
  cfg.replicas = 2;
  cfg.max_batch = 4;
  cfg.max_delay_us = 60'000'000;  // only the size trigger can flush
  serve::InferenceServer server(compiled_, cfg);
  std::vector<std::future<StatusOr<InferenceResult>>> futures;
  for (int i = 0; i < 4; ++i) {
    futures.push_back(server.SubmitAsync(MakeClip(i % 4, 100 + i)));
  }
  for (auto& f : futures) {
    auto r = f.get();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->batch_size, 4);
  }
  const auto stats = server.Stats();
  EXPECT_EQ(stats.completed, 4);
  EXPECT_EQ(stats.batches, 1);
}

TEST_F(ServeTest, LoneRequestFlushesAfterMaxDelay) {
  serve::ServerConfig cfg;
  cfg.replicas = 1;
  cfg.max_batch = 64;
  cfg.max_delay_us = 2'000;
  serve::InferenceServer server(compiled_, cfg);
  auto r = server.Submit(MakeClip(0, 7));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->batch_size, 1);
  EXPECT_GE(r->queue_us, 2'000.0);  // sat out the full flush delay
}

TEST_F(ServeTest, BackpressureRejectsBeyondQueueCapacity) {
  serve::ServerConfig cfg;
  cfg.replicas = 1;
  cfg.max_batch = 64;           // the size trigger can't fire
  cfg.max_delay_us = 500'000;   // and the delay trigger not for 500 ms
  cfg.queue_capacity = 4;
  serve::InferenceServer server(compiled_, cfg);
  std::vector<std::future<StatusOr<InferenceResult>>> futures;
  for (int i = 0; i < 5; ++i) {
    futures.push_back(server.SubmitAsync(MakeClip(0, 10 + i)));
  }
  // The 5th submit found the queue at capacity: rejected immediately,
  // not blocked.
  auto rejected = futures[4].get();
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kResourceExhausted);
  server.Shutdown();  // drains the 4 accepted requests
  for (int i = 0; i < 4; ++i) {
    auto r = futures[i].get();
    EXPECT_TRUE(r.ok()) << r.status().ToString();
  }
  const auto stats = server.Stats();
  EXPECT_EQ(stats.accepted, 4);
  EXPECT_EQ(stats.rejected, 1);
  EXPECT_EQ(stats.completed, 4);
}

TEST_F(ServeTest, ExpiredDeadlineSkipsInference) {
  serve::ServerConfig cfg;
  cfg.replicas = 1;
  cfg.max_batch = 8;
  cfg.max_delay_us = 50'000;  // the request waits 50 ms in the queue
  serve::InferenceServer server(compiled_, cfg);
  auto r = server.Submit(MakeClip(1, 3), /*deadline_us=*/1);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(server.Stats().deadline_exceeded, 1);
  EXPECT_EQ(server.Stats().completed, 0);
}

TEST_F(ServeTest, ShutdownDrainsAllAcceptedRequests) {
  serve::ServerConfig cfg;
  cfg.replicas = 2;
  cfg.max_batch = 4;
  cfg.max_delay_us = 60'000'000;
  cfg.queue_capacity = 16;
  serve::InferenceServer server(compiled_, cfg);
  std::vector<std::future<StatusOr<InferenceResult>>> futures;
  for (int i = 0; i < 6; ++i) {  // 6 < max_batch*2: one partial batch
    futures.push_back(server.SubmitAsync(MakeClip(i % 4, 40 + i)));
  }
  server.Shutdown();  // must flush the backlog, not abandon it
  int ok = 0;
  for (auto& f : futures) ok += f.get().ok();
  EXPECT_EQ(ok, 6);
  EXPECT_EQ(server.Stats().completed, 6);

  // After shutdown the server refuses new work.
  auto late = server.Submit(MakeClip(0, 99));
  ASSERT_FALSE(late.ok());
  EXPECT_EQ(late.status().code(), StatusCode::kUnavailable);
}

TEST_F(ServeTest, MalformedClipFailsOnlyThatRequest) {
  serve::ServerConfig cfg;
  cfg.replicas = 1;
  cfg.max_batch = 2;
  // Malformed clips never reach the queue, so the good one flushes on
  // the timer.
  cfg.max_delay_us = 1'000;
  serve::InferenceServer server(compiled_, cfg);
  auto bad = server.SubmitAsync(TensorF(Shape{1, 6, 10}));  // rank 3
  auto wrong_channels = server.SubmitAsync(TensorF(Shape{3, 6, 10, 10}));
  auto good = server.SubmitAsync(MakeClip(2, 5));
  for (auto* f : {&bad, &wrong_channels}) {
    auto r = f->get();
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  }
  auto good_r = good.get();
  EXPECT_TRUE(good_r.ok()) << good_r.status().ToString();
  // Malformed clips are turned away at admission: they never take a
  // queue slot.
  const auto stats = server.Stats();
  EXPECT_EQ(stats.accepted, 1);
  EXPECT_EQ(stats.rejected, 2);
  EXPECT_EQ(stats.completed, 1);
}

TEST_F(ServeTest, PredictionsInvariantAcrossReplicaCounts) {
  std::vector<TensorF> clips;
  for (int i = 0; i < 6; ++i) clips.push_back(MakeClip(i % 4, 60 + i));

  // Ground truth: the compiled model called directly.
  std::vector<TensorF> direct;
  for (const TensorF& clip : clips) direct.push_back(compiled_->Infer(clip));

  for (int replicas : {1, 4}) {
    serve::ServerConfig cfg;
    cfg.replicas = replicas;
    cfg.max_batch = 3;
    cfg.max_delay_us = 1'000;
    serve::InferenceServer server(compiled_, cfg);
    std::vector<std::future<StatusOr<InferenceResult>>> futures;
    for (const TensorF& clip : clips) {
      futures.push_back(server.SubmitAsync(clip));
    }
    for (size_t i = 0; i < futures.size(); ++i) {
      auto r = futures[i].get();
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      // Bitwise identical to the direct path, whatever the replica.
      EXPECT_TRUE(AllClose(r->logits, direct[i], 0.0f, 0.0f))
          << "replicas=" << replicas << " clip " << i;
    }
  }
}

// --- InferenceSession facade ------------------------------------------

std::string TempPath(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

data::SyntheticVideoConfig SmallDataConfig() {
  data::SyntheticVideoConfig dcfg;
  dcfg.num_classes = 4;
  dcfg.frames = 6;
  dcfg.height = 10;
  dcfg.width = 10;
  return dcfg;
}

InferenceSession::Builder SmallSessionBuilder() {
  return InferenceSession::Builder()
      .DataConfig(SmallDataConfig())
      .Seed(5)
      .TrainEpochs(1)
      .TrainData(4, 4)
      .EvalData(2)
      .Tiling(fpga::Tiling{4, 4, 2, 5, 5})
      .MaxDelayUs(1'000);
}

TEST(InferenceSessionTest, BuilderRejectsBadConfigs) {
  auto no_weights = SmallSessionBuilder().TrainEpochs(0).Build();
  ASSERT_FALSE(no_weights.ok());
  EXPECT_EQ(no_weights.status().code(), StatusCode::kInvalidArgument);

  auto zero_replicas = SmallSessionBuilder().Replicas(0).Build();
  ASSERT_FALSE(zero_replicas.ok());
  EXPECT_EQ(zero_replicas.status().code(), StatusCode::kInvalidArgument);

  auto bad_sparsity = SmallSessionBuilder().PruneToSparsity(1.5).Build();
  ASSERT_FALSE(bad_sparsity.ok());
  EXPECT_EQ(bad_sparsity.status().code(), StatusCode::kInvalidArgument);
}

TEST(InferenceSessionTest, FromMissingCheckpointIsNotFound) {
  auto session =
      SmallSessionBuilder().FromCheckpoint("/no/such/ckpt.bin").Build();
  ASSERT_FALSE(session.ok());
  EXPECT_EQ(session.status().code(), StatusCode::kNotFound);
}

TEST(InferenceSessionTest, CheckpointRoundTripServesIdenticalModel) {
  auto first = SmallSessionBuilder().Replicas(2).Build();
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  InferenceSession& session = **first;
  ASSERT_FALSE(session.eval_batches().empty());

  // Slice one eval clip out of the first batch.
  const nn::Batch& batch = session.eval_batches()[0];
  const data::SyntheticVideoConfig dcfg = session.data_config();
  TensorF clip(Shape{dcfg.channels, dcfg.frames, dcfg.height, dcfg.width});
  for (int64_t i = 0; i < clip.numel(); ++i) clip[i] = batch.clips[i];

  auto direct = session.Submit(clip);
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();

  const std::string path = TempPath("session_roundtrip.ckpt");
  ASSERT_TRUE(session.SaveCheckpoint(path).ok());
  // Reload via the checkpoint (no retraining) with zero-block mask
  // recovery: a dense model yields all-enabled masks, so the logits
  // must be bitwise identical to the first session's.
  auto second = SmallSessionBuilder()
                    .FromCheckpoint(path)
                    .UseZeroBlockMasks()
                    .EvalData(0)
                    .Build();
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  auto reloaded = (*second)->Submit(clip);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  EXPECT_TRUE(AllClose(reloaded->logits, direct->logits, 0.0f, 0.0f));
  EXPECT_EQ(reloaded->label, direct->label);

  ASSERT_TRUE(session.Drain().ok());
  EXPECT_GE(session.Stats().completed, 1);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace hwp3d
