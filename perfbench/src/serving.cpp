#include "serving.h"

#include <algorithm>
#include <chrono>
#include <deque>
#include <future>
#include <stdexcept>
#include <thread>

#include "data/synthetic_video.h"
#include "obs/trace.h"
#include "sysstat.h"

namespace perfbench {

namespace {

// Pool of distinct clips, cycled by both loops (16 per class).
constexpr int kPoolClips = 64;
// Closed loop: requests per round; rounds are whole passes over the
// pool and the unit of the per-window statistics.
constexpr int kRound = 4 * kPoolClips;

// The InferenceSession default data config, spelled out so the clip
// pool and the session agree on it.
hwp3d::data::SyntheticVideoConfig DataConfig() {
  return {.num_classes = 4, .frames = 6, .height = 10, .width = 10};
}

using Future = std::future<hwp3d::StatusOr<hwp3d::serve::InferenceResult>>;

}  // namespace

ServeBench::ServeBench(uint64_t seed)
    : seed_(seed), repeats_(static_cast<size_t>(kPoolClips)) {
  const hwp3d::data::SyntheticVideoDataset dataset(DataConfig());
  hwp3d::Rng rng(seed ^ 0xc2b2ae3d27d4eb4fULL);
  for (int i = 0; i < kPoolClips; ++i) {
    const int label = i % DataConfig().num_classes;
    clips_.push_back(dataset.MakeSample(label, rng).clip);
    labels_.push_back(label);
  }
}

double ServeBench::Build() {
  session_.reset();  // one session (and its threads) at a time
  const auto t0 = std::chrono::steady_clock::now();
  auto built = hwp3d::InferenceSession::Builder()
                   .DataConfig(DataConfig())
                   .Seed(seed_)
                   .PruneToSparsity(0.5)
                   .Executor(hwp3d::fpga::ExecMode::kFast)
                   .Replicas(2)
                   .MaxBatch(8)
                   .MaxDelayUs(2000)
                   // Deep enough that the open loop never sheds a request:
                   // the benchmark measures queueing, not admission control.
                   .QueueCapacity(4096)
                   .Build();
  if (!built.ok()) {
    throw std::runtime_error("session build failed: " +
                             built.status().ToString());
  }
  session_ = std::move(*built);
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

void ServeBench::ComputeHostArgmax() {
  host_argmax_.clear();
  for (const hwp3d::TensorF& clip : clips_) {
    const hwp3d::TensorF logits = session_->HostLogits(clip);
    host_argmax_.push_back(Argmax(logits.vec()));
  }
}

void ServeBench::Record(ServedRequest& r,
                        hwp3d::StatusOr<hwp3d::serve::InferenceResult> result) {
  if (!result.ok()) return;
  r.ok = true;
  r.queue_us = result->queue_us;
  r.total_us = result->total_us;
  r.stats = result->stats;
  r.logits = result->logits.vec();
}

void ServeBench::WarmUp(int n) {
  std::deque<Future> inflight;
  for (int i = 0; i < n; ++i) {
    inflight.push_back(session_->SubmitAsync(clips_[i % clips_.size()]));
    if (inflight.size() >= 8) {
      (void)inflight.front().get();
      inflight.pop_front();
    }
  }
  for (Future& f : inflight) (void)f.get();
}

ServePhase ServeBench::RunPoisson(double rate, double seconds, uint64_t seed) {
  using Clock = std::chrono::steady_clock;
  const int64_t n = std::max<int64_t>(1, std::llround(rate * seconds));
  // n arrivals of a Poisson process conditioned on n arrivals in the
  // window: sorted uniform times. The offered rate is exactly n/seconds
  // on every seed.
  hwp3d::Rng rng(seed ^ 0x165667b19e3779f9ULL);
  std::vector<double> offsets_us(static_cast<size_t>(n));
  for (double& t : offsets_us) t = rng.Uniform(0.0, seconds * 1e6);
  std::sort(offsets_us.begin(), offsets_us.end());

  ServePhase phase;
  phase.requests.resize(static_cast<size_t>(n));
  std::vector<Future> futures;
  futures.reserve(static_cast<size_t>(n));
  phase.before = session_->Stats();
  const ProcSample p0 = SampleProc();
  const Clock::time_point base_tp = Clock::now();
  const double base_us = hwp3d::obs::NowUs();
  phase.start_us = base_us;
  for (int64_t i = 0; i < n; ++i) {
    ServedRequest& r = phase.requests[static_cast<size_t>(i)];
    r.clip = static_cast<size_t>(i) % clips_.size();
    r.scheduled_us = base_us + offsets_us[static_cast<size_t>(i)];
    std::this_thread::sleep_until(
        base_tp + std::chrono::microseconds(
                      static_cast<int64_t>(offsets_us[static_cast<size_t>(i)])));
    r.submit_us = hwp3d::obs::NowUs();
    {
      HWP_TRACE_SCOPE("bench/submit");
      futures.push_back(session_->SubmitAsync(clips_[r.clip]));
    }
    r.submit_call_us = hwp3d::obs::NowUs() - r.submit_us;
    phase.lag_us.push_back(r.submit_us - r.scheduled_us);
  }
  for (int64_t i = 0; i < n; ++i) {
    ServedRequest& r = phase.requests[static_cast<size_t>(i)];
    Record(r, futures[static_cast<size_t>(i)].get());
    if (!r.ok) ++phase.failed;
    phase.end_us = std::max(phase.end_us, r.done_us());
  }
  phase.cpu_s = SampleProc().cpu_s - p0.cpu_s;
  phase.after = session_->Stats();
  return phase;
}

ServePhase ServeBench::RunClosed(int window, double seconds) {
  ServePhase phase;
  std::deque<std::pair<Future, size_t>> inflight;
  phase.before = session_->Stats();
  const ProcSample p0 = SampleProc();
  ProcSample mark = p0;
  phase.start_us = hwp3d::obs::NowUs();
  double freed_at_us = phase.start_us;  // completion that freed a slot
  bool sending = true;
  size_t completed = 0;
  while (sending || !inflight.empty()) {
    while (sending && inflight.size() < static_cast<size_t>(window)) {
      const size_t idx = phase.requests.size();
      if (idx % kRound == 0 && idx > 0 &&
          hwp3d::obs::NowUs() - phase.start_us >= seconds * 1e6) {
        sending = false;  // stop at a round boundary
        break;
      }
      ServedRequest r;
      r.clip = idx % clips_.size();
      r.submit_us = hwp3d::obs::NowUs();
      r.scheduled_us = r.submit_us;
      if (idx >= static_cast<size_t>(window)) {
        phase.lag_us.push_back(r.submit_us - freed_at_us);
      }
      {
        HWP_TRACE_SCOPE("bench/submit");
        inflight.emplace_back(session_->SubmitAsync(clips_[r.clip]), idx);
      }
      r.submit_call_us = hwp3d::obs::NowUs() - r.submit_us;
      phase.requests.push_back(std::move(r));
    }
    if (inflight.empty()) break;
    auto [future, idx] = std::move(inflight.front());
    inflight.pop_front();
    ServedRequest& r = phase.requests[idx];
    Record(r, future.get());
    if (!r.ok) ++phase.failed;
    freed_at_us = r.ok ? r.done_us() : hwp3d::obs::NowUs();
    phase.end_us = std::max(phase.end_us, freed_at_us);
    if (++completed % kRound == 0) {
      const ProcSample now = SampleProc();
      phase.window_cps.push_back(kRound / (now.wall_s - mark.wall_s));
      phase.window_cpu_ms.push_back(1e3 * (now.cpu_s - mark.cpu_s) / kRound);
      mark = now;
    }
  }
  phase.cpu_s = SampleProc().cpu_s - p0.cpu_s;
  phase.after = session_->Stats();
  return phase;
}

void ServeBench::Check(const ServePhase& phase) {
  for (const ServedRequest& r : phase.requests) {
    if (!r.ok) continue;
    repeats_.Observe(r.clip, r.logits, r.stats);
    const int label = Argmax(r.logits);
    correct_ += label == labels_[r.clip];
    agree_ += label == host_argmax_[r.clip];
    ++checked_;
  }
}

CheckResult ServeBench::CheckResults() const {
  if (!repeats_.result().ok) return repeats_.result();
  return CheckFloor("argmax agreement with the host model", agree_, checked_,
                    kHostAgreementFloor);
}

double ServeBench::retrained_acc() const {
  const hwp3d::core::PipelineResult* r = session_->prune_result();
  return r != nullptr ? r->retrained_test_acc : 0.0;
}

}  // namespace perfbench
