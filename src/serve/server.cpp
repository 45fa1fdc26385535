#include "serve/server.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <deque>

#include "common/error.h"
#include "common/fault_injection.h"
#include "common/logging.h"
#include "common/strings.h"
#include "kernels/thread_pool.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace hwp3d::serve {

namespace {

// Labels of the next server constructed: server=0, 1, ... in order.
obs::LabelSet NextServerLabels() {
  static std::atomic<int> next{0};
  return {{"server", std::to_string(next.fetch_add(1))}};
}

int ArgMax(const TensorF& logits) {
  int best = 0;
  for (int64_t k = 1; k < logits.numel(); ++k) {
    if (logits[k] > logits[best]) best = static_cast<int>(k);
  }
  return best;
}

void SleepUs(int64_t us) {
  std::this_thread::sleep_for(std::chrono::microseconds(us));
}

constexpr const char* kFaultReplicaInfer = "serve.replica_infer";
constexpr const char* kFaultReplicaWedge = "serve.replica_wedge";
constexpr const char* kFaultQueueAdmit = "serve.queue_admit";

// A future already resolved with `status`.
std::future<StatusOr<InferenceResult>> Resolved(Status status) {
  std::promise<StatusOr<InferenceResult>> promise;
  promise.set_value(std::move(status));
  return promise.get_future();
}

}  // namespace

InferenceServer::Meters::Meters(obs::MetricsRegistry& reg,
                                const obs::LabelSet& l)
    : accepted(reg.GetCounter("serve.accepted", l)),
      rejected(reg.GetCounter("serve.rejected", l)),
      deadline_exceeded(reg.GetCounter("serve.deadline_exceeded", l)),
      completed(reg.GetCounter("serve.completed", l)),
      batches(reg.GetCounter("serve.batches", l)),
      retries(reg.GetCounter("serve.retries", l)),
      faults_injected(reg.GetCounter("serve.faults_injected", l)),
      replicas_quarantined(reg.GetCounter("serve.replicas_quarantined", l)),
      watchdog_fired(reg.GetCounter("serve.watchdog_fired", l)),
      queue_depth(reg.GetGauge("serve.queue_depth", l)),
      healthy_replicas(reg.GetGauge("serve.healthy_replicas", l)),
      executor(reg.GetGauge("serve.executor", l)),
      batch_size(reg.GetHistogram("serve.batch_size", l)),
      latency_us(reg.GetHistogram("serve.latency_us", l)) {}

InferenceServer::InferenceServer(
    std::shared_ptr<const fpga::CompiledTinyR2Plus1d> model,
    ServerConfig config)
    : config_(config),
      retry_(config.retry),
      model_(std::move(model)),
      labels_(NextServerLabels()),
      m_(obs::MetricsRegistry::Get(), labels_),
      health_(std::max(config.replicas, 1),
              std::max(config.quarantine_after, 1)),
      queue_(config.queue_capacity) {
  HWP_CHECK_MSG(model_ != nullptr, "InferenceServer needs a model");
  HWP_CHECK_MSG(config_.replicas >= 1,
                "InferenceServer needs at least one replica");
  HWP_CHECK_MSG(config_.max_batch >= 1, "max_batch must be >= 1");
  HWP_CHECK_MSG(config_.queue_capacity >= 1, "queue_capacity must be >= 1");
  HWP_CHECK_MSG(config_.quarantine_after >= 1,
                "quarantine_after must be >= 1");
  HWP_CHECK_MSG(config_.retry.max_attempts >= 1,
                "retry.max_attempts must be >= 1");
  HWP_CHECK_MSG(config_.watchdog_timeout_us >= 0,
                "watchdog_timeout_us must be >= 0 (0 disables)");
  replica_fault_points_.reserve(static_cast<size_t>(config_.replicas));
  for (int r = 0; r < config_.replicas; ++r) {
    replica_fault_points_.push_back(
        StrFormat("%s.r%d", kFaultReplicaInfer, r));
  }
  m_.healthy_replicas.Set(static_cast<double>(config_.replicas));
  m_.executor.Set(model_->executor() == fpga::ExecMode::kFast ? 1.0 : 0.0);
  dispatcher_ = std::thread([this] { DispatchLoop(); });
  if (config_.watchdog_timeout_us > 0) {
    watchdog_ = std::thread([this] { WatchdogLoop(); });
  }
}

InferenceServer::~InferenceServer() { Shutdown(); }

std::future<StatusOr<InferenceResult>> InferenceServer::SubmitAsync(
    TensorF clip, int64_t deadline_us) {
  const auto reject = [&](Status status) {
    m_.rejected.Add(1);
    return Resolved(std::move(status));
  };
  const int64_t channels = model_->input_channels();
  if (clip.rank() != 4 || clip.dim(0) != channels || clip.numel() == 0) {
    return reject(InvalidArgumentError(StrFormat(
        "clip %s is not a non-empty [C][D][H][W] clip with C = %lld",
        clip.shape().ToString().c_str(), static_cast<long long>(channels))));
  }
  // Fixed16::FromFloat would quietly turn NaN into 0 and ±Inf into the
  // saturation limits, so a non-finite clip is refused here instead.
  const float* values = clip.data();
  const float* bad = std::find_if_not(
      values, values + clip.numel(), [](float v) { return std::isfinite(v); });
  if (bad != values + clip.numel()) {
    return reject(InvalidArgumentError(
        StrFormat("clip holds a non-finite value (%g) at flat index %lld",
                  static_cast<double>(*bad),
                  static_cast<long long>(bad - values))));
  }
  if (FaultInjector::Get().Trip(kFaultQueueAdmit)) {
    m_.faults_injected.Add(1);
    return reject(
        UnavailableError(StrFormat("injected fault: %s", kFaultQueueAdmit)));
  }
  Request req;
  req.clip = std::move(clip);
  req.enqueue_us = obs::NowUs();
  const int64_t rel =
      deadline_us > 0 ? deadline_us : config_.default_deadline_us;
  req.deadline_us = rel > 0 ? req.enqueue_us + static_cast<double>(rel) : 0.0;
  std::future<StatusOr<InferenceResult>> future =
      req.promise.get_future();

  Status admitted = queue_.Push(std::move(req));
  if (!admitted.ok()) {
    // The request object (with its promise) died with the failed Push;
    // report through a fresh promise for a uniform future-based path.
    return reject(std::move(admitted));
  }
  m_.accepted.Add(1);
  m_.queue_depth.Set(static_cast<double>(queue_.size()));
  return future;
}

StatusOr<InferenceResult> InferenceServer::Submit(const TensorF& clip,
                                                  int64_t deadline_us) {
  return SubmitAsync(clip, deadline_us).get();
}

void InferenceServer::Shutdown() {
  queue_.Close();
  // Serialize the joins so concurrent Shutdown() calls (user + dtor)
  // are safe; the dispatcher drains the queue before PopBatch returns
  // empty. The watchdog outlives the dispatcher on purpose: it must be
  // able to kill a batch wedged during the drain.
  std::lock_guard<std::mutex> lk(shutdown_mu_);
  if (dispatcher_.joinable()) dispatcher_.join();
  {
    std::lock_guard<std::mutex> wlk(watch_mu_);
    watchdog_stop_ = true;
  }
  watch_cv_.notify_all();
  if (watchdog_.joinable()) watchdog_.join();
}

void InferenceServer::DispatchLoop() {
  for (;;) {
    std::vector<Request> batch =
        queue_.PopBatch(config_.max_batch, config_.max_delay_us);
    if (batch.empty()) return;  // closed and drained
    RunBatch(batch);
    m_.queue_depth.Set(static_cast<double>(queue_.size()));
  }
}

void InferenceServer::NoteQuarantine(int replica) {
  m_.replicas_quarantined.Add(1);
  m_.healthy_replicas.Set(static_cast<double>(health_.healthy_count()));
  HWP_LOG(Warning) << "replica " << replica << " quarantined after "
                   << config_.quarantine_after
                   << " consecutive failures; serving degrades to "
                   << health_.healthy_count() << "/" << config_.replicas
                   << " replicas";
}

Status InferenceServer::RunOne(Pending& pending, int replica,
                               double start_us, int batch_size,
                               const std::atomic<bool>& cancelled) {
  auto& inj = FaultInjector::Get();
  Request& req = pending.req;
  Status transient = Status::Ok();
  for (int attempt = 0;; ++attempt) {
    if (cancelled.load(std::memory_order_acquire)) {
      // The watchdog owns (or already resolved) this promise.
      return CancelledError("batch cancelled by watchdog");
    }
    // Per-item deadline enforcement: a request that expired while
    // earlier batch items ran must not consume a replica and must not
    // report a stale OK long past its deadline.
    const double now_us = obs::NowUs();
    if (req.deadline_us > 0.0 && now_us > req.deadline_us) {
      Status expired = DeadlineExceededError(StrFormat(
          "request expired %.0f us past its %.0f us deadline "
          "(mid-batch check)",
          now_us - req.deadline_us, req.deadline_us - req.enqueue_us));
      if (pending.Claim()) {
        m_.deadline_exceeded.Add(1);
        req.promise.set_value(std::move(expired));
      }
      return DeadlineExceededError("expired mid-batch");
    }
    if (inj.Trip(kFaultReplicaWedge)) {
      // Simulated wedged replica: stall, then continue normally. The
      // watchdog (when armed) kills the batch out from under us.
      m_.faults_injected.Add(1);
      SleepUs(inj.delay_us(kFaultReplicaWedge));
      if (cancelled.load(std::memory_order_acquire)) {
        return CancelledError("batch cancelled by watchdog");
      }
    }
    const bool injected_failure =
        inj.Trip(kFaultReplicaInfer) ||
        inj.Trip(replica_fault_points_[static_cast<size_t>(replica)]);
    if (!injected_failure) {
      InferenceResult result;
      result.queue_us = start_us - req.enqueue_us;
      result.batch_size = batch_size;
      result.replica = replica;
      try {
        result.logits = model_->Infer(req.clip, &result.stats);
      } catch (const Error& e) {
        // Admission rejects malformed clips; this is the safety net. A
        // malformed request is a terminal per-request error, never a
        // replica fault: no retry, no health penalty, and it must not
        // take the dispatcher (and every queued request) down.
        if (pending.Claim()) {
          req.promise.set_value(InvalidArgumentError(
              StrFormat("inference failed: %s", e.what())));
        }
        return InvalidArgumentError("malformed request");
      }
      health_.RecordSuccess(replica);
      result.label = ArgMax(result.logits);
      result.total_us = obs::NowUs() - req.enqueue_us;
      const double latency_us = result.total_us;
      // Claim first, then stats, then the promise: a waiter that saw
      // the future resolve must find its request reflected in Stats(),
      // and a concurrent watchdog kill must not double-resolve.
      if (pending.Claim()) {
        m_.completed.Add(1);
        m_.latency_us.Observe(latency_us);
        req.promise.set_value(std::move(result));
      }
      return Status::Ok();
    }
    // Injected transient failure.
    m_.faults_injected.Add(1);
    transient = UnavailableError(StrFormat(
        "injected fault: %s (replica %d, attempt %d)", kFaultReplicaInfer,
        replica, attempt));
    if (health_.RecordFailure(replica)) NoteQuarantine(replica);
    const std::optional<int64_t> backoff =
        retry_.NextBackoffUs(attempt, obs::NowUs(), req.deadline_us);
    if (!backoff) return transient;  // caller may rescue or fail truthfully
    m_.retries.Add(1);
    SleepUs(*backoff);
  }
}

void InferenceServer::RunBatch(std::vector<Request>& batch) {
  obs::TraceScope span("serve/batch");

  // Stable-address wrappers so the watchdog and the replica lanes can
  // race for each promise through an atomic claim.
  std::deque<Pending> owned;
  for (Request& req : batch) owned.emplace_back(std::move(req));

  // Expire requests whose deadline passed while they queued.
  const double start_us = obs::NowUs();
  std::vector<Pending*> live;
  for (Pending& p : owned) {
    if (p.req.deadline_us > 0.0 && start_us > p.req.deadline_us) {
      if (p.Claim()) {
        m_.deadline_exceeded.Add(1);
        p.req.promise.set_value(DeadlineExceededError(StrFormat(
            "request queued for %.0f us, past its %.0f us deadline",
            start_us - p.req.enqueue_us,
            p.req.deadline_us - p.req.enqueue_us)));
      }
    } else {
      live.push_back(&p);
    }
  }
  if (live.empty()) return;

  // Record batch-level stats up front: promises below must only resolve
  // after every counter a waiter could observe through Stats() is final.
  m_.batches.Add(1);
  m_.batch_size.Observe(static_cast<double>(live.size()));

  // Re-stripe over the healthy replica set: with lanes H[0..L), lane k
  // serves items k, k+L, ... All lanes share the one const model.
  const std::vector<int> lanes = health_.HealthySet();
  const int L = std::min<int>(static_cast<int>(lanes.size()),
                              static_cast<int>(live.size()));
  std::atomic<bool> cancelled{false};
  if (config_.watchdog_timeout_us > 0) {
    std::lock_guard<std::mutex> lk(watch_mu_);
    watch_ = WatchTarget{start_us, &live, &cancelled};
  }

  // Items whose lane exhausted its retries; they get one rescue pass on
  // a (possibly different, still-healthy) replica before failing.
  std::mutex rescue_mu;
  std::vector<Pending*> rescue;

  ThreadPool::Get().For(0, L, [&](int64_t k) {
    const int replica = lanes[static_cast<size_t>(k)];
    for (size_t i = static_cast<size_t>(k); i < live.size();
         i += static_cast<size_t>(L)) {
      if (cancelled.load(std::memory_order_acquire)) return;
      Status s = RunOne(*live[i], replica, start_us,
                        static_cast<int>(live.size()), cancelled);
      if (RetryPolicy::IsRetryable(s)) {
        std::lock_guard<std::mutex> lk(rescue_mu);
        rescue.push_back(live[i]);
      }
    }
  });

  // Rescue pass, serial on the dispatcher: the lane's replica may have
  // been the problem (and may be quarantined by now), so give each
  // survivor one more run on the current healthy set's first replica.
  for (Pending* pending : rescue) {
    if (cancelled.load(std::memory_order_acquire)) break;
    if (pending->claimed.load(std::memory_order_acquire)) continue;
    const std::vector<int> healthy = health_.HealthySet();
    Status s = RunOne(*pending, healthy.front(), start_us,
                      static_cast<int>(live.size()), cancelled);
    if (RetryPolicy::IsRetryable(s) && pending->Claim()) {
      // Still transiently failing after retries on two replica picks:
      // fail truthfully with the transient status.
      pending->req.promise.set_value(std::move(s));
    }
  }

  if (config_.watchdog_timeout_us > 0) {
    std::lock_guard<std::mutex> lk(watch_mu_);
    watch_.reset();
  }

  if (span.active()) {
    span.AddArg("batch_size", static_cast<int64_t>(live.size()));
    span.AddArg("replicas", static_cast<int64_t>(L));
  }
}

void InferenceServer::WatchdogLoop() {
  const int64_t timeout_us = config_.watchdog_timeout_us;
  const auto poll = std::chrono::microseconds(
      std::clamp<int64_t>(timeout_us / 4, 1'000, 50'000));
  std::unique_lock<std::mutex> lk(watch_mu_);
  while (!watchdog_stop_) {
    watch_cv_.wait_for(lk, poll, [&] { return watchdog_stop_; });
    if (watchdog_stop_) return;
    if (!watch_) continue;
    if (obs::NowUs() - watch_->start_us <
        static_cast<double>(timeout_us)) {
      continue;
    }
    // The batch is stuck (wedged replica call, pathological stall):
    // cancel the lanes cooperatively and fail every outstanding request
    // so waiters — and a pending Shutdown() — stop depending on it.
    watch_->cancelled->store(true, std::memory_order_release);
    m_.watchdog_fired.Add(1);
    int64_t killed = 0;
    for (Pending* p : *watch_->live) {
      if (!p->Claim()) continue;
      ++killed;
      m_.deadline_exceeded.Add(1);
      p->req.promise.set_value(DeadlineExceededError(StrFormat(
          "watchdog: batch stuck for more than %lld us; request failed "
          "without a result",
          static_cast<long long>(timeout_us))));
    }
    HWP_LOG(Warning) << "serve watchdog fired: batch exceeded "
                     << timeout_us << " us; failed " << killed
                     << " outstanding request(s)";
    watch_.reset();  // one firing per registered batch
  }
}

ServerStats InferenceServer::Stats() const {
  ServerStats s;
  s.accepted = m_.accepted.value();
  s.rejected = m_.rejected.value();
  s.deadline_exceeded = m_.deadline_exceeded.value();
  s.completed = m_.completed.value();
  s.batches = m_.batches.value();
  s.retries = m_.retries.value();
  s.faults_injected = m_.faults_injected.value();
  s.watchdog_fired = m_.watchdog_fired.value();
  s.replicas_quarantined = health_.quarantined_count();
  s.healthy_replicas = health_.healthy_count();
  s.queue_depth = static_cast<int64_t>(queue_.size());
  s.mean_batch_size = m_.batch_size.stats().mean();
  s.p50_ms = m_.latency_us.Percentile(0.50) / 1000.0;
  s.p95_ms = m_.latency_us.Percentile(0.95) / 1000.0;
  s.p99_ms = m_.latency_us.Percentile(0.99) / 1000.0;
  return s;
}

}  // namespace hwp3d::serve
