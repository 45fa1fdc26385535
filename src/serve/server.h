// Concurrent batched-inference server over the compiled accelerator
// simulator, hardened for faulty replicas.
//
//   requests ──Push──▶ RequestQueue ──PopBatch──▶ dispatcher thread
//                                                      │
//                                        ThreadPool::For over healthy set
//                                          lane 0 │ lane 1 │ ...   ◀─┐
//                                   (all lanes share one immutable   │
//                                    CompiledTinyR2Plus1d)           │
//                                                 watchdog thread ───┘
//
// One dispatcher thread pops batches (flushing at max_batch or
// max_delay_us) and fans each batch out across the *healthy* replicas
// (lanes) on the process-wide hwp3d::ThreadPool: with L healthy lanes,
// lane k runs batch items k, k+L, k+2L, ... Every lane calls the same
// immutable compiled model, whose Infer is const and thread-safe, so
// predictions are bitwise identical for any replica count — which is
// what makes quarantine-and-re-stripe a safe degradation.
//
// Fault tolerance:
//  * Transient replica failures (fault points `serve.replica_infer` /
//    `serve.replica_infer.r<k>`) are retried per `config.retry` —
//    exponential backoff + deterministic jitter, never sleeping past
//    the request deadline. Items that exhaust their lane's retries get
//    one rescue pass on the current healthy set before failing
//    truthfully with the transient status.
//  * Every attempt outcome feeds ReplicaHealth; `quarantine_after`
//    consecutive failures quarantine the replica (never the last one)
//    and subsequent batches re-stripe across the survivors.
//  * A watchdog thread (enabled by `watchdog_timeout_us > 0`) detects
//    a batch stuck longer than the timeout — e.g. a wedged replica —
//    and fails its outstanding requests with kDeadlineExceeded so
//    waiters and Shutdown() are never hostage to one bad replica call.
//  * Deadlines are enforced both at batch dispatch and again per item
//    immediately before the replica call, so a request that expires
//    mid-batch returns kDeadlineExceeded instead of a stale OK.
//
// Admission control: a clip that is not [C][D][H][W] with the model's
// input channels and non-zero extents is rejected with
// kInvalidArgument; the bounded queue rejects with kResourceExhausted
// instead of blocking producers; the fault point `serve.queue_admit`
// can inject admission failures. Shutdown(drain) stops admission and
// completes every already-accepted request.
//
// Metrics: serve.accepted/rejected/deadline_exceeded/completed/batches
// plus serve.retries/faults_injected/replicas_quarantined/
// watchdog_fired counters, serve.queue_depth and serve.healthy_replicas
// gauges, serve.batch_size and serve.latency_us histograms; trace span
// "serve/batch" per dispatch.
#pragma once

#include <atomic>
#include <condition_variable>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/retry.h"
#include "fpga/model_compiler.h"
#include "serve/latency_histogram.h"
#include "serve/replica_health.h"
#include "serve/request_queue.h"

namespace hwp3d::serve {

struct ServerConfig {
  int replicas = 1;  // serving lanes over the one shared model
  int max_batch = 8;
  int64_t max_delay_us = 2000;    // flush timer from oldest request
  size_t queue_capacity = 64;
  int64_t default_deadline_us = 0;  // relative, applied at Submit; 0 = none
  RetryConfig retry;                // transient replica-failure retries
  int quarantine_after = 3;         // consecutive failures -> quarantine
  int64_t watchdog_timeout_us = 0;  // stuck-batch kill switch; 0 = off
};

struct ServerStats {
  int64_t accepted = 0;
  int64_t rejected = 0;           // admission failures (bad clip, queue full)
  int64_t deadline_exceeded = 0;
  int64_t completed = 0;
  int64_t batches = 0;
  int64_t retries = 0;            // backoff-then-retry attempts
  int64_t faults_injected = 0;    // fault-point trips observed in serve
  int64_t watchdog_fired = 0;     // stuck batches killed
  int64_t replicas_quarantined = 0;  // currently quarantined
  int64_t healthy_replicas = 0;
  int64_t queue_depth = 0;        // at the time of the Stats() call
  double mean_batch_size = 0.0;
  // End-to-end (enqueue -> completion) latency percentiles over every
  // completed request, in milliseconds, read from a fixed log-linear
  // histogram: within LatencyHistogram::kMaxRelativeError (1/64) of the
  // exact sorted-sample percentile for latencies >= 1 µs.
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
};

class InferenceServer {
 public:
  // Serves `model` from `config.replicas` lanes; the model is shared,
  // never copied.
  InferenceServer(std::shared_ptr<const fpga::CompiledTinyR2Plus1d> model,
                  ServerConfig config);
  ~InferenceServer();  // graceful drain

  InferenceServer(const InferenceServer&) = delete;
  InferenceServer& operator=(const InferenceServer&) = delete;

  // Admits one clip; the future resolves when a replica has run it (or
  // with kDeadlineExceeded / kUnavailable / kCancelled). `deadline_us`
  // is relative to now; 0 uses config.default_deadline_us. Admission
  // failure is reported through the future for a uniform error path.
  std::future<StatusOr<InferenceResult>> SubmitAsync(
      TensorF clip, int64_t deadline_us = 0);

  // Blocking convenience wrapper around SubmitAsync.
  StatusOr<InferenceResult> Submit(const TensorF& clip,
                                   int64_t deadline_us = 0);

  // Stops admission, waits for every accepted request to complete, and
  // joins the dispatcher + watchdog. Idempotent.
  void Shutdown();

  ServerStats Stats() const;
  const ServerConfig& config() const { return config_; }

 private:
  // A queued request plus a claim flag so exactly one of {replica lane,
  // rescue pass, queued-deadline check, watchdog} resolves the promise.
  struct Pending {
    explicit Pending(Request&& r) : req(std::move(r)) {}
    Request req;
    std::atomic<bool> claimed{false};
    // True for the first caller; the winner must then resolve req.promise.
    bool Claim() { return !claimed.exchange(true); }
  };

  // The batch currently fanned out on the replicas, as seen by the
  // watchdog. Valid only while registered (guarded by watch_mu_).
  struct WatchTarget {
    double start_us = 0.0;
    std::vector<Pending*>* live = nullptr;
    std::atomic<bool>* cancelled = nullptr;
  };

  void DispatchLoop();
  void RunBatch(std::vector<Request>& batch);
  // Runs one request on `replica` with per-item deadline enforcement
  // and transient-failure retries. Resolves the promise on success /
  // terminal error; returns the transient status (promise untouched)
  // when retries on this replica are exhausted.
  Status RunOne(Pending& pending, int replica, double start_us,
                int batch_size, const std::atomic<bool>& cancelled);
  void WatchdogLoop();
  void NoteQuarantine(int replica);

  ServerConfig config_;
  RetryPolicy retry_;
  std::shared_ptr<const fpga::CompiledTinyR2Plus1d> model_;
  std::vector<std::string> replica_fault_points_;  // serve.replica_infer.r<k>
  ReplicaHealth health_;
  RequestQueue queue_;
  std::thread dispatcher_;
  std::mutex shutdown_mu_;  // serializes the dispatcher/watchdog join

  std::thread watchdog_;
  std::mutex watch_mu_;
  std::condition_variable watch_cv_;
  bool watchdog_stop_ = false;
  std::optional<WatchTarget> watch_;

  // Aggregate counters; latency_record_ feeds the Stats() percentiles
  // in constant memory.
  mutable std::mutex stats_mu_;
  ServerStats totals_;
  LatencyHistogram latency_record_;
};

}  // namespace hwp3d::serve
