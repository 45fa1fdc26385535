// The serve_poisson and serve_saturated workloads: the InferenceSession
// default TinyR2Plus1d, ADMM-pruned to 50% block sparsity, served by two
// replicas on a two-thread pool, under an open loop of Poisson arrivals
// or a closed loop with a fixed window of requests in flight.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "checks.h"
#include "serve/inference_session.h"

namespace perfbench {

// One served request as the client saw it.
struct ServedRequest {
  size_t clip = 0;
  double scheduled_us = 0.0;  // open loop: when it was due; else submit time
  double submit_us = 0.0;     // obs::NowUs() just before SubmitAsync
  double submit_call_us = 0.0;  // duration of the SubmitAsync call
  bool ok = false;
  double queue_us = 0.0;
  double total_us = 0.0;      // server: enqueue -> completion
  hwp3d::fpga::CompiledRunStats stats;
  std::vector<float> logits;
  double latency_us() const { return submit_us - scheduled_us + total_us; }
  double done_us() const { return submit_us + total_us; }
};

struct ServePhase {
  std::vector<ServedRequest> requests;
  double start_us = 0.0;  // phase start (first scheduled send)
  double end_us = 0.0;    // last completion
  double cpu_s = 0.0;     // process CPU time over the phase
  // Closed loop only: clips/s and CPU ms per clip over each round of
  // requests (four passes over the pool).
  std::vector<double> window_cps;
  std::vector<double> window_cpu_ms;
  // How late the client sent: open loop, send time minus due time;
  // closed loop, send time minus the completion that freed the slot.
  std::vector<double> lag_us;
  hwp3d::serve::ServerStats before, after;
  int64_t failed = 0;
};

class ServeBench {
 public:
  // Generates the clip pool (known labels) from `seed`.
  explicit ServeBench(uint64_t seed);

  // Builds (trains, prunes, compiles, starts) the session. Seconds.
  double Build();

  // Float host-model argmax for every pool clip (reference for checks).
  void ComputeHostArgmax();

  // Open loop: `rate` clips/s for `seconds`; arrival times are a Poisson
  // process conditioned on rate * seconds arrivals, drawn from `seed`.
  ServePhase RunPoisson(double rate, double seconds, uint64_t seed);
  // Closed loop: `window` requests in flight, whole passes over the
  // pool, until `seconds` have passed.
  ServePhase RunClosed(int window, double seconds);
  // Untimed warm-up: `n` requests, closed loop.
  void WarmUp(int n);

  // Folds a phase into the checks: repeats bitwise identical and argmax
  // agreement with the host model above its floor. Accuracy against the
  // generator's labels is counted and reported, not checked: it grades
  // the trained model, and the session's default pruning schedule leaves
  // a near-chance model on some seeds (README.md).
  void Check(const ServePhase& phase);
  CheckResult CheckResults() const;

  int64_t correct() const { return correct_; }
  int64_t agree() const { return agree_; }
  int64_t checked() const { return checked_; }
  // The session's own test accuracy after pruning and retraining.
  double retrained_acc() const;

  static constexpr double kHostAgreementFloor = 0.9;

 private:
  void Record(ServedRequest& r,
              hwp3d::StatusOr<hwp3d::serve::InferenceResult> result);

  uint64_t seed_;
  std::vector<hwp3d::TensorF> clips_;
  std::vector<int> labels_;
  std::vector<int> host_argmax_;
  std::unique_ptr<hwp3d::InferenceSession> session_;
  RepeatCheck repeats_;
  int64_t correct_ = 0, agree_ = 0, checked_ = 0;
};

}  // namespace perfbench
