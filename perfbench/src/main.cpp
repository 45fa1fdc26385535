// hwp_bench: one run of one benchmark workload.
//
//   hwp_bench --workload <serve_poisson|serve_saturated>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <chrome trace path>] [--quick]
//
// Prints a disturbance report, the check results and every metric it
// measured, then one JSON line {"correct","attempted","failed","metrics"}.
// With --trace 0 the run measures the end-to-end metrics with tracing
// off. With --trace 1 it repeats the timed phase with the program's
// tracing on, then probes the paper's R(2+1)D conv stack layer by layer,
// and adds the per-layer metrics. --quick shrinks the conv stack and the
// probes so a traced run of each workload ends in seconds after its build.
#include <cstdio>
#include <cstdlib>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "conv_stack.h"
#include "kernels/qgemm_tile.h"
#include "kernels/thread_pool.h"
#include "obs/trace.h"
#include "report.h"
#include "serving.h"
#include "sysstat.h"

namespace perfbench {
namespace {

// Workload make-up (see README.md).
constexpr double kPoissonRate = 150.0;  // serve_poisson offered clips/s
constexpr int kClosedWindow = 32;       // serve_saturated requests in flight
// Conv-stack probe: spatial extents divided by 4, three set-ups, one
// warm-up clip, then three clips and three block-skip passes (medians).
constexpr int64_t kSpatialDiv = 4;
constexpr int kProbeRepeats = 3;
constexpr double kClockMhz = 150.0;  // modeled accelerator clock

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool quick = false;
  std::string trace_out;
};

struct Outcome {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  // Notes a check's result; any failure makes the run incorrect.
  void Check(Report& rep, const std::string& what, const CheckResult& c) {
    rep.Note("check " + what + ": " + (c.ok ? "ok" : "FAILED: " + c.detail));
    correct = correct && c.ok;
  }
};

std::string Fmt(const char* fmt, double a, double b = 0.0, double c = 0.0) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), fmt, a, b, c);
  return buf;
}

// --- the R(2+1)D conv-stack probe (per-layer metrics) -------------------

volatile int64_t g_qmac_sink = 0;

// Median GMAC/s over five 0.2-s windows of the row updates one conv2_x
// tile makes: Tm = 64 weights against an output row of 56 / 4 columns.
double MeasureQmac(uint64_t seed) {
  constexpr int64_t kTm = 64;
  constexpr int64_t n = 56 / kSpatialDiv;
  constexpr int64_t kSlots = 8 * 9;  // Tn x (1 x 3 x 3) slots of one tile
  hwp3d::Rng rng(seed);
  std::vector<hwp3d::Fixed16> w(static_cast<size_t>(kSlots * kTm));
  std::vector<hwp3d::Fixed16> in(static_cast<size_t>(kSlots + n));
  for (auto& v : w) v = hwp3d::Fixed16::FromRaw(static_cast<int16_t>(rng.UniformInt(-64, 64)));
  for (auto& v : in) v = hwp3d::Fixed16::FromRaw(static_cast<int16_t>(rng.UniformInt(-256, 256)));
  std::vector<hwp3d::FixedAccum> acc(static_cast<size_t>(kTm * n));
  std::vector<double> rates;
  for (int window = 0; window < 5; ++window) {
    int64_t calls = 0;
    const double t0 = hwp3d::obs::NowUs();
    double t1 = t0;
    while (t1 - t0 < 2e5) {
      for (int64_t s = 0; s < kSlots; ++s) {
        hwp3d::kernels::QOuterMacRow(acc.data(), n, w.data() + s * kTm, kTm,
                                     in.data() + s, 1, n);
      }
      calls += kSlots;
      t1 = hwp3d::obs::NowUs();
    }
    rates.push_back(static_cast<double>(calls * kTm * n) / ((t1 - t0) * 1e3));
  }
  int64_t sum = 0;
  for (const auto& a : acc) sum += a.raw();
  g_qmac_sink = sum;  // keeps the accumulators live
  return Median(rates);
}

// Runs `clips` passes over the 37 layers, checking every output.
std::vector<ClipRun> RunClips(ConvStack& stack, hwp3d::ThreadPool& pool,
                              int clips, Outcome& out, Report& rep) {
  std::vector<ClipRun> runs;
  CheckResult check;
  for (int i = 0; i < clips; ++i) {
    ClipRun run = stack.RunClip(pool);
    out.attempted += static_cast<int64_t>(run.layer_s.size());
    out.failed += run.failed;
    if (check.ok) check = run.check;
    runs.push_back(std::move(run));
  }
  out.Check(rep, "conv outputs and stats", check);
  return runs;
}

// Table I R(2+1)D with Table II masks, one layer at a time on a one-thread
// pool: set-up times, then per conv group wall time, GMAC/s, modeled time
// and blocks skipped, and the block-skip speed-up of conv2_x and conv3_x.
void ConvProbe(const Options& opt, Report& rep, Outcome& out) {
  const int repeats = opt.quick ? 1 : kProbeRepeats;
  ConvStack stack(opt.seed, opt.quick ? 16 : kSpatialDiv);
  std::vector<double> masks_s, pack_s;
  for (int i = 0; i < repeats; ++i) {
    const ConvStack::SetupTimes t = stack.Setup();
    masks_s.push_back(t.masks_s);
    pack_s.push_back(t.pack_s);
  }
  rep.Add("core.spec_masks_s", Median(masks_s), "s");
  rep.Add("fpga.pack_s", Median(pack_s), "s");
  rep.Add("fpga.packed_mb", stack.packed_mb(), "MB");
  stack.PrepareChecks();

  hwp3d::ThreadPool pool(1);
  (void)RunClips(stack, pool, 1, out, rep);  // warm-up
  const std::vector<ClipRun> clips = RunClips(stack, pool, repeats, out, rep);
  const auto& layers = stack.layers();
  std::map<std::string, int64_t> group_cycles;
  for (const std::string& g : StackGroups()) {
    std::vector<double> walls;
    for (const ClipRun& c : clips) {
      double w = 0.0;
      for (size_t i = 0; i < layers.size(); ++i) {
        if (layers[i].spec.group == g) w += c.layer_s[i];
      }
      walls.push_back(w);
    }
    int64_t macs = 0, skipped = 0, cycles = 0;
    for (size_t i = 0; i < layers.size(); ++i) {
      if (layers[i].spec.group != g) continue;
      macs += clips.front().stats[i].macs_executed;
      skipped += clips.front().stats[i].blocks_skipped;
      cycles += clips.front().stats[i].modeled_cycles;
    }
    group_cycles[g] = cycles;
    const double wall = Median(walls);
    rep.Add("fpga." + g + ".wall_ms", 1e3 * wall, "ms/clip");
    rep.Add("fpga." + g + ".gmac_s", static_cast<double>(macs) / wall / 1e9,
            "GMAC/s");
    rep.Add("fpga." + g + ".modeled_ms",
            static_cast<double>(cycles) / (kClockMhz * 1e3), "ms");
    rep.Add("fpga." + g + ".blocks_skipped", static_cast<double>(skipped),
            "count");
  }
  // Every block enabled against the Table II masks, the two interleaved
  // so the machine's drift hits both alike.
  for (const std::string g : {"conv2_x", "conv3_x"}) {
    std::vector<double> dense, pruned;
    int64_t dense_cycles = 0;
    for (int p = 0; p < repeats; ++p) {
      pruned.push_back(stack.RunGroupPruned(g, pool));
      dense.push_back(stack.RunGroupDense(g, pool, &dense_cycles));
    }
    rep.Add("fpga." + g + ".skip_speedup", Median(dense) / Median(pruned), "x");
    rep.Add("fpga." + g + ".modeled_skip_speedup",
            static_cast<double>(dense_cycles) /
                static_cast<double>(group_cycles[g]),
            "x");
  }
  rep.Add("kernels.qmac_gmac_s", MeasureQmac(opt.seed), "GMAC/s");
}

// --- serve_poisson / serve_saturated ------------------------------------

ServePhase RunServePhase(ServeBench& sb, bool poisson, const Options& opt) {
  return poisson ? sb.RunPoisson(kPoissonRate, opt.seconds, opt.seed)
                 : sb.RunClosed(kClosedWindow, opt.seconds);
}

std::vector<double> Latencies(const ServePhase& p) {
  std::vector<double> v;
  for (const ServedRequest& r : p.requests) {
    if (r.ok) v.push_back(r.latency_us() / 1e3);
  }
  return v;
}

double CpuMsPerClip(const ServePhase& p) {
  return 1e3 * p.cpu_s / static_cast<double>(Latencies(p).size());
}

void CountPhase(const ServePhase& p, Outcome& out) {
  out.attempted += static_cast<int64_t>(p.requests.size());
  out.failed += p.failed;
}

// Session build; a traced run reads the set-up breakdown back from the
// program's session spans.
double Build(ServeBench& sb, bool traced, Report& rep) {
  auto& tracer = hwp3d::obs::Tracer::Get();
  tracer.Clear();
  tracer.SetEnabled(traced);
  const double build_s = sb.Build();
  tracer.SetEnabled(false);
  if (traced) {
    const auto events = tracer.Snapshot();
    const double pretrain = SpanTotalUs(events, "session/pretrain") / 1e6;
    const double prune = SpanTotalUs(events, "session/prune") / 1e6;
    rep.Add("setup.pretrain_s", pretrain, "s");
    rep.Add("setup.prune_s", prune, "s");
    rep.Add("setup.compile_start_s", build_s - pretrain - prune, "s");
    tracer.Clear();
  }
  return build_s;
}

// Per-layer serving metrics of a traced phase.
void ServeLayerMetrics(const ServePhase& phase,
                       const std::vector<hwp3d::obs::TraceEvent>& events,
                       Report& rep) {
  std::vector<double> submit, queue, service;
  const ServedRequest* first_ok = nullptr;
  for (const ServedRequest& r : phase.requests) {
    submit.push_back(r.submit_call_us);
    if (!r.ok) continue;
    if (first_ok == nullptr) first_ok = &r;
    queue.push_back(r.queue_us / 1e3);
    service.push_back((r.total_us - r.queue_us) / 1e3);
  }
  const auto& a = phase.after;
  const auto& b = phase.before;
  const double batches = static_cast<double>(a.batches - b.batches);
  const double exec_ms =
      SpanSelfTimeUs(events, "exec/") / 1e3 / static_cast<double>(queue.size());
  rep.Add("serve.submit_us", Median(submit), "us");
  rep.Add("serve.queue_ms", Median(queue), "ms");
  rep.Add("serve.service_ms", Median(service), "ms");
  rep.Add("serve.mean_batch",
          static_cast<double>(a.completed - b.completed) / batches, "clips");
  rep.Add("serve.batches", batches, "count");
  rep.Add("fpga.exec_ms_per_clip", exec_ms, "ms");
  rep.Add("serve.overhead_ms", Median(service) - exec_ms, "ms");
  rep.Add("serve.retries", static_cast<double>(a.retries - b.retries), "count");
  rep.Add("serve.rejected", static_cast<double>(a.rejected - b.rejected), "count");
  rep.Add("serve.deadline_exceeded",
          static_cast<double>(a.deadline_exceeded - b.deadline_exceeded), "count");
  rep.Add("loadgen.lag_p99_ms", Quantile(phase.lag_us, 0.99) / 1e3, "ms");
  const hwp3d::fpga::CompiledRunStats s =
      first_ok != nullptr ? first_ok->stats : hwp3d::fpga::CompiledRunStats{};
  rep.Add("fpga.modeled_cycles_per_clip", static_cast<double>(s.modeled_cycles), "count");
  rep.Add("fpga.macs_per_clip", static_cast<double>(s.macs_executed), "count");
  rep.Add("fpga.blocks_skipped_per_clip", static_cast<double>(s.blocks_skipped), "count");
}

void RunServe(const Options& opt, bool poisson, Report& rep, Outcome& out) {
  ServeBench sb(opt.seed);
  // One build per run: a build trains for 10-17 s (README.md).
  rep.Add("setup_s", Build(sb, opt.trace, rep), "s");
  sb.ComputeHostArgmax();
  sb.WarmUp(256);

  const ProcSample p0 = SampleProc();
  const ServePhase phase = RunServePhase(sb, poisson, opt);
  const ProcSample p1 = SampleProc();
  CountPhase(phase, out);
  sb.Check(phase);
  const std::vector<double> lat = Latencies(phase);
  if (poisson) {
    rep.Add("clips_per_s",
            static_cast<double>(lat.size()) / ((phase.end_us - phase.start_us) / 1e6),
            "clips/s");
    rep.Add("cpu_ms_per_clip", CpuMsPerClip(phase), "ms");
  } else {
    rep.Add("clips_per_s", Median(phase.window_cps), "clips/s");
    rep.Add("cpu_ms_per_clip", Median(phase.window_cpu_ms), "ms");
  }
  // Latencies swing with host steal more than an end-to-end bound allows
  // (README.md): they are reported among the per-layer metrics.
  const double q = TailQuantile(lat.size());
  rep.Add("latency_p50_ms", Median(lat), "ms");
  rep.Add("serve.latency_tail_ms", Quantile(lat, q), "ms");
  rep.Note(Fmt("latency tail: p%.1f over %.0f requests", 100.0 * q,
               static_cast<double>(lat.size())));
  rep.Note(FormatDisturbance(opt.workload, Between(p0, p1)) + ", threads " +
           std::to_string(ThreadCount()));
  rep.Note(Fmt("generator lateness: p50 %.3f ms, p99 %.3f ms, max %.3f ms",
               Median(phase.lag_us) / 1e3, Quantile(phase.lag_us, 0.99) / 1e3,
               Quantile(phase.lag_us, 1.0) / 1e3));

  if (opt.trace) {
    auto& tracer = hwp3d::obs::Tracer::Get();
    tracer.Clear();
    tracer.SetEnabled(true);
    const ServePhase traced = RunServePhase(sb, poisson, opt);
    tracer.SetEnabled(false);
    CountPhase(traced, out);
    sb.Check(traced);
    rep.Add("obs.trace_overhead_pct",
            100.0 * (CpuMsPerClip(traced) / CpuMsPerClip(phase) - 1.0), "%");
    ServeLayerMetrics(traced, tracer.Snapshot(), rep);
  }
  out.Check(rep, "serving outputs", sb.CheckResults());
  rep.Note(Fmt("serving checks: host agreement %.3f over %.0f results",
               static_cast<double>(sb.agree()) / sb.checked(),
               static_cast<double>(sb.checked())));
  rep.Note(Fmt("model accuracy (not checked): %.3f against the generator's "
               "labels, %.3f on the session's own test batches",
               static_cast<double>(sb.correct()) / sb.checked(),
               sb.retrained_acc()));
  if (!opt.trace) return;
  auto& tracer = hwp3d::obs::Tracer::Get();
  tracer.SetEnabled(true);
  ConvProbe(opt, rep, out);
  tracer.SetEnabled(false);
  // The trace holds the traced serving phase, then the conv-stack probe.
  if (!opt.trace_out.empty()) {
    if (!tracer.WriteChromeJson(opt.trace_out)) {
      throw std::runtime_error("cannot write " + opt.trace_out);
    }
    rep.Note("trace written to " + opt.trace_out);
  }
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  // The pool size is read once, at first use: two participants serve,
  // and the conv stack runs on its own one-thread pool. Settings that
  // would change what runs are cleared.
  setenv("HWP_THREADS", "2", 1);
  for (const char* var : {"HWP_EXEC", "HWP_FAULTS", "HWP_TRACE", "HWP_CONV_ENGINE"}) {
    unsetenv(var);
  }
  hwp3d::SetLogLevel(hwp3d::LogLevel::Warning);

  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(a + " needs a value");
      return argv[++i];
    };
    try {
      if (a == "--workload") opt.workload = value();
      else if (a == "--seed") opt.seed = std::stoull(value());
      else if (a == "--seconds") opt.seconds = std::stod(value());
      else if (a == "--trace") opt.trace = std::stoi(value()) != 0;
      else if (a == "--trace-out") opt.trace_out = value();
      else if (a == "--quick") opt.quick = true;
      else throw std::invalid_argument("unknown argument " + a);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "hwp_bench: %s\n", e.what());
      return 2;
    }
  }
  const bool poisson = opt.workload == "serve_poisson";
  if (!poisson && opt.workload != "serve_saturated") {
    std::fprintf(stderr, "hwp_bench: unknown workload '%s'\n", opt.workload.c_str());
    return 2;
  }
  if (!(opt.seconds > 0.0)) {
    std::fprintf(stderr, "hwp_bench: --seconds must be positive\n");
    return 2;
  }

  Report rep;
  Outcome out;
  rep.Note("workload " + opt.workload + ", seed " + std::to_string(opt.seed) +
           ", trace " + (opt.trace ? "1" : "0") +
           ", nproc " + std::to_string(std::thread::hardware_concurrency()));
  try {
    RunServe(opt, poisson, rep, out);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hwp_bench: %s\n", e.what());
    return 1;
  }
  rep.Add("peak_rss_mb", PeakRssMb(), "MB");
  rep.Print(out.correct, out.attempted, out.failed);
  return 0;
}
