// Micro-benchmarks (google-benchmark) of the library's hot kernels:
// the blockwise projection, block-norm computation, fixed-point
// quantization, the float training convolution under both conv engines,
// and the tile simulator dense vs pruned (showing the functional
// block-skip saving).
//
// Beyond the google-benchmark suite, main() runs an engine-comparison
// harness (naive vs gemm training step on a tiny R(2+1)D block) and
// writes a machine-readable summary to --json-out=PATH
// (default BENCH_kernels.json): the kernel ISA variant in use, the
// train-step speedup, the direct conv engine's forward and backward
// (dW + dx) GFLOP/s, and Sgemm GFLOP/s on the per-sample GEMMs the
// im2col lowering ran for one R(2+1)D spatial conv.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>

#include "common/rng.h"
#include "core/projection.h"
#include "fpga/tiled_conv_sim.h"
#include "kernels/engine.h"
#include "kernels/isa.h"
#include "kernels/sgemm.h"
#include "kernels/thread_pool.h"
#include "nn/conv3d.h"
#include "nn/r2plus1d_block.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tensor/init.h"

using namespace hwp3d;

namespace {

// Restores the previously selected conv engine on scope exit.
class EngineOverride {
 public:
  explicit EngineOverride(kernels::Engine e) : prev_(kernels::CurrentEngine()) {
    kernels::SetEngine(e);
  }
  ~EngineOverride() { kernels::SetEngine(prev_); }

 private:
  kernels::Engine prev_;
};

TensorF RandomWeights(const Shape& shape, uint64_t seed) {
  Rng rng(seed);
  TensorF t(shape);
  FillNormal(t, rng, 0.0f, 1.0f);
  return t;
}

void BM_BlockSqNorms(benchmark::State& state) {
  const TensorF w = RandomWeights(Shape{144, 64, 1, 3, 3}, 1);
  core::BlockPartition part(w.shape(), {64, 8});
  for (auto _ : state) {
    benchmark::DoNotOptimize(part.BlockSqNorms(w));
  }
  state.SetItemsProcessed(state.iterations() * w.numel());
}
BENCHMARK(BM_BlockSqNorms);

void BM_ProjectToBlockSparse(benchmark::State& state) {
  core::BlockPartition part(Shape{144, 64, 1, 3, 3}, {64, 8});
  for (auto _ : state) {
    state.PauseTiming();
    TensorF w = RandomWeights(Shape{144, 64, 1, 3, 3}, 2);
    state.ResumeTiming();
    benchmark::DoNotOptimize(core::ProjectToBlockSparse(w, part, 0.9));
  }
}
BENCHMARK(BM_ProjectToBlockSparse);

void BM_Quantize(benchmark::State& state) {
  const TensorF t = RandomWeights(Shape{64, 64, 3, 3, 3}, 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Quantize(t));
  }
  state.SetItemsProcessed(state.iterations() * t.numel());
}
BENCHMARK(BM_Quantize);

void RunConv3dForward(benchmark::State& state, kernels::Engine engine) {
  EngineOverride eo(engine);
  Rng rng(4);
  nn::Conv3dConfig cfg;
  cfg.in_channels = 8;
  cfg.out_channels = 8;
  cfg.kernel = {3, 3, 3};
  cfg.padding = {1, 1, 1};
  nn::Conv3d conv(cfg, rng);
  TensorF x(Shape{1, 8, 8, 16, 16});
  FillUniform(x, rng, -1.0f, 1.0f);
  for (auto _ : state) {
    benchmark::DoNotOptimize(conv.Forward(x, false));
  }
  // 2 FLOPs (mul+add) per weight tap per output element.
  const double flops_per_call = 2.0 * 8 * 8 * 8 * 16 * 16 * 3 * 3 * 3;
  state.SetItemsProcessed(
      static_cast<int64_t>(state.iterations() * flops_per_call));
}

void BM_Conv3dForwardNaive(benchmark::State& state) {
  RunConv3dForward(state, kernels::Engine::kNaive);
}
BENCHMARK(BM_Conv3dForwardNaive);

void BM_Conv3dForwardGemm(benchmark::State& state) {
  RunConv3dForward(state, kernels::Engine::kGemm);
}
BENCHMARK(BM_Conv3dForwardGemm);

void BM_Sgemm(benchmark::State& state) {
  const int64_t m = 64, n = 1024, k = 288;  // typical im2col shape
  Rng rng(11);
  TensorF a(Shape{m, k}), b(Shape{k, n}), c(Shape{m, n});
  FillUniform(a, rng, -1.0f, 1.0f);
  FillUniform(b, rng, -1.0f, 1.0f);
  for (auto _ : state) {
    kernels::Sgemm(false, false, m, n, k, a.data(), k, b.data(), n, c.data(),
                   n, /*accumulate=*/false);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * m * n * k);
}
BENCHMARK(BM_Sgemm);

void RunTiledSim(benchmark::State& state, double eta) {
  Rng rng(5);
  TensorF wf(Shape{32, 32, 1, 3, 3});
  FillNormal(wf, rng, 0.0f, 1.0f);
  core::BlockPartition part(wf.shape(), {8, 8});
  core::ProjectionResult proj = core::PlanBlockSparse(wf, part, eta);
  const TensorQ w = Quantize(wf);
  TensorF xf(Shape{32, 4, 16, 16});
  FillUniform(xf, rng, -1.0f, 1.0f);
  const TensorQ x = Quantize(xf);
  fpga::TiledConvSim sim(fpga::Tiling{8, 8, 2, 7, 7}, {});
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sim.Run(w, x, {1, 1, 1}, eta > 0.0 ? &proj.mask : nullptr, {}));
  }
}

void BM_TiledSimDense(benchmark::State& state) { RunTiledSim(state, 0.0); }
BENCHMARK(BM_TiledSimDense);

void BM_TiledSimPruned90(benchmark::State& state) {
  RunTiledSim(state, 0.9);
}
BENCHMARK(BM_TiledSimPruned90);

// Observability overhead: a disabled TraceScope must cost a single
// relaxed atomic load (sub-nanosecond), so instrumented hot paths stay
// free when tracing is off. The enabled variant shows the record cost.
void BM_TraceScopeDisabled(benchmark::State& state) {
  obs::Tracer::Get().SetEnabled(false);
  for (auto _ : state) {
    HWP_TRACE_SCOPE("bench/disabled");
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_TraceScopeDisabled);

void BM_TraceScopeEnabled(benchmark::State& state) {
  obs::Tracer& tracer = obs::Tracer::Get();
  tracer.SetEnabled(true);
  size_t n = 0;
  for (auto _ : state) {
    HWP_TRACE_SCOPE("bench/enabled");
    if (++n % 65536 == 0) tracer.Clear();  // bound buffer growth
    benchmark::ClobberMemory();
  }
  tracer.SetEnabled(false);
  tracer.Clear();
}
BENCHMARK(BM_TraceScopeEnabled);

void BM_MetricsCounterAdd(benchmark::State& state) {
  obs::Counter& c =
      obs::MetricsRegistry::Get().GetCounter("bench.counter");
  for (auto _ : state) {
    c.Add(1);
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_MetricsCounterAdd);

void BM_MetricsCounterLookup(benchmark::State& state) {
  auto& reg = obs::MetricsRegistry::Get();
  for (auto _ : state) {
    reg.GetCounter("bench.lookup", {{"layer", "conv2a"}}).Add(1);
  }
}
BENCHMARK(BM_MetricsCounterLookup);

// ---------------------------------------------------------------------------
// Engine-comparison harness: one training step (ZeroGrad + Forward(train) +
// Backward) of a tiny R(2+1)D residual block under each conv engine.

struct TrainStepSetup {
  nn::ResidualBlock block;
  TensorF x;
  TensorF seed;

  explicit TrainStepSetup(Rng& rng)
      : block(MakeConfig(), rng, "bench_block"),
        x(Shape{2, 8, 4, 16, 16}) {
    FillUniform(x, rng, -1.0f, 1.0f);
    TensorF y = block.Forward(x, false);
    seed = TensorF(y.shape());
    FillUniform(seed, rng, -1.0f, 1.0f);
  }

  static nn::ResidualBlockConfig MakeConfig() {
    nn::ResidualBlockConfig cfg;
    cfg.in_channels = 8;
    cfg.out_channels = 16;
    cfg.spatial_stride = 2;
    cfg.temporal_stride = 2;
    return cfg;
  }

  void Step() {
    block.ZeroGrad();
    TensorF y = block.Forward(x, true);
    benchmark::DoNotOptimize(y.data());
    TensorF dx = block.Backward(seed);
    benchmark::DoNotOptimize(dx.data());
  }
};

// Best-of-reps wall time of one training step under `engine`, in ms.
// Runs one warmup step, then repetitions until >= 0.3 s has accumulated
// (at least 3 reps).
double TimeTrainStepMs(TrainStepSetup& setup, kernels::Engine engine) {
  EngineOverride eo(engine);
  setup.Step();  // warmup: touches cold memory, settles the pool
  double best_ms = 1e300;
  double total_us = 0.0;
  int reps = 0;
  while (reps < 3 || total_us < 300000.0) {
    const double t0 = obs::NowUs();
    setup.Step();
    const double us = obs::NowUs() - t0;
    total_us += us;
    best_ms = us / 1000.0 < best_ms ? us / 1000.0 : best_ms;
    ++reps;
    if (reps >= 200) break;
  }
  return best_ms;
}

// Sgemm on the per-sample GEMMs that the served toy model's
// stage1.conv2.spatial (8 -> 18 ch, 1x3x3, 6x10x10 clip) lowered to
// before the direct conv engine: K = 8*3*3 = 72 im2col rows, P = 600
// positions. Sgemm still serves Linear; these shapes track its
// micro-kernel.
struct TrainGemmShape {
  const char* name;
  bool trans_a, trans_b;
  int64_t m, n, k;
  bool accumulate;
};
constexpr TrainGemmShape kTrainGemmShapes[] = {
    {"forward", false, false, 18, 600, 72, false},  // y = W * cols
    {"dw", false, true, 18, 72, 600, true},         // dW += dy * cols^T
    {"dx", true, false, 72, 600, 18, false},        // dcols = W^T * dy
};

// Best-of-200 GFLOP/s of one shape; A and B are stored transposed where
// the shape says so, with tight leading dimensions.
double TimeTrainGemmGflops(const TrainGemmShape& s, Rng& rng) {
  const int64_t a_cols = s.trans_a ? s.m : s.k;
  const int64_t b_cols = s.trans_b ? s.k : s.n;
  TensorF a(Shape{s.m * s.k}), b(Shape{s.k * s.n}), c(Shape{s.m * s.n});
  FillUniform(a, rng, -1.0f, 1.0f);
  FillUniform(b, rng, -1.0f, 1.0f);
  const double flops = 2.0 * s.m * s.n * s.k;
  double best_us = 1e300;
  for (int r = 0; r < 200; ++r) {
    const double t0 = obs::NowUs();
    kernels::Sgemm(s.trans_a, s.trans_b, s.m, s.n, s.k, a.data(), a_cols,
                   b.data(), b_cols, c.data(), s.n, s.accumulate);
    benchmark::DoNotOptimize(c.data());
    const double us = obs::NowUs() - t0;
    best_us = us < best_us ? us : best_us;
  }
  return flops / best_us / 1000.0;
}

// Best-of-reps wall time of fn(), in µs.
template <typename Fn>
double BestUs(int reps, Fn&& fn) {
  double best_us = 1e300;
  for (int r = 0; r < reps; ++r) {
    const double t0 = obs::NowUs();
    fn();
    const double us = obs::NowUs() - t0;
    best_us = us < best_us ? us : best_us;
  }
  return best_us;
}

// GFLOP/s of the gemm-engine conv forward and backward (dW + dx) on
// BM_Conv3dForwardGemm's shape.
void RunEngineComparison(const std::string& json_path) {
  Rng rng(21);
  TrainStepSetup setup(rng);

  const double naive_ms = TimeTrainStepMs(setup, kernels::Engine::kNaive);
  const double gemm_ms = TimeTrainStepMs(setup, kernels::Engine::kGemm);
  const double speedup = naive_ms / gemm_ms;

  nn::Conv3dConfig cfg;
  cfg.in_channels = 8;
  cfg.out_channels = 8;
  cfg.kernel = {3, 3, 3};
  cfg.padding = {1, 1, 1};
  nn::Conv3d conv(cfg, rng, "bench_conv");
  TensorF cx(Shape{1, 8, 8, 16, 16});
  FillUniform(cx, rng, -1.0f, 1.0f);
  TensorF cdy(Shape{1, 8, 8, 16, 16});
  FillUniform(cdy, rng, -1.0f, 1.0f);
  // One pass (forward, dW or dx) is 2 FLOPs per weight tap per output.
  const double conv_flops = 2.0 * 8 * 8 * 8 * 16 * 16 * 3 * 3 * 3;

  double fwd_us = 0.0, bwd_us = 0.0;
  {
    EngineOverride eo(kernels::Engine::kGemm);
    fwd_us = BestUs(50, [&] {
      TensorF y = conv.Forward(cx, false);
      benchmark::DoNotOptimize(y.data());
    });
    conv.Forward(cx, true);  // caches the input for Backward
    bwd_us = BestUs(50, [&] {
      TensorF dx = conv.Backward(cdy);
      benchmark::DoNotOptimize(dx.data());
    });
  }
  const double conv_gflops = conv_flops / fwd_us / 1000.0;
  const double conv_bwd_gflops = 2.0 * conv_flops / bwd_us / 1000.0;

  double train_gflops[std::size(kTrainGemmShapes)];
  for (size_t i = 0; i < std::size(kTrainGemmShapes); ++i) {
    train_gflops[i] = TimeTrainGemmGflops(kTrainGemmShapes[i], rng);
  }
  const char* isa = kernels::IsaName(kernels::ActiveIsa());

  std::printf("\n-- engine comparison (tiny R(2+1)D residual block) --\n");
  std::printf("threads:              %d\n", ThreadPool::Get().threads());
  std::printf("kernel isa:           %s\n", isa);
  std::printf("train step naive:     %.2f ms\n", naive_ms);
  std::printf("train step gemm:      %.2f ms\n", gemm_ms);
  std::printf("speedup:              %.2fx\n", speedup);
  std::printf("conv forward (gemm):  %.2f GFLOP/s\n", conv_gflops);
  std::printf("conv backward (gemm): %.2f GFLOP/s (dW + dx)\n",
              conv_bwd_gflops);
  for (size_t i = 0; i < std::size(kTrainGemmShapes); ++i) {
    const TrainGemmShape& g = kTrainGemmShapes[i];
    std::printf("sgemm %-7s %3lldx%3lldx%3lld: %.2f GFLOP/s\n", g.name,
                static_cast<long long>(g.m), static_cast<long long>(g.n),
                static_cast<long long>(g.k), train_gflops[i]);
  }

  std::ofstream out(json_path);
  if (!out) {
    std::fprintf(stderr, "bench_kernels: cannot write %s\n",
                 json_path.c_str());
    return;
  }
  out << "{\n"
      << "  \"threads\": " << ThreadPool::Get().threads() << ",\n"
      << "  \"isa\": \"" << isa << "\",\n"
      << "  \"train_step\": {\n"
      << "    \"config\": \"R(2+1)D residual block 8->16 ch, stride 2, "
         "input [2,8,4,16,16]\",\n"
      << "    \"naive_ms\": " << naive_ms << ",\n"
      << "    \"gemm_ms\": " << gemm_ms << ",\n"
      << "    \"speedup\": " << speedup << "\n"
      << "  },\n"
      << "  \"conv3d_forward\": {\n"
      << "    \"config\": \"8->8 ch, 3x3x3, pad 1, input [1,8,8,16,16]\",\n"
      << "    \"gemm_gflops\": " << conv_gflops << "\n"
      << "  },\n"
      << "  \"conv3d_backward\": {\n"
      << "    \"config\": \"8->8 ch, 3x3x3, pad 1, input [1,8,8,16,16], "
         "dW + dx\",\n"
      << "    \"gemm_gflops\": " << conv_bwd_gflops << "\n"
      << "  },\n"
      << "  \"train_gemm\": {\n"
      << "    \"config\": \"stage1.conv2.spatial per-sample GEMMs (m x n x k): "
         "forward 18x600x72, dw 18x72x600, dx 72x600x18\",\n";
  for (size_t i = 0; i < std::size(kTrainGemmShapes); ++i) {
    out << "    \"" << kTrainGemmShapes[i].name << "_gflops\": "
        << train_gflops[i]
        << (i + 1 < std::size(kTrainGemmShapes) ? ",\n" : "\n");
  }
  out << "  }\n"
      << "}\n";
  std::printf("wrote %s\n", json_path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  // Extract --json-out=PATH before google-benchmark sees the args (it
  // rejects flags it does not know).
  std::string json_path = "BENCH_kernels.json";
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json-out=", 11) == 0) {
      json_path = argv[i] + 11;
    } else {
      argv[kept++] = argv[i];
    }
  }
  argc = kept;

  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  RunEngineComparison(json_path);
  return 0;
}
