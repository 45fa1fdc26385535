#include "conv_stack.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>

#include "obs/trace.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double Since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

hwp3d::TensorQ RandomQ(hwp3d::Shape shape, hwp3d::Rng& rng, int64_t lo,
                       int64_t hi) {
  hwp3d::TensorQ t(std::move(shape));
  for (int64_t i = 0; i < t.numel(); ++i) {
    t[i] = hwp3d::Fixed16::FromRaw(static_cast<int16_t>(rng.UniformInt(lo, hi)));
  }
  return t;
}

// Sampled output elements checked per layer and clip.
constexpr int kCheckPoints = 24;

}  // namespace

const std::vector<std::string>& StackGroups() {
  static const std::vector<std::string> groups = {"conv1", "conv2_x", "conv3_x",
                                                  "conv4_x", "conv5_x"};
  return groups;
}

ConvStack::ConvStack(uint64_t seed, int64_t spatial_div)
    : spec_(hwp3d::models::MakeR2Plus1DSpec()),
      seed_(seed),
      tiling_(hwp3d::fpga::PaperTilingTn8()) {
  hwp3d::models::ApplyPaperPruningTargets(spec_);
  hwp3d::Rng rng(seed ^ 0x9e3779b97f4a7c15ULL);
  layers_.resize(spec_.layers.size());
  for (size_t i = 0; i < spec_.layers.size(); ++i) {
    StackLayer& L = layers_[i];
    L.spec = spec_.layers[i];
    L.spec.R = (L.spec.R + spatial_div - 1) / spatial_div;
    L.spec.C = (L.spec.C + spatial_div - 1) / spatial_div;
    const auto& s = L.spec;
    // Weights scaled to the fan-in so outputs stay mostly inside Q7.8:
    // uniform raw values in [-A, A] with A = 512 / sqrt(N * K).
    const double fan_in = static_cast<double>(s.N * s.Kd * s.Kr * s.Kc);
    const int64_t a = std::max<int64_t>(1, std::llround(512.0 / std::sqrt(fan_in)));
    L.weights = RandomQ(hwp3d::Shape{s.M, s.N, s.Kd, s.Kr, s.Kc}, rng, -a, a);
    L.input = RandomQ(hwp3d::Shape{s.N, s.in_d(), s.in_r(), s.in_c()}, rng,
                      -256, 256);
    if (s.has_bn) {
      L.post.has_affine = true;
      L.post.scale = RandomQ(hwp3d::Shape{s.M}, rng, 128, 384);
      L.post.shift = RandomQ(hwp3d::Shape{s.M}, rng, -32, 32);
    }
    L.post.relu = s.has_relu;
    if (s.has_shortcut_add) {
      L.shortcut = RandomQ(hwp3d::Shape{s.M, s.D, s.R, s.C}, rng, -256, 256);
    }
  }
  // layers_ no longer moves: the post-ops may point into it now.
  for (StackLayer& L : layers_) {
    if (L.spec.has_shortcut_add) L.post.shortcut = &L.shortcut;
  }
}

ConvStack::SetupTimes ConvStack::Setup() {
  SetupTimes times;
  for (StackLayer& L : layers_) L.packed.reset();
  masks_ = {};
  auto t0 = Clock::now();
  {
    HWP_TRACE_SCOPE("bench/spec_masks");
    masks_ = hwp3d::fpga::GenerateSpecMasks(spec_, tiling_.block(), seed_);
  }
  times.masks_s = Since(t0);
  t0 = Clock::now();
  {
    HWP_TRACE_SCOPE("bench/pack");
    for (size_t i = 0; i < layers_.size(); ++i) {
      layers_[i].packed = std::make_unique<hwp3d::fpga::PackedConvLayer>(
          layers_[i].weights, tiling_, ports_, &masks_.storage[i]);
    }
  }
  times.pack_s = Since(t0);
  return times;
}

void ConvStack::PrepareChecks() {
  hwp3d::Rng rng(seed_ ^ 0x5bd1e995ULL);
  for (size_t i = 0; i < layers_.size(); ++i) {
    StackLayer& L = layers_[i];
    const auto& s = L.spec;
    L.points = SampleOutPoints(s.M, s.D, s.R, s.C, kCheckPoints, rng);
    const ConvRef ref{&L.weights,        &L.input, {s.Sd, s.Sr, s.Sc},
                      &masks_.storage[i], tiling_.block(), &L.post};
    L.expected.clear();
    for (const OutPoint& p : L.points) {
      L.expected.push_back(ReferenceOutput(ref, p));
    }
    L.counts = ExpectedBlockCounts(L.weights.shape(), s.D, s.R, s.C,
                                   &masks_.storage[i], tiling_);
  }
}

ClipRun ConvStack::RunClip(hwp3d::ThreadPool& pool) {
  ClipRun run;
  for (StackLayer& L : layers_) {
    const auto& s = L.spec;
    hwp3d::obs::TraceScope span("bench/layer");
    if (span.active()) span.SetName("bench/layer/" + s.name);
    const auto t0 = Clock::now();
    try {
      hwp3d::fpga::TiledConvResult r =
          L.packed->Run(L.input, {s.Sd, s.Sr, s.Sc}, L.post, s.name, &pool);
      run.layer_s.push_back(Since(t0));
      run.stats.push_back(r.stats);
      if (run.check.ok) {
        CheckResult c = CheckSampledOutputs(r.output, L.points, L.expected);
        if (c.ok) c = CheckBlockCounts(r.stats, L.counts);
        if (!c.ok) run.check = {false, s.name + ": " + c.detail};
      }
    } catch (const std::exception& e) {
      run.layer_s.push_back(Since(t0));
      run.stats.emplace_back();
      ++run.failed;
      if (run.check.ok) run.check = {false, s.name + " threw: " + e.what()};
    }
  }
  return run;
}

double ConvStack::RunGroupDense(const std::string& group,
                                hwp3d::ThreadPool& pool,
                                int64_t* modeled_cycles) {
  double wall = 0.0;
  *modeled_cycles = 0;
  for (StackLayer& L : layers_) {
    const auto& s = L.spec;
    if (s.group != group) continue;
    if (!L.dense) {
      L.dense = std::make_unique<hwp3d::fpga::PackedConvLayer>(
          L.weights, tiling_, ports_, nullptr);
    }
    const auto t0 = Clock::now();
    const hwp3d::fpga::TiledConvResult r =
        L.dense->Run(L.input, {s.Sd, s.Sr, s.Sc}, L.post, s.name, &pool);
    wall += Since(t0);
    *modeled_cycles += r.stats.modeled_cycles;
  }
  return wall;
}

double ConvStack::RunGroupPruned(const std::string& group,
                                 hwp3d::ThreadPool& pool) {
  double wall = 0.0;
  for (StackLayer& L : layers_) {
    const auto& s = L.spec;
    if (s.group != group) continue;
    const auto t0 = Clock::now();
    (void)L.packed->Run(L.input, {s.Sd, s.Sr, s.Sc}, L.post, s.name, &pool);
    wall += Since(t0);
  }
  return wall;
}

double ConvStack::packed_mb() const {
  double bytes = 0.0;
  for (const StackLayer& L : layers_) {
    if (L.packed) {
      bytes += static_cast<double>(L.packed->packed_weights()) *
               sizeof(hwp3d::Fixed16);
    }
  }
  return bytes / (1024.0 * 1024.0);
}

}  // namespace perfbench
