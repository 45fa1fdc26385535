#include "checks.h"

#include <algorithm>
#include <cstring>
#include <sstream>

namespace perfbench {

namespace {

// Q7.8 arithmetic written out from the format's definition (round half
// up on the 8 dropped bits, saturate to int16) rather than taken from
// the program's Fixed16, so a fault there shows here.
int16_t Saturate(int64_t v) {
  return static_cast<int16_t>(std::clamp<int64_t>(v, INT16_MIN, INT16_MAX));
}
int16_t NarrowQ78(int64_t acc) { return Saturate((acc + 128) >> 8); }
int16_t MulQ78(int16_t a, int16_t b) {
  return NarrowQ78(static_cast<int64_t>(a) * b);
}
int16_t AddQ78(int16_t a, int16_t b) {
  return Saturate(static_cast<int64_t>(a) + b);
}

int64_t CeilDiv(int64_t a, int64_t b) { return (a + b - 1) / b; }

}  // namespace

std::vector<OutPoint> SampleOutPoints(int64_t M, int64_t D, int64_t R,
                                      int64_t C, int count, hwp3d::Rng& rng) {
  std::vector<OutPoint> points;
  points.push_back({0, 0, 0, 0});
  points.push_back({M - 1, D - 1, R - 1, C - 1});
  for (int i = 0; i < count; ++i) {
    points.push_back({rng.UniformInt(0, M - 1), rng.UniformInt(0, D - 1),
                      rng.UniformInt(0, R - 1), rng.UniformInt(0, C - 1)});
  }
  return points;
}

int16_t ReferenceOutput(const ConvRef& ref, const OutPoint& p) {
  const hwp3d::TensorQ& w = *ref.weights;
  const hwp3d::TensorQ& x = *ref.input;
  const int64_t N = w.dim(1), Kd = w.dim(2), Kr = w.dim(3), Kc = w.dim(4);
  const int64_t bm = p.m / ref.block.Tm;
  int64_t acc = 0;
  for (int64_t n = 0; n < N; ++n) {
    if (ref.mask != nullptr && !ref.mask->at(bm, n / ref.block.Tn)) continue;
    for (int64_t kd = 0; kd < Kd; ++kd) {
      for (int64_t kr = 0; kr < Kr; ++kr) {
        for (int64_t kc = 0; kc < Kc; ++kc) {
          const int64_t wv = w(p.m, n, kd, kr, kc).raw();
          const int64_t xv = x(n, p.d * ref.stride[0] + kd,
                               p.r * ref.stride[1] + kr,
                               p.c * ref.stride[2] + kc)
                                 .raw();
          acc += wv * xv;
        }
      }
    }
  }
  int16_t v = NarrowQ78(acc);
  const hwp3d::fpga::PostOps& post = *ref.post;
  if (post.has_affine) {
    v = AddQ78(MulQ78(v, post.scale[p.m].raw()), post.shift[p.m].raw());
  }
  if (post.shortcut != nullptr) {
    v = AddQ78(v, (*post.shortcut)(p.m, p.d, p.r, p.c).raw());
  }
  if (post.relu && v < 0) v = 0;
  return v;
}

CheckResult CheckSampledOutputs(const hwp3d::TensorQ& output,
                                const std::vector<OutPoint>& points,
                                const std::vector<int16_t>& expected) {
  CheckResult res;
  for (size_t i = 0; i < points.size(); ++i) {
    const OutPoint& p = points[i];
    const int16_t got = output(p.m, p.d, p.r, p.c).raw();
    if (got != expected[i]) {
      std::ostringstream os;
      os << "output [" << p.m << "][" << p.d << "][" << p.r << "][" << p.c
         << "] raw " << got << ", reference " << expected[i];
      return {false, os.str()};
    }
  }
  return res;
}

BlockCounts ExpectedBlockCounts(const hwp3d::Shape& weight_shape, int64_t D,
                                int64_t R, int64_t C,
                                const hwp3d::core::BlockMask* mask,
                                const hwp3d::fpga::Tiling& tiling) {
  const int64_t M = weight_shape.dim(0), N = weight_shape.dim(1);
  const int64_t k_vol =
      weight_shape.dim(2) * weight_shape.dim(3) * weight_shape.dim(4);
  const int64_t blocks_m = CeilDiv(M, tiling.Tm);
  const int64_t blocks_n = CeilDiv(N, tiling.Tn);
  const int64_t tiles = CeilDiv(D, tiling.Td) * CeilDiv(R, tiling.Tr) *
                        CeilDiv(C, tiling.Tc);
  BlockCounts out;
  for (int64_t bm = 0; bm < blocks_m; ++bm) {
    for (int64_t bn = 0; bn < blocks_n; ++bn) {
      if (mask != nullptr && !mask->at(bm, bn)) {
        out.skipped += tiles;
        continue;
      }
      out.loaded += tiles;
      const int64_t tm = std::min(tiling.Tm, M - bm * tiling.Tm);
      const int64_t tn = std::min(tiling.Tn, N - bn * tiling.Tn);
      out.macs += tm * tn * k_vol * D * R * C;
    }
  }
  return out;
}

CheckResult CheckBlockCounts(const hwp3d::fpga::TiledConvStats& stats,
                             const BlockCounts& want) {
  if (stats.blocks_loaded == want.loaded &&
      stats.blocks_skipped == want.skipped &&
      stats.macs_executed == want.macs) {
    return {};
  }
  std::ostringstream os;
  os << "stats loaded/skipped/macs " << stats.blocks_loaded << "/"
     << stats.blocks_skipped << "/" << stats.macs_executed
     << ", from the mask " << want.loaded << "/" << want.skipped << "/"
     << want.macs;
  return {false, os.str()};
}

int Argmax(const std::vector<float>& logits) {
  return static_cast<int>(std::max_element(logits.begin(), logits.end()) -
                          logits.begin());
}

void RepeatCheck::Observe(size_t clip, const std::vector<float>& logits,
                          const hwp3d::fpga::CompiledRunStats& stats) {
  if (!seen_[clip]) {
    seen_[clip] = 1;
    first_[clip] = {logits, stats};
    return;
  }
  ++repeats_;
  if (!result_.ok) return;
  const First& f = first_[clip];
  const bool same_logits =
      f.logits.size() == logits.size() &&
      std::memcmp(f.logits.data(), logits.data(),
                  logits.size() * sizeof(float)) == 0;
  const bool same_stats = f.stats.modeled_cycles == stats.modeled_cycles &&
                          f.stats.blocks_loaded == stats.blocks_loaded &&
                          f.stats.blocks_skipped == stats.blocks_skipped &&
                          f.stats.macs_executed == stats.macs_executed;
  if (!same_logits || !same_stats) {
    result_ = {false, "clip " + std::to_string(clip) + ": repeat returned " +
                          (same_logits ? "different stats"
                                       : "different logits")};
  }
}

CheckResult CheckFloor(const std::string& what, int64_t hits, int64_t total,
                       double floor) {
  const double share =
      total > 0 ? static_cast<double>(hits) / static_cast<double>(total) : 0.0;
  if (total > 0 && share >= floor) return {};
  std::ostringstream os;
  os << what << " " << hits << "/" << total << " = " << share
     << " is below the floor " << floor;
  return {false, os.str()};
}

}  // namespace perfbench
