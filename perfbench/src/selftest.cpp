// hwp_bench_selftest: shows that every check of the benchmark fails on a
// corrupted result and passes on the true one. Exit code 0 when every
// expectation holds.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "checks.h"
#include "fpga/compiled_executor.h"
#include "kernels/thread_pool.h"
#include "report.h"
#include "serving.h"

namespace {

int failures = 0;

void Expect(bool want_ok, const perfbench::CheckResult& got,
            const std::string& what) {
  const bool pass = got.ok == want_ok;
  std::printf("%s  %-52s -> %s%s\n", pass ? "pass" : "FAIL", what.c_str(),
              got.ok ? "accepted" : "rejected: ", got.detail.c_str());
  failures += pass ? 0 : 1;
}

void ExpectTrue(bool cond, const std::string& what) {
  std::printf("%s  %s\n", cond ? "pass" : "FAIL", what.c_str());
  failures += cond ? 0 : 1;
}

hwp3d::TensorQ RandomQ(hwp3d::Shape shape, hwp3d::Rng& rng, int64_t lo,
                       int64_t hi) {
  hwp3d::TensorQ t(std::move(shape));
  for (int64_t i = 0; i < t.numel(); ++i) {
    t[i] = hwp3d::Fixed16::FromRaw(static_cast<int16_t>(rng.UniformInt(lo, hi)));
  }
  return t;
}

// A small layer with partial edge blocks, a column stride, some pruned
// blocks and every post-op, run through the real PackedConvLayer.
void ConvChecks() {
  using namespace perfbench;
  hwp3d::Rng rng(7);
  const hwp3d::fpga::Tiling tiling{8, 4, 2, 3, 3};
  const int64_t M = 19, N = 10, D = 3, R = 5, C = 6;
  const std::array<int64_t, 3> stride{1, 1, 2};
  hwp3d::TensorQ w = RandomQ(hwp3d::Shape{M, N, 1, 3, 3}, rng, -40, 40);
  hwp3d::TensorQ x = RandomQ(
      hwp3d::Shape{N, D, R + 2, (C - 1) * 2 + 3}, rng, -256, 256);
  hwp3d::TensorQ shortcut = RandomQ(hwp3d::Shape{M, D, R, C}, rng, -256, 256);
  hwp3d::fpga::PostOps post;
  post.has_affine = true;
  post.scale = RandomQ(hwp3d::Shape{M}, rng, 128, 384);
  post.shift = RandomQ(hwp3d::Shape{M}, rng, -32, 32);
  post.shortcut = &shortcut;
  post.relu = true;
  hwp3d::core::BlockMask mask =
      hwp3d::core::BlockPartition(w.shape(), tiling.block()).FullMask();
  mask.set(0, 1, false);
  mask.set(2, 0, false);
  mask.set(2, 2, false);

  const hwp3d::fpga::PackedConvLayer layer(w, tiling, {}, &mask);
  hwp3d::ThreadPool pool(1);
  hwp3d::fpga::TiledConvResult r = layer.Run(x, stride, post, {}, &pool);

  std::vector<OutPoint> all;
  for (int64_t m = 0; m < M; ++m)
    for (int64_t d = 0; d < D; ++d)
      for (int64_t rr = 0; rr < R; ++rr)
        for (int64_t c = 0; c < C; ++c) all.push_back({m, d, rr, c});
  const ConvRef ref{&w, &x, stride, &mask, tiling.block(), &post};
  std::vector<int16_t> expected;
  for (const OutPoint& p : all) expected.push_back(ReferenceOutput(ref, p));
  Expect(true, CheckSampledOutputs(r.output, all, expected),
         "conv: every output element as run");

  // The mask must matter to the reference, or the checks would not see
  // a pruned block computed anyway.
  const ConvRef dense_ref{&w, &x, stride, nullptr, tiling.block(), &post};
  int differ = 0;
  for (const OutPoint& p : all) differ += ReferenceOutput(dense_ref, p) !=
                                          ReferenceOutput(ref, p);
  ExpectTrue(differ > 0, "conv: reference without the mask differs");

  hwp3d::TensorQ flipped = r.output;
  flipped(11, 1, 2, 3) = hwp3d::Fixed16::FromRaw(
      static_cast<int16_t>(flipped(11, 1, 2, 3).raw() ^ 1));
  Expect(false, CheckSampledOutputs(flipped, all, expected),
         "conv: one output element with its low bit flipped");

  const BlockCounts counts =
      ExpectedBlockCounts(w.shape(), D, R, C, &mask, tiling);
  Expect(true, CheckBlockCounts(r.stats, counts), "conv: stats as run");
  ExpectTrue(counts.skipped > 0 && counts.loaded > 0,
             "conv: the mask skips and loads blocks");
  hwp3d::fpga::TiledConvStats bad = r.stats;
  bad.blocks_skipped -= 1;
  Expect(false, CheckBlockCounts(bad, counts), "conv: one skipped block miscounted");
  bad = r.stats;
  bad.blocks_loaded += 1;
  Expect(false, CheckBlockCounts(bad, counts), "conv: one loaded block miscounted");
  bad = r.stats;
  bad.macs_executed += 1;
  Expect(false, CheckBlockCounts(bad, counts), "conv: MACs off by one");
}

void ServeChecks() {
  using namespace perfbench;
  hwp3d::fpga::CompiledRunStats stats;
  stats.modeled_cycles = 1000;
  stats.blocks_loaded = 10;
  stats.blocks_skipped = 6;
  stats.macs_executed = 5000;
  const std::vector<float> logits = {0.25f, -1.5f, 3.0f, 2.75f};

  RepeatCheck same(2);
  same.Observe(0, logits, stats);
  same.Observe(1, {1.0f, 0.0f, 0.0f, 0.0f}, stats);
  same.Observe(0, logits, stats);
  Expect(true, same.result(), "serve: identical repeat");

  RepeatCheck swapped(1);
  swapped.Observe(0, logits, stats);
  swapped.Observe(0, {0.25f, -1.5f, 2.75f, 3.0f}, stats);
  Expect(false, swapped.result(), "serve: repeat with two logits swapped");

  RepeatCheck ulp(1);
  ulp.Observe(0, logits, stats);
  std::vector<float> nudged = logits;
  nudged[1] = std::nextafter(nudged[1], 0.0f);
  ulp.Observe(0, nudged, stats);
  Expect(false, ulp.result(), "serve: repeat one ulp apart");

  RepeatCheck restat(1);
  restat.Observe(0, logits, stats);
  hwp3d::fpga::CompiledRunStats skipped = stats;
  skipped.blocks_skipped += 1;
  restat.Observe(0, logits, skipped);
  Expect(false, restat.result(), "serve: repeat with a block miscounted");

  const double floor = ServeBench::kHostAgreementFloor;
  Expect(true, CheckFloor("agreement", 90, 100, floor), "serve: agreement at the floor");
  Expect(false, CheckFloor("agreement", 89, 100, floor), "serve: agreement below the floor");
  Expect(false, CheckFloor("agreement", 0, 0, floor), "serve: no results at all");
  ExpectTrue(Argmax(logits) == 2, "serve: argmax");
}

void ReportChecks() {
  using namespace perfbench;
  ExpectTrue(Median({3, 1, 2}) == 2 && Quantile({1, 2, 3, 4, 5}, 0.25) == 2,
             "report: median and quartile");
  ExpectTrue(TailQuantile(20000) == 0.99 && TailQuantile(1500) == 0.99 &&
                 TailQuantile(150) == 0.90 && TailQuantile(39) == 0.5,
             "report: tail percentile keeps ten samples beyond it");
  std::vector<hwp3d::obs::TraceEvent> ev(5);
  ev[0] = {"exec/a", 'X', 0, 100, 1, {}};
  ev[1] = {"child", 'X', 10, 20, 1, {}};
  ev[2] = {"grandchild", 'X', 15, 5, 1, {}};
  ev[3] = {"child", 'X', 50, 10, 1, {}};
  ev[4] = {"exec/b", 'X', 0, 40, 2, {}};
  ExpectTrue(SpanSelfTimeUs(ev, "exec/") == 70 + 40,
             "report: span self time excludes nested spans");
}

}  // namespace

int main() {
  ConvChecks();
  ServeChecks();
  ReportChecks();
  std::printf("%s: %d expectation(s) failed\n",
              failures ? "self-test FAILED" : "self-test passed", failures);
  return failures ? 1 : 0;
}
