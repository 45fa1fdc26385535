#!/usr/bin/env bash
# Full local gate: build + test the release config, then rebuild and
# re-run everything under ASan + UBSan. Usage: scripts/check.sh [-j N]
set -euo pipefail

cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || echo 4)"
if [[ "${1:-}" == "-j" && -n "${2:-}" ]]; then
  JOBS="$2"
fi

for preset in release sanitize; do
  echo "==> configure (${preset})"
  cmake --preset "${preset}"
  echo "==> build (${preset})"
  cmake --build --preset "${preset}" -j "${JOBS}"
  echo "==> test (${preset})"
  ctest --preset "${preset}" -j "${JOBS}"
done

# Hammer the thread-pool tests under the sanitizers: pool bugs are
# timing-dependent, so repeat until-fail to shake out races. All pool
# workers are joinable (never detached), so sanitizer runs stay clean.
# The packed executor's randomized parity sweep rides along: it runs on
# the pool, and UBSan (-fno-sanitize-recover) aborts it if an int32
# chunk bound ever lets a partial sum overflow. So does the
# sample-parallel conv engine (per-sample dx slices, dW partial slices,
# the scratch release after training) at four pool threads;
# conv3d_gemm_order_test runs every ISA variant of its kernels that the
# host supports (sse2/avx2/avx512), each against the im2col reference.
echo "==> thread-pool + packed-executor + conv-engine stress (sanitize)"
ctest --preset sanitize -R 'thread_pool|conv_engine_parity|packed_parity' \
  --repeat until-fail:3
HWP_THREADS=4 ctest --preset sanitize \
  -R 'conv3d_gemm_order|thread_count_checkpoint' --repeat until-fail:3

# Same treatment for the serving layer: the dispatcher thread, the MPMC
# queue, the promise hand-off, and the fault paths (retry, quarantine,
# watchdog kills) are all lifetime-sensitive, which is exactly what
# ASan/UBSan catch.
echo "==> serve + fault stress (sanitize)"
ctest --preset sanitize -R 'serve' --repeat until-fail:3

# ThreadSanitizer pass over the concurrent subsystems: the thread pool,
# the serving dispatcher/watchdog, the fault-injection paths where the
# watchdog and replica lanes race for request promises, and the
# sample-parallel conv engine with its scratch release, at four pool
# threads and in every ISA variant the host supports. Guarded by a
# probe because not every toolchain ships a working libtsan.
echo "==> thread sanitizer (serve + pool + fault paths + conv engine)"
if printf 'int main(){return 0;}' \
    | c++ -fsanitize=thread -x c++ - -o /tmp/hwp_tsan_probe 2>/dev/null \
    && /tmp/hwp_tsan_probe 2>/dev/null; then
  cmake --preset tsan
  cmake --build --preset tsan -j "${JOBS}" \
    --target serve_test serve_fault_test thread_pool_test \
    conv3d_gemm_order_test session_checkpoint
  HWP_THREADS=4 ctest --preset tsan \
    -R 'serve|thread_pool|conv3d_gemm_order' --repeat until-fail:2
  # Three whole session builds, ~65 s each under TSan: run it once.
  HWP_THREADS=4 ctest --preset tsan -R 'thread_count_checkpoint'
else
  echo "(ThreadSanitizer unavailable on this toolchain; skipping)"
fi

echo "==> all checks passed"
