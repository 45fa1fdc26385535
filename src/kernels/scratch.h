// Reusable thread-local scratch buffers for kernel lowering.
//
// The conv engine and the fast-path executor need per-call scratch
// (padded feature-map planes, packed GEMM panels, accumulator tiles). Allocating
// them per call would put a malloc/free pair on every hot-path
// invocation; instead each thread keeps one ScratchBuffer per use site
// (declared `thread_local`), which grows geometrically and is then
// reused until the thread exits or ReleaseIdleScratch() frees it.
//
// Every byte held by live scratch buffers is accounted in a
// process-wide total, exported as the `kernels.scratch_bytes` gauge so
// the steady-state scratch footprint is visible next to the kernels.*
// throughput counters.
#pragma once

#include <cstddef>
#include <cstdint>
#include <thread>
#include <vector>

namespace hwp3d::kernels {

// Current bytes held across all live scratch buffers in the process.
int64_t ScratchBytesInUse();

// Frees the storage of every idle scratch buffer and returns the bytes
// freed. Idle means owned by the calling thread or by a worker of the
// process-wide ThreadPool; the pool is held quiet (no parallel region
// runs) while it frees. Buffers of other threads may be in use and are
// kept. Freed buffers stay valid: their next Resize allocates again.
// Must not be called from inside a parallel region or while the caller
// still uses a pointer returned by Resize.
int64_t ReleaseIdleScratch();

namespace detail {
// Adjusts the process-wide total and refreshes the gauge. `sync_gauge`
// is false on the thread-exit path, where the metrics registry may be
// mid-teardown; the atomic total alone is always safe to update.
void AccountScratch(int64_t delta_bytes, bool sync_gauge);

// Every ScratchBuffer registers itself with its owning thread so that
// ReleaseIdleScratch can find the idle ones.
class ScratchRegistration {
 protected:
  ScratchRegistration();
  ~ScratchRegistration();
  ScratchRegistration(const ScratchRegistration&) = delete;
  ScratchRegistration& operator=(const ScratchRegistration&) = delete;

 private:
  friend int64_t kernels::ReleaseIdleScratch();
  // Drops the storage; returns the bytes freed.
  virtual int64_t FreeStorage() = 0;

  std::thread::id owner_;
  ScratchRegistration* prev_ = nullptr;
  ScratchRegistration* next_ = nullptr;
};
}  // namespace detail

// One reusable, geometrically-growing buffer. Intended use:
//
//   thread_local ScratchBuffer<float> planes;
//   float* p = planes.Resize(n);     // valid until the next Resize
//
// Resize never shrinks; contents are unspecified after Resize (callers
// overwrite). T must be trivially destructible.
template <typename T>
class ScratchBuffer final : public detail::ScratchRegistration {
 public:
  ScratchBuffer() = default;
  ~ScratchBuffer() {
    detail::AccountScratch(
        -static_cast<int64_t>(v_.capacity() * sizeof(T)),
        /*sync_gauge=*/false);
  }

  T* Resize(size_t n) {
    if (n > v_.size()) {
      const size_t old_cap = v_.capacity();
      size_t grown = v_.size() * 2;
      if (grown < n) grown = n;
      v_.resize(grown);
      const size_t new_cap = v_.capacity();
      if (new_cap != old_cap) {
        detail::AccountScratch(
            static_cast<int64_t>((new_cap - old_cap) * sizeof(T)),
            /*sync_gauge=*/true);
      }
    }
    return v_.data();
  }

  size_t capacity_bytes() const { return v_.capacity() * sizeof(T); }

 private:
  int64_t FreeStorage() override {
    const auto bytes = static_cast<int64_t>(capacity_bytes());
    std::vector<T>().swap(v_);
    return bytes;
  }

  std::vector<T> v_;
};

}  // namespace hwp3d::kernels
