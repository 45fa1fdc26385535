#include "kernels/scratch.h"

#include <atomic>
#include <mutex>

#include "kernels/thread_pool.h"
#include "obs/metrics.h"

namespace hwp3d::kernels {

namespace {
std::atomic<int64_t>& Total() {
  static std::atomic<int64_t> total{0};
  return total;
}

// Intrusive list of live buffers. Leaked on purpose: pool workers
// unregister their thread-local buffers when they exit, which can be
// after static destruction has begun.
struct Registry {
  std::mutex mu;
  detail::ScratchRegistration* head = nullptr;
};
Registry& GetRegistry() {
  static Registry* registry = new Registry;
  return *registry;
}
}  // namespace

int64_t ScratchBytesInUse() {
  return Total().load(std::memory_order_relaxed);
}

int64_t ReleaseIdleScratch() {
  ThreadPool& pool = ThreadPool::Get();
  const std::thread::id self = std::this_thread::get_id();
  int64_t freed = 0;
  pool.WhileIdle([&] {
    Registry& reg = GetRegistry();
    std::lock_guard<std::mutex> lk(reg.mu);
    for (detail::ScratchRegistration* b = reg.head; b != nullptr;
         b = b->next_) {
      if (b->owner_ == self || pool.IsWorker(b->owner_)) {
        freed += b->FreeStorage();
      }
    }
  });
  if (freed != 0) detail::AccountScratch(-freed, /*sync_gauge=*/true);
  return freed;
}

namespace detail {

void AccountScratch(int64_t delta_bytes, bool sync_gauge) {
  const int64_t now =
      Total().fetch_add(delta_bytes, std::memory_order_relaxed) + delta_bytes;
  if (sync_gauge) {
    static obs::Gauge& gauge =
        obs::MetricsRegistry::Get().GetGauge("kernels.scratch_bytes");
    gauge.Set(static_cast<double>(now));
  }
}

ScratchRegistration::ScratchRegistration()
    : owner_(std::this_thread::get_id()) {
  Registry& reg = GetRegistry();
  std::lock_guard<std::mutex> lk(reg.mu);
  next_ = reg.head;
  if (next_ != nullptr) next_->prev_ = this;
  reg.head = this;
}

ScratchRegistration::~ScratchRegistration() {
  Registry& reg = GetRegistry();
  std::lock_guard<std::mutex> lk(reg.mu);
  if (prev_ != nullptr) {
    prev_->next_ = next_;
  } else {
    reg.head = next_;
  }
  if (next_ != nullptr) next_->prev_ = prev_;
}

}  // namespace detail

}  // namespace hwp3d::kernels
