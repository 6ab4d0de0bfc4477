#include "run/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <system_error>
#include <thread>
#include <vector>

#include "core/error.hpp"

namespace hmm::run {

SweepRunner::SweepRunner(std::int64_t jobs) : jobs_(jobs) {
  HMM_REQUIRE(jobs >= 0, "SweepRunner: jobs must be >= 0");
  if (jobs_ == 0) {
    jobs_ = std::max(1u, std::thread::hardware_concurrency());
  }
}

void SweepRunner::for_each(
    std::int64_t count, const std::function<void(std::int64_t)>& fn) const {
  HMM_REQUIRE(count >= 0, "SweepRunner: count must be >= 0");
  if (count == 0) return;

  const std::int64_t workers = std::min(jobs_, count);
  if (workers <= 1) {
    for (std::int64_t i = 0; i < count; ++i) fn(i);
    return;
  }

  std::atomic<std::int64_t> next{0};
  std::exception_ptr first_error;
  std::mutex error_mutex;
  std::atomic<bool> failed{false};

  auto worker = [&]() {
    for (;;) {
      const std::int64_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= count || failed.load(std::memory_order_relaxed)) return;
      try {
        fn(i);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
        failed.store(true, std::memory_order_relaxed);
        return;
      }
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(workers));
  try {
    for (std::int64_t t = 0; t < workers; ++t) pool.emplace_back(worker);
  } catch (const std::system_error&) {
    // Out of threads: the workers that started, or this thread if none
    // did, take every index.
    if (pool.empty()) worker();
  }
  for (std::thread& t : pool) t.join();

  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace hmm::run
