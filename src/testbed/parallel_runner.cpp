#include "src/testbed/parallel_runner.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>

#include "src/core/env.hpp"
#include "src/obs/obs.hpp"

namespace efd::testbed {

ParallelRunner::ParallelRunner(int n_threads) : n_threads_(n_threads) {
  if (n_threads_ <= 0) {
    n_threads_ = static_cast<int>(std::thread::hardware_concurrency());
    if (n_threads_ <= 0) n_threads_ = 1;
  }
}

/// `workers` jthreads each own one Simulator for their lifetime and claim
/// task indices from a shared counter in ascending order, so one worker
/// runs the tasks serially in index order. A throwing task is recorded and
/// the sweep goes on; the first exception is rethrown once every worker has
/// drained.
void ParallelRunner::run_pool(
    int n_tasks, const std::function<void(int, sim::Simulator&)>& task) const {
  if (n_tasks <= 0) return;
  const int workers = std::min(n_threads_, n_tasks);
  EFD_PROF_SCOPE("testbed.parallel_run");
  std::atomic<int> next{0};
  std::exception_ptr first_error;
  std::mutex error_mutex;
  {
    std::vector<std::jthread> pool;
    pool.reserve(static_cast<std::size_t>(workers));
    for (int w = 0; w < workers; ++w) {
      pool.emplace_back([&] {
        sim::Simulator sim;
        for (;;) {
          const int i = next.fetch_add(1, std::memory_order_relaxed);
          if (i >= n_tasks) return;
          try {
            EFD_PROF_SCOPE("testbed.task");
            sim.reset();
            task(i, sim);
            EFD_COUNTER_INC("testbed.sim_reuses");
            EFD_COUNTER_INC("testbed.tasks_run");
          } catch (...) {
            const std::scoped_lock lock(error_mutex);
            if (!first_error) first_error = std::current_exception();
          }
        }
      });
    }
  }  // jthreads join here
  if (first_error) std::rethrow_exception(first_error);
}

int ParallelRunner::env_threads() {
  // 0 = "unset" (hardware concurrency); anything unparsable, empty, zero
  // or negative degrades to the same. Absurd values clamp: a worker pool
  // past 4096 threads is a typo, not a request.
  return core::env_count("EFD_BENCH_THREADS", 0, 4096);
}

}  // namespace efd::testbed
