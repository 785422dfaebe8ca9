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

namespace {

/// The one worker loop. `workers` jthreads each own a default-constructed
/// `State` for their lifetime and claim task indices from a shared counter
/// in ascending order, so one worker runs the tasks serially in index
/// order. A throwing task is recorded and the sweep goes on; the first
/// exception is rethrown once every worker has drained.
template <typename State, typename Task>
void run_pool(int n_tasks, int n_threads, const Task& task) {
  if (n_tasks <= 0) return;
  const int workers = std::min(n_threads, n_tasks);
  EFD_GAUGE_SET("testbed.workers", workers);
  EFD_PROF_SCOPE("testbed.parallel_run");
  std::atomic<int> next{0};
  std::exception_ptr first_error;
  std::mutex error_mutex;
  {
    std::vector<std::jthread> pool;
    pool.reserve(static_cast<std::size_t>(workers));
    for (int w = 0; w < workers; ++w) {
      pool.emplace_back([&] {
        State state;
        for (;;) {
          const int i = next.fetch_add(1, std::memory_order_relaxed);
          if (i >= n_tasks) return;
          try {
            EFD_PROF_SCOPE("testbed.task");
            task(i, state);
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

struct NoState {};

/// Worker-lifetime engine and scenario storage, reset between tasks.
struct SimState {
  sim::Simulator sim;
  core::Arena arena;
};

}  // namespace

void ParallelRunner::run(int n_tasks, const std::function<void(int)>& fn) const {
  run_pool<NoState>(n_tasks, n_threads_, [&fn](int i, NoState&) { fn(i); });
}

void ParallelRunner::run_with_sim(
    int n_tasks, const std::function<void(int, sim::Simulator&)>& fn) const {
  run_with_sim(n_tasks, [&fn](int i, sim::Simulator& sim, core::Arena&) {
    fn(i, sim);
  });
}

void ParallelRunner::run_with_sim(
    int n_tasks,
    const std::function<void(int, sim::Simulator&, core::Arena&)>& fn) const {
  run_pool<SimState>(n_tasks, n_threads_, [&fn](int i, SimState& s) {
    s.sim.reset();
    s.arena.reset();
    fn(i, s.sim, s.arena);
    EFD_COUNTER_INC("testbed.sim_reuses");
  });
}

int ParallelRunner::env_threads() {
  // 0 = "unset" (hardware concurrency); anything unparsable, empty, zero
  // or negative degrades to the same. Absurd values clamp: a worker pool
  // past 4096 threads is a typo, not a request.
  return core::env_count("EFD_BENCH_THREADS", 0, 4096);
}

}  // namespace efd::testbed
