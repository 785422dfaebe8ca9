#pragma once

#include <functional>
#include <vector>

#include "src/sim/simulator.hpp"

namespace efd::testbed {

/// Deterministic fan-out of independent experiment closures across a small
/// pool of std::jthread workers.
///
/// Contract: every task is self-contained — it builds its own Testbed (or
/// scenario world) on the worker's Simulator from a deterministic per-task
/// seed and touches no shared mutable state (the grid/channel caches are
/// mutable and not thread-safe, so they must stay thread-confined). Task
/// `i`'s result is then a pure function of `i`, results are collected by
/// index, and a run is bit-identical for ANY worker count, including 1 (the
/// serial order). That property is what makes the link-sweep benches and
/// the proptest sweep parallelizable without perturbing the reproduction:
/// parallelism changes wall-clock only, never output.
class ParallelRunner {
 public:
  /// `n_threads <= 0` uses the hardware concurrency.
  explicit ParallelRunner(int n_threads = 0);

  [[nodiscard]] int thread_count() const { return n_threads_; }

  /// `results[i] = fn(i, sim)` for every `i` in [0, n_tasks).
  ///
  /// Each worker owns ONE sim::Simulator for its whole lifetime and resets
  /// it before every task, so the event slab, heap and free-list capacity
  /// are reused across experiments. Simulator::reset restores the
  /// as-constructed state (clock, FIFO sequence, dispatch count), so a
  /// task's result is bit-identical to one computed on a fresh engine.
  ///
  /// Tasks are claimed from an atomic counter, so scheduling is dynamic but
  /// results must not depend on claim order (see the class contract). A
  /// throwing task does not stop the sweep: every other task still runs,
  /// and the first exception caught is rethrown here after all workers
  /// drain — at any worker count.
  template <typename R>
  [[nodiscard]] std::vector<R> map_with_sim(
      int n_tasks, const std::function<R(int, sim::Simulator&)>& fn) const {
    std::vector<R> results(static_cast<std::size_t>(n_tasks));
    run_pool(n_tasks, [&](int i, sim::Simulator& sim) {
      results[static_cast<std::size_t>(i)] = fn(i, sim);
    });
    return results;
  }

  /// Worker count requested via the EFD_BENCH_THREADS environment variable;
  /// 0 when unset or unparsable, which the constructor resolves to the
  /// hardware concurrency. Output is identical for every count, per the
  /// class contract.
  [[nodiscard]] static int env_threads();

 private:
  /// The one worker loop behind map_with_sim.
  void run_pool(int n_tasks,
                const std::function<void(int, sim::Simulator&)>& task) const;

  int n_threads_;
};

}  // namespace efd::testbed
