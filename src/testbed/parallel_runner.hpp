#pragma once

#include <functional>
#include <vector>

#include "src/core/arena.hpp"
#include "src/sim/simulator.hpp"

namespace efd::testbed {

/// Deterministic fan-out of independent experiment closures across a small
/// pool of std::jthread workers.
///
/// Contract: every task is self-contained — it constructs its own
/// sim::Simulator / Testbed from a deterministic per-task seed and touches
/// no shared mutable state (the grid/channel caches are mutable and not
/// thread-safe, so they must stay thread-confined). Task `i`'s result is
/// then a pure function of `i`, results are collected by index, and a run
/// is bit-identical for ANY worker count, including 1 (the serial order).
/// That property is what makes the link-sweep benches parallelizable
/// without perturbing the reproduction: parallelism changes wall-clock
/// only, never output.
class ParallelRunner {
 public:
  /// `n_threads <= 0` uses the hardware concurrency.
  explicit ParallelRunner(int n_threads = 0);

  [[nodiscard]] int thread_count() const { return n_threads_; }

  /// Run `fn(i)` for every `i` in [0, n_tasks). Tasks are claimed from an
  /// atomic counter, so scheduling is dynamic but results must not depend
  /// on claim order (see the class contract). A throwing task does not stop
  /// the sweep: every other task still runs, and the first exception caught
  /// is rethrown here after all workers drain — at any worker count.
  void run(int n_tasks, const std::function<void(int)>& fn) const;

  /// Map variant: `results[i] = fn(i)`.
  template <typename R>
  [[nodiscard]] std::vector<R> map(int n_tasks,
                                   const std::function<R(int)>& fn) const {
    std::vector<R> results(static_cast<std::size_t>(n_tasks));
    run(n_tasks, [&](int i) { results[static_cast<std::size_t>(i)] = fn(i); });
    return results;
  }

  /// Like run(), but each worker owns ONE sim::Simulator for its whole
  /// lifetime and hands it to every task after a reset(): the event slab,
  /// heap, and free-list capacity are reused across experiments instead of
  /// being reconstructed per task. Simulator::reset restores the
  /// as-constructed state (clock, FIFO sequence, dispatch count), so task
  /// results — and therefore the collected output — are bit-identical to
  /// the construct-per-task formulation for any worker count.
  void run_with_sim(
      int n_tasks, const std::function<void(int, sim::Simulator&)>& fn) const;

  /// Arena variant: alongside its Simulator, each worker owns ONE
  /// core::Arena, reset() before every task. Scenario-sized object graphs
  /// built from it are torn down wholesale, so after warm-up a task's
  /// construction/teardown performs zero heap allocations (the proptest
  /// zero-alloc pins). Anything the task allocates from the arena must die
  /// with the task — the next task's reset() reclaims the memory.
  void run_with_sim(
      int n_tasks,
      const std::function<void(int, sim::Simulator&, core::Arena&)>& fn) const;

  /// Map variant of run_with_sim: `results[i] = fn(i, worker_sim)`.
  template <typename R>
  [[nodiscard]] std::vector<R> map_with_sim(
      int n_tasks, const std::function<R(int, sim::Simulator&)>& fn) const {
    std::vector<R> results(static_cast<std::size_t>(n_tasks));
    run_with_sim(n_tasks, [&](int i, sim::Simulator& sim) {
      results[static_cast<std::size_t>(i)] = fn(i, sim);
    });
    return results;
  }

  /// Map variant of the arena overload: `results[i] = fn(i, sim, arena)`.
  /// Results are copied out of the task, so they must not themselves hold
  /// arena-backed storage (Scenario's copy constructor escapes to the heap;
  /// see ArenaAllocator::select_on_container_copy_construction).
  template <typename R>
  [[nodiscard]] std::vector<R> map_with_sim(
      int n_tasks,
      const std::function<R(int, sim::Simulator&, core::Arena&)>& fn) const {
    std::vector<R> results(static_cast<std::size_t>(n_tasks));
    run_with_sim(n_tasks,
                 [&](int i, sim::Simulator& sim, core::Arena& arena) {
                   results[static_cast<std::size_t>(i)] = fn(i, sim, arena);
                 });
    return results;
  }

  /// Worker count requested via the EFD_BENCH_THREADS environment variable;
  /// 0 when unset or unparsable, which the constructor resolves to the
  /// hardware concurrency. Output is identical for every count, per the
  /// class contract.
  [[nodiscard]] static int env_threads();

 private:
  int n_threads_;
};

}  // namespace efd::testbed
