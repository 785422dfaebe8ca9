#include "src/testbed/parallel_runner.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "src/testbed/experiment.hpp"
#include "src/testbed/testbed.hpp"

namespace efd::testbed {
namespace {

TEST(ParallelRunner, MapCollectsResultsByIndex) {
  const ParallelRunner pool(4);
  const auto out = pool.map<int>(64, [](int i) { return i * i; });
  ASSERT_EQ(out.size(), 64u);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(out[static_cast<std::size_t>(i)], i * i);
}

TEST(ParallelRunner, RunVisitsEveryTaskExactlyOnce) {
  const ParallelRunner pool(3);
  std::vector<std::atomic<int>> hits(50);
  pool.run(50, [&](int i) { hits[static_cast<std::size_t>(i)].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelRunner, ZeroTasksIsANoop) {
  const ParallelRunner pool(4);
  pool.run(0, [](int) { FAIL() << "no task should run"; });
}

TEST(ParallelRunner, TaskExceptionIsRethrown) {
  const ParallelRunner pool(4);
  EXPECT_THROW(pool.run(16,
                        [](int i) {
                          if (i == 7) throw std::runtime_error("boom");
                        }),
               std::runtime_error);
}

TEST(ParallelRunner, ThrowingTaskIsRethrownAfterEveryOtherTaskRan) {
  // Same contract at every worker count, including the 1-worker pool.
  for (const int workers : {1, 4}) {
    std::vector<std::atomic<int>> hits(16);
    EXPECT_THROW(ParallelRunner(workers).run(16,
                                             [&](int i) {
                                               hits[static_cast<std::size_t>(i)]++;
                                               if (i == 3) {
                                                 throw std::runtime_error("boom");
                                               }
                                             }),
                 std::runtime_error);
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1) << workers << " worker(s)";

    std::vector<std::atomic<int>> sim_hits(16);
    EXPECT_THROW(ParallelRunner(workers).run_with_sim(
                     16,
                     [&](int i, sim::Simulator&) {
                       sim_hits[static_cast<std::size_t>(i)]++;
                       if (i == 3) throw std::runtime_error("boom");
                     }),
                 std::runtime_error);
    for (const auto& h : sim_hits) {
      EXPECT_EQ(h.load(), 1) << workers << " worker(s), run_with_sim";
    }
  }
}

TEST(ParallelRunner, DefaultThreadCountIsPositive) {
  EXPECT_GE(ParallelRunner().thread_count(), 1);
  EXPECT_EQ(ParallelRunner(5).thread_count(), 5);
}

/// The contract that makes the figure-bench fan-out safe: a task that
/// builds its own Simulator + Testbed is a pure function of its index, so
/// the result vector is bit-identical for any worker count.
double per_task_testbed_metric(int i) {
  sim::Simulator sim;
  Testbed::Config cfg;
  cfg.with_hpav500 = false;
  Testbed tb(sim, cfg);
  sim.run_until(weekday_afternoon());
  const auto& links = tb.plc_links();
  const auto& [a, b] = links[static_cast<std::size_t>(i) % links.size()];
  const auto snr = tb.plc_channel().snr_db(a, b, i % 6, sim.now());
  return std::accumulate(snr.begin(), snr.end(), 0.0);
}

TEST(ParallelRunner, PerTaskTestbedsAreBitIdenticalAcrossWorkerCounts) {
  constexpr int kTasks = 6;
  const auto serial =
      ParallelRunner(1).map<double>(kTasks, per_task_testbed_metric);
  const auto parallel =
      ParallelRunner(4).map<double>(kTasks, per_task_testbed_metric);
  ASSERT_EQ(serial.size(), parallel.size());
  for (int i = 0; i < kTasks; ++i) {
    // Exact equality on purpose: parallelism may change wall-clock only,
    // never output.
    EXPECT_EQ(serial[static_cast<std::size_t>(i)],
              parallel[static_cast<std::size_t>(i)])
        << "task " << i;
  }
}

/// Same metric as per_task_testbed_metric but on a runner-provided (reset)
/// simulator, the worker-reuse formulation.
double reused_sim_testbed_metric(int i, sim::Simulator& sim) {
  Testbed::Config cfg;
  cfg.with_hpav500 = false;
  Testbed tb(sim, cfg);
  sim.run_until(weekday_afternoon());
  const auto& links = tb.plc_links();
  const auto& [a, b] = links[static_cast<std::size_t>(i) % links.size()];
  const auto snr = tb.plc_channel().snr_db(a, b, i % 6, sim.now());
  return std::accumulate(snr.begin(), snr.end(), 0.0);
}

TEST(ParallelRunner, ReusedWorkerSimulatorsMatchPerTaskConstruction) {
  // Simulator::reset must make a reused engine indistinguishable from a
  // fresh one: same results for every task, any worker count.
  constexpr int kTasks = 6;
  const auto fresh =
      ParallelRunner(1).map<double>(kTasks, per_task_testbed_metric);
  const auto reused_serial =
      ParallelRunner(1).map_with_sim<double>(kTasks, reused_sim_testbed_metric);
  const auto reused_parallel =
      ParallelRunner(4).map_with_sim<double>(kTasks, reused_sim_testbed_metric);
  ASSERT_EQ(fresh.size(), reused_serial.size());
  for (int i = 0; i < kTasks; ++i) {
    EXPECT_EQ(fresh[static_cast<std::size_t>(i)],
              reused_serial[static_cast<std::size_t>(i)])
        << "task " << i;
    EXPECT_EQ(fresh[static_cast<std::size_t>(i)],
              reused_parallel[static_cast<std::size_t>(i)])
        << "task " << i;
  }
}

TEST(ParallelRunner, RunWithSimResetsBetweenTasks) {
  const ParallelRunner pool(1);
  std::vector<std::uint64_t> dispatched;
  pool.run_with_sim(3, [&](int, sim::Simulator& sim) {
    EXPECT_EQ(sim.now(), sim::Time{});
    EXPECT_EQ(sim.events_dispatched(), 0u);
    for (int k = 0; k < 5; ++k) sim.after(sim::seconds(k + 1), [] {});
    sim.run();
    dispatched.push_back(sim.events_dispatched());
  });
  ASSERT_EQ(dispatched.size(), 3u);
  for (const auto d : dispatched) EXPECT_EQ(d, 5u);
}

}  // namespace
}  // namespace efd::testbed
