#include "src/testbed/parallel_runner.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "src/testbed/experiment.hpp"
#include "src/testbed/testbed.hpp"

namespace efd::testbed {
namespace {

TEST(ParallelRunner, MapCollectsResultsByIndex) {
  const ParallelRunner pool(4);
  const auto out =
      pool.map_with_sim<int>(64, [](int i, sim::Simulator&) { return i * i; });
  ASSERT_EQ(out.size(), 64u);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(out[static_cast<std::size_t>(i)], i * i);
}

TEST(ParallelRunner, RunVisitsEveryTaskExactlyOnce) {
  const ParallelRunner pool(3);
  std::vector<std::atomic<int>> hits(50);
  (void)pool.map_with_sim<int>(50, [&](int i, sim::Simulator&) {
    return hits[static_cast<std::size_t>(i)].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelRunner, ZeroTasksIsANoop) {
  const ParallelRunner pool(4);
  const auto out = pool.map_with_sim<int>(0, [](int, sim::Simulator&) {
    ADD_FAILURE() << "no task should run";
    return 0;
  });
  EXPECT_TRUE(out.empty());
}

TEST(ParallelRunner, TaskExceptionIsRethrown) {
  const ParallelRunner pool(4);
  EXPECT_THROW((void)pool.map_with_sim<int>(16,
                                            [](int i, sim::Simulator&) {
                                              if (i == 7) {
                                                throw std::runtime_error("boom");
                                              }
                                              return i;
                                            }),
               std::runtime_error);
}

TEST(ParallelRunner, ThrowingTaskIsRethrownAfterEveryOtherTaskRan) {
  // Same contract at every worker count, including the 1-worker pool.
  for (const int workers : {1, 4}) {
    std::vector<std::atomic<int>> hits(16);
    EXPECT_THROW((void)ParallelRunner(workers).map_with_sim<int>(
                     16,
                     [&](int i, sim::Simulator&) {
                       hits[static_cast<std::size_t>(i)]++;
                       if (i == 3) throw std::runtime_error("boom");
                       return i;
                     }),
                 std::runtime_error);
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1) << workers << " worker(s)";
  }
}

TEST(ParallelRunner, DefaultThreadCountIsPositive) {
  EXPECT_GE(ParallelRunner().thread_count(), 1);
  EXPECT_EQ(ParallelRunner(5).thread_count(), 5);
}

/// The contract that makes the figure-bench fan-out safe: a task that
/// builds its Testbed on the worker's (reset) Simulator is a pure function
/// of its index, so the result vector is bit-identical for any worker count.
double testbed_metric(int i, sim::Simulator& sim) {
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
  const auto serial = ParallelRunner(1).map_with_sim<double>(kTasks, testbed_metric);
  const auto parallel =
      ParallelRunner(4).map_with_sim<double>(kTasks, testbed_metric);
  ASSERT_EQ(serial.size(), parallel.size());
  for (int i = 0; i < kTasks; ++i) {
    // Exact equality on purpose: parallelism may change wall-clock only,
    // never output.
    EXPECT_EQ(serial[static_cast<std::size_t>(i)],
              parallel[static_cast<std::size_t>(i)])
        << "task " << i;
  }
}

TEST(ParallelRunner, ReusedWorkerSimulatorsMatchPerTaskConstruction) {
  // Simulator::reset must make a reused engine indistinguishable from a
  // fresh one: a task that ignores the worker's engine and builds its own
  // gets the same result as one on the worker's, at any worker count.
  constexpr int kTasks = 6;
  const auto fresh = ParallelRunner(1).map_with_sim<double>(
      kTasks, [](int i, sim::Simulator&) {
        sim::Simulator own;
        return testbed_metric(i, own);
      });
  const auto reused_serial =
      ParallelRunner(1).map_with_sim<double>(kTasks, testbed_metric);
  const auto reused_parallel =
      ParallelRunner(4).map_with_sim<double>(kTasks, testbed_metric);
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
  const auto dispatched =
      pool.map_with_sim<std::uint64_t>(3, [](int, sim::Simulator& sim) {
        EXPECT_EQ(sim.now(), sim::Time{});
        EXPECT_EQ(sim.events_dispatched(), 0u);
        for (int k = 0; k < 5; ++k) sim.after(sim::seconds(k + 1), [] {});
        sim.run();
        return sim.events_dispatched();
      });
  ASSERT_EQ(dispatched.size(), 3u);
  for (const auto d : dispatched) EXPECT_EQ(d, 5u);
}

}  // namespace
}  // namespace efd::testbed
