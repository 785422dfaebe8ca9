// efd::obs metrics: id stability, lock-free shard merge correctness under
// ParallelRunner fan-out, snapshot determinism for deterministic workloads
// (across worker and shard counts too), histogram bucketing, and the runtime
// disable path.
#include <gtest/gtest.h>

#include <string>

#include "src/fault/fault.hpp"
#include "src/grid/appliance.hpp"
#include "src/grid/power_grid.hpp"
#include "src/obs/obs.hpp"
#include "src/plc/channel.hpp"
#include "src/plc/channel_estimator.hpp"
#include "src/testbed/nan.hpp"
#include "src/testbed/parallel_runner.hpp"

namespace efd {
namespace {

class ObsMetricsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::set_enabled(true);
    obs::MetricsRegistry::instance().reset();
  }
  void TearDown() override { obs::set_enabled(true); }
};

TEST_F(ObsMetricsTest, CounterIdIsStableAcrossLookups) {
  auto& reg = obs::MetricsRegistry::instance();
  const obs::CounterId a = reg.counter_id("test.obs.id_stability");
  const obs::CounterId b = reg.counter_id("test.obs.id_stability");
  EXPECT_GE(a.index, 0);
  EXPECT_EQ(a.index, b.index);
  // A different name gets a different slot.
  EXPECT_NE(reg.counter_id("test.obs.id_stability2").index, a.index);
}

TEST_F(ObsMetricsTest, CountersSumAcrossParallelWorkers) {
  constexpr int kTasks = 64;
  constexpr int kIncrementsPerTask = 1000;
  const testbed::ParallelRunner pool(4);
  (void)pool.map_with_sim<int>(kTasks, [](int, sim::Simulator&) {
    for (int k = 0; k < kIncrementsPerTask; ++k) {
      EFD_COUNTER_INC("test.obs.fanout_counter");
    }
    return 0;
  });
  const auto snap = obs::MetricsRegistry::instance().snapshot();
  EXPECT_EQ(snap.counter("test.obs.fanout_counter"),
            static_cast<std::uint64_t>(kTasks) * kIncrementsPerTask);
}

TEST_F(ObsMetricsTest, HistogramsMergeAcrossParallelWorkers) {
  constexpr int kTasks = 32;
  const testbed::ParallelRunner pool(4);
  (void)pool.map_with_sim<int>(kTasks, [](int i, sim::Simulator&) {
    // Every task observes its own index: the merged histogram must hold
    // exactly one observation per task regardless of which worker ran it.
    EFD_HISTO_OBSERVE("test.obs.fanout_histo", i);
    return 0;
  });
  const auto snap = obs::MetricsRegistry::instance().snapshot();
  const obs::HistogramData* h = snap.histogram("test.obs.fanout_histo");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, static_cast<std::uint64_t>(kTasks));
  EXPECT_DOUBLE_EQ(h->sum, kTasks * (kTasks - 1) / 2.0);
  std::uint64_t bucket_total = 0;
  for (const std::uint64_t b : h->buckets) bucket_total += b;
  EXPECT_EQ(bucket_total, h->count);
}

TEST_F(ObsMetricsTest, MergeIsIndependentOfWorkerCount) {
  const auto workload = [](int workers) {
    obs::MetricsRegistry::instance().reset();
    const testbed::ParallelRunner pool(workers);
    (void)pool.map_with_sim<int>(40, [](int i, sim::Simulator&) {
      EFD_COUNTER_ADD("test.obs.indep_counter", i);
      EFD_HISTO_OBSERVE("test.obs.indep_histo", i % 7);
      return 0;
    });
    return obs::MetricsRegistry::instance().snapshot();
  };
  const obs::MetricsSnapshot serial = workload(1);
  const obs::MetricsSnapshot parallel = workload(4);
  EXPECT_EQ(serial.counter("test.obs.indep_counter"), 40u * 39u / 2u);
  ASSERT_NE(serial.histogram("test.obs.indep_histo"), nullptr);
  EXPECT_EQ(serial.histogram("test.obs.indep_histo")->count, 40u);
  EXPECT_EQ(serial.to_json(), parallel.to_json());
}

TEST_F(ObsMetricsTest, ShardedRunSnapshotIsIndependentOfShardCount) {
  // A stormy NAN on 1 and on 4 shards: every counter and histogram must
  // match. Shard windows observe no engine histogram, since a shard's heap
  // depth and window count depend on the cell grouping and on timing.
  const auto run = [](int shards) {
    testbed::NanRunConfig cfg;
    cfg.nan.n_meters = 36;
    cfg.nan.meters_per_transformer = 9;
    cfg.nan.transformers_per_feeder = 2;
    cfg.nan.stations_per_transformer = 5;
    cfg.nan.seed = 42;
    cfg.n_shards = shards;
    cfg.duration = sim::milliseconds(40);
    cfg.report_interval = sim::milliseconds(2);
    cfg.p_remote = 0.3;
    cfg.faults.blackout(sim::milliseconds(10), sim::milliseconds(10), 0, 1.0)
        .link_partition(sim::milliseconds(15), sim::milliseconds(15), 0);
    obs::MetricsRegistry::instance().reset();
    const testbed::NanResult r = testbed::run_nan(cfg);
    EXPECT_EQ(r.n_shards, shards);
    EXPECT_GT(r.fault_events, 0u);
    return obs::MetricsRegistry::instance().snapshot();
  };
  const obs::MetricsSnapshot one = run(1);
  const obs::MetricsSnapshot four = run(4);
  EXPECT_GT(one.counter("sim.events_dispatched"), 0u);
  EXPECT_GT(one.counter("sim.shard.boundary_delivered"), 0u);
  EXPECT_EQ(one.to_json(), four.to_json());
}

TEST_F(ObsMetricsTest, SnapshotIsDeterministicForFixedSeeds) {
  // A real instrumented workload (channel estimator over a small grid):
  // identical seeds must produce byte-identical snapshots, counters and
  // histogram cells included — the property CI diffs rely on. The profiler
  // is runtime-disabled here: its embedded timings are wall-clock based and
  // can never be byte-stable.
  const bool prof_was_enabled = obs::prof_enabled();
  obs::set_prof_enabled(false);
  const auto run_workload = [] {
    obs::MetricsRegistry::instance().reset();
    obs::ProfileRegistry::instance().reset();
    grid::PowerGrid pg;
    const int a = pg.add_node("a");
    const int j = pg.add_node("j");
    const int b = pg.add_node("b");
    pg.add_cable(a, j, 12.0);
    pg.add_cable(j, b, 10.0);
    for (std::uint64_t s = 0; s < 4; ++s) {
      pg.add_appliance(grid::make_appliance(grid::ApplianceType::kWorkstation,
                                            s < 2 ? j : b, s));
    }
    plc::PlcChannel channel(pg, plc::PhyParams::hpav());
    channel.attach_station(0, a);
    channel.attach_station(1, b);
    plc::ChannelEstimator est(channel, 0, 1, sim::Rng{42}, {});
    sim::Time now = sim::days(1);
    est.on_sound_frame(now);
    for (int k = 0; k < 200; ++k) {
      now += sim::milliseconds(3);
      est.on_frame_received(channel.slot_at(now), 50, k % 17 == 0 ? 1 : 0, 40,
                            now);
    }
    return obs::snapshot_json();
  };
  const std::string first = run_workload();
  const std::string second = run_workload();
  obs::set_prof_enabled(prof_was_enabled);
  EXPECT_EQ(first, second);
  // The workload actually exercised the instrumentation.
  EXPECT_NE(first.find("plc.est.tonemap_updates"), std::string::npos);
  EXPECT_NE(first.find("plc.est.pb_errors"), std::string::npos);
  EXPECT_NE(first.find("grid.atten.queries"), std::string::npos);
}

TEST_F(ObsMetricsTest, HistogramBucketsArePowersOfTwo) {
  EXPECT_EQ(obs::histogram_bucket(0.0), 0);
  EXPECT_EQ(obs::histogram_bucket(0.5), 0);
  EXPECT_EQ(obs::histogram_bucket(-3.0), 0);
  EXPECT_EQ(obs::histogram_bucket(1.0), 1);   // [1, 2)
  EXPECT_EQ(obs::histogram_bucket(1.9), 1);
  EXPECT_EQ(obs::histogram_bucket(2.0), 2);   // [2, 4)
  EXPECT_EQ(obs::histogram_bucket(3.0), 2);
  EXPECT_EQ(obs::histogram_bucket(4.0), 3);   // [4, 8)
  EXPECT_EQ(obs::histogram_bucket(1024.0), 11);
  EXPECT_EQ(obs::histogram_bucket(1e30), obs::kHistogramBuckets - 1);
}

TEST_F(ObsMetricsTest, DroppedIdsAreSafeNoOps) {
  obs::counter_add(obs::CounterId{-1}, 5);
  obs::histogram_observe(obs::HistogramId{-1}, 1.0);
  // Nothing to assert beyond "did not crash / did not corrupt a slot":
  // snapshot still works.
  (void)obs::MetricsRegistry::instance().snapshot();
}

TEST_F(ObsMetricsTest, ResetZeroesEveryCell) {
  EFD_COUNTER_ADD("test.obs.reset_counter", 9);
  EFD_HISTO_OBSERVE("test.obs.reset_histo", 3.0);
  obs::MetricsRegistry::instance().reset();
  const auto snap = obs::MetricsRegistry::instance().snapshot();
  EXPECT_EQ(snap.counter("test.obs.reset_counter"), 0u);
  const obs::HistogramData* h = snap.histogram("test.obs.reset_histo");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 0u);
}

TEST_F(ObsMetricsTest, RuntimeDisableStopsRecording) {
  EFD_COUNTER_INC("test.obs.disable_counter");
  obs::set_enabled(false);
  for (int i = 0; i < 100; ++i) {
    EFD_COUNTER_INC("test.obs.disable_counter");
  }
  obs::set_enabled(true);
  const auto snap = obs::MetricsRegistry::instance().snapshot();
  EXPECT_EQ(snap.counter("test.obs.disable_counter"), 1u);
}

TEST_F(ObsMetricsTest, SnapshotJsonHasTheThreeSections) {
  // Counters, histograms and the embedded profile tree; nothing else.
  EFD_COUNTER_INC("test.obs.json_counter");
  EFD_HISTO_OBSERVE("test.obs.json_histo", 4.0);
  const std::string json = obs::snapshot_json();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"profile\""), std::string::npos);
  EXPECT_EQ(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"test.obs.json_counter\": 1"), std::string::npos);
  // Histogram entry carries count/sum/buckets.
  EXPECT_NE(json.find("\"test.obs.json_histo\": {\"count\": 1, \"sum\": 4"),
            std::string::npos);
}

}  // namespace
}  // namespace efd
