#include "src/fault/fault.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/fault/health.hpp"
#include "src/fault/injector.hpp"
#include "src/sim/simulator.hpp"
#include "tests/alloc_count.hpp"

namespace efd::fault {
namespace {

// --------------------------------------------------------------------------
// FaultPlan
// --------------------------------------------------------------------------

TEST(FaultPlan, KeepsSpecsSortedByOnset) {
  FaultPlan plan;
  plan.wifi_jam(sim::seconds(5), sim::seconds(1))
      .blackout(sim::seconds(1), sim::seconds(2))
      .link_partition(sim::seconds(3), sim::seconds(1), /*link=*/0);
  ASSERT_EQ(plan.size(), 3u);
  EXPECT_EQ(plan.specs()[0].kind, FaultKind::kPlcBlackout);
  EXPECT_EQ(plan.specs()[1].kind, FaultKind::kLinkPartition);
  EXPECT_EQ(plan.specs()[2].kind, FaultKind::kWifiJam);
  EXPECT_EQ(plan.end(), sim::seconds(6));
}

TEST(FaultPlan, EqualOnsetsKeepInsertionOrder) {
  FaultPlan plan;
  plan.board_blackout(sim::seconds(1), sim::seconds(1), /*board=*/0)
      .board_blackout(sim::seconds(1), sim::seconds(1), /*board=*/1)
      .board_blackout(sim::seconds(1), sim::seconds(1), /*board=*/2);
  for (int i = 0; i < 3; ++i) EXPECT_EQ(plan.specs()[i].target, i);
}

TEST(FaultPlan, RandomStormIsSeedDeterministic) {
  FaultPlan::CampusStormConfig cfg;
  cfg.n_blackouts = 4;
  cfg.n_brownouts = 4;
  cfg.n_partitions = 4;
  cfg.n_boards = 4;
  cfg.n_links = 4;
  const FaultPlan a = FaultPlan::random_campus_storm(sim::Rng{1234}, cfg);
  const FaultPlan b = FaultPlan::random_campus_storm(sim::Rng{1234}, cfg);
  const FaultPlan c = FaultPlan::random_campus_storm(sim::Rng{99}, cfg);
  ASSERT_EQ(a.size(), 12u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.specs()[i].onset, b.specs()[i].onset);
    EXPECT_EQ(a.specs()[i].duration, b.specs()[i].duration);
    EXPECT_EQ(a.specs()[i].kind, b.specs()[i].kind);
    EXPECT_EQ(a.specs()[i].target, b.specs()[i].target);
    EXPECT_EQ(a.specs()[i].severity, b.specs()[i].severity);
  }
  bool differs = false;
  for (std::size_t i = 0; i < a.size() && !differs; ++i) {
    differs = !(a.specs()[i].onset == c.specs()[i].onset &&
                a.specs()[i].severity == c.specs()[i].severity);
  }
  EXPECT_TRUE(differs);
}

TEST(FaultPlan, StormRespectsConfigBounds) {
  FaultPlan::CampusStormConfig cfg;
  cfg.start = sim::seconds(2);
  cfg.horizon = sim::seconds(10);
  cfg.min_duration = sim::milliseconds(200);
  cfg.max_duration = sim::seconds(5);
  cfg.n_blackouts = 20;
  cfg.n_brownouts = 20;
  cfg.n_partitions = 10;
  cfg.n_boards = 3;
  cfg.n_links = 2;
  cfg.min_severity = 0.25;
  cfg.max_severity = 0.75;
  const FaultPlan plan = FaultPlan::random_campus_storm(sim::Rng{7}, cfg);
  ASSERT_EQ(plan.size(), 50u);
  for (const FaultSpec& s : plan.specs()) {
    EXPECT_GE(s.onset, cfg.start);
    EXPECT_LT(s.onset, cfg.horizon);
    EXPECT_GE(s.duration, cfg.min_duration);
    EXPECT_LE(s.duration, cfg.max_duration);
    EXPECT_GE(s.target, 0);
    switch (s.kind) {
      case FaultKind::kBoardBlackout:
        EXPECT_LT(s.target, 3);
        EXPECT_EQ(s.severity, 1.0);
        break;
      case FaultKind::kBoardBrownout:
        EXPECT_LT(s.target, 3);
        EXPECT_GE(s.severity, 0.25);
        EXPECT_LE(s.severity, 0.75);
        break;
      case FaultKind::kLinkPartition:
        EXPECT_LT(s.target, 2);
        EXPECT_EQ(s.severity, 0.0);
        break;
      default:
        ADD_FAILURE() << "campus storm drew " << to_string(s.kind);
    }
  }
}

// --------------------------------------------------------------------------
// FaultInjector
// --------------------------------------------------------------------------

TEST(FaultInjector, FiresApplyAndClearHooksOnSchedule) {
  sim::Simulator sim;
  FaultInjector inj(sim);
  std::vector<std::string> events;
  inj.set_hooks(FaultKind::kPlcBlackout,
                {[&](const FaultSpec& s, sim::Time t) {
                   events.push_back("apply@" + std::to_string(t.ns()) +
                                    " sev=" + std::to_string(s.severity));
                 },
                 [&](const FaultSpec&, sim::Time t) {
                   events.push_back("clear@" + std::to_string(t.ns()));
                 }});
  FaultPlan plan;
  plan.blackout(sim::milliseconds(10), sim::milliseconds(5), 0, 1.0);
  inj.install(plan);

  sim.run_until(sim::milliseconds(12));
  EXPECT_EQ(inj.active_faults(), 1);
  sim.run_until(sim::milliseconds(20));
  EXPECT_EQ(inj.active_faults(), 0);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0], "apply@10000000 sev=1.000000");
  EXPECT_EQ(events[1], "clear@15000000");
  EXPECT_EQ(inj.faults_applied(), 1u);
  EXPECT_EQ(inj.faults_cleared(), 1u);
}

TEST(FaultInjector, UnhookedKindsAreStillTraced) {
  sim::Simulator sim;
  FaultInjector inj(sim);
  FaultPlan plan;
  plan.wifi_jam(sim::milliseconds(2), sim::milliseconds(3));
  inj.install(plan);
  sim.run_until(sim::milliseconds(10));
  ASSERT_EQ(inj.trace().size(), 2u);
  EXPECT_EQ(inj.trace()[0].phase, FaultPhase::kApply);
  EXPECT_EQ(inj.trace()[1].phase, FaultPhase::kClear);
}

std::string run_storm_trace(std::uint64_t seed) {
  sim::Simulator sim;
  FaultInjector inj(sim);
  FaultPlan::CampusStormConfig cfg;
  cfg.start = sim::seconds(1);
  cfg.horizon = sim::seconds(20);
  cfg.min_duration = sim::milliseconds(200);
  cfg.max_duration = sim::seconds(5);
  cfg.n_blackouts = 4;
  cfg.n_brownouts = 4;
  cfg.n_partitions = 2;
  cfg.n_boards = 2;
  cfg.n_links = 2;
  inj.install(FaultPlan::random_campus_storm(sim::Rng{seed}, cfg));
  sim.run_until(sim::seconds(30));
  return inj.trace_lines();
}

TEST(FaultInjector, StormTraceIsByteIdenticalAcrossRuns) {
  const std::string a = run_storm_trace(42);
  const std::string b = run_storm_trace(42);
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);
  EXPECT_NE(a, run_storm_trace(43));
}

TEST(FaultInjector, RecordAppendsRecoveryEvents) {
  sim::Simulator sim;
  FaultInjector inj(sim);
  inj.record(FaultPhase::kTrip, FaultKind::kLinkPartition, 1);
  inj.record(FaultPhase::kRecover, FaultKind::kLinkPartition, 1);
  ASSERT_EQ(inj.trace().size(), 2u);
  EXPECT_EQ(inj.trace()[0].phase, FaultPhase::kTrip);
  EXPECT_EQ(inj.trace()[1].phase, FaultPhase::kRecover);
  const std::string lines = inj.trace_lines();
  EXPECT_NE(lines.find("trip"), std::string::npos);
  EXPECT_NE(lines.find("recover"), std::string::npos);
}

// --------------------------------------------------------------------------
// HealthMonitor
// --------------------------------------------------------------------------

/// Scripted probe subject: answers (or swallows) probes synchronously.
struct ProbeScript {
  HealthMonitor* mon = nullptr;
  bool answer_ok = true;
  bool swallow = false;  ///< drop the probe — the timeout will fail it
  std::uint64_t last_nonce = 0;
  std::uint64_t probes = 0;

  void operator()(std::uint64_t nonce) {
    ++probes;
    last_nonce = nonce;
    if (!swallow) mon->on_probe_result(nonce, answer_ok);
  }
};

HealthMonitor::Config fast_cfg() {
  HealthMonitor::Config cfg;
  cfg.probe_interval = sim::milliseconds(10);
  cfg.probe_timeout = sim::milliseconds(4);
  cfg.trip_threshold = 3;
  cfg.backoff_initial = sim::milliseconds(20);
  cfg.backoff_factor = 2.0;
  cfg.backoff_max = sim::milliseconds(100);
  cfg.jitter_frac = 0.1;
  cfg.recovery_successes = 2;
  return cfg;
}

TEST(HealthMonitor, StaysClosedWhileProbesSucceed) {
  sim::Simulator sim;
  ProbeScript script;
  HealthMonitor mon(sim, sim::Rng{1}, fast_cfg(),
                    [&](std::uint64_t n) { script(n); });
  script.mon = &mon;
  mon.start();
  sim.run_until(sim::milliseconds(105));
  EXPECT_EQ(mon.state(), HealthMonitor::State::kClosed);
  EXPECT_TRUE(mon.healthy());
  EXPECT_EQ(script.probes, 10u);
  EXPECT_EQ(mon.trips(), 0u);
}

TEST(HealthMonitor, TripsAfterConsecutiveTimeouts) {
  sim::Simulator sim;
  ProbeScript script;
  script.swallow = true;
  HealthMonitor mon(sim, sim::Rng{1}, fast_cfg(),
                    [&](std::uint64_t n) { script(n); });
  script.mon = &mon;
  std::vector<HealthMonitor::State> states;
  mon.set_listener([&](HealthMonitor::State s, sim::Time) { states.push_back(s); });
  mon.start();
  // Each cycle is probe + 4 ms timeout + 10 ms rearm: failures land at
  // 14/28/42 ms, and the third one crosses trip_threshold = 3.
  sim.run_until(sim::milliseconds(41));
  EXPECT_EQ(mon.state(), HealthMonitor::State::kClosed);
  sim.run_until(sim::milliseconds(43));
  EXPECT_EQ(mon.state(), HealthMonitor::State::kOpen);
  EXPECT_FALSE(mon.healthy());
  EXPECT_EQ(mon.trips(), 1u);
  ASSERT_EQ(states.size(), 1u);
  EXPECT_EQ(states[0], HealthMonitor::State::kOpen);
}

TEST(HealthMonitor, OpenReprobesWithGrowingBackoff) {
  sim::Simulator sim;
  ProbeScript script;
  script.swallow = true;
  HealthMonitor mon(sim, sim::Rng{1}, fast_cfg(),
                    [&](std::uint64_t n) { script(n); });
  script.mon = &mon;
  mon.start();
  sim.run_until(sim::seconds(1));
  EXPECT_EQ(mon.state(), HealthMonitor::State::kOpen);
  // Backoff doubles to the 100 ms cap (+ ≤10 % jitter): over ~966 ms of
  // open time that bounds the reprobe count well below the closed-state
  // 10 ms cadence.
  EXPECT_GE(script.probes, 8u);
  EXPECT_LE(script.probes, 18u);
  EXPECT_GT(mon.probes_failed(), 8u);
}

TEST(HealthMonitor, RecoversThroughHalfOpen) {
  sim::Simulator sim;
  ProbeScript script;
  script.swallow = true;
  HealthMonitor mon(sim, sim::Rng{1}, fast_cfg(),
                    [&](std::uint64_t n) { script(n); });
  script.mon = &mon;
  std::vector<HealthMonitor::State> states;
  mon.set_listener([&](HealthMonitor::State s, sim::Time) { states.push_back(s); });
  mon.start();
  sim.run_until(sim::milliseconds(45));
  ASSERT_EQ(mon.state(), HealthMonitor::State::kOpen);
  // The link comes back: next reprobe succeeds, a second success closes.
  script.swallow = false;
  script.answer_ok = true;
  sim.run_until(sim::milliseconds(120));
  EXPECT_EQ(mon.state(), HealthMonitor::State::kClosed);
  EXPECT_EQ(mon.recoveries(), 1u);
  ASSERT_EQ(states.size(), 3u);
  EXPECT_EQ(states[0], HealthMonitor::State::kOpen);
  EXPECT_EQ(states[1], HealthMonitor::State::kHalfOpen);
  EXPECT_EQ(states[2], HealthMonitor::State::kClosed);
}

TEST(HealthMonitor, HalfOpenFailureReopensWithDeeperBackoff) {
  sim::Simulator sim;
  ProbeScript script;
  script.swallow = true;
  HealthMonitor mon(sim, sim::Rng{1}, fast_cfg(),
                    [&](std::uint64_t n) { script(n); });
  script.mon = &mon;
  mon.start();
  sim.run_until(sim::milliseconds(45));
  ASSERT_EQ(mon.state(), HealthMonitor::State::kOpen);
  // One success puts it half-open; then the link dies again.
  script.swallow = false;
  script.answer_ok = true;
  const std::uint64_t before = script.probes;
  while (mon.state() != HealthMonitor::State::kHalfOpen &&
         sim.now() < sim::seconds(1)) {
    sim.run_until(sim.now() + sim::milliseconds(1));
  }
  ASSERT_EQ(mon.state(), HealthMonitor::State::kHalfOpen);
  EXPECT_GT(script.probes, before);
  script.answer_ok = false;
  sim.run_until(sim.now() + sim::milliseconds(15));
  EXPECT_EQ(mon.state(), HealthMonitor::State::kOpen);
  EXPECT_EQ(mon.recoveries(), 0u);
}

TEST(HealthMonitor, OpenStateTimeoutsClampBackoffAtTheCap) {
  // Regression: the probe-timeout path used to deepen the backoff stage on
  // every failed reprobe while already open, so a long outage pushed the
  // exponent (and the next reprobe delay) without bound. The stage must
  // saturate at the first value whose delay hits backoff_max.
  sim::Simulator sim;
  std::vector<sim::Time> probe_times;
  ProbeScript script;
  script.swallow = true;
  HealthMonitor mon(sim, sim::Rng{1}, fast_cfg(), [&](std::uint64_t n) {
    probe_times.push_back(sim.now());
    script(n);
  });
  script.mon = &mon;
  mon.start();
  sim.run_until(sim::seconds(5));
  ASSERT_EQ(mon.state(), HealthMonitor::State::kOpen);
  EXPECT_GT(mon.probes_failed(), 20u);
  // fast_cfg: 20 ms doubling against a 100 ms cap saturates at stage 3
  // (20 -> 40 -> 80 -> 160 ms, clamped to 100).
  EXPECT_LE(mon.backoff_stage(), 3);
  // The observable contract: late reprobe gaps stay bounded by
  // backoff_max (+ jitter) + probe_timeout instead of growing each trip.
  const HealthMonitor::Config cfg = fast_cfg();
  const std::int64_t bound =
      static_cast<std::int64_t>(static_cast<double>(cfg.backoff_max.ns()) *
                                (1.0 + cfg.jitter_frac)) +
      cfg.probe_timeout.ns();
  ASSERT_GT(probe_times.size(), 12u);
  for (std::size_t i = probe_times.size() - 8; i < probe_times.size(); ++i) {
    EXPECT_LE(probe_times[i].ns() - probe_times[i - 1].ns(), bound) << "i=" << i;
  }
}

TEST(HealthMonitor, StaleNonceIsIgnored) {
  sim::Simulator sim;
  ProbeScript script;
  script.swallow = true;  // keep the real probes unanswered
  HealthMonitor mon(sim, sim::Rng{1}, fast_cfg(),
                    [&](std::uint64_t n) { script(n); });
  script.mon = &mon;
  mon.start();
  sim.run_until(sim::milliseconds(11));  // one probe in flight
  const std::uint64_t live_nonce = script.last_nonce;
  mon.on_probe_result(live_nonce + 1000, true);  // wrong nonce
  EXPECT_EQ(mon.stale_results(), 1u);
  mon.on_probe_result(live_nonce, true);  // the real one still counts
  EXPECT_EQ(mon.state(), HealthMonitor::State::kClosed);
  EXPECT_EQ(mon.consecutive_failures(), 0);
  // A result after the timeout already failed the probe is stale too.
  sim.run_until(sim::milliseconds(25));
  mon.on_probe_result(script.last_nonce, true);
  sim.run_until(sim::milliseconds(26));
  mon.on_probe_result(script.last_nonce, true);  // answered twice: second is stale
  EXPECT_GE(mon.stale_results(), 2u);
}

TEST(HealthMonitor, StopDisarmsAndStartResumes) {
  sim::Simulator sim;
  ProbeScript script;
  HealthMonitor mon(sim, sim::Rng{1}, fast_cfg(),
                    [&](std::uint64_t n) { script(n); });
  script.mon = &mon;
  mon.start();
  sim.run_until(sim::milliseconds(25));
  const std::uint64_t at_stop = script.probes;
  mon.stop();
  sim.run_until(sim::milliseconds(200));
  EXPECT_EQ(script.probes, at_stop);
  mon.start();
  sim.run_until(sim::milliseconds(250));
  EXPECT_GT(script.probes, at_stop);
}

TEST(HealthMonitor, TransitionTimesAreSeedDeterministic) {
  // Two monitors, same seed, same scripted outage: byte-identical
  // transition schedules (the jitter comes from the seeded Rng).
  auto run = [](std::uint64_t seed) {
    sim::Simulator sim;
    ProbeScript script;
    script.swallow = true;
    HealthMonitor mon(sim, sim::Rng{seed}, fast_cfg(),
                      [&](std::uint64_t n) { script(n); });
    script.mon = &mon;
    std::vector<std::int64_t> times;
    mon.set_listener(
        [&](HealthMonitor::State, sim::Time t) { times.push_back(t.ns()); });
    mon.start();
    sim.run_until(sim::milliseconds(500));  // trip + several backed-off reprobes
    script.swallow = false;
    sim.run_until(sim::seconds(1));  // recover
    return times;
  };
  EXPECT_EQ(run(7), run(7));
  EXPECT_NE(run(7), run(8));
}

// --------------------------------------------------------------------------
// Zero-allocation pins (satellite: steady-state hot paths)
// --------------------------------------------------------------------------

TEST(FaultAllocation, MonitorSteadyStateIsAllocationFree) {
  sim::Simulator sim;
  ProbeScript script;
  HealthMonitor mon(sim, sim::Rng{1}, fast_cfg(),
                    [&](std::uint64_t n) { script(n); });
  script.mon = &mon;
  mon.start();
  // Warm up: first probe cycles touch obs registries and the event slab.
  sim.run_until(sim::milliseconds(100));
  const testsupport::AllocationWindow window;
  sim.run_until(sim::milliseconds(1100));  // ~100 probe round trips
  EXPECT_EQ(window.count(), 0u) << "healthy-path probing must not allocate";
  EXPECT_GE(script.probes, 100u);
}

TEST(FaultAllocation, InjectorFiringIsAllocationFree) {
  sim::Simulator sim;
  FaultInjector inj(sim);
  int applies = 0;
  inj.set_hooks(FaultKind::kPlcBlackout,
                {[&](const FaultSpec&, sim::Time) { ++applies; },
                 [&](const FaultSpec&, sim::Time) {}});
  // Warm-up fault: first fire registers the obs counters.
  FaultPlan warm;
  warm.blackout(sim::milliseconds(1), sim::milliseconds(1));
  inj.install(warm);
  sim.run_until(sim::milliseconds(5));
  FaultPlan plan;
  for (int i = 0; i < 50; ++i) {
    plan.blackout(sim::milliseconds(10 + 10 * i), sim::milliseconds(5));
  }
  // install() reserves trace and schedule capacity up front; firing the
  // events afterwards must not touch the heap.
  inj.install(plan);
  const testsupport::AllocationWindow window;
  sim.run_until(sim::seconds(2));
  EXPECT_EQ(window.count(), 0u) << "fault apply/clear dispatch must not allocate";
  EXPECT_EQ(applies, 51);
  EXPECT_EQ(inj.trace().size(), 102u);
}

}  // namespace
}  // namespace efd::fault
