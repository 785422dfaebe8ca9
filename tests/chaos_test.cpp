// Chaos harness (ISSUE 4 tentpole): scripted fault storms against the full
// hybrid stack — real PLC + WiFi MACs on the Fig. 2 testbed, a HybridDevice
// pair with health-monitored failover — asserting the recovery invariants:
//
//   * delivery never stops while at least one medium survives;
//   * the app layer sees no duplicate or out-of-order packet, faults or not;
//   * a tripped member rejoins within the reprobe budget of the fault
//     clearing, and the fault/recovery trace is byte-identical across runs.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/fault/fault.hpp"
#include "src/fault/injector.hpp"
#include "src/hybrid/device.hpp"
#include "src/net/meters.hpp"
#include "src/net/sources.hpp"
#include "src/testbed/experiment.hpp"

namespace efd {
namespace {

struct Pair {
  int src = -1;
  int dst = -1;
};

/// A pair where both mediums hold a usable link, so failover has a genuine
/// survivor to fall back on.
Pair pick_pair(testbed::Testbed& tb, sim::Time now) {
  for (const auto& [a, b] : tb.plc_links()) {
    const double plc_snr = tb.plc_channel().mean_snr_db(a, b, 0, now);
    const double wifi_snr = tb.wifi().channel().mean_snr_db(a, b);
    if (plc_snr > 22.0 && wifi_snr > 16.0) return {a, b};
  }
  return {tb.plc_links().front().first, tb.plc_links().front().second};
}

hybrid::HybridDevice::FailoverConfig failover_config(int src, int dst,
                                                     fault::FaultInjector& inj) {
  hybrid::HybridDevice::FailoverConfig fc;
  fc.self = src;
  fc.peer = dst;
  fc.health.probe_interval = sim::milliseconds(100);
  fc.health.probe_timeout = sim::milliseconds(60);
  fc.health.trip_threshold = 3;
  fc.health.backoff_initial = sim::milliseconds(200);
  fc.health.backoff_max = sim::seconds(1);
  fc.health.recovery_successes = 2;
  fc.seed = 0xFEED;
  // Every breaker transition flows into the injector's recovery trace
  // (member 0 = PLC, member 1 = WiFi).
  fc.on_transition = [&inj](int m, fault::HealthMonitor::State s, sim::Time) {
    using State = fault::HealthMonitor::State;
    const auto kind =
        m == 0 ? fault::FaultKind::kPlcBlackout : fault::FaultKind::kWifiJam;
    if (s == State::kOpen) inj.record(fault::FaultPhase::kTrip, kind, m);
    if (s == State::kHalfOpen) inj.record(fault::FaultPhase::kHalfOpen, kind, m);
    if (s == State::kClosed) inj.record(fault::FaultPhase::kRecover, kind, m);
  };
  return fc;
}

struct BlackoutRun {
  std::string trace;
  std::uint64_t delivered = 0;
  std::uint64_t out_of_order = 0;
  std::uint64_t pre_fault = 0;      ///< delivered in [0 s, 4 s)
  std::uint64_t during_fault = 0;   ///< delivered in [4.5 s, 8 s)
  std::uint64_t post_recovery = 0;  ///< delivered in [9.5 s, 13 s)
  std::uint64_t trips = 0;
  std::uint64_t recoveries = 0;
  std::int64_t recovered_at_ns = -1;  ///< first kClosed after the trip, rel. t0
};

/// 13 s of 12 Mb/s UDP over the hybrid pair with a total PLC blackout in
/// [4 s, 8 s).
BlackoutRun run_blackout_scenario(std::uint64_t seed) {
  sim::Simulator sim;
  testbed::Testbed::Config tcfg;
  tcfg.seed = seed;
  tcfg.with_hpav500 = false;
  testbed::Testbed tb(sim, tcfg);
  sim.run_until(testbed::weekday_afternoon());
  const Pair pair = pick_pair(tb, sim.now());

  // Warm the PLC estimator, then take the capacity baselines.
  (void)testbed::measure_plc_throughput(tb, pair.src, pair.dst, sim::seconds(3));
  const auto plc_cap =
      testbed::measure_plc_throughput(tb, pair.src, pair.dst, sim::seconds(2));
  const auto wifi_cap =
      testbed::measure_wifi_throughput(tb, pair.src, pair.dst, sim::seconds(2));

  const sim::Time t0 = sim.now();
  hybrid::HybridDevice tx(
      sim, {&tb.plc_station(pair.src).mac(), &tb.wifi_station(pair.src)},
      std::make_unique<hybrid::CapacityScheduler>(sim::Rng{3}));
  hybrid::HybridDevice rx(
      sim, {&tb.plc_station(pair.dst).mac(), &tb.wifi_station(pair.dst)},
      std::make_unique<hybrid::RoundRobinScheduler>(2));

  BlackoutRun r;
  net::OrderMeter order;
  rx.set_rx_handler([&](const net::Packet& p, sim::Time t) {
    order.on_packet(p, t);
    ++r.delivered;
    const sim::Time rel = t - t0;
    if (rel < sim::seconds(4)) ++r.pre_fault;
    if (rel >= sim::milliseconds(4500) && rel < sim::seconds(8)) ++r.during_fault;
    if (rel >= sim::milliseconds(9500) && rel < sim::seconds(13)) ++r.post_recovery;
  });
  rx.start_receiving();
  tx.set_capacities({plc_cap.mean_mbps, wifi_cap.mean_mbps});

  fault::FaultInjector inj(sim);
  plc::PlcMedium& plc_medium = tb.plc_network_of(pair.src).medium();
  inj.set_hooks(
      fault::FaultKind::kPlcBlackout,
      {[&](const fault::FaultSpec& s, sim::Time t) {
         plc_medium.set_fault_pb_error(s.severity);
         // The surge also invalidates the link's negotiated tone maps.
         tb.plc_network_of(pair.src).estimator(pair.dst, pair.src)
             .invalidate_tone_maps(t);
       },
       [&](const fault::FaultSpec&, sim::Time) {
         plc_medium.set_fault_pb_error(0.0);
       }});

  tx.enable_failover(failover_config(pair.src, pair.dst, inj));
  fault::FaultPlan plan;
  plan.blackout(t0 + sim::seconds(4), sim::seconds(4), /*target=*/0,
                /*severity=*/1.0);
  inj.install(plan);

  net::UdpSource::Config scfg;
  scfg.src = pair.src;
  scfg.dst = pair.dst;
  scfg.rate_bps = 12e6;
  scfg.packet_bytes = 1316;
  net::UdpSource source(sim, tx, scfg);
  source.run(t0, t0 + sim::seconds(13));
  sim.run_until(t0 + sim::seconds(14));

  r.out_of_order = order.out_of_order();
  r.trips = tx.monitor(0).trips();
  r.recoveries = tx.monitor(0).recoveries();
  // First PLC-member recovery after the blackout onset at t0 + 4 s.
  for (const fault::FaultEvent& e : inj.trace()) {
    if (e.phase == fault::FaultPhase::kRecover && e.target == 0 &&
        e.t > t0 + sim::seconds(4)) {
      r.recovered_at_ns = (e.t - t0).ns();
      break;
    }
  }
  r.trace = inj.trace_lines();
  return r;
}

TEST(ChaosBlackout, FailsOverAndRecovers) {
  const BlackoutRun r = run_blackout_scenario(/*seed=*/42);

  // Ordering invariant: the app layer never sees duplicate or out-of-order
  // delivery, blackout or not.
  EXPECT_EQ(r.out_of_order, 0u);
  EXPECT_GT(r.delivered, 1000u);

  // The PLC breaker tripped during the blackout and closed again after it.
  EXPECT_GE(r.trips, 1u);
  EXPECT_GE(r.recoveries, 1u);

  // Graceful degradation: traffic kept flowing on the WiFi survivor while
  // the PLC medium was dead...
  EXPECT_GT(r.pre_fault, 0u);
  EXPECT_GT(r.during_fault, 0u);
  // ...and aggregate delivery resumed after the fault cleared.
  EXPECT_GT(r.post_recovery, 0u);

  // Recovery deadline: the member rejoined within the reprobe budget
  // (backoff cap 1 s + jitter + 2 recovery probes) of the 8 s clear.
  ASSERT_GE(r.recovered_at_ns, 0);
  EXPECT_LE(r.recovered_at_ns, sim::milliseconds(8000 + 2500).ns());
}

TEST(ChaosBlackout, TraceIsByteIdenticalAcrossRuns) {
  const BlackoutRun a = run_blackout_scenario(/*seed=*/42);
  const BlackoutRun b = run_blackout_scenario(/*seed=*/42);
  EXPECT_FALSE(a.trace.empty());
  EXPECT_EQ(a.trace, b.trace);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.during_fault, b.during_fault);
}

TEST(ChaosStorm, ScriptedStormDegradesGracefullyAndDrains) {
  sim::Simulator sim;
  testbed::Testbed::Config tcfg;
  tcfg.seed = 42;
  tcfg.with_hpav500 = false;
  testbed::Testbed tb(sim, tcfg);
  sim.run_until(testbed::weekday_afternoon());
  const Pair pair = pick_pair(tb, sim.now());

  (void)testbed::measure_plc_throughput(tb, pair.src, pair.dst, sim::seconds(3));
  const auto plc_cap =
      testbed::measure_plc_throughput(tb, pair.src, pair.dst, sim::seconds(2));
  const auto wifi_cap =
      testbed::measure_wifi_throughput(tb, pair.src, pair.dst, sim::seconds(2));

  const sim::Time t0 = sim.now();
  hybrid::HybridDevice tx(
      sim, {&tb.plc_station(pair.src).mac(), &tb.wifi_station(pair.src)},
      std::make_unique<hybrid::CapacityScheduler>(sim::Rng{3}));
  hybrid::HybridDevice rx(
      sim, {&tb.plc_station(pair.dst).mac(), &tb.wifi_station(pair.dst)},
      std::make_unique<hybrid::RoundRobinScheduler>(2));

  net::OrderMeter order;
  std::uint64_t delivered = 0, after_storm = 0;
  const sim::Time storm_end = t0 + sim::seconds(8);
  rx.set_rx_handler([&](const net::Packet& p, sim::Time t) {
    order.on_packet(p, t);
    ++delivered;
    if (t >= storm_end + sim::seconds(2)) ++after_storm;
  });
  rx.start_receiving();
  tx.set_capacities({plc_cap.mean_mbps, wifi_cap.mean_mbps});

  fault::FaultInjector inj(sim);
  plc::PlcMedium& plc_medium = tb.plc_network_of(pair.src).medium();
  wifi::WifiMedium& wifi_medium = tb.wifi().medium();
  inj.set_hooks(fault::FaultKind::kPlcBlackout,
                {[&](const fault::FaultSpec& s, sim::Time) {
                   plc_medium.set_fault_pb_error(s.severity);
                 },
                 [&](const fault::FaultSpec&, sim::Time) {
                   plc_medium.set_fault_pb_error(0.0);
                 }});
  inj.set_hooks(fault::FaultKind::kWifiJam,
                {[&](const fault::FaultSpec& s, sim::Time) {
                   wifi_medium.set_jamming_db(40.0 * s.severity);
                 },
                 [&](const fault::FaultSpec&, sim::Time) {
                   wifi_medium.set_jamming_db(0.0);
                 }});

  tx.enable_failover(failover_config(pair.src, pair.dst, inj));

  // Six overlapping faults, every onset well inside the storm: partial
  // blackouts (severity < 1, a persistent PB error floor) and a total one,
  // interleaved with WiFi jams so that both mediums are down together for
  // part of the storm.
  const auto at = [t0](int ms) { return t0 + sim::milliseconds(ms); };
  fault::FaultPlan plan;
  plan.blackout(at(1000), sim::milliseconds(800), 0, 0.6)
      .wifi_jam(at(1500), sim::milliseconds(600), 0, 0.7)
      .blackout(at(3000), sim::milliseconds(700), 0, 1.0)
      .wifi_jam(at(3400), sim::milliseconds(500), 0, 1.0)
      .blackout(at(5000), sim::milliseconds(900), 0, 0.4)
      .wifi_jam(at(5500), sim::milliseconds(800), 0, 0.5);
  inj.install(plan);

  net::UdpSource::Config scfg;
  scfg.src = pair.src;
  scfg.dst = pair.dst;
  scfg.rate_bps = 12e6;
  scfg.packet_bytes = 1316;
  net::UdpSource source(sim, tx, scfg);
  source.run(t0, storm_end + sim::seconds(5));
  sim.run_until(storm_end + sim::seconds(6));

  // Every fault was applied and cleared.
  EXPECT_EQ(inj.active_faults(), 0);
  EXPECT_GE(inj.faults_applied(), 6u);

  // Ordering invariant holds through arbitrary overlapping faults.
  EXPECT_EQ(order.out_of_order(), 0u);

  // Delivery survived the storm and continues after it drains.
  EXPECT_GT(delivered, 1000u);
  EXPECT_GT(after_storm, 0u);

  // With every fault cleared and the grace period elapsed, both members
  // are live again (trip-and-stay-dead would violate graceful recovery).
  EXPECT_TRUE(tx.member_live(0));
  EXPECT_TRUE(tx.member_live(1));
}

}  // namespace
}  // namespace efd
