// efd — command-line front end to the Electri-Fi toolkit, in the spirit of
// the Open Powerline Toolkit the paper instruments its testbed with
// (int6krate / ampstat / the sniffer). Runs against the built-in Fig. 2
// testbed simulation.
//
//   efd survey [--night]              whole-floor link survey
//   efd rate <src> <dst>              int6krate-style capacity estimate
//   efd stat <src> <dst>              ampstat-style PBerr + U-ETX
//   efd trace <src> <dst> <seconds>   BLE trace at 50 ms, CSV to stdout
//   efd sniff <src> <dst> <seconds>   SoF capture under saturation, CSV
//   efd route <src> <dst>             min-ETT hybrid route
//   efd guidelines                    the paper's Table 3
//   efd topology [--outlets N] [--shards K] [--seed S]
//                                     campus grid as JSON (boards, shards,
//                                     boundary links), DESIGN.md §14
//   efd campus [--outlets N] [--shards K] [--seed S] [--ms D] [--storm SEED]
//                                     run a sharded campus (optionally under
//                                     a seeded fault-domain storm) and print
//                                     the deterministic digest report — the
//                                     CI chaos leg diffs this output between
//                                     shard counts, DESIGN.md §15
//   efd --proptest <seed> <n>         property-based scenario sweep
//
// A leading --metrics flag dumps the efd::obs metrics snapshot (counters and
// histograms accumulated by the command's simulation) as JSON to
// stderr after the command output, so CSV/stdout pipelines stay clean:
//   efd --metrics stat 0 5 2>metrics.json
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "src/core/capacity.hpp"
#include "src/core/env.hpp"
#include "src/core/etx.hpp"
#include "src/core/guidelines.hpp"
#include "src/core/sampler.hpp"
#include "src/core/sof_capture.hpp"
#include "src/core/trace_io.hpp"
#include "src/fault/fault.hpp"
#include "src/grid/campus.hpp"
#include "src/hybrid/routing.hpp"
#include "src/sim/sharded.hpp"
#include "src/obs/metrics.hpp"
#include "src/testbed/campus.hpp"
#include "src/testbed/experiment.hpp"
#include "src/testkit/proptest.hpp"

using namespace efd;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: efd [--metrics] <survey [--night] | rate S D | stat S D | "
               "trace S D SECS | sniff S D SECS | route S D | guidelines>\n"
               "       efd topology [--outlets N] [--shards K] [--seed S]   "
               "campus grid as JSON\n"
               "       efd campus [--outlets N] [--shards K] [--seed S] [--ms D] "
               "[--storm SEED]   sharded campus run, deterministic report\n"
               "       efd --proptest <seed> <n>   randomized scenario sweep "
               "(invariants + diff + determinism)\n"
               "stations: 0-18 (0-11 on network B1, 12-18 on B2)\n"
               "--metrics: dump the efd::obs snapshot as JSON to stderr\n");
  return 2;
}

/// A count flag's value; 0 (rejected) when it is not a decimal count in
/// [1, max_value].
int count_arg(const char* raw, int max_value) {
  return static_cast<int>(core::parse_decimal(raw, 1, max_value).value_or(0));
}

/// A seed argument: any decimal integer in [0, LLONG_MAX].
std::optional<std::uint64_t> seed_arg(const char* raw) {
  const auto v =
      core::parse_decimal(raw, 0, std::numeric_limits<long long>::max());
  if (!v) return std::nullopt;
  return static_cast<std::uint64_t>(*v);
}

struct World {
  sim::Simulator sim;
  testbed::Testbed tb;

  explicit World(bool night) : tb(sim, make_config()) {
    sim.run_until(night ? testbed::weekend_night() : testbed::weekday_afternoon());
  }

  static testbed::Testbed::Config make_config() {
    testbed::Testbed::Config cfg;
    cfg.with_hpav500 = false;
    return cfg;
  }

  bool valid(int s) const { return s >= 0 && s < testbed::Testbed::kStations; }

  double warmed_ble(int a, int b) {
    auto& est = tb.plc_network_of(b).estimator(b, a);
    core::LinkTraceSampler sampler(tb.plc_channel(), est, a, b, sim::Rng{1});
    (void)sampler.run(sim.now(), sim.now() + sim::seconds(3));
    return est.average_ble_mbps();
  }
};

int cmd_survey(bool night) {
  World w(night);
  core::BleCapacityEstimator cap;
  std::printf("%-8s %10s %12s %10s %10s\n", "link", "BLE Mb/s", "pred T",
              "cable m", "wifi Mb/s");
  for (const auto& [a, b] : w.tb.plc_links()) {
    double ble = 0.0;
    if (w.tb.plc_channel().mean_snr_db(a, b, 0, w.sim.now()) > 3.0) {
      ble = w.warmed_ble(a, b);
    }
    std::printf("%2d->%-5d %10.1f %12.1f %10.0f %10.1f\n", a, b, ble,
                cap.throughput_from_ble(ble),
                w.tb.plc_channel().cable_distance(a, b),
                w.tb.wifi().mcs_capacity_mbps(a, b, w.sim.now()));
  }
  return 0;
}

int cmd_rate(int a, int b) {
  World w(false);
  const double ble = w.warmed_ble(a, b);
  core::BleCapacityEstimator cap;
  std::printf("link %d->%d: average BLE %.1f Mb/s, predicted UDP throughput "
              "%.1f Mb/s\n",
              a, b, ble, cap.throughput_from_ble(ble));
  auto& est = w.tb.plc_network_of(b).estimator(b, a);
  std::printf("per-slot BLE:");
  for (int s = 0; s < w.tb.plc_channel().phy().tone_map_slots; ++s) {
    std::printf(" %.1f", est.ble_mbps(s));
  }
  std::printf("\n");
  return 0;
}

int cmd_stat(int a, int b) {
  World w(false);
  (void)w.warmed_ble(a, b);
  auto& medium = w.tb.plc_network_of(a).medium();
  core::SofCapture capture(medium);
  capture.filter(a, b);
  net::ProbeSource::Config pcfg;
  pcfg.src = a;
  pcfg.dst = b;
  pcfg.interval = sim::milliseconds(75);
  pcfg.packet_bytes = 1500;
  net::ProbeSource probes(w.sim, w.tb.plc_station(a).mac(), pcfg);
  probes.run(w.sim.now(), w.sim.now() + sim::seconds(30));
  w.sim.run_until(w.sim.now() + sim::seconds(31));
  const auto result = core::UnicastEtxEstimator{}.analyze(capture.records());
  const double pberr = w.tb.plc_network_of(b).mm_pberr(a, b);
  std::printf("link %d->%d: PBerr %.4f, U-ETX %.2f (std %.2f), predicted "
              "U-ETX %.2f\n",
              a, b, pberr, result.u_etx(), result.tx_count_stddev(),
              core::predicted_u_etx(pberr, 3));
  return 0;
}

int cmd_trace(int a, int b, double seconds) {
  World w(false);
  auto& est = w.tb.plc_network_of(b).estimator(b, a);
  core::LinkTraceSampler sampler(w.tb.plc_channel(), est, a, b, sim::Rng{1});
  const auto trace =
      sampler.run(w.sim.now(), w.sim.now() + sim::seconds(seconds));
  core::write_ble_trace_csv(std::cout, trace);
  return 0;
}

int cmd_sniff(int a, int b, double seconds) {
  World w(false);
  (void)w.warmed_ble(a, b);
  auto& medium = w.tb.plc_network_of(a).medium();
  core::SofCapture capture(medium);
  capture.filter(a, b);
  (void)testbed::measure_plc_throughput(w.tb, a, b, sim::seconds(seconds));
  core::write_sof_records_csv(std::cout, capture.records());
  return 0;
}

int cmd_route(int a, int b) {
  World w(false);
  core::BleCapacityEstimator cap;
  hybrid::LinkMetricTable table;
  for (const auto& [s, d] : w.tb.plc_links()) {
    if (w.tb.plc_channel().mean_snr_db(s, d, 0, w.sim.now()) < 4.0) continue;
    const double ble = w.warmed_ble(s, d);
    table.update(s, d, hybrid::Medium::kPlc,
                 {cap.throughput_from_ble(ble), 0.0, w.sim.now()});
  }
  for (const auto& [s, d] : w.tb.all_pairs()) {
    const double mcs = w.tb.wifi().mcs_capacity_mbps(s, d, w.sim.now());
    if (mcs >= 1.0) {
      table.update(s, d, hybrid::Medium::kWifi, {0.75 * mcs, 0.0, w.sim.now()});
    }
  }
  hybrid::MeshRouter router(table);
  const auto path = router.route(a, b, w.sim.now());
  if (path.empty()) {
    std::printf("route %d -> %d: unreachable\n", a, b);
    return 1;
  }
  std::printf("route: %d", a);
  for (const auto& hop : path) {
    std::printf(" -[%s]-> %d", to_string(hop.medium).c_str(), hop.to);
  }
  std::printf("  (ETT %.2f ms)\n", router.path_ett_ms(path, w.sim.now()));
  return 0;
}

int cmd_guidelines() {
  for (const auto& g : core::guidelines()) {
    std::printf("%-22.*s %s (sec. %.*s)\n", static_cast<int>(g.policy.size()),
                g.policy.data(), std::string(g.guideline).c_str(),
                static_cast<int>(g.paper_section.size()), g.paper_section.data());
  }
  return 0;
}

// efd campus: run a sharded campus, optionally under a seeded fault-domain
// storm (DESIGN.md §15), and print a report containing ONLY fields that are
// deterministic for a given config — digest, per-board digests, packet and
// fault accounting, and the fault/recovery trace. The CI chaos leg runs
// this twice (EFD_SHARDS=1 vs 4) and diffs the whole output byte-for-byte.
int cmd_campus(int argc, char** argv) {
  testbed::CampusRunConfig cfg;
  cfg.campus.n_outlets = 200;
  cfg.n_shards = sim::ShardedSimulator::env_shards(1);
  std::int64_t ms = 200;
  bool storm = false;
  std::uint64_t storm_seed = 0;
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--outlets") == 0 && i + 1 < argc) {
      cfg.campus.n_outlets = count_arg(argv[++i], 1'000'000);
    } else if (std::strcmp(argv[i], "--shards") == 0 && i + 1 < argc) {
      cfg.n_shards = count_arg(argv[++i], sim::ShardedSimulator::kMaxShards);
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      const auto seed = seed_arg(argv[++i]);
      if (!seed) return usage();
      cfg.campus.seed = *seed;
    } else if (std::strcmp(argv[i], "--ms") == 0 && i + 1 < argc) {
      ms = count_arg(argv[++i], 600'000);
    } else if (std::strcmp(argv[i], "--storm") == 0 && i + 1 < argc) {
      storm = true;
      const auto seed = seed_arg(argv[++i]);
      if (!seed) return usage();
      storm_seed = *seed;
    } else {
      return usage();
    }
  }
  if (cfg.campus.n_outlets < 1 || cfg.n_shards < 1 || ms < 1) return usage();
  cfg.duration = sim::milliseconds(ms);
  const grid::CampusTopology topo = grid::CampusTopology::generate(cfg.campus);
  if (storm) {
    fault::FaultPlan::CampusStormConfig sc;
    sc.n_boards = topo.n_boards();
    sc.n_links = static_cast<int>(topo.links().size());
    // Scale the storm window to the run so every fault both lands and
    // clears inside it regardless of --ms.
    sc.start = sim::Time{cfg.duration.ns() / 10};
    sc.horizon = sim::Time{(cfg.duration.ns() * 3) / 4};
    sc.min_duration = sim::Time{cfg.duration.ns() / 20};
    sc.max_duration = sim::Time{cfg.duration.ns() / 5};
    cfg.faults = fault::FaultPlan::random_campus_storm(sim::Rng{storm_seed}, sc);
  }
  const testbed::CampusResult r = testbed::run_campus(cfg);
  std::printf("campus outlets=%d boards=%d crossings=%d seed=%llu ms=%lld "
              "storm=%s\n",
              cfg.campus.n_outlets, topo.n_boards(),
              static_cast<int>(topo.links().size()),
              static_cast<unsigned long long>(cfg.campus.seed),
              static_cast<long long>(ms),
              storm ? std::to_string(storm_seed).c_str() : "none");
  std::printf("events=%llu delivered=%llu local=%llu remote=%llu "
              "boundary=%llu/%llu\n",
              static_cast<unsigned long long>(r.events),
              static_cast<unsigned long long>(r.delivered),
              static_cast<unsigned long long>(r.packets_local),
              static_cast<unsigned long long>(r.packets_remote),
              static_cast<unsigned long long>(r.boundary_delivered),
              static_cast<unsigned long long>(r.boundary_posted));
  std::printf("fault_events=%llu dead_drops=%llu partition_drops=%llu "
              "failovers=%llu failbacks=%llu\n",
              static_cast<unsigned long long>(r.fault_events),
              static_cast<unsigned long long>(r.dead_drops),
              static_cast<unsigned long long>(r.partition_drops),
              static_cast<unsigned long long>(r.failovers),
              static_cast<unsigned long long>(r.failbacks));
  std::printf("digest=%016llx\n", static_cast<unsigned long long>(r.digest));
  for (std::size_t b = 0; b < r.board_digests.size(); ++b) {
    std::printf("board %3zu digest=%016llx\n", b,
                static_cast<unsigned long long>(r.board_digests[b]));
  }
  if (!r.fault_trace.empty()) {
    std::printf("fault trace:\n%s", r.fault_trace.c_str());
  }
  return 0;
}

int cmd_proptest(std::uint64_t seed, int n) {
  const auto report = testkit::run_proptest(seed, n);
  std::printf("%s\n", report.summary().c_str());
  return report.ok() ? 0 : 1;
}

int dispatch(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  if (cmd == "--proptest" || cmd == "proptest") {
    if (argc < 4) return usage();
    const auto seed = seed_arg(argv[2]);
    const int n = count_arg(argv[3], 1'000'000);
    if (!seed || n < 1) return usage();
    return cmd_proptest(*seed, n);
  }
  const auto station_args = [&](int needed) {
    return argc >= 2 + needed;
  };
  if (cmd == "survey") {
    const bool night = argc > 2 && std::strcmp(argv[2], "--night") == 0;
    return cmd_survey(night);
  }
  if (cmd == "guidelines") return cmd_guidelines();
  if (cmd == "campus") return cmd_campus(argc, argv);
  if (cmd == "topology") {
    grid::CampusConfig cfg;
    int shards = sim::ShardedSimulator::env_shards(1);
    for (int i = 2; i < argc; ++i) {
      if (std::strcmp(argv[i], "--outlets") == 0 && i + 1 < argc) {
        cfg.n_outlets = count_arg(argv[++i], 1'000'000);
      } else if (std::strcmp(argv[i], "--shards") == 0 && i + 1 < argc) {
        shards = count_arg(argv[++i], sim::ShardedSimulator::kMaxShards);
      } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
        const auto seed = seed_arg(argv[++i]);
        if (!seed) return usage();
        cfg.seed = *seed;
      } else {
        return usage();
      }
    }
    if (cfg.n_outlets < 1 || shards < 1) return usage();
    const grid::CampusTopology topo = grid::CampusTopology::generate(cfg);
    std::fputs(topo.to_json(shards).c_str(), stdout);
    return 0;
  }
  if (!station_args(2)) return usage();
  constexpr long long kLastStation = testbed::Testbed::kStations - 1;
  const auto a = core::parse_decimal(argv[2], 0, kLastStation);
  const auto b = core::parse_decimal(argv[3], 0, kLastStation);
  if (!a || !b || *a == *b) return usage();
  const auto s = static_cast<int>(*a);
  const auto d = static_cast<int>(*b);
  if (cmd == "rate") return cmd_rate(s, d);
  if (cmd == "stat") return cmd_stat(s, d);
  if (cmd == "route") return cmd_route(s, d);
  if (cmd == "trace" || cmd == "sniff") {
    const auto seconds = argc > 4 ? core::parse_decimal(argv[4], 1, 3600)
                                  : std::optional<long long>{10};
    if (!seconds) return usage();
    const auto secs = static_cast<double>(*seconds);
    return cmd == "trace" ? cmd_trace(s, d, secs) : cmd_sniff(s, d, secs);
  }
  return usage();
}

}  // namespace

int main(int argc, char** argv) {
  bool dump_metrics = false;
  std::vector<char*> args;
  args.reserve(static_cast<std::size_t>(argc));
  for (int i = 0; i < argc; ++i) {
    if (i > 0 && std::strcmp(argv[i], "--metrics") == 0) {
      dump_metrics = true;
      continue;
    }
    args.push_back(argv[i]);
  }
  const int rc = dispatch(static_cast<int>(args.size()), args.data());
  if (dump_metrics) {
    std::fprintf(stderr, "%s\n", obs::snapshot_json().c_str());
  }
  return rc;
}
