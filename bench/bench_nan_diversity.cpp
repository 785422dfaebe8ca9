// NAN diversity figure: per-packet duplication vs capacity-proportional
// load balancing (and the single-medium baselines) on a smart-grid
// neighborhood-area network, clean and under a deterministic fault storm.
// Prices the redundancy (duplicate bytes, suppressed losers, wins per
// medium) against what it buys (delivered reports when a medium dies).
// Every shape metric is a pure function of the config: run with
// EFD_SHARDS=1|4 or EFD_SIMD=scalar and diff the JSON.
#include "bench_util.hpp"

#include <chrono>
#include <cstdio>

#include "src/fault/fault.hpp"
#include "src/sim/sharded.hpp"
#include "src/testbed/nan.hpp"

using namespace efd;

namespace {

testbed::NanRunConfig base_config(int shards) {
  testbed::NanRunConfig cfg;
  cfg.nan.n_meters = 60;
  cfg.nan.meters_per_transformer = 10;
  cfg.nan.transformers_per_feeder = 3;
  cfg.nan.stations_per_transformer = 6;
  cfg.nan.seed = 7;
  cfg.n_shards = shards;
  cfg.duration = sim::milliseconds(200.0 * bench::duration_scale());
  cfg.report_interval = sim::milliseconds(2);
  cfg.p_remote = 0.25;
  return cfg;
}

/// Storm covering both media and a crossing, with onsets scaled so the
/// whole arc fits any EFD_BENCH_SCALE.
fault::FaultPlan storm_plan() {
  const double s = bench::duration_scale();
  fault::FaultPlan plan;
  plan.blackout(sim::milliseconds(30.0 * s), sim::milliseconds(60.0 * s), 1, 1.0)
      .wifi_jam(sim::milliseconds(50.0 * s), sim::milliseconds(70.0 * s), 3, 200.0)
      .board_brownout(sim::milliseconds(80.0 * s), sim::milliseconds(60.0 * s), 4, 0.6)
      .link_partition(sim::milliseconds(60.0 * s), sim::milliseconds(50.0 * s), 0);
  return plan;
}

}  // namespace

int main() {
  const int shards = sim::ShardedSimulator::env_shards(1);
  bench::JsonReporter json("nan_diversity");
  json.add("n_shards", shards, "shards");

  std::printf("NAN diversity workloads  (EFD_SHARDS=%d, duration scale %.2f)\n",
              shards, bench::duration_scale());
  std::printf("%-12s %-6s %9s %9s %8s %10s %10s %8s %8s  %s\n", "mode", "env",
              "offered", "delivered", "remote", "dup_bytes", "suppressed",
              "wins_plc", "wins_wifi", "digest");

  const testbed::DiversityMode modes[] = {
      testbed::DiversityMode::kPlcOnly, testbed::DiversityMode::kWifiOnly,
      testbed::DiversityMode::kLoadBalance, testbed::DiversityMode::kDiversity};
  for (const bool storm : {false, true}) {
    for (const testbed::DiversityMode mode : modes) {
      testbed::NanRunConfig cfg = base_config(shards);
      cfg.mode = mode;
      if (storm) cfg.faults = storm_plan();

      const auto t0 = std::chrono::steady_clock::now();
      const testbed::NanResult r = testbed::run_nan(cfg);
      const double wall_s =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
              .count();

      const char* env = storm ? "storm" : "clean";
      std::printf("%-12s %-6s %9llu %9llu %8llu %10llu %10llu %8llu %8llu  %016llx  (%.2fs)\n",
                  to_string(mode), env,
                  static_cast<unsigned long long>(r.offered),
                  static_cast<unsigned long long>(r.delivered),
                  static_cast<unsigned long long>(r.delivered_remote),
                  static_cast<unsigned long long>(r.dup_bytes),
                  static_cast<unsigned long long>(r.suppressed),
                  static_cast<unsigned long long>(r.wins_plc),
                  static_cast<unsigned long long>(r.wins_wifi),
                  static_cast<unsigned long long>(r.digest), wall_s);

      const std::string tag = std::string(to_string(mode)) + "_" + env;
      json.add("digest6_" + tag, static_cast<double>(bench::digest6(r.digest)),
               "digest");
      json.add("delivered_" + tag, static_cast<double>(r.delivered), "packets");
      json.add("remote_" + tag, static_cast<double>(r.delivered_remote),
               "packets");
      json.add("dup_bytes_" + tag, static_cast<double>(r.dup_bytes), "bytes");
      json.add("suppressed_" + tag, static_cast<double>(r.suppressed),
               "packets");
      json.add("wins_plc_" + tag, static_cast<double>(r.wins_plc), "packets");
      json.add("wins_wifi_" + tag, static_cast<double>(r.wins_wifi), "packets");
    }
  }
  return 0;
}
