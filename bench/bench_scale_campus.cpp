// Campus scale sweep for the sharded conservative engine (DESIGN.md §14):
// 10 -> 10,000 outlets, one distribution board per 20 outlets, boards
// partitioned into EFD_SHARDS shards. Reports events/s and the per-shard
// load balance, and — the headline correctness property — a per-size digest
// that is byte-identical for every shard count: run with EFD_SHARDS=1|2|8
// and diff the JSON.
#include "bench_util.hpp"

#include <chrono>
#include <cstring>

#include "src/sim/fnv1a.hpp"
#include "src/sim/sharded.hpp"
#include "src/testbed/campus.hpp"

using namespace efd;

int main(int argc, char** argv) {
  int max_outlets = 10'000;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--max-outlets") == 0 && i + 1 < argc) {
      max_outlets = std::atoi(argv[++i]);
    }
  }

  const int shards = sim::ShardedSimulator::env_shards(1);
  bench::JsonReporter json("scale_campus");
  json.add("n_shards", shards, "shards");

  std::printf("campus scale sweep  (EFD_SHARDS=%d, duration scale %.2f)\n",
              shards, bench::duration_scale());
  std::printf("%8s %7s %7s %10s %12s %9s %8s %8s  %s\n", "outlets", "boards",
              "shards", "events", "events/s", "delivered", "remote",
              "balance", "digest");

  sim::Fnv1a64 sweep;
  double worst_balance = 1.0;
  for (const int outlets : {10, 100, 1'000, 10'000}) {
    if (outlets > max_outlets) continue;
    testbed::CampusRunConfig cfg;
    cfg.campus.n_outlets = outlets;
    cfg.campus.outlets_per_board = 20;
    cfg.campus.stations_per_board = 4;
    cfg.campus.seed = 7;
    cfg.n_shards = shards;
    cfg.duration = sim::milliseconds(200.0 * bench::duration_scale());

    testbed::CampusWorld world(cfg);
    const auto t0 = std::chrono::steady_clock::now();
    world.run();
    const double wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    const testbed::CampusResult r = world.result();

    const double eps =
        wall_s > 0.0 ? static_cast<double>(r.events) / wall_s : 0.0;
    std::printf("%8d %7d %7d %10llu %12.0f %9llu %8llu %8.2f  %016llx\n",
                outlets, r.n_boards, r.n_shards,
                static_cast<unsigned long long>(r.events), eps,
                static_cast<unsigned long long>(r.delivered),
                static_cast<unsigned long long>(r.packets_remote),
                r.load_balance, static_cast<unsigned long long>(r.digest));

    const std::string tag = std::to_string(outlets);
    json.add("digest6_" + tag, static_cast<double>(bench::digest6(r.digest)),
             "digest");
    json.add("delivered_" + tag, static_cast<double>(r.delivered), "packets");
    json.add("remote_" + tag, static_cast<double>(r.packets_remote),
             "packets");
    json.add("boundary_" + tag, static_cast<double>(r.boundary_delivered),
             "events");
    sweep.mix(r.digest);
    worst_balance = std::max(worst_balance, r.load_balance);
  }

  json.add("sweep_digest6", static_cast<double>(bench::digest6(sweep.h)), "digest");
  // Warn-only in bench_compare: load balance depends on host scheduling.
  json.add("shard_load_balance", worst_balance, "ratio");
  std::printf("sweep digest6 %llu   worst load balance %.2f\n",
              static_cast<unsigned long long>(bench::digest6(sweep.h)),
              worst_balance);
  return 0;
}
