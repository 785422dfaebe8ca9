// NAN relay figure: delivery vs hop budget for multi-hop PLC relaying.
// With an aggressive connectivity threshold, below-threshold meters only
// reach the concentrator through intermediate meters; sweeping the planner's
// hop budget from 1 (relaying off — direct link only) upward shows how many
// meters each extra hop rescues and what the store-and-forward traffic
// costs. Shape metrics are byte-identical across EFD_SHARDS and EFD_SIMD.
#include "bench_util.hpp"

#include <cstdio>

#include "src/testbed/nan.hpp"

using namespace efd;

namespace {

constexpr bench::Figure kFigure{
    "nan_relay", "NAN relay", "delivery vs hop budget for multi-hop PLC relaying",
    "delivery rises as the hop budget grows, as in Pignolet et al.'s "
    "multi-interface relaying; each extra hop costs store-and-forward traffic"};

constexpr double kFloor = 0.25;  // below it no hop budget delivers a packet

void experiment(bench::JsonReporter& json) {
  const int shards = bench::env_shards(json, "NAN multi-hop PLC relay", kFloor);
  std::printf("%8s %9s %9s %8s %12s %12s %9s  %s\n", "max_hops", "offered",
              "delivered", "ratio", "relay_meters", "forwards", "hops_max",
              "digest");

  std::uint64_t peak = 0;
  for (const int max_hops : {1, 2, 3, 4}) {
    testbed::NanRunConfig cfg;
    cfg.nan.n_meters = 96;
    cfg.nan.meters_per_transformer = 16;
    cfg.nan.transformers_per_feeder = 3;
    cfg.nan.stations_per_transformer = 8;
    cfg.nan.seed = 19;
    cfg.n_shards = shards;
    cfg.duration = sim::milliseconds(bench::scaled(200.0, kFloor));
    cfg.report_interval = sim::milliseconds(2);
    cfg.p_remote = 0.15;
    cfg.mode = testbed::DiversityMode::kPlcOnly;
    cfg.relay_enabled = max_hops > 1;
    cfg.relay.connect_etx = 1.8;  // force marginal meters onto relay paths
    cfg.relay.max_hops = max_hops;

    testbed::NanResult r;
    const double wall_s = bench::wall_seconds([&] { r = testbed::run_nan(cfg); });

    const double ratio =
        r.offered > 0 ? static_cast<double>(r.delivered + r.delivered_remote) /
                            static_cast<double>(r.offered)
                      : 0.0;
    std::printf("%8d %9llu %9llu %8.3f %12llu %12llu %9d  %016llx  (%.2fs)\n",
                max_hops, static_cast<unsigned long long>(r.offered),
                static_cast<unsigned long long>(r.delivered + r.delivered_remote),
                ratio, static_cast<unsigned long long>(r.relay_meters),
                static_cast<unsigned long long>(r.relay_forwards),
                r.relay_hops_max, static_cast<unsigned long long>(r.digest),
                wall_s);

    const std::string tag = std::to_string(max_hops);
    json.add("digest6_h" + tag, static_cast<double>(bench::digest6(r.digest)),
             "digest");
    json.add("offered_h" + tag, static_cast<double>(r.offered), "packets");
    json.add("delivered_h" + tag,
             static_cast<double>(r.delivered + r.delivered_remote), "packets");
    json.add("relay_meters_h" + tag, static_cast<double>(r.relay_meters),
             "meters");
    json.add("forwards_h" + tag, static_cast<double>(r.relay_forwards),
             "packets");
    json.add("hops_max_h" + tag, static_cast<double>(r.relay_hops_max),
             "hops");
    peak = std::max(peak, r.mailbox_peak);
  }
  bench::mailbox_peak(json, peak);
}

}  // namespace

int main() { return bench::run(kFigure, experiment); }
