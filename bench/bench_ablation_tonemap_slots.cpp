// Ablation (§6.1): the value of per-slot tone maps. HomePlug adapts to the
// mains-synchronous noise with 6 tone maps per AC half cycle; a single tone
// map must carry enough margin for the worst slot, losing rate on the good
// slots. Compares converged capacity with L=1 vs L=6 slots.
#include "bench_util.hpp"

using namespace efd;

namespace {

constexpr bench::Figure kFigure{
    "ablation_tonemap_slots", "Ablation: tone-map slots",
    "L=1 vs L=6 tone maps per half cycle",
    "per-slot adaptation recovers the rate the invariance-scale "
    "noise structure would otherwise cost"};

void experiment(bench::JsonReporter& json) {
  grid::PowerGrid grid;
  const int a = grid.add_node("a");
  const int j = grid.add_node("j");
  const int b = grid.add_node("b");
  // 20 dB of insertion loss keeps the link below the 150 Mb/s BLE cap; on
  // the cap every slot count reads the same rate.
  grid.add_cable(a, j, 12.0, 20.0);
  grid.add_cable(j, b, 8.0);
  // Strong mains-synchronous noise sources near the receiver.
  for (std::uint64_t s = 1; s <= 3; ++s) {
    auto appliance = grid::make_appliance(grid::ApplianceType::kLightBank, j, s);
    appliance.schedule = grid::ActivitySchedule::always_on();
    appliance.noise.sync_db = 12.0;  // exaggerate the slot structure
    grid.add_appliance(appliance);
  }

  std::printf("%-8s %14s %14s %12s\n", "slots", "avg BLE", "worst slot",
              "best slot");
  for (int slots : {1, 2, 3, 6}) {
    plc::PhyParams phy = plc::PhyParams::hpav();
    phy.tone_map_slots = slots;
    plc::PlcChannel channel(grid, phy);
    channel.attach_station(0, a);
    channel.attach_station(1, b);
    plc::ChannelEstimator est(channel, 0, 1, sim::Rng{5}, {});
    core::LinkTraceSampler sampler(channel, est, 0, 1, sim::Rng{6});
    const sim::Time start = sim::days(1) + sim::hours(12);
    (void)sampler.run(start, start + sim::seconds(30));
    double worst = 1e9, best = 0.0;
    for (int s = 0; s < slots; ++s) {
      worst = std::min(worst, est.ble_mbps(s));
      best = std::max(best, est.ble_mbps(s));
    }
    std::printf("%-8d %14.1f %14.1f %12.1f\n", slots, est.average_ble_mbps(),
                worst, best);
    json.add("avg_ble_L" + std::to_string(slots), est.average_ble_mbps(), "Mb/s");
  }
  std::printf("\n(with one tone map the whole half cycle runs at a compromise "
              "rate; six slots track the noise trough and crest — the paper's "
              "Fig. 9 motivation for averaging BLE over the mains cycle)\n");
}

}  // namespace

int main() { return bench::run(kFigure, experiment); }
