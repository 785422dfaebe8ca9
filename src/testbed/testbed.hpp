#pragma once

#include <memory>
#include <utility>
#include <vector>

#include "src/grid/power_grid.hpp"
#include "src/plc/network.hpp"
#include "src/sim/simulator.hpp"
#include "src/wifi/network.hpp"

namespace efd::testbed {

/// Which PLC generation a stack runs (the paper validates its findings on
/// both HomePlug AV and HPAV500 hardware, §3.1).
enum class PlcGeneration { kHpav, kHpav500 };

/// Reproduction of the paper's Fig. 2 testbed: 19 stations (ids 0-18) on
/// one 70 m x 40 m office floor, wired to two distribution boards (B1 on
/// the right serving stations 0-11, B2 on the left serving 12-18) that are
/// only connected through a long basement run. Each board hosts one PLC
/// logical network with a statically pinned CCo (stations 11 and 15).
///
/// The same floor carries the WiFi deployment (one AR9220-like interface
/// per station) and, in parallel, an HPAV500 PLC stack over the identical
/// wiring for the validation experiments.
class Testbed {
 public:
  static constexpr int kStations = 19;

  struct Config {
    std::uint64_t seed = 42;
    /// Instantiate the HPAV500 stack too (costs a second set of MACs).
    bool with_hpav500 = true;
  };

  Testbed(sim::Simulator& simulator, Config config);
  explicit Testbed(sim::Simulator& simulator) : Testbed(simulator, Config{}) {}

  [[nodiscard]] grid::PowerGrid& grid() { return grid_; }
  [[nodiscard]] const grid::PowerGrid& grid() const { return grid_; }

  [[nodiscard]] plc::PlcChannel& plc_channel(PlcGeneration g = PlcGeneration::kHpav);

  /// The logical network a station belongs to, for the given generation.
  [[nodiscard]] plc::PlcNetwork& plc_network_of(net::StationId id,
                                                PlcGeneration g = PlcGeneration::kHpav);

  [[nodiscard]] plc::PlcStation& plc_station(net::StationId id,
                                             PlcGeneration g = PlcGeneration::kHpav);

  [[nodiscard]] wifi::WifiNetwork& wifi() { return *wifi_; }
  [[nodiscard]] wifi::WifiMac& wifi_station(net::StationId id) {
    return wifi_->station(id);
  }

  [[nodiscard]] bool same_plc_network(net::StationId a, net::StationId b) const;

  /// All directed intra-network station pairs — the testbed's PLC links
  /// ("in total, 144 links are formed", §3.1).
  [[nodiscard]] std::vector<std::pair<net::StationId, net::StationId>> plc_links() const;

  /// All directed station pairs (for the WiFi-vs-PLC comparison, which is
  /// restricted to pairs that can hold a PLC link).
  [[nodiscard]] std::vector<std::pair<net::StationId, net::StationId>> all_pairs() const;

  /// Grid outlet node of a station.
  [[nodiscard]] int outlet_of(net::StationId id) const {
    return outlets_[static_cast<std::size_t>(id)];
  }

  /// Line-of-floor distance between two stations (meters).
  [[nodiscard]] double floor_distance_m(net::StationId a, net::StationId b) const;

  [[nodiscard]] sim::Simulator& simulator() { return sim_; }
  [[nodiscard]] std::uint64_t seed() const { return cfg_.seed; }

 private:
  struct PlcStack {
    std::unique_ptr<plc::PlcChannel> channel;
    std::unique_ptr<plc::PlcNetwork> net_b1;  ///< stations 0-11, CCo 11
    std::unique_ptr<plc::PlcNetwork> net_b2;  ///< stations 12-18, CCo 15
  };

  void build_grid();
  PlcStack build_plc_stack(const plc::PhyParams& phy, std::uint64_t salt);

  sim::Simulator& sim_;
  Config cfg_;
  grid::PowerGrid grid_;
  std::vector<int> outlets_;  ///< station id -> grid node
  PlcStack hpav_;
  PlcStack hpav500_;
  std::unique_ptr<wifi::WifiNetwork> wifi_;
};

/// Floor coordinates of the 19 stations (meters), approximating Fig. 2.
[[nodiscard]] std::pair<double, double> station_position(net::StationId id);

/// True for stations wired to board B1 (the right-hand network, CCo 11).
[[nodiscard]] bool on_board_b1(net::StationId id);

}  // namespace efd::testbed
