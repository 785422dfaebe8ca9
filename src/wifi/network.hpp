#pragma once

#include <map>
#include <memory>

#include "src/wifi/mac.hpp"

namespace efd::wifi {

/// A WiFi BSS-like deployment: one channel, one contention domain, one MAC
/// per station. Mirrors the paper's setup — every board carries an Atheros
/// AR9220 interface on a clean frequency (§4.1), so the only interference
/// is internal plus the channel's own burst model.
class WifiNetwork {
 public:
  WifiNetwork(sim::Simulator& simulator, sim::Rng rng);

  /// Create a station at floor position (x, y) meters.
  WifiMac& add_station(net::StationId id, double x, double y);

  [[nodiscard]] WifiMac& station(net::StationId id);
  [[nodiscard]] WifiChannel& channel() { return channel_; }
  [[nodiscard]] const WifiChannel& channel() const { return channel_; }
  [[nodiscard]] WifiMedium& medium() { return medium_; }

  /// Capacity estimate from the MCS in the frame control (Table 2): PHY
  /// rate of the MCS the transmitter currently selects for the link.
  [[nodiscard]] double mcs_capacity_mbps(net::StationId a, net::StationId b,
                                         sim::Time t) const;

  /// Boundary gateway: the station bridging this contention domain to
  /// another board (the building-to-building bridge of the campus layer).
  /// The channel stays cell-local; this is the one explicit crossing.
  void set_boundary_gateway(net::StationId id) { gateway_ = id; }
  [[nodiscard]] net::StationId boundary_gateway() const { return gateway_; }

  /// Ingress half of a crossing: enqueue at the gateway MAC, which then
  /// contends for this cell's medium normally.
  bool inject_boundary(const net::Packet& p);

  void record_boundary_egress() { ++boundary_egress_; }
  [[nodiscard]] std::uint64_t boundary_ingress() const { return boundary_ingress_; }
  [[nodiscard]] std::uint64_t boundary_egress() const { return boundary_egress_; }

 private:
  sim::Simulator& sim_;
  sim::Rng rng_;
  WifiChannel channel_;
  WifiMedium medium_;
  std::map<net::StationId, std::unique_ptr<WifiMac>> stations_;
  net::StationId gateway_ = -1;
  std::uint64_t boundary_ingress_ = 0;
  std::uint64_t boundary_egress_ = 0;
  std::uint64_t rng_streams_ = 0;
};

}  // namespace efd::wifi
