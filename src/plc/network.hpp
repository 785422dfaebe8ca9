#pragma once

#include <map>
#include <memory>

#include "src/plc/medium.hpp"
#include "src/plc/station.hpp"

namespace efd::plc {

/// A HomePlug AV logical network (AVLN): a set of stations sharing one
/// medium and one network encryption key, managed by a central coordinator
/// (CCo, §3.1). The paper's testbed forms two such networks, one per
/// distribution board, with statically set CCos (stations 11 and 15).
class PlcNetwork final : public EstimatorDirectory {
 public:
  struct Config {
    PlcMac::Config mac;
  };

  PlcNetwork(sim::Simulator& simulator, const PlcChannel& channel, sim::Rng rng,
             Config config = {});

  /// Create a station attached at grid outlet `outlet`. The station id must
  /// be unique across the simulation (it doubles as the MAC address).
  PlcStation& add_station(net::StationId id, int outlet);

  [[nodiscard]] PlcStation& station(net::StationId id);
  [[nodiscard]] bool has_station(net::StationId id) const {
    return stations_.contains(id);
  }

  /// Statically pin the CCo, as the paper does with the Atheros toolkit.
  void set_cco(net::StationId id) { cco_ = id; }
  [[nodiscard]] net::StationId cco() const { return cco_; }

  [[nodiscard]] PlcMedium& medium() { return medium_; }
  [[nodiscard]] const PlcChannel& channel() const { return channel_; }

  // EstimatorDirectory: receiver-side estimator for frames tx -> rx,
  // created lazily on first use.
  ChannelEstimator& estimator(net::StationId rx, net::StationId tx) override;

  /// `int6krate`-style management query: average BLE over the tone-map
  /// slots for the directed link tx -> rx (Table 2).
  [[nodiscard]] double mm_average_ble(net::StationId tx, net::StationId rx);

  /// `ampstat`-style management query: smoothed PB error rate on tx -> rx.
  [[nodiscard]] double mm_pberr(net::StationId tx, net::StationId rx);

  /// Mark `id` as this AVLN's boundary gateway: the station through which
  /// ALL off-board traffic enters and leaves. The medium itself never
  /// crosses a distribution board (the sharded engine keeps it cell-local);
  /// the gateway is the one explicit crossing point.
  void set_boundary_gateway(net::StationId id) { gateway_ = id; }
  [[nodiscard]] net::StationId boundary_gateway() const { return gateway_; }

  /// Ingress half of a boundary crossing: hand a packet that arrived from
  /// another board to the gateway MAC, which contends for the local medium
  /// like any station. Returns false when the gateway queue drops it.
  bool inject_boundary(const net::Packet& p);

  /// Egress accounting: the campus layer calls this when the gateway hands
  /// a packet off-board.
  void record_boundary_egress() { ++boundary_egress_; }
  [[nodiscard]] std::uint64_t boundary_ingress() const { return boundary_ingress_; }
  [[nodiscard]] std::uint64_t boundary_egress() const { return boundary_egress_; }

 private:
  sim::Simulator& sim_;
  const PlcChannel& channel_;
  sim::Rng rng_;
  Config cfg_;
  PlcMedium medium_;
  std::map<net::StationId, std::unique_ptr<PlcStation>> stations_;
  net::StationId cco_ = -1;
  net::StationId gateway_ = -1;
  std::uint64_t boundary_ingress_ = 0;
  std::uint64_t boundary_egress_ = 0;
  std::uint64_t rng_streams_ = 0;
};

}  // namespace efd::plc
