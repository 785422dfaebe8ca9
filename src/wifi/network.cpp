#include "src/wifi/network.hpp"

#include <cassert>

namespace efd::wifi {

WifiNetwork::WifiNetwork(sim::Simulator& simulator, sim::Rng rng)
    : sim_(simulator),
      rng_(rng),
      medium_(simulator, channel_, rng.fork(0xf1ULL)) {}

WifiMac& WifiNetwork::add_station(net::StationId id, double x, double y) {
  assert(!stations_.contains(id));
  channel_.place_station(id, x, y);
  auto mac = std::make_unique<WifiMac>(sim_, medium_, channel_, id,
                                       rng_.fork(++rng_streams_));
  WifiMac& ref = *mac;
  medium_.register_mac(ref);
  stations_.emplace(id, std::move(mac));
  return ref;
}

WifiMac& WifiNetwork::station(net::StationId id) {
  const auto it = stations_.find(id);
  assert(it != stations_.end());
  return *it->second;
}

double WifiNetwork::mcs_capacity_mbps(net::StationId a, net::StationId b,
                                      sim::Time t) const {
  const int mcs = Mcs::pick(channel_.snr_db(a, b, t));
  return mcs < 0 ? 0.0 : Mcs::rate_mbps(mcs);
}

bool WifiNetwork::inject_boundary(const net::Packet& p) {
  assert(gateway_ >= 0 && "inject_boundary before set_boundary_gateway");
  ++boundary_ingress_;
  return station(gateway_).enqueue(p);
}

}  // namespace efd::wifi
