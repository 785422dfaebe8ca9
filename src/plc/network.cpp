#include "src/plc/network.hpp"

#include <cassert>

namespace efd::plc {

PlcNetwork::PlcNetwork(sim::Simulator& simulator, const PlcChannel& channel,
                       sim::Rng rng, Config config)
    : sim_(simulator),
      channel_(channel),
      rng_(rng),
      cfg_(config),
      medium_(simulator, channel, rng.fork(0xeadULL)) {}

PlcStation& PlcNetwork::add_station(net::StationId id, int outlet) {
  assert(!stations_.contains(id));
  auto station = std::unique_ptr<PlcStation>(new PlcStation(id, outlet));
  station->mac_ = std::make_unique<PlcMac>(sim_, medium_, channel_, *this, id,
                                           rng_.fork(++rng_streams_), cfg_.mac);
  medium_.register_mac(*station->mac_);
  PlcStation& ref = *station;
  stations_.emplace(id, std::move(station));
  if (cco_ == -1) cco_ = id;  // first station plugged becomes CCo (§3.1)
  return ref;
}

PlcStation& PlcNetwork::station(net::StationId id) {
  const auto it = stations_.find(id);
  assert(it != stations_.end());
  return *it->second;
}

ChannelEstimator& PlcNetwork::estimator(net::StationId rx, net::StationId tx) {
  PlcStation& st = station(rx);
  auto it = st.estimators_.find(tx);
  if (it == st.estimators_.end()) {
    it = st.estimators_
             .emplace(tx, std::make_unique<ChannelEstimator>(
                              channel_, tx, rx, rng_.fork(++rng_streams_),
                              ChannelEstimator::Config{}))
             .first;
  }
  return *it->second;
}

double PlcNetwork::mm_average_ble(net::StationId tx, net::StationId rx) {
  return estimator(rx, tx).average_ble_mbps();
}

double PlcNetwork::mm_pberr(net::StationId tx, net::StationId rx) {
  return estimator(rx, tx).measured_pberr();
}

bool PlcNetwork::inject_boundary(const net::Packet& p) {
  assert(gateway_ >= 0 && "inject_boundary before set_boundary_gateway");
  ++boundary_ingress_;
  return station(gateway_).mac().enqueue(p);
}

}  // namespace efd::plc
