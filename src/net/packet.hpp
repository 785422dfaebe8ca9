#pragma once

#include <cstddef>
#include <cstdint>

#include "src/sim/time.hpp"

namespace efd::net {

/// Station identifier within a network technology (PLC or WiFi).
using StationId = int;

constexpr StationId kBroadcast = -1;

/// An Ethernet-layer packet handed to a MAC. The simulation carries
/// metadata, not payload bytes; `size_bytes` is the wire size used for
/// segmentation and airtime computations.
///
/// A packet has no identity of its own: `(flow_id, seq)` names it to the
/// endpoints, and a MAC that must tell its in-flight packets apart (PLC PB
/// reassembly) keys on the copy it made at enqueue time.
struct Packet {
  int flow_id = 0;             ///< traffic-source identifier
  std::uint32_t seq = 0;       ///< sequence number within the flow
  std::size_t size_bytes = 1500;
  StationId src = 0;
  StationId dst = 0;           ///< kBroadcast for broadcast frames
  sim::Time created;           ///< enqueue time at the source
  /// Channel-access priority (IEEE 1901 CA0..CA3, mapped from VLAN tags on
  /// real adapters). Higher wins the priority-resolution slots.
  int priority = 1;
};

}  // namespace efd::net
