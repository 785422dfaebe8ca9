#pragma once

#include <memory>
#include <vector>

#include "src/net/packet.hpp"
#include "src/plc/tone_map.hpp"
#include "src/sim/time.hpp"

namespace efd::plc {

/// One 512-byte physical block (PB, §2.2): the retransmission unit. A PB
/// carries a slice of exactly one Ethernet packet in this model; the packet
/// completes at the receiver when all its PBs have arrived.
struct PbUnit {
  std::shared_ptr<const net::Packet> packet;
  int index = 0;    ///< which PB of the packet (0-based)
  int total = 1;    ///< PBs the packet segments into
  int retries = 0;  ///< times this PB has been (re)transmitted
};

/// A PLC frame on the wire: SoF delimiter + aggregated PBs (§2.2, Fig. 1).
struct PlcFrame {
  net::StationId src = 0;
  net::StationId dst = 0;  ///< net::kBroadcast for broadcast
  std::vector<PbUnit> pbs;
  int slot = 0;                ///< tone-map slot at transmission start
  double ble_mbps = 0.0;       ///< the BLEs advertised in the SoF delimiter
  /// Tone map the PBs were modulated with; valid until
  /// `PlcMedium::finish_round` returns. The medium reads it once, in
  /// `receive_at`, in the same event as `build_frame`. Each frame in a round
  /// has a different sender, and a receiver retunes only the (rx, frame.src)
  /// estimator, so no map is rewritten before its frame is read. Broadcast
  /// frames point at a static ROBO map.
  const ToneMap* tone_map = nullptr;
  bool robo = false;           ///< sent with the default/ROBO tone map
  bool sound = false;          ///< triggers channel estimation at receiver
  int n_symbols = 1;
  sim::Time start;
  sim::Time end;
};

/// What a passive sniffer captures from a start-of-frame delimiter (§2.2,
/// Table 2): the arrival timestamp and the BLE, plus frame geometry. This is
/// the exact observable surface of the Atheros toolkit's sniffer mode.
struct SofRecord {
  sim::Time start;
  sim::Time end;
  net::StationId src = 0;
  net::StationId dst = 0;
  int slot = 0;
  double ble_mbps = 0.0;
  int n_pbs = 0;
  int n_symbols = 1;
  bool robo = false;
  bool sound = false;
  bool broadcast = false;
};

}  // namespace efd::plc
