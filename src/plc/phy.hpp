#pragma once

#include "src/grid/power_grid.hpp"
#include "src/sim/time.hpp"

namespace efd::plc {

/// PHY-layer constants of a HomePlug generation. Two presets reproduce the
/// paper's hardware: HomePlug AV (Intellon INT6300, the main testbed) and
/// HPAV500 (Netgear XAVB5101 / QCA7400, the validation devices; §3.1
/// footnote: AV500 extends the band to 1.8-68 MHz).
struct PhyParams {
  grid::CarrierBand band{1.8, 30.0, 917};
  /// OFDM symbol duration including the guard interval. 40.96 µs FFT +
  /// 5.56 µs GI = 46.52 µs; this makes the single-PB symbol rate
  /// 520*8/46.52 ≈ 89.4 Mb/s, the clamp the paper derives in §7.2.
  sim::Time symbol = sim::microseconds(46.52);
  double fec_rate = 16.0 / 21.0;
  int tone_map_slots = 6;       ///< per AC half-cycle (§2.1)
  double tx_psd_db = 68.0;      ///< transmit PSD relative to the noise floor
  /// Fraction of payload symbol bits that carry PB data; the rest is MAC
  /// framing, AES block alignment, per-PB CRC and padding. Calibrated so
  /// saturated UDP throughput tracks the paper's BLE = 1.7*T - 0.65 fit.
  double pb_wire_efficiency = 0.80;
  /// Physical block: 520 B including the 8 B PB header (§2.2 and §7.2).
  /// Packet bytes map into the 520 B block; per-PB header/CRC overhead is
  /// folded into `pb_wire_efficiency`, so a 520 B probe occupies exactly
  /// one PB (the paper's Fig. 18 clamp boundary) and R1sym = 520*8/Tsym.
  static constexpr int kPbPayloadBytes = 520;
  static constexpr int kPbTotalBytes = 520;

  /// Frame-control / preamble airtime of one delimiter (SoF, SACK).
  sim::Time delimiter = sim::microseconds(110.48);
  /// Maximum PLC frame payload duration (HPAV: 2501.12 µs).
  sim::Time max_frame = sim::microseconds(2501.12);

  [[nodiscard]] static PhyParams hpav() { return {}; }
  [[nodiscard]] static PhyParams hpav500() {
    PhyParams p;
    p.band = {1.8, 68.0, 2232};
    return p;
  }

  /// Rate (Mb/s) when one PB occupies one OFDM symbol: the §7.2 clamp.
  [[nodiscard]] double single_pb_symbol_rate_mbps() const {
    return kPbTotalBytes * 8.0 / symbol.us();
  }

  /// Bits a PB contributes, including its header.
  [[nodiscard]] static double pb_bits() { return kPbTotalBytes * 8.0; }
};

/// Robust OFDM (ROBO) mode: QPSK on all carriers, each bit repeated this
/// many times. Used for broadcast/multicast and initial channel estimation
/// (§2.1), which is why broadcast probing cannot reflect link quality (§8.1).
inline constexpr int kRoboRepetitions = 4;

}  // namespace efd::plc
