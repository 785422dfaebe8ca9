#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>

#include "src/grid/simd.hpp"

namespace efd::plc {

/// Per-carrier constellations of HomePlug AV / IEEE 1901 (§2.1 of the
/// paper). Unlike 802.11, every OFDM carrier picks its own constellation.
/// One byte: a tone map stores nothing else per carrier, and the batch
/// kernels read its carriers as grid::simd levels.
enum class Modulation : std::uint8_t {
  kOff,      ///< carrier not used (notched or hopeless SNR)
  kBpsk,
  kQpsk,
  kQam8,
  kQam16,
  kQam64,
  kQam256,
  kQam1024,
};

inline constexpr int kModulationCount = 8;
static_assert(sizeof(Modulation) == 1);

/// Modulations as the batch kernels' constellation levels (grid::simd):
/// each level is its Modulation's index.
[[nodiscard]] inline const std::uint8_t* as_levels(const Modulation* m) {
  return reinterpret_cast<const std::uint8_t*>(m);
}
[[nodiscard]] inline std::uint8_t* as_levels(Modulation* m) {
  return reinterpret_cast<std::uint8_t*>(m);
}

/// Bits carried per OFDM symbol on one carrier, indexed by Modulation; the
/// batch kernels read it through bit_loading_table().
inline constexpr std::array<int, kModulationCount> kBitsPerSymbol = {
    0,   // kOff
    1,   // kBpsk
    2,   // kQpsk
    3,   // kQam8
    4,   // kQam16
    6,   // kQam64
    8,   // kQam256
    10,  // kQam1024
};

/// Bits carried per OFDM symbol on one carrier.
[[nodiscard]] constexpr int bits_per_symbol(Modulation m) {
  return kBitsPerSymbol[static_cast<std::size_t>(m)];
}

/// View of the uncoded-BER lookup table for the batch carrier kernels
/// (grid::simd::CarrierKernels::ber_weighted_sum_n): kModulationCount rows of
/// samples every 0.1 dB, one per Modulation in index order. The kernel finds
/// a carrier's row from its modulation; the kOff row is all-zero, so off
/// carriers gather 0.0 and (with bit weight 0) contribute nothing to the
/// reduction — no branch needed.
[[nodiscard]] grid::simd::InterpTableView ber_lut_view();

/// Bit-loading thresholds indexed by Modulation: net carrier SNRs (dB)
/// after the ~7 dB coding gain of the rate-16/21 turbo code. Strictly
/// increasing; kOff's entry never binds.
inline constexpr std::array<double, kModulationCount> kRequiredSnrDb = {
    -1e9,  // kOff
    2.0,   // kBpsk
    5.0,   // kQpsk
    8.5,   // kQam8
    11.5,  // kQam16
    17.5,  // kQam64
    23.5,  // kQam256
    29.5,  // kQam1024
};

/// Minimum carrier SNR (dB) at which the bit-loader selects `m`, assuming
/// the standard's rate-16/21 turbo FEC. Calibrated so that operating at the
/// threshold leaves a small residual PB error rate, as HPAV does.
[[nodiscard]] constexpr double required_snr_db(Modulation m) {
  return kRequiredSnrDb[static_cast<std::size_t>(m)];
}

/// Largest constellation whose threshold is at or below `snr_db`. Because
/// the thresholds increase strictly, that constellation's index is the
/// number of thresholds met: seven independent compares, no branches (the
/// bit loader runs this once per carrier and rung). NaN meets none and
/// picks kOff.
[[nodiscard]] constexpr Modulation pick_modulation(double snr_db) {
  static_assert(kModulationCount == 8, "one compare per non-off threshold");
  const auto& t = kRequiredSnrDb;
  const int met = (snr_db >= t[1]) + (snr_db >= t[2]) + (snr_db >= t[3]) +
                  (snr_db >= t[4]) + (snr_db >= t[5]) + (snr_db >= t[6]) +
                  (snr_db >= t[7]);
  return static_cast<Modulation>(met);
}

/// The per-level table of the batch kernels load_bits_n and
/// ber_weighted_sum_n: kRequiredSnrDb and kBitsPerSymbol. A level is a
/// Modulation index, so load_bits_n's counts equal pick_modulation's.
[[nodiscard]] const grid::simd::BitLoadingTable& bit_loading_table();

/// Approximate uncoded bit-error rate of `m` at the given carrier SNR.
/// Standard Gray-coded square-QAM approximation; used to derive PB error
/// probabilities for tone maps that are mismatched to the channel.
///
/// Backed by a per-modulation lookup table over SNR quantized at 0.1 dB
/// with linear interpolation — this sits in the innermost per-carrier loop
/// of `ToneMap::pb_error_probability`, where the closed form's
/// pow/sqrt/erfc triple dominates multi-day trace generation. Matches
/// `uncoded_ber_exact` within 1e-4 absolute everywhere (regression-tested).
[[nodiscard]] double uncoded_ber(Modulation m, double snr_db);

/// The exact closed form (Q-function / erfc); kept as the reference the
/// LUT is built from and verified against.
[[nodiscard]] double uncoded_ber_exact(Modulation m, double snr_db);

[[nodiscard]] std::string to_string(Modulation m);

}  // namespace efd::plc
