#include "src/plc/modulation.hpp"

#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>

namespace efd::plc {

namespace {
/// Gaussian tail function.
double q_func(double x) { return 0.5 * std::erfc(x / std::sqrt(2.0)); }

/// LUT domain: 0.1 dB steps over [-80, 60] dB. Below -80 dB every BER has
/// flattened to within 1e-4 of its 0-SNR limit; above 60 dB every BER has
/// underflowed to 0 for all supported constellations.
constexpr double kLutMinDb = -80.0;
constexpr double kLutMaxDb = 60.0;
constexpr double kLutStepDb = 0.1;
constexpr std::size_t kLutSize =
    static_cast<std::size_t>((kLutMaxDb - kLutMinDb) / kLutStepDb) + 1;

struct BerTables {
  // One table per Modulation enumerator (kOff's stays all-zero).
  std::array<std::array<double, kLutSize>, kModulationCount> ber{};

  BerTables() {
    for (int m = 0; m < kModulationCount; ++m) {
      if (static_cast<Modulation>(m) == Modulation::kOff) continue;
      for (std::size_t i = 0; i < kLutSize; ++i) {
        const double snr_db = kLutMinDb + static_cast<double>(i) * kLutStepDb;
        ber[static_cast<std::size_t>(m)][i] =
            uncoded_ber_exact(static_cast<Modulation>(m), snr_db);
      }
    }
  }
};

const BerTables& ber_tables() {
  static const BerTables tables;
  return tables;
}
}  // namespace

grid::simd::InterpTableView ber_lut_view() {
  const BerTables& t = ber_tables();
  return {
      t.ber[0].data(),
      kModulationCount,
      static_cast<std::int32_t>(kLutSize),
      kLutMinDb,
      kLutStepDb,
  };
}

const grid::simd::BitLoadingTable& bit_loading_table() {
  static_assert(grid::simd::kBitLevels == kModulationCount);
  static constexpr grid::simd::BitLoadingTable kTable = [] {
    grid::simd::BitLoadingTable t;
    for (std::size_t m = 0; m < grid::simd::kBitLevels; ++m) {
      t.required_db[m] = kRequiredSnrDb[m];
      t.bits[m] = kBitsPerSymbol[m];
    }
    return t;
  }();
  return kTable;
}

double uncoded_ber(Modulation m, double snr_db) {
  if (m == Modulation::kOff) return 0.0;
  const auto& table = ber_tables().ber[static_cast<std::size_t>(m)];
  const double pos = (snr_db - kLutMinDb) / kLutStepDb;
  if (!(pos > 0.0)) return table.front();  // NaN too: no cast of NaN below
  if (pos >= static_cast<double>(kLutSize - 1)) return table.back();
  const auto idx = static_cast<std::size_t>(pos);
  const double frac = pos - static_cast<double>(idx);
  return table[idx] + frac * (table[idx + 1] - table[idx]);
}

double uncoded_ber_exact(Modulation m, double snr_db) {
  const double snr = std::pow(10.0, snr_db / 10.0);
  switch (m) {
    case Modulation::kOff:
      return 0.0;  // carrier unused: contributes no bits, no errors
    case Modulation::kBpsk:
      return q_func(std::sqrt(2.0 * snr));
    case Modulation::kQpsk:
      return q_func(std::sqrt(snr));
    default: {
      const int b = bits_per_symbol(m);
      const double mm = std::pow(2.0, b);
      // Gray-coded square/cross QAM approximation.
      const double arg = std::sqrt(3.0 * snr / (mm - 1.0));
      return (4.0 / b) * (1.0 - 1.0 / std::sqrt(mm)) * q_func(arg);
    }
  }
}

std::string to_string(Modulation m) {
  switch (m) {
    case Modulation::kOff: return "off";
    case Modulation::kBpsk: return "bpsk";
    case Modulation::kQpsk: return "qpsk";
    case Modulation::kQam8: return "8-qam";
    case Modulation::kQam16: return "16-qam";
    case Modulation::kQam64: return "64-qam";
    case Modulation::kQam256: return "256-qam";
    case Modulation::kQam1024: return "1024-qam";
  }
  return "unknown";
}

}  // namespace efd::plc
