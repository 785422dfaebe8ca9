#include "src/plc/tone_map.hpp"

#include <cassert>
#include <cmath>

#include "src/grid/db_units.hpp"
#include "src/obs/obs.hpp"

namespace efd::plc {

namespace {

/// Coding gain of the rate-16/21 turbo code, applied when evaluating error
/// probabilities (the bit-loading thresholds in modulation.cpp already net
/// it out).
constexpr double kCodingGainDb = 7.0;

/// Map a mean uncoded BER to a PB (512 B block) error probability through a
/// turbo-decoder waterfall: blocks survive below ~1e-4 BER and are lost
/// almost surely above ~1e-2.
double fec_waterfall(double mean_ber) {
  if (mean_ber <= 0.0) return 0.0;
  const double x = std::log10(mean_ber);
  const double p = 1.0 / (1.0 + std::exp(-6.0 * (x + 2.7)));
  return p;
}

}  // namespace

void ToneMap::recompute() {
  EFD_PROF_SCOPE("plc.tonemap_recompute");
  // Integer total: exact, and free of a serial floating-point add chain.
  int total = 0;
  for (Modulation m : carriers_) total += efd::plc::bits_per_symbol(m);
  const double bits = static_cast<double>(total) / robo_repetitions_;
  bits_per_symbol_ = bits;
  phy_rate_mbps_ = bits * fec_rate_ / symbol_us_;
  ble_mbps_ = phy_rate_mbps_ * (1.0 - expected_pberr_);
}

void ToneMap::set_header(const PhyParams& phy, double expected_pberr,
                         std::uint32_t id) {
  fec_rate_ = phy.fec_rate;
  symbol_us_ = phy.symbol.us();
  expected_pberr_ = expected_pberr;
  id_ = id;
  robo_repetitions_ = 1;
}

ToneMap ToneMap::from_snr(std::span<const double> snr_db, double margin_db,
                          const PhyParams& phy, double expected_pberr,
                          std::uint32_t id) {
  ToneMap tm;
  tm.set_header(phy, expected_pberr, id);
  tm.carriers_.reserve(snr_db.size());
  for (double snr : snr_db) {
    tm.carriers_.push_back(pick_modulation(snr - margin_db));
  }
  tm.recompute();
  return tm;
}

void ToneMap::assign_carriers(std::span<const Modulation> carriers,
                              const PhyParams& phy, double expected_pberr,
                              std::uint32_t id) {
  set_header(phy, expected_pberr, id);
  carriers_.assign(carriers.begin(), carriers.end());
  recompute();
}

ToneMap ToneMap::robo(const PhyParams& phy) {
  ToneMap tm;
  tm.fec_rate_ = 0.5;  // ROBO uses the robust rate-1/2 code
  tm.symbol_us_ = phy.symbol.us();
  tm.expected_pberr_ = 0.0;
  tm.id_ = 0;
  tm.robo_repetitions_ = kRoboRepetitions;
  tm.carriers_.assign(static_cast<std::size_t>(phy.band.n_carriers),
                      Modulation::kQpsk);
  tm.recompute();
  return tm;
}

double ToneMap::pb_error_probability(std::span<const double> actual_snr_db) const {
  return pb_error_probability(actual_snr_db, grid::simd::active_kernels());
}

double ToneMap::pb_error_probability(
    std::span<const double> actual_snr_db,
    const grid::simd::CarrierKernels& kernels) const {
  assert(actual_snr_db.size() == carriers_.size());
  if (robo_repetitions_ > 1) {
    EFD_PROF_SCOPE("plc.pberr");
    EFD_PROF_SCOPE(kernels.name);  // nests under plc.pberr
    // ROBO interleaves each bit's copies across *different* carriers, so a
    // copy landing in a deep notch is rescued by copies on clean carriers:
    // combining approximates summing the linear SNRs of the copies, i.e.
    // repetitions times the mean linear SNR. This is what makes broadcast
    // frames decodable on links whose data quality is poor (§8.1).
    const double mean_linear =
        kernels.sum_db_to_linear_n(actual_snr_db.data(), actual_snr_db.size()) /
        static_cast<double>(actual_snr_db.size());
    const double combined_db =
        grid::linear_to_db(robo_repetitions_ * std::max(1e-6, mean_linear));
    const double ber =
        uncoded_ber(Modulation::kQpsk, combined_db + kCodingGainDb);
    return fec_waterfall(ber);
  }
  // Without repetitions, B is the carriers' exact integer bit total.
  return pb_error_probability(carriers_,
                              static_cast<std::int64_t>(bits_per_symbol_),
                              actual_snr_db, kernels);
}

double ToneMap::pb_error_probability(std::span<const Modulation> carriers,
                                     std::int64_t total_bits,
                                     std::span<const double> actual_snr_db,
                                     const grid::simd::CarrierKernels& kernels) {
  EFD_PROF_SCOPE("plc.pberr");
  EFD_PROF_SCOPE(kernels.name);  // nests under plc.pberr
  assert(carriers.size() == actual_snr_db.size());
  if (total_bits == 0) return 1.0;  // nothing loaded: undecodable
  const double weighted_ber = kernels.ber_weighted_sum_n(
      ber_lut_view(), bit_loading_table(), as_levels(carriers.data()),
      actual_snr_db.data(), kCodingGainDb, actual_snr_db.size());
  return fec_waterfall(weighted_ber / static_cast<double>(total_bits));
}

}  // namespace efd::plc
