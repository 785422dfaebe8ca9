#include "src/plc/channel_estimator.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <span>
#include <utility>
#include <vector>

#include "src/obs/obs.hpp"

namespace efd::plc {

namespace {

/// Bit-loading back-off over the constellation thresholds when the
/// channel is perfectly known.
constexpr double kBaseMarginDb = 1.0;
/// PB samples that halve-ish the uncertainty: penalty = A/sqrt(1+n/n0).
constexpr double kUncertaintyN0 = 400.0;
/// Retune when the smoothed PB error rate exceeds this (high trigger).
constexpr double kErrorRetuneThreshold = 0.03;
/// EWMA weight for the measured PB error rate.
constexpr double kPberrAlpha = 0.2;
/// Extra margin added per error-triggered retune, decaying afterwards;
/// produces the impulsive BLE drops and recovery of Fig. 10.
constexpr double kPanicMarginDb = 0.8;
constexpr double kPanicDecay = 0.8;  ///< multiplicative decay per clean retune
/// Smoothed PBs-per-frame below which the single-PB clamp engages
/// (Fig. 18: probes of at most one PB give the rate adaptation no
/// airtime gradient above R1sym).
constexpr double kClampPbThreshold = 1.05;
/// Re-estimate when the accumulated samples would shift the bit-loading
/// margin by this much (the improvement path of the convergence in
/// Fig. 16), at most once per `kImproveMinInterval`.
constexpr double kImproveMarginDb = 0.8;
constexpr sim::Time kImproveMinInterval = sim::milliseconds(500);

/// Per-thread ladder scratch: the perturbed SNR, one rung's bit loading
/// and the best rung's so far (clamp_to_rate demotes in `levels` once the
/// ladder is done). One set per thread rather than per estimator keeps
/// thousands of mostly idle links from each holding carrier-sized buffers;
/// the scratch is not reentrant.
struct LadderScratch {
  std::vector<double> snr;
  std::vector<Modulation> levels;
  std::vector<Modulation> best_levels;
};

LadderScratch& ladder_scratch() {
  thread_local LadderScratch scratch;
  return scratch;
}

Modulation demote(Modulation m) {
  switch (m) {
    case Modulation::kQam1024: return Modulation::kQam256;
    case Modulation::kQam256: return Modulation::kQam64;
    case Modulation::kQam64: return Modulation::kQam16;
    case Modulation::kQam16: return Modulation::kQam8;
    case Modulation::kQam8: return Modulation::kQpsk;
    case Modulation::kQpsk: return Modulation::kBpsk;
    default: return Modulation::kOff;
  }
}

}  // namespace

ChannelEstimator::ChannelEstimator(const PlcChannel& channel, net::StationId tx,
                                   net::StationId rx, sim::Rng rng, Config config)
    : channel_(channel), tx_(tx), rx_(rx), rng_(rng), cfg_(config) {}

double ChannelEstimator::current_uncertainty_db() const {
  return cfg_.uncertainty_db /
         std::sqrt(1.0 + static_cast<double>(pb_samples_) / kUncertaintyN0);
}

void ChannelEstimator::build_slot_map(int slot, sim::Time now, double margin_db,
                                      std::uint32_t id, ToneMap& out) const {
  const PhyParams& phy = channel_.phy();
  const std::vector<double>& static_snr = channel_.static_snr_db(tx_, rx_, slot, now);
  const double uncertainty = current_uncertainty_db();
  std::vector<double>& snr = ladder_scratch().snr;
  snr.resize(static_snr.size());
  // The receiver's measurements include part of the instantaneous noise and
  // a per-carrier estimation error that shrinks with accumulated samples.
  // The error is drawn for every carrier in one batch, then added to the
  // offset SNR, carrier by carrier, in the order of the per-carrier loop.
  const grid::simd::CarrierKernels& kernels = grid::simd::active_kernels();
  const double offset = channel_.fast_offset_db(rx_, now) * cfg_.offset_tracking;
  const double sigma = 0.3 * uncertainty;
  if (sigma > 0.0) {
    rng_.normal_fill(snr, 0.0, sigma, kernels.polar_block);
    for (std::size_t i = 0; i < snr.size(); ++i) {
      snr[i] = (static_snr[i] - offset) + snr[i];
    }
  } else {
    for (std::size_t i = 0; i < snr.size(); ++i) snr[i] = static_snr[i] - offset;
  }
  // The bit loader maximizes *goodput*, rate * (1 - PBerr): on carriers
  // near a constellation threshold it can pay to load aggressively and
  // accept block errors — which is why real HPAV links run at PBerr up to
  // ~0.4 (paper Figs. 7, 22). Try a ladder of margins below the safe one
  // and keep the best expected goodput; Definition 1's expected PBerr is
  // whatever the winning map predicts on the typical (static) channel.
  // Gambling below the safe margin requires *knowing* the channel: scale
  // the ladder's depth by confidence, so a freshly reset device starts
  // conservative and earns its aggressiveness with samples (Fig. 16).
  const double depth = std::clamp(1.0 - uncertainty / 6.0, 0.0, 1.0);
  run_margin_ladder(snr, static_snr, margin_db, depth, phy, id, kernels, out);
}

void ChannelEstimator::run_margin_ladder(std::span<const double> measured_snr_db,
                                         std::span<const double> true_snr_db,
                                         double margin_db, double depth,
                                         const PhyParams& phy, std::uint32_t id,
                                         const grid::simd::CarrierKernels& kernels,
                                         ToneMap& out) {
  LadderScratch& scratch = ladder_scratch();
  const double ladder[] = {margin_db, margin_db - 1.5 * depth,
                           margin_db - 3.0 * depth, margin_db - 4.5 * depth};
  const std::size_t n = measured_snr_db.size();
  scratch.levels.resize(n);
  scratch.best_levels.resize(n);
  // False until a rung scores; only a NaN score leaves it so (an empty map).
  bool have_winner = false;
  double best_score = -1.0;
  double best_expected = 0.0;
  // Branch and bound, from the most aggressive rung down to the safe one.
  // expected lies in [0, 0.45] (or is NaN), so score = phy_rate * (1 -
  // expected) <= phy_rate under monotone rounding: a rung whose phy_rate is
  // below the best score so far cannot win, and its BER reduction is
  // skipped. `>=` hands a tie to the lower index, as a forward strict `>`
  // would, so the winner is the same rung the full ladder picks.
  for (std::size_t r = std::size(ladder); r-- > 0;) {
    const double m = ladder[r];
    // A repeated margin loads the same bits and scores the same; the
    // earliest index of a run of equal margins stands for the run. At depth
    // 0 (every bootstrap) all four rungs repeat, so this leaves one.
    if (r > 0 && m == ladder[r - 1]) continue;
    // pick_modulation(measured - m) per carrier; the integer bit total is
    // exact, so it equals ToneMap::recompute's sum.
    const std::int64_t total_bits =
        kernels.load_bits_n(bit_loading_table(), measured_snr_db.data(), m, n,
                            as_levels(scratch.levels.data()));
    // phy_rate_mbps() of the candidate map, in ToneMap::recompute's order.
    const double phy_rate =
        static_cast<double>(total_bits) * phy.fec_rate / phy.symbol.us();
    if (phy_rate < best_score) {
      EFD_COUNTER_INC("plc.est.ladder_rungs_bounded");
      continue;
    }
    EFD_COUNTER_INC("plc.est.ladder_rungs_scored");
    const double expected = std::min(
        ToneMap::pb_error_probability(scratch.levels, total_bits, true_snr_db,
                                      kernels),
        0.45);
    const double score = phy_rate * (1.0 - expected);
    if (score >= best_score) {
      // Keep this rung's levels; the next rung overwrites the other set.
      std::swap(scratch.levels, scratch.best_levels);
      have_winner = true;
      best_score = score;
      best_expected = expected;
    }
  }
  // Only the winner's levels become carriers.
  out.assign_carriers(have_winner ? std::span<const Modulation>(scratch.best_levels)
                                  : std::span<const Modulation>(),
                      phy, best_expected, id);
}

void ChannelEstimator::clamp_to_rate(ToneMap& map, double rate_mbps,
                                     const PhyParams& phy, std::uint32_t id) {
  if (map.ble_mbps() <= rate_mbps) return;
  // With single-PB, single-symbol frames, spare rate buys no airtime — only
  // errors. Demote carriers one constellation step at a time (round-robin
  // passes) until the BLE lands at the single-symbol rate.
  std::vector<Modulation>& carriers = ladder_scratch().levels;
  carriers.assign(map.carriers().begin(), map.carriers().end());
  const double bits_target = rate_mbps * phy.symbol.us() /
                             (phy.fec_rate * (1.0 - map.expected_pberr()));
  double bits = 0.0;
  for (Modulation m : carriers) bits += bits_per_symbol(m);
  for (int pass = 0; pass < kModulationCount && bits > bits_target; ++pass) {
    for (Modulation& m : carriers) {
      if (bits <= bits_target) break;
      const Modulation lower = demote(m);
      bits -= bits_per_symbol(m) - bits_per_symbol(lower);
      m = lower;
    }
  }
  map.assign_carriers(carriers, phy, map.expected_pberr(), id);
}

void ChannelEstimator::retune(sim::Time now, bool error_triggered) {
  EFD_PROF_SCOPE("plc.tonemap_adapt");
  const PhyParams& phy = channel_.phy();
  if (error_triggered) {
    // Severity-scaled back-off: *sustained* error pressure (capture-effect
    // collisions under background traffic) makes the vendor algorithm
    // return very low BLE values (§6.2's HPAV500 observation, §8.2), while
    // the ~1% error duty of ordinary impulse noise stays below the knee and
    // costs only small dips (the paper's good-link behaviour in Fig. 10).
    const double sustained =
        std::max(0.0, pberr_ewma_slow_ - expected_pberr_ - 0.03);
    const double severity = 1.0 + 8.0 * std::min(1.0, sustained / 0.1);
    panic_margin_db_ += kPanicMarginDb * severity;
    panic_margin_db_ = std::min(panic_margin_db_, 14.0);
  } else {
    panic_margin_db_ *= kPanicDecay;
    if (panic_margin_db_ < 0.05) panic_margin_db_ = 0.0;
  }
  const double margin =
      kBaseMarginDb + current_uncertainty_db() + panic_margin_db_;
  margin_at_last_retune_ = margin;

  // Rebuild the slot maps in place: a warm retune reuses their buffers.
  maps_.resize(static_cast<std::size_t>(phy.tone_map_slots));
  const bool clamp =
      pbs_per_frame_ewma_ <= kClampPbThreshold && pb_samples_ > 50;
  double expected_sum = 0.0;
  for (int s = 0; s < phy.tone_map_slots; ++s) {
    ToneMap& tm = maps_[static_cast<std::size_t>(s)];
    build_slot_map(s, now, margin, next_id_++, tm);
    if (clamp) {
      clamp_to_rate(tm, phy.single_pb_symbol_rate_mbps(), phy, next_id_++);
    }
    expected_sum += tm.expected_pberr();
  }
  expected_pberr_ = expected_sum / phy.tone_map_slots;
  has_maps_ = true;
  created_ = now;
  last_update_ = now;
  ++update_count_;
  EFD_COUNTER_INC("plc.est.tonemap_updates");
  if (error_triggered) EFD_COUNTER_INC("plc.est.error_retunes");
  // Errors that triggered this retune are presumed handled.
  if (error_triggered) pberr_ewma_ *= 0.25;
}

void ChannelEstimator::on_sound_frame(sim::Time now) {
  EFD_COUNTER_INC("plc.est.sound_frames");
  // A handful of sound PBs seed the statistics.
  pb_samples_ += 3;
  if (!has_maps_) retune(now, /*error_triggered=*/false);
}

void ChannelEstimator::on_frame_received(int slot, int n_pbs, int n_errors,
                                         int n_symbols, sim::Time now) {
  (void)slot;
  assert(n_pbs >= 0 && n_errors >= 0 && n_errors <= n_pbs);
  EFD_COUNTER_ADD("plc.est.pbs_rx", n_pbs);
  EFD_COUNTER_ADD("plc.est.pb_errors", n_errors);
  pb_samples_ += static_cast<std::uint64_t>(n_pbs);
  if (n_pbs > 0) {
    const double frame_err =
        static_cast<double>(n_errors) / static_cast<double>(n_pbs);
    pberr_ewma_ += kPberrAlpha * (frame_err - pberr_ewma_);
    pberr_ewma_slow_ += 0.02 * (frame_err - pberr_ewma_slow_);
    ampstat_ewma_ += 0.03 * (frame_err - ampstat_ewma_);
    symbols_per_frame_ewma_ +=
        0.05 * (static_cast<double>(n_symbols) - symbols_per_frame_ewma_);
    pbs_per_frame_ewma_ +=
        0.05 * (static_cast<double>(n_pbs) - pbs_per_frame_ewma_);
  }
  if (!has_maps_) {
    retune(now, false);
    return;
  }
  // Error trigger is *relative* to the map's expected residual error rate:
  // an aggressively loaded map is supposed to see its design PBerr.
  if (pberr_ewma_ - expected_pberr_ > kErrorRetuneThreshold) {
    retune(now, /*error_triggered=*/true);
    return;
  }
  // Improvement-driven retune: enough new samples have accumulated that the
  // bit loading would change materially. This is what makes the estimated
  // capacity converge faster at higher probe rates (Fig. 16).
  const double margin_now =
      kBaseMarginDb + current_uncertainty_db() + panic_margin_db_;
  if (now - last_update_ >= kImproveMinInterval &&
      std::abs(margin_now - margin_at_last_retune_) > kImproveMarginDb) {
    retune(now, /*error_triggered=*/false);
    return;
  }
  maybe_expire(now);
}

void ChannelEstimator::maybe_expire(sim::Time now) {
  if (!has_maps_) return;
  if (now - created_ >= kExpiry) retune(now, /*error_triggered=*/false);
}

void ChannelEstimator::reset(sim::Time now) {
  maps_.clear();
  has_maps_ = false;
  created_ = now;
  last_update_ = now;
  pb_samples_ = 0;
  expected_pberr_ = 0.0;
  pberr_ewma_ = 0.0;
  pberr_ewma_slow_ = 0.0;
  ampstat_ewma_ = 0.0;
  panic_margin_db_ = 0.0;
  symbols_per_frame_ewma_ = 10.0;
  pbs_per_frame_ewma_ = 10.0;
}

void ChannelEstimator::invalidate_tone_maps(sim::Time now) {
  maps_.clear();
  has_maps_ = false;
  created_ = now;
  // Relax the trigger EWMAs: the error burst that killed the maps should
  // not immediately re-trip the error retune once fresh maps exist.
  pberr_ewma_ = 0.0;
  pberr_ewma_slow_ = 0.0;
}

const ToneMap& ChannelEstimator::tone_map(int slot) const {
  if (!has_maps_) return channel_.robo();
  assert(slot >= 0 && slot < static_cast<int>(maps_.size()));
  return maps_[static_cast<std::size_t>(slot)];
}

double ChannelEstimator::average_ble_mbps() const {
  if (!has_maps_) return channel_.robo().ble_mbps();
  double sum = 0.0;
  for (const ToneMap& tm : maps_) sum += tm.ble_mbps();
  return sum / static_cast<double>(maps_.size());
}

}  // namespace efd::plc
