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

/// Per-thread ladder scratch: the perturbed SNR, one rung's bit loading
/// (carriers, plus the BER-LUT row offsets and bit weights ToneMap scores
/// them by), the best rung's carriers so far, and the carriers
/// clamp_to_rate demotes. One set per thread rather than per estimator
/// keeps thousands of mostly idle links from each holding carrier-sized
/// buffers; like PlcChannel's workspace, the scratch is not reentrant.
struct LadderScratch {
  std::vector<double> snr;
  std::vector<Modulation> carriers;
  std::vector<Modulation> best_carriers;
  std::vector<std::int32_t> lut_rows;
  std::vector<double> bits;
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
    : channel_(channel), tx_(tx), rx_(rx), rng_(rng), cfg_(config) {
  maps_.robo = ToneMap::robo(channel_.phy());
}

double ChannelEstimator::current_uncertainty_db() const {
  return cfg_.uncertainty_db /
         std::sqrt(1.0 + static_cast<double>(pb_samples_) / cfg_.uncertainty_n0);
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
  const double offset = channel_.fast_offset_db(rx_, now) * cfg_.offset_tracking;
  const double sigma = 0.3 * uncertainty;
  if (sigma > 0.0) {
    rng_.normal_fill(snr, 0.0, sigma);
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
  run_margin_ladder(snr, static_snr, margin_db, depth, phy, id,
                    grid::simd::active_kernels(), out);
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
  const std::int32_t row_len = ber_lut_view().size;
  scratch.carriers.resize(n);
  scratch.best_carriers.resize(n);
  scratch.lut_rows.resize(n);
  scratch.bits.resize(n);
  // Empty until a rung scores; only NaN SNRs leave it so (an empty map).
  std::span<const Modulation> winner;
  double best_score = -1.0;
  double best_expected = 0.0;
  for (std::size_t r = 0; r < std::size(ladder); ++r) {
    const double m = ladder[r];
    // A repeated margin loads the same bits, and the strict `>` below keeps
    // the earlier rung on a tie. At depth 0 (every bootstrap) all four
    // rungs repeat, so this leaves one.
    if (r > 0 && m == ladder[r - 1]) continue;
    // Integer bit total: exact, so it equals ToneMap::recompute's sum.
    int total_bits = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const Modulation mod = pick_modulation(measured_snr_db[i] - m);
      const int b = bits_per_symbol(mod);
      total_bits += b;
      scratch.carriers[i] = mod;
      scratch.bits[i] = static_cast<double>(b);
      scratch.lut_rows[i] = static_cast<std::int32_t>(mod) * row_len;
    }
    const double expected = std::min(
        ToneMap::pb_error_probability(scratch.lut_rows, scratch.bits,
                                      true_snr_db, kernels),
        0.45);
    // phy_rate_mbps() of the candidate map, in ToneMap::recompute's order.
    const double phy_rate =
        static_cast<double>(total_bits) * phy.fec_rate / phy.symbol.us();
    const double score = phy_rate * (1.0 - expected);
    if (score > best_score) {
      // Keep this rung's carriers; the next rung overwrites the other set.
      std::swap(scratch.carriers, scratch.best_carriers);
      winner = scratch.best_carriers;
      best_score = score;
      best_expected = expected;
    }
  }
  out.assign_carriers(winner, phy, best_expected, id);
}

void ChannelEstimator::clamp_to_rate(ToneMap& map, double rate_mbps,
                                     const PhyParams& phy, std::uint32_t id) {
  if (map.ble_mbps() <= rate_mbps) return;
  // With single-PB, single-symbol frames, spare rate buys no airtime — only
  // errors. Demote carriers one constellation step at a time (round-robin
  // passes) until the BLE lands at the single-symbol rate.
  std::vector<Modulation>& carriers = ladder_scratch().carriers;
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
    panic_margin_db_ += cfg_.panic_margin_db * severity;
    panic_margin_db_ = std::min(panic_margin_db_, 14.0);
  } else {
    panic_margin_db_ *= cfg_.panic_decay;
    if (panic_margin_db_ < 0.05) panic_margin_db_ = 0.0;
  }
  const double margin =
      cfg_.base_margin_db + current_uncertainty_db() + panic_margin_db_;
  margin_at_last_retune_ = margin;

  // Rebuild the slot maps in place: a warm retune reuses their buffers.
  maps_.slots.resize(static_cast<std::size_t>(phy.tone_map_slots));
  const bool clamp =
      pbs_per_frame_ewma_ <= cfg_.clamp_pb_threshold && pb_samples_ > 50;
  double expected_sum = 0.0;
  for (int s = 0; s < phy.tone_map_slots; ++s) {
    ToneMap& tm = maps_.slots[static_cast<std::size_t>(s)];
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
    pberr_ewma_ += cfg_.pberr_alpha * (frame_err - pberr_ewma_);
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
  if (pberr_ewma_ - expected_pberr_ > cfg_.error_retune_threshold) {
    retune(now, /*error_triggered=*/true);
    return;
  }
  // Improvement-driven retune: enough new samples have accumulated that the
  // bit loading would change materially. This is what makes the estimated
  // capacity converge faster at higher probe rates (Fig. 16).
  const double margin_now =
      cfg_.base_margin_db + current_uncertainty_db() + panic_margin_db_;
  if (now - last_update_ >= cfg_.improve_min_interval &&
      std::abs(margin_now - margin_at_last_retune_) > cfg_.improve_margin_db) {
    retune(now, /*error_triggered=*/false);
    return;
  }
  maybe_expire(now);
}

void ChannelEstimator::maybe_expire(sim::Time now) {
  if (!has_maps_) return;
  if (now - created_ >= cfg_.expiry) retune(now, /*error_triggered=*/false);
}

void ChannelEstimator::reset(sim::Time now) {
  maps_.slots.clear();
  maps_.robo = ToneMap::robo(channel_.phy());
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
  maps_.slots.clear();
  has_maps_ = false;
  created_ = now;
  // Relax the trigger EWMAs: the error burst that killed the maps should
  // not immediately re-trip the error retune once fresh maps exist.
  pberr_ewma_ = 0.0;
  pberr_ewma_slow_ = 0.0;
}

double ChannelEstimator::ble_mbps(int slot) const {
  if (!has_maps_) return maps_.robo.ble_mbps();
  assert(slot >= 0 && slot < static_cast<int>(maps_.slots.size()));
  return maps_.slots[static_cast<std::size_t>(slot)].ble_mbps();
}

}  // namespace efd::plc
