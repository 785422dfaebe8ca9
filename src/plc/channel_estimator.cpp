#include "src/plc/channel_estimator.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>
#include <numbers>
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

/// The ladder's rung margins, most conservative first.
std::array<double, 4> ladder_margins(double margin_db, double depth) {
  return {margin_db, margin_db - 1.5 * depth, margin_db - 3.0 * depth,
          margin_db - 4.5 * depth};
}

/// Noise-decision grid resolution and reach (DESIGN.md §12): cells of 1/64
/// dB, distances to the nearest threshold resolved up to 0.3 dB. The reach
/// also sets where the decision stops: past sigma ~0.25 dB it is skipped,
/// since there about half the carriers need their variate anyway and the
/// decision costs as much as it saves. Converged links (sigma ~0.01 dB)
/// lose nothing: at 0.3 dB every pair they draw is already covered.
constexpr double kGridCellsPerDb = 64.0;
constexpr double kGridCapDb = 0.3;
/// Room left between a variate's bound and a threshold for rounding: of
/// static - offset + v and its difference with a margin, of a threshold
/// plus a margin, and of a carrier's cell. Each is ~1e-14 dB at carrier SNRs.
constexpr double kGridSlackDb = 1e-7;
/// A kmax that covers every pair: r is a positive normal double, at least
/// 2^-1022.
constexpr std::int32_t kKmaxAll = 1023;

/// One retune's noise-decision grid. Its margins, depth and sigma fix it,
/// so the slots of one retune share it.
class NoiseGrid {
 public:
  /// Sized for the widest grid, at depth 1, when the thread's scratch is
  /// made: margins move every retune, and a warm retune, the first with a
  /// small enough sigma included, must not allocate.
  NoiseGrid() {
    const grid::simd::BitLoadingTable& table = bit_loading_table();
    kmax_.reserve(static_cast<std::size_t>(
                      (table.required_db.back() - table.required_db[1] + 4.5 +
                       2.0 * kGridCapDb) *
                      kGridCellsPerDb) +
                  5);
    near_.reserve(static_cast<std::size_t>(kGridCapDb * kGridCellsPerDb) + 1);
  }

  /// Readies the grid for this pass. False when no carrier could be decided:
  /// sigma * sqrt(2 ln 2) is beyond the grid's reach, so even r >= 1/2
  /// bounds the variate past every resolved distance.
  bool prepare(double margin_db, double depth, double sigma) {
    if (margin_db == margin_db_ && depth == depth_ && sigma == sigma_) {
      return usable_;
    }
    margin_db_ = margin_db;
    depth_ = depth;
    sigma_ = sigma;
    scale_ = 1.0 / (sigma * (1.0 + 2e-9));
    usable_ = kmax_at(kGridCapDb) >= 1;
    if (usable_) build();
    return usable_;
  }

  [[nodiscard]] grid::simd::NoiseGridView view() const {
    return {kmax_.data(), static_cast<std::int32_t>(kmax_.size()), lo_db_,
            kGridCellsPerDb};
  }

 private:
  /// The largest k with sigma * sqrt(2 k ln 2) * (1 + 1e-9) + slack < d:
  /// then every pair with r >= 2^-k gives |v| under d - slack. Dividing by
  /// sigma * (1 + 2e-9) keeps k on the safe side of this formula's own
  /// rounding.
  [[nodiscard]] std::int32_t kmax_at(double d) const {
    const double t = (d - kGridSlackDb) * scale_;
    if (!(t > 0.0)) return -1;
    const double k = t * t * (0.5 / std::numbers::ln2);
    return k >= kKmaxAll ? kKmaxAll : static_cast<std::int32_t>(k);
  }

  void build() {
    // Every threshold load_bits_n compares against: snr - m >= required_db[q]
    // flips at required_db[q] + m, for each level q and rung margin m.
    const grid::simd::BitLoadingTable& table = bit_loading_table();
    const std::array<double, 4> margins = ladder_margins(margin_db_, depth_);
    const auto [m_lo, m_hi] = std::minmax_element(margins.begin(), margins.end());
    constexpr double kCellDb = 1.0 / kGridCellsPerDb;
    // One cell more than the reach below the lowest threshold and above the
    // highest, so the end cells, which run on to infinity, are out of reach.
    lo_db_ = table.required_db[1] + *m_lo - kGridCapDb - kCellDb;
    const auto cells = static_cast<std::size_t>(
                           (table.required_db.back() + *m_hi + kGridCapDb - lo_db_) *
                           kGridCellsPerDb) +
                       3;
    const std::int32_t far = kmax_at(kGridCapDb);
    kmax_.assign(cells, far);
    // near_[o]: the kmax of a cell whose nearest threshold is at least o
    // cells away, up to the first o at which it reaches `far`.
    near_.clear();
    for (std::int32_t k = kmax_at(0.0); k < far;
         k = kmax_at(static_cast<double>(near_.size()) * kCellDb)) {
      near_.push_back(k);
    }
    // A threshold in cell c is at least o cells from cells c + 1 + o and
    // c - 1 - o, and at distance 0 from c itself.
    for (std::size_t rung = 0; rung < margins.size(); ++rung) {
      if (rung > 0 && margins[rung] == margins[rung - 1]) continue;
      for (std::size_t q = 1; q < grid::simd::kBitLevels; ++q) {
        const double bound = table.required_db[q] + margins[rung];
        const auto c = static_cast<std::size_t>((bound - lo_db_) * kGridCellsPerDb);
        assert(c >= near_.size() && c + near_.size() < cells);
        kmax_[c] = near_[0];
        std::int32_t* above = kmax_.data() + c + 1;
        std::int32_t* below = kmax_.data() + c - 1;
        for (std::size_t o = 0; o < near_.size(); ++o) {
          above[o] = std::min(above[o], near_[o]);
          *(below - o) = std::min(*(below - o), near_[o]);
        }
      }
    }
  }

  static constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  double margin_db_ = kNan;
  double depth_ = kNan;
  double sigma_ = kNan;
  double scale_ = 0.0;
  bool usable_ = false;
  double lo_db_ = 0.0;
  std::vector<std::int32_t> kmax_;
  std::vector<std::int32_t> near_;
};

/// Per-thread ladder scratch: the perturbed SNR, one rung's bit loading
/// and the best rung's so far (clamp_to_rate demotes in `levels` once the
/// ladder is done), every carrier's polar pair, the carriers the noise may
/// move, and the noise-decision grid. One set per thread rather than per
/// estimator keeps thousands of mostly idle links from each holding
/// carrier-sized buffers; the scratch is not reentrant.
struct LadderScratch {
  std::vector<double> snr;
  std::vector<Modulation> levels;
  std::vector<Modulation> best_levels;
  std::vector<double> pair_y;
  std::vector<double> pair_r;
  std::vector<std::uint32_t> undecided;
  NoiseGrid grid;
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
  const double uncertainty = current_uncertainty_db();
  // The receiver's measurements include part of the instantaneous noise and
  // a per-carrier estimation error that shrinks with accumulated samples.
  // The bit loader maximizes *goodput*, rate * (1 - PBerr): on carriers
  // near a constellation threshold it can pay to load aggressively and
  // accept block errors — which is why real HPAV links run at PBerr up to
  // ~0.4 (paper Figs. 7, 22). Try a ladder of margins below the safe one
  // and keep the best expected goodput; Definition 1's expected PBerr is
  // whatever the winning map predicts on the typical (static) channel.
  // Gambling below the safe margin requires *knowing* the channel: scale
  // the ladder's depth by confidence, so a freshly reset device starts
  // conservative and earns its aggressiveness with samples (Fig. 16).
  measure_and_load(channel_.static_snr_db(tx_, rx_, slot, now),
                   channel_.fast_offset_db(rx_, now) * cfg_.offset_tracking,
                   0.3 * uncertainty, margin_db,
                   std::clamp(1.0 - uncertainty / 6.0, 0.0, 1.0), channel_.phy(),
                   id, grid::simd::active_kernels(), rng_, out);
}

// The measured SNR is read only by load_bits_n's threshold compares, at the
// ladder's rung margins: the true SNR scores the rungs. So a carrier whose
// static - offset lies farther from every threshold-plus-margin than its
// variate can reach loads the same bits with or without the variate, and
// takes static - offset as it is. The accept phase still runs for every
// carrier, so the engine moves exactly as a full draw moves it; only the
// undecided carriers pay for log, div and sqrt (DESIGN.md §12).
void ChannelEstimator::measure_and_load(std::span<const double> static_snr_db,
                                        double offset_db, double sigma_db,
                                        double margin_db, double depth,
                                        const PhyParams& phy, std::uint32_t id,
                                        const grid::simd::CarrierKernels& kernels,
                                        sim::Rng& rng, ToneMap& out) {
  LadderScratch& scratch = ladder_scratch();
  const std::size_t n = static_snr_db.size();
  std::vector<double>& snr = scratch.snr;
  std::vector<double>& y = scratch.pair_y;
  std::vector<double>& r = scratch.pair_r;
  std::vector<std::uint32_t>& undecided = scratch.undecided;
  // Every pass sizes every buffer, so a warm pass allocates nothing
  // whatever sigma the passes before it had.
  snr.resize(n);
  y.resize(n);
  r.resize(n);
  undecided.resize(n);
  kernels.shift_n(static_snr_db.data(), offset_db, snr.data(), n);
  if (sigma_db > 0.0) {
    rng.polar_pairs(y, r, kernels.polar.accept);
    std::size_t exact = n;
    if (scratch.grid.prepare(margin_db, depth, sigma_db)) {
      exact = kernels.noise_undecided_n(scratch.grid.view(), snr.data(), r.data(), n,
                                        undecided.data());
      // Pack the undecided pairs to the front (undecided[k] >= k, ascending),
      // transform them in one batch and add each to its carrier.
      for (std::size_t k = 0; k < exact; ++k) {
        y[k] = y[undecided[k]];
        r[k] = r[undecided[k]];
      }
      kernels.polar.transform(y.data(), r.data(), exact, 0.0, sigma_db, y.data());
      for (std::size_t k = 0; k < exact; ++k) {
        snr[undecided[k]] = snr[undecided[k]] + y[k];
      }
    } else {
      // No carrier can be decided: every variate, added carrier by carrier.
      kernels.polar.transform(y.data(), r.data(), n, 0.0, sigma_db, y.data());
      for (std::size_t i = 0; i < n; ++i) snr[i] = snr[i] + y[i];
    }
    EFD_COUNTER_ADD("plc.est.exact_variates", exact);
    EFD_COUNTER_ADD("plc.est.noise_carriers", n);
  }
  run_margin_ladder(snr, static_snr_db, margin_db, depth, phy, id, kernels, out);
}

void ChannelEstimator::run_margin_ladder(std::span<const double> measured_snr_db,
                                         std::span<const double> true_snr_db,
                                         double margin_db, double depth,
                                         const PhyParams& phy, std::uint32_t id,
                                         const grid::simd::CarrierKernels& kernels,
                                         ToneMap& out) {
  LadderScratch& scratch = ladder_scratch();
  const std::array<double, 4> ladder = ladder_margins(margin_db, depth);
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
