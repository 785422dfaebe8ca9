#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "src/plc/channel.hpp"
#include "src/plc/tone_map.hpp"
#include "src/sim/rng.hpp"
#include "src/sim/time.hpp"

namespace efd::plc {

/// Receiver-side channel estimation for one directed link, in the style of
/// the vendor-specific algorithms IEEE 1901 leaves unspecified (§2.2). It
/// reproduces the observable behaviours the paper measures:
///
///  - sound frames bootstrap tone maps from a default ROBO start (§2.1);
///  - estimates converge as PBs accumulate — convergence time shrinks with
///    probe rate (Fig. 16) because per-carrier statistics need samples;
///  - statistics persist across probing pauses (Fig. 17);
///  - tone maps expire after 30 s or when the error rate crosses a
///    threshold (§2.1), so bad links retune often (Fig. 10/11);
///  - single-PB, single-symbol probe frames give the rate adaptation no
///    airtime gradient, clamping BLE at R1sym ≈ 89.4 Mb/s (Fig. 18);
///  - PB errors caused by collisions are indistinguishable from channel
///    errors, so capture-effect losses drag BLE down (Fig. 23).
class ChannelEstimator {
 public:
  struct Config {
    /// Initial estimation uncertainty (dB), decaying as samples accumulate.
    double uncertainty_db = 12.0;
    /// Fraction of the instantaneous noise offset the estimator bakes into
    /// a retune. The chip's SNR statistics average over many frames, so the
    /// zero-mean cycle-scale jitter washes out: 0 by default. (Non-zero
    /// values model a naive estimator that trusts instantaneous SNR — kept
    /// for the estimator ablation bench.)
    double offset_tracking = 0.0;
  };

  /// Tone maps expire after this long (IEEE 1901: 30 s).
  static constexpr sim::Time kExpiry = sim::seconds(30);

  ChannelEstimator(const PlcChannel& channel, net::StationId tx, net::StationId rx,
                   sim::Rng rng, Config config);

  /// Process a sound frame: (re)estimate all slots from scratch if no valid
  /// tone maps exist.
  void on_sound_frame(sim::Time now);

  /// Account a received data frame: `n_pbs` physical blocks of which
  /// `n_errors` arrived corrupted, occupying `n_symbols` OFDM symbols in
  /// slot `slot`. Collisions that corrupt PBs are reported here too — the
  /// estimator cannot tell them apart (paper §8.2).
  void on_frame_received(int slot, int n_pbs, int n_errors, int n_symbols,
                         sim::Time now);

  /// Time-driven maintenance: expiry-based retunes. Called opportunistically
  /// by the MAC / samplers.
  void maybe_expire(sim::Time now);

  /// Device reset (paper §7.1 resets devices between runs): drops all
  /// accumulated statistics and tone maps.
  void reset(sim::Time now);

  /// Fault injection (fault::FaultKind::kPlcBlackout): the surge corrupted
  /// the negotiated tone maps — drop them (forcing the next frame back to
  /// a ROBO sound exchange, §2.1) but keep the accumulated per-carrier
  /// statistics, so re-estimation after the fault clears is fast.
  void invalidate_tone_maps(sim::Time now);

  /// The link direction's tone maps, one per tone-map slot of the AC half
  /// cycle (§2.1); empty until the first retune.
  [[nodiscard]] const std::vector<ToneMap>& tone_maps() const { return maps_; }
  [[nodiscard]] bool has_tone_maps() const { return has_maps_; }

  /// The map a frame on this link uses in `slot`: the slot's map, or the
  /// channel's ROBO default while there are none.
  [[nodiscard]] const ToneMap& tone_map(int slot) const;

  /// BLE of one slot / averaged over slots (Mb/s), as reported in SoF
  /// delimiters and by `int6krate`-style MMs (the paper's "average BLE",
  /// Table 2, §6). Without maps both are the ROBO BLE.
  [[nodiscard]] double ble_mbps(int slot) const { return tone_map(slot).ble_mbps(); }
  [[nodiscard]] double average_ble_mbps() const;

  /// Smoothed measured PB error rate (`ampstat`-style MM). Unlike the
  /// internal trigger EWMA, this one is never relaxed at retunes: it is the
  /// error rate the chip's counters actually accumulated, which is why bad
  /// links report PBerr well above zero (paper Figs. 7, 22) even though
  /// each individual tone map is retuned away from its errors.
  [[nodiscard]] double measured_pberr() const { return ampstat_ewma_; }

  /// Total PB samples accumulated (diagnostic).
  [[nodiscard]] std::uint64_t pb_samples() const { return pb_samples_; }

  /// Number of tone-map updates so far (alpha statistic of Fig. 11 counts
  /// update inter-arrival times).
  [[nodiscard]] std::uint64_t update_count() const { return update_count_; }

  /// One slot's bit-loading pass: perturbed-SNR measurement plus the
  /// goodput-maximizing margin ladder, written into `out` in place. The
  /// ladder scores each distinct rung from per-thread scratch and builds
  /// only the winner. Public so the micro benches can time the kernel in
  /// isolation; simulation code goes through retunes.
  void build_slot_map(int slot, sim::Time now, double margin_db,
                      std::uint32_t id, ToneMap& out) const;

  /// build_slot_map on explicit inputs: measures each carrier as
  /// (`static_snr_db` - `offset_db`) + N(0, `sigma_db`) from `rng`, then
  /// runs the margin ladder on the measurement against `static_snr_db`.
  /// The tone map and the engine position equal those of drawing every
  /// carrier's variate with `rng.normal_fill`, but a variate that cannot
  /// change the carrier's bit loading at any rung is never computed.
  /// Static so tests can pin it against that full draw on every kernel
  /// entry.
  static void measure_and_load(std::span<const double> static_snr_db,
                               double offset_db, double sigma_db,
                               double margin_db, double depth,
                               const PhyParams& phy, std::uint32_t id,
                               const grid::simd::CarrierKernels& kernels,
                               sim::Rng& rng, ToneMap& out);

  /// The ladder on its own: bit-loads `measured_snr_db` at each distinct
  /// margin of {m, m - 1.5 d, m - 3 d, m - 4.5 d} (m = `margin_db`,
  /// d = `depth`), scores each rung's goodput against `true_snr_db` on
  /// `kernels`, and writes the best rung's map (expected PBerr capped at
  /// 0.45) into `out`; a tie goes to the lower index. A rung whose raw PHY
  /// rate cannot reach the best score so far is not scored. Static so tests
  /// can pin it on every kernel entry.
  static void run_margin_ladder(std::span<const double> measured_snr_db,
                                std::span<const double> true_snr_db,
                                double margin_db, double depth,
                                const PhyParams& phy, std::uint32_t id,
                                const grid::simd::CarrierKernels& kernels,
                                ToneMap& out);

 private:
  void retune(sim::Time now, bool error_triggered);
  [[nodiscard]] double current_uncertainty_db() const;
  static void clamp_to_rate(ToneMap& map, double rate_mbps, const PhyParams& phy,
                            std::uint32_t id);

  const PlcChannel& channel_;
  net::StationId tx_;
  net::StationId rx_;
  mutable sim::Rng rng_;
  Config cfg_;

  std::vector<ToneMap> maps_;
  bool has_maps_ = false;
  sim::Time created_{};         ///< when current maps were generated
  sim::Time last_update_{};
  std::uint64_t update_count_ = 0;
  std::uint32_t next_id_ = 1;

  std::uint64_t pb_samples_ = 0;
  /// Average expected PBerr of the current maps (aggressive loading runs at
  /// a nonzero design error rate; triggers compare against it).
  double expected_pberr_ = 0.0;
  double pberr_ewma_ = 0.0;
  /// Slow EWMA of the error rate: distinguishes sustained error pressure
  /// (capture-effect contention) from isolated bursts.
  double pberr_ewma_slow_ = 0.0;
  /// Reporting accumulator for `measured_pberr` (never relaxed).
  double ampstat_ewma_ = 0.0;
  double panic_margin_db_ = 0.0;
  double margin_at_last_retune_ = 0.0;
  double symbols_per_frame_ewma_ = 10.0;
  double pbs_per_frame_ewma_ = 10.0;
};

}  // namespace efd::plc
