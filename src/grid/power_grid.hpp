#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/grid/appliance.hpp"
#include "src/sim/time.hpp"

namespace efd::grid {

/// A set of equally spaced OFDM carriers in a frequency band. HomePlug AV
/// uses 1.8-30 MHz with 917 usable carriers; AV500 extends to 68 MHz.
struct CarrierBand {
  double f_min_mhz = 1.8;
  double f_max_mhz = 30.0;
  int n_carriers = 917;

  [[nodiscard]] double carrier_mhz(int i) const {
    return f_min_mhz + (f_max_mhz - f_min_mhz) *
                           (static_cast<double>(i) + 0.5) /
                           static_cast<double>(n_carriers);
  }
};

/// The electrical wiring of a building as a transmission-line network:
/// outlets and junctions (nodes) joined by cable segments, with appliances
/// plugged into outlets. The grid answers the two questions PLC modeling
/// reduces to (paper §5): what is the *attenuation* between two outlets, and
/// what is the *noise* seen at an outlet — per carrier, per tone-map slot,
/// at a given simulated instant.
///
/// Temporal behaviour is a deterministic function of time (schedules plus
/// hash-based value noise), so traces can be queried at arbitrary rates
/// without simulating the grid event-by-event. The three timescales of the
/// paper's §6 map to:
///  - invariance scale: per-slot noise weights of each appliance,
///  - cycle scale:      `fast_noise_offset_db` jitter + impulses,
///  - random scale:     appliance on/off schedules (changes `state_epoch`).
class PowerGrid {
 public:
  /// Characteristic impedance of the mains cable (ohms).
  static constexpr double kZ0 = 85.0;

  int add_node(std::string name);

  /// Join two nodes with `length_m` of cable. `extra_loss_db` models lumped
  /// insertion loss beyond plain cable attenuation — breaker panels,
  /// sub-panels, and the inter-distribution-board basement path that makes
  /// cross-board PLC "challenging" in the paper's testbed (§3.1).
  void add_cable(int a, int b, double length_m, double extra_loss_db = 0.0);

  int add_appliance(Appliance appliance);

  [[nodiscard]] int node_count() const { return static_cast<int>(names_.size()); }
  [[nodiscard]] int appliance_count() const { return static_cast<int>(appliances_.size()); }
  [[nodiscard]] const Appliance& appliance(int id) const { return appliances_[static_cast<std::size_t>(id)]; }
  [[nodiscard]] const std::string& node_name(int id) const { return names_[static_cast<std::size_t>(id)]; }

  /// Cable distance in meters along the shortest wiring path; infinity if
  /// the outlets are not electrically connected.
  [[nodiscard]] double cable_distance(int a, int b) const;

  /// Accumulated lumped insertion loss (dB) along the shortest wiring path.
  [[nodiscard]] double path_extra_loss_db(int a, int b) const;

  /// Directed-link attenuation per carrier, in dB, transmitter `a` to
  /// receiver `b`. Includes cable loss, multipath notches from the
  /// appliances that are ON at `t` near the path, slow drift, and the
  /// transmitter-side injection loss (the asymmetry mechanism of §5).
  [[nodiscard]] std::vector<double> attenuation_db(int a, int b, const CarrierBand& band,
                                                   sim::Time t) const;

  /// Allocation-free form: writes the per-carrier attenuation into `out`
  /// (resized to the band's carrier count, no reallocation once warm). The
  /// per-carrier work runs off profile tables precomputed per (appliance,
  /// band) — the notch phase and spectral shape are time-invariant; only the
  /// on/off schedule and the scalar coupling terms are evaluated per query.
  void attenuation_db(int a, int b, const CarrierBand& band, sim::Time t,
                      std::vector<double>& out) const;

  /// Noise PSD per carrier, in dB above the receiver floor, at outlet `b`
  /// for tone-map slot `slot` of `n_slots`. Captures the static shape and
  /// the mains-synchronous (invariance-scale) component; the fast jitter is
  /// factored out into `fast_noise_offset_db` so PHY-layer callers can cache
  /// this vector per state epoch.
  [[nodiscard]] std::vector<double> noise_psd_db(int b, const CarrierBand& band, sim::Time t,
                                                 int slot, int n_slots) const;

  /// Allocation-free form: accumulates the linear power spectrum in `out`
  /// (resized to the band's carrier count) and converts it to dB in place.
  /// Each powered neighboring appliance contributes scalar x precomputed-
  /// spectral-profile in the linear power domain, so the per-carrier loop is
  /// multiply-add only (no pow/log per carrier).
  void noise_psd_db(int b, const CarrierBand& band, sim::Time t, int slot, int n_slots,
                    std::vector<double>& out) const;

  /// Cycle-scale scalar noise offset at outlet `b` (dB): appliance jitter
  /// plus switching impulses, varying over tens of milliseconds.
  [[nodiscard]] double fast_noise_offset_db(int b, sim::Time t) const;

  /// Changes whenever any appliance toggles on/off (random-scale events);
  /// used by channel caches.
  [[nodiscard]] std::uint64_t state_epoch(sim::Time t) const;

  [[nodiscard]] bool appliance_on(int id, sim::Time t) const {
    return appliances_[static_cast<std::size_t>(id)].schedule.is_on(t);
  }
  [[nodiscard]] int appliances_on(sim::Time t) const;

 private:
  /// Time-invariant per-carrier tables for one carrier band: the carrier
  /// frequencies, and per appliance the squared-sine notch profile (the
  /// `sin` phase and branch-delay period never change) plus the linear-
  /// domain spectral noise profile 10^((base_db + color_db_per_mhz*f)/10).
  /// Rebuilt lazily whenever an appliance is added; a grid typically serves
  /// one or two bands (HPAV / HPAV500).
  struct BandProfiles {
    CarrierBand band;
    std::vector<double> freq_mhz;   ///< [n_carriers]
    std::vector<double> notch_sin;  ///< [appliance][carrier], row-major
    std::vector<double> color_lin;  ///< [appliance][carrier], row-major
  };

  void ensure_distances() const;
  [[nodiscard]] const BandProfiles& ensure_profiles(const CarrierBand& band) const;

  /// Coupling weight in [0,1] of appliance `j`'s noise as seen from outlet
  /// `node`: decays with cable distance.
  [[nodiscard]] double noise_coupling(const Appliance& j, int node) const;

  /// Weight in [0,1] of appliance `j`'s impedance mismatch on path a->b:
  /// 1 when the appliance sits on the path, decaying with detour distance.
  [[nodiscard]] double path_weight(const Appliance& j, int a, int b) const;

  std::vector<std::string> names_;
  struct Cable { int a; int b; double length_m; double extra_loss_db; };
  std::vector<Cable> cables_;
  std::vector<Appliance> appliances_;

  mutable bool distances_valid_ = false;
  mutable std::vector<double> dist_;   // node_count^2 shortest cable distances
  mutable std::vector<double> extra_;  // lumped loss along those paths
  mutable std::vector<int> hops_;      // cable segments along those paths

  /// state_epoch is queried on every channel access; appliance schedules
  /// only move on second scales, so memoize per 1 s bucket.
  mutable std::int64_t epoch_bucket_ = -1;
  mutable std::uint64_t epoch_value_ = 0;

  /// Per-node list of appliances with non-negligible noise coupling,
  /// rebuilt with the distance matrix.
  mutable std::vector<std::vector<int>> noise_neighbors_;

  /// Lazily built per-band profile tables (see BandProfiles).
  mutable std::vector<BandProfiles> profiles_;

  [[nodiscard]] double dist(int a, int b) const {
    return dist_[static_cast<std::size_t>(a) * names_.size() + static_cast<std::size_t>(b)];
  }
  [[nodiscard]] double extra(int a, int b) const {
    return extra_[static_cast<std::size_t>(a) * names_.size() + static_cast<std::size_t>(b)];
  }
  [[nodiscard]] int hops(int a, int b) const {
    return hops_[static_cast<std::size_t>(a) * names_.size() + static_cast<std::size_t>(b)];
  }
};

}  // namespace efd::grid
