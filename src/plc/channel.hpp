#pragma once

#include <unordered_map>
#include <vector>

#include "src/grid/mains.hpp"
#include "src/grid/power_grid.hpp"
#include "src/net/packet.hpp"
#include "src/plc/phy.hpp"
#include "src/plc/tone_map.hpp"
#include "src/sim/time.hpp"

namespace efd::plc {

/// The PLC channel between stations: binds a PowerGrid (attenuation/noise
/// physics) to a PHY parameterization and a station->outlet attachment,
/// and serves per-carrier SNR and PB error probabilities to the MAC and the
/// channel estimator.
///
/// Performance: per-carrier SNR vectors are cached per (link, slot) and the
/// whole cache is evicted when the grid's appliance state epoch changes
/// (stale entries for links no longer queried would otherwise accumulate
/// across epochs); the fast (cycle-scale) noise term is a scalar uniformly
/// shifting SNR, so cached vectors stay valid across it. An entry's vector
/// is computed at the entry's first touch in the epoch, so the slow drift
/// term reads the same instant however late the vector is built; it is
/// kept once read as a vector (`static_snr_db`, `snr_db`,
/// `pb_error_probability`) or twice as a scalar (`mean_snr_db`), and a
/// first scalar query computes into thread_local scratch. A link's
/// attenuation is shared by its slots and freed once every slot's vector
/// is kept. PB error probabilities are memoized per (link, slot, tone map,
/// quantized fast offset), which keeps saturated frame-level simulation
/// cheap. The fast offset itself is a pure function of (outlet, time) and
/// is memoized in one entry: a trace step asks for the same instant once
/// per slot and once per retuned slot map. A kept vector is written in
/// place (the noise, then the SNR over it), and a pberr memo miss shifts
/// into one thread_local vector, so neither allocates once warm; the
/// channel itself is not thread-safe — parallel experiments use one
/// channel per thread.
class PlcChannel {
 public:
  PlcChannel(const grid::PowerGrid& grid, PhyParams phy)
      : grid_(grid), phy_(std::move(phy)), robo_(ToneMap::robo(phy_)) {}

  /// Attach station `id` to grid outlet node `outlet`.
  void attach_station(net::StationId id, int outlet);

  [[nodiscard]] int outlet(net::StationId id) const;
  [[nodiscard]] const PhyParams& phy() const { return phy_; }
  [[nodiscard]] const grid::PowerGrid& grid() const { return grid_; }
  /// The band's ROBO map (§2.1), shared by every sound and broadcast frame
  /// on this channel.
  [[nodiscard]] const ToneMap& robo() const { return robo_; }

  /// Tone-map slot index active at simulated time `t` (position within the
  /// AC half cycle, paper §6.1).
  [[nodiscard]] int slot_at(sim::Time t) const;

  /// Per-carrier SNR (dB) of directed link a->b for tone-map slot `slot`,
  /// including the cycle-scale noise offset at time `t`.
  [[nodiscard]] std::vector<double> snr_db(net::StationId a, net::StationId b, int slot,
                                           sim::Time t) const;

  /// Static per-carrier SNR without the fast offset (cached); the offset to
  /// subtract is `fast_offset_db`.
  [[nodiscard]] const std::vector<double>& static_snr_db(net::StationId a, net::StationId b,
                                                         int slot, sim::Time t) const;
  [[nodiscard]] double fast_offset_db(net::StationId b, sim::Time t) const;

  /// PB error probability when tone map `tm` is used on a->b at `t` in
  /// `slot`. Memoized; safe to call per-frame in saturated simulations.
  [[nodiscard]] double pb_error_probability(const ToneMap& tm, net::StationId a,
                                            net::StationId b, int slot,
                                            sim::Time t) const;

  [[nodiscard]] double cable_distance(net::StationId a, net::StationId b) const;

  /// Mean SNR across carriers (diagnostic / link classification aid).
  [[nodiscard]] double mean_snr_db(net::StationId a, net::StationId b, int slot,
                                   sim::Time t) const;

 private:
  struct SnrEntry {
    /// First touch in the epoch: the instant the vector is computed at.
    sim::Time t0;
    /// Empty until kept.
    std::vector<double> snr_db;
    /// `mean_snr_db` calls answered without a kept vector.
    int scalar_queries = 0;
    /// pberr memo: key = (tone map id << 20) ^ (quantized offset bucket
    /// + 512).
    std::unordered_map<std::uint64_t, double> pberr;
  };

  /// Attenuation is independent of the tone-map slot; share it across the
  /// per-slot SNR entries.
  struct AttenEntry {
    /// First touch in the epoch: the drift term is evaluated here.
    sim::Time t0;
    /// Empty until a slot's vector is kept, and again once all are.
    std::vector<double> att_db;
    int kept_slots = 0;
  };

  [[nodiscard]] std::uint64_t link_key(net::StationId a, net::StationId b, int slot) const {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(a)) << 40) ^
           (static_cast<std::uint64_t>(static_cast<std::uint32_t>(b)) << 16) ^
           static_cast<std::uint64_t>(static_cast<std::uint32_t>(slot));
  }

  /// The (link, slot) entry, stamped with `t` if this is its first touch
  /// in the epoch; evicts both caches when the epoch moved.
  SnrEntry& touch(net::StationId a, net::StationId b, int slot, sim::Time t) const;
  /// The entry with its vector kept.
  SnrEntry& entry(net::StationId a, net::StationId b, int slot, sim::Time t) const;
  /// Computes `e`'s SNR at `e.t0` into the entry's own vector when `keep`,
  /// otherwise into thread_local scratch valid until the next call.
  const std::vector<double>& compute_snr(SnrEntry& e, net::StationId a, net::StationId b,
                                         int slot, bool keep) const;

  const grid::PowerGrid& grid_;
  PhyParams phy_;
  ToneMap robo_;
  std::unordered_map<net::StationId, int> outlets_;
  mutable std::unordered_map<std::uint64_t, SnrEntry> cache_;
  mutable std::unordered_map<std::uint64_t, AttenEntry> atten_cache_;
  /// Epoch the caches were filled under; both maps are cleared wholesale
  /// when it moves (like the per-entry pberr memo), bounding cache growth.
  mutable std::uint64_t cache_epoch_ = 0;
  mutable bool cache_epoch_valid_ = false;
  /// The last fast offset served, keyed by outlet rather than station so
  /// that re-attaching a station cannot leave it stale.
  mutable int offset_outlet_ = -1;
  mutable sim::Time offset_t_{};
  mutable double offset_db_ = 0.0;
};

}  // namespace efd::plc
