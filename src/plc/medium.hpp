#pragma once

#include <functional>
#include <vector>

#include "src/net/contention.hpp"
#include "src/plc/channel.hpp"
#include "src/plc/frame.hpp"
#include "src/sim/rng.hpp"
#include "src/sim/simulator.hpp"

namespace efd::plc {

class PlcMac;

/// The shared power-line bus: one contention domain in which every attached
/// MAC hears every transmission (the paper's office floor has no hidden PLC
/// terminals; the two logical networks of Fig. 2 are modelled as two
/// mediums, isolated by the ~200 m inter-board attenuation).
///
/// Contention runs the tournament shared with 802.11 (net::ContentionRound):
/// priority resolution in the PRS slots, then the smallest backoff counter
/// transmits and ties collide. Losing stations "sense the medium busy",
/// which drives the IEEE 1901 deferral-counter rule that distinguishes 1901
/// from 802.11 (§2.2, [19]): a station whose deferral counter is exhausted
/// jumps to the next backoff stage *without* a collision. This class keeps
/// the 1901 PHY: the CIFS plus any owed beacon hold, the PRS gap, and the
/// round's outcome (capture, SACK collision, the fault PB floor, sniffers).
class PlcMedium : public net::ContentionRound<PlcMedium, PlcMac, PlcFrame> {
 public:
  /// IEEE 1901 CA1 timing.
  static constexpr sim::Time kSlot = sim::microseconds(35.84);
  static constexpr sim::Time kPrs = sim::microseconds(2 * 35.84);
  static constexpr sim::Time kCifs = sim::microseconds(100.0);
  static constexpr sim::Time kRifs = sim::microseconds(140.0);

  /// SINR advantage (dB) above which a receiver captures the stronger of
  /// two colliding frames and decodes it with elevated PB errors (§8.2's
  /// "capture effect").
  static constexpr double kCaptureThresholdDb = 10.0;

  /// IEEE 1901 beacon region: the CCo transmits a beacon every
  /// `kBeaconPeriod` (nominally two mains cycles, 40 ms at 50 Hz), during
  /// which the medium is reserved for `kBeaconDuration`.
  static constexpr sim::Time kBeaconPeriod = sim::milliseconds(40);
  static constexpr sim::Time kBeaconDuration = sim::microseconds(600);
  static_assert(kBeaconDuration < kBeaconPeriod);

  PlcMedium(sim::Simulator& simulator, const PlcChannel& channel, sim::Rng rng);

  /// Enable the beacon region. Purely an airtime cost in this model
  /// (network management rides in it); disabled by default so the
  /// CSMA-only calibration stays put — enable for standard-fidelity runs.
  void enable_beacons();

  /// Subscribe a sniffer callback, invoked for every decodable SoF.
  /// Returns a token for `remove_sniffer` — a subscriber whose lifetime is
  /// shorter than the medium's MUST unregister before it dies. The token is
  /// a {generation, slot} pair (same scheme as sim::EventHandle): removal is
  /// O(1), slots are recycled, and a stale id can never unregister a later
  /// subscriber that reused its slot.
  using SnifferId = std::uint64_t;
  SnifferId add_sniffer(std::function<void(const SofRecord&)> sniffer);
  void remove_sniffer(SnifferId id);

  /// Fault injection (fault::FaultKind::kPlcBlackout, kBoardBlackout and
  /// kBoardBrownout): every PB decode additionally fails with probability
  /// `p` — an appliance surge's impulsive noise floor, or a board's failing
  /// mains. 1.0 blacks the bus out entirely (no PB survives, SACKs report
  /// total loss, estimators retune away and drop their maps). 0 restores
  /// the clean channel; the default path draws the same RNG sequence as
  /// before the hook existed, so no-fault runs stay byte-identical.
  void set_fault_pb_error(double p) { fault_pberr_ = p; }
  [[nodiscard]] double fault_pb_error() const { return fault_pberr_; }

  [[nodiscard]] std::uint64_t frames_sent() const { return frames_sent_; }
  [[nodiscard]] std::uint64_t beacons_sent() const { return beacons_; }

 private:
  friend net::ContentionRound<PlcMedium, PlcMac, PlcFrame>;

  /// CIFS plus the beacon airtime owed by this round.
  sim::Time ifs();
  sim::Time finish_round(std::vector<PlcFrame>& frames,
                         const std::vector<PlcMac*>& senders);
  void emit_sof(const PlcFrame& frame) const;
  void beacon_tick();

  /// Sniffer slot map entry: `fn` empty means the slot is free and its index
  /// is on `sniffer_free_`; `gen` advances on every removal.
  struct SnifferSlot {
    std::function<void(const SofRecord&)> fn;
    std::uint32_t gen = 0;
  };

  const PlcChannel& channel_;
  mutable sim::Rng rng_;
  std::vector<SnifferSlot> sniffers_;
  std::vector<std::uint32_t> sniffer_free_;
  std::size_t sniffer_count_ = 0;
  double fault_pberr_ = 0.0;  ///< injected impulsive-noise PB error floor
  std::uint64_t frames_sent_ = 0;
  bool beacons_enabled_ = false;
  sim::Time pending_beacon_hold_{};  ///< beacon airtime owed by the next round
  std::uint64_t beacons_ = 0;
};

}  // namespace efd::plc
