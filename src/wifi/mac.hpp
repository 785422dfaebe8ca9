#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "src/net/contention.hpp"
#include "src/net/interface.hpp"
#include "src/sim/rng.hpp"
#include "src/sim/simulator.hpp"
#include "src/wifi/channel.hpp"
#include "src/wifi/mcs.hpp"

namespace efd::wifi {

class WifiMac;

/// One MPDU, queued or on the air, with the number of times it was retried.
struct Mpdu {
  net::Packet packet;
  int retries = 0;
};

/// An 802.11 A-MPDU on the air.
struct WifiFrame {
  net::StationId src = 0;
  net::StationId dst = 0;
  std::vector<Mpdu> mpdus;
  int mcs = 0;
  sim::Time start;
  sim::Time end;
};

/// Record of a transmitted frame's rate selection — the 802.11n frame
/// control exposes the MCS index, which the paper uses as the WiFi capacity
/// metric (Table 2).
struct McsRecord {
  sim::Time t;
  net::StationId src = 0;
  net::StationId dst = 0;
  int mcs = 0;
  double phy_rate_mbps = 0.0;
};

/// 802.11 DCF contention domain (one BSS channel). Contention is the round
/// shared with the PLC medium (net::ContentionRound) after a DIFS, with no
/// priority-resolution gap; the MACs bring the plain binary-exponential
/// backoff of 802.11, where sensing the medium busy never escalates the
/// stage — the key MAC difference from IEEE 1901 (§2.2). This class keeps
/// the round's outcome: capture, jamming, BlockAck and the MCS listeners.
class WifiMedium : public net::ContentionRound<WifiMedium, WifiMac, WifiFrame> {
 public:
  static constexpr sim::Time kSlot = sim::microseconds(9.0);
  static constexpr sim::Time kDifs = sim::microseconds(34.0);
  static constexpr sim::Time kSifs = sim::microseconds(16.0);
  static constexpr double kCaptureThresholdDb = 10.0;

  WifiMedium(sim::Simulator& simulator, const WifiChannel& channel, sim::Rng rng);

  void add_mcs_listener(std::function<void(const McsRecord&)> fn);

  /// Fault injection (fault::FaultKind::kWifiJam): an interferer burst
  /// drops every receiver's effective SNR by `db` for the duration. Rate
  /// control keeps choosing MCSes from its stale, jam-blind estimate, so a
  /// deep jam turns into wholesale MPDU loss and retry exhaustion — the
  /// §4 "WiFi degrades under interference" failure mode. 0 restores the
  /// clean channel and the exact pre-fault RNG sequence.
  void set_jamming_db(double db) { jam_db_ = db; }

 private:
  friend net::ContentionRound<WifiMedium, WifiMac, WifiFrame>;

  [[nodiscard]] static sim::Time ifs() { return kDifs; }
  sim::Time finish_round(std::vector<WifiFrame>& frames,
                         const std::vector<WifiMac*>& senders);

  const WifiChannel& channel_;
  mutable sim::Rng rng_;
  std::vector<std::function<void(const McsRecord&)>> listeners_;
  double jam_db_ = 0.0;  ///< injected interferer SNR penalty at receivers
};

/// 802.11n MAC for one station: DCF backoff, A-MPDU aggregation with
/// BlockAck and per-MPDU retransmission, and SNR-driven rate selection
/// (the transmitter tracks a slightly stale, noisy SNR estimate — which is
/// what makes WiFi capacity jumpy compared to PLC's per-carrier adaptation).
class WifiMac final : public net::Interface {
 public:
  /// Retransmissions of one MPDU before it is dropped.
  static constexpr int kMaxRetries = 7;
  /// BlockAck exchange that closes every frame, after a SIFS.
  static constexpr sim::Time kBlockAck = sim::microseconds(80.0);

  WifiMac(sim::Simulator& simulator, WifiMedium& medium, const WifiChannel& channel,
          net::StationId self, sim::Rng rng);

  // net::Interface
  bool enqueue(const net::Packet& p) override;
  [[nodiscard]] std::size_t queue_length() const override { return queue_.size(); }
  void set_rx_handler(RxHandler handler) override { rx_ = std::move(handler); }
  void clear_queue() override { queue_.clear(); }

  /// Remove and return the queued packets; failover salvages a dead
  /// interface's backlog through this.
  std::vector<net::Packet> take_queue() override;

  [[nodiscard]] net::StationId id() const { return self_; }

  // Medium hooks.
  [[nodiscard]] bool has_pending() const { return !queue_.empty(); }
  /// 802.11 DCF without EDCA has a single access class.
  [[nodiscard]] static int current_priority() { return 0; }
  [[nodiscard]] int current_backoff();
  void on_medium_busy(int slots_elapsed);
  [[nodiscard]] WifiFrame build_frame(sim::Time now);
  /// Frame completions. Each takes only the MPDUs it may requeue: the ones
  /// the BlockAck reports failed, or the whole frame when no BlockAck comes.
  void on_block_ack(const std::vector<Mpdu>& failed);
  void on_no_ack(const std::vector<Mpdu>& mpdus);
  /// `failed` lists the corrupted MPDU positions in ascending order.
  void on_frame_received(const WifiFrame& frame, const std::vector<int>& failed,
                         sim::Time now);

  [[nodiscard]] std::uint64_t packets_delivered() const { return delivered_; }
  [[nodiscard]] std::uint64_t packets_dropped() const { return drops_; }

 private:
  void redraw_backoff();
  /// Put `mpdus` back at the queue front in frame order, dropping those
  /// that spent their retry budget.
  void requeue(const std::vector<Mpdu>& mpdus);

  sim::Simulator& sim_;
  WifiMedium& medium_;
  const WifiChannel& channel_;
  net::StationId self_;
  sim::Rng rng_;
  RxHandler rx_;

  std::deque<Mpdu> queue_;
  int cw_;
  int backoff_ = -1;
  std::uint64_t delivered_ = 0;
  std::uint64_t drops_ = 0;
};

}  // namespace efd::wifi
