#pragma once

#include <deque>
#include <functional>
#include <unordered_map>

#include "src/net/interface.hpp"
#include "src/plc/channel.hpp"
#include "src/plc/channel_estimator.hpp"
#include "src/plc/frame.hpp"
#include "src/sim/rng.hpp"
#include "src/sim/simulator.hpp"

namespace efd::plc {

class PlcMedium;

/// Lookup of the receiver-side channel estimator for a directed link; the
/// tone-map exchange via management messages (§2.2) is abstracted as shared
/// state between the two endpoints.
class EstimatorDirectory {
 public:
  virtual ~EstimatorDirectory() = default;
  /// Estimator maintained by `rx` for frames arriving from `tx`.
  virtual ChannelEstimator& estimator(net::StationId rx, net::StationId tx) = 0;
};

/// IEEE 1901 CSMA/CA MAC for one station (§2.2): PB segmentation, frame
/// aggregation driven by the current slot's BLE, SACK-based selective PB
/// retransmission, and the CW / deferral-counter backoff of 1901.
class PlcMac final : public net::Interface {
 public:
  struct Config {
    /// Queue bound in PBs (~200 full-size packets); PLC adapter queues are
    /// non-blocking: excess packets are dropped (paper §7.4 footnote).
    std::size_t queue_limit_pbs = 600;
    /// Use plain 802.11-style backoff instead of the 1901 deferral rule;
    /// kept for the ablation bench.
    bool disable_deferral = false;
  };

  PlcMac(sim::Simulator& simulator, PlcMedium& medium, const PlcChannel& channel,
         EstimatorDirectory& directory, net::StationId self, sim::Rng rng,
         Config config);

  // net::Interface
  bool enqueue(const net::Packet& p) override;
  [[nodiscard]] std::size_t queue_length() const override;
  void set_rx_handler(RxHandler handler) override { rx_ = std::move(handler); }
  void clear_queue() override {
    pb_queue_.clear();
    queued_pbs_ = 0;
  }

  /// Remove and return queued packets (each once, despite PB segmentation);
  /// failover salvages a dead interface's backlog through this.
  std::vector<net::Packet> take_queue() override;

  [[nodiscard]] net::StationId id() const { return self_; }

  // --- Hooks driven by the medium -----------------------------------------

  [[nodiscard]] bool has_pending() const { return !pb_queue_.empty(); }

  /// Channel-access priority the station will signal in the priority-
  /// resolution slots: the priority of the frame at the queue head.
  [[nodiscard]] int current_priority() const {
    return pb_queue_.empty() ? 0 : pb_queue_.front().packet->priority;
  }

  /// Draw/continue the backoff counter for a contention round.
  [[nodiscard]] int current_backoff();

  /// The station sensed the medium busy without transmitting: consume the
  /// counted-down slots and apply the 1901 deferral-counter rule.
  void on_medium_busy(int slots_elapsed);

  /// Build the frame to transmit now (the station won contention).
  [[nodiscard]] PlcFrame build_frame(sim::Time now);

  /// Outcome of a transmission: a SACK arrived naming the `errored` PBs (in
  /// frame order), or no SACK came for the frame's `pbs` at all (collision
  /// inferred; a broadcast is never SACKed and requeues nothing).
  void on_sack(const std::vector<PbUnit>& errored);
  void on_no_sack(const std::vector<PbUnit>& pbs, bool broadcast);

  /// A frame addressed to this station (or broadcast) was decodable;
  /// `errored_pbs` lists the corrupted PB positions in ascending order.
  /// Feeds reassembly, delivery and the receiver-side channel estimator.
  void on_frame_received(const PlcFrame& frame, const std::vector<int>& errored_pbs,
                         sim::Time now);

  // --- Stats ---------------------------------------------------------------
  /// Current IEEE 1901 deferral counter (the dc ladder of §2.2). Exposed for
  /// the testkit's MAC invariants: the rule decrements it only while it is
  /// positive (zero escalates the stage instead), so an observable value
  /// below zero means the accounting is broken.
  [[nodiscard]] int deferral_counter() const { return dc_; }
  [[nodiscard]] std::uint64_t packets_dropped() const { return drops_; }
  [[nodiscard]] std::uint64_t packets_delivered() const { return delivered_; }

 private:
  void redraw_backoff();
  void enter_next_stage();
  /// Back to stage 0 with a fresh draw due (a frame exchange completed).
  void reset_backoff();
  /// Put `pbs` back at the queue front in frame order, skipping those that
  /// spent their retry budget; returns how many went back.
  std::size_t requeue(const std::vector<PbUnit>& pbs);

  sim::Simulator& sim_;
  PlcMedium& medium_;
  const PlcChannel& channel_;
  EstimatorDirectory& directory_;
  net::StationId self_;
  sim::Rng rng_;
  Config cfg_;
  RxHandler rx_;

  std::deque<PbUnit> pb_queue_;
  std::size_t queued_pbs_ = 0;

  int stage_ = 0;
  int backoff_ = -1;  ///< -1: not drawn
  int dc_ = 0;

  /// Receiver-side reassembly: enqueued packet -> bitmap of received PBs.
  /// All PBs of one enqueued packet share its `shared_ptr`, and the entry
  /// holds a reference, so no other packet can take the key's address while
  /// the entry exists.
  struct Reassembly {
    std::shared_ptr<const net::Packet> packet;
    std::uint64_t received_mask = 0;
    int total = 0;
  };
  std::unordered_map<const net::Packet*, Reassembly> reassembly_;

  std::uint64_t drops_ = 0;
  std::uint64_t delivered_ = 0;
};

}  // namespace efd::plc
