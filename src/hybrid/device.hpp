#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "src/fault/health.hpp"
#include "src/hybrid/reorder.hpp"
#include "src/hybrid/scheduler.hpp"
#include "src/net/interface.hpp"
#include "src/sim/rng.hpp"
#include "src/sim/simulator.hpp"

namespace efd::hybrid {

/// A hybrid WiFi/PLC endpoint: one logical interface that fans packets out
/// over the member interfaces according to a scheduler, with a matching
/// re-sequencer at the destination device. This is the paper's Click-based
/// bandwidth-aggregation shim (§7.4), sitting between IP and the MACs.
///
/// The same class serves both ends of a link. The sending device splits
/// packets by the scheduler's pick (`enqueue`); the destination device
/// delivers through its `ReorderBuffer` once `set_rx_handler` has installed
/// the upper-layer callback and `start_receiving` has hooked the member
/// interfaces' rx handlers.
///
/// Failover (`enable_failover`): each member interface gets a
/// `fault::HealthMonitor` circuit breaker driven by liveness probes that
/// round-trip to the peer device and back. When a member's breaker trips,
/// the device immediately zeroes that member's scheduler weight, salvages
/// the dead member's queued backlog onto the survivors (bounded by
/// `kSalvageBudget` in device.cpp, overflow dropped with a metric), and
/// keeps probing on an exponential backoff until the breaker's half-open
/// probes succeed and the member rejoins the split. The receive side's
/// `ReorderBuffer` gap timeout releases the sequence holes the dead medium
/// left behind, so delivery degrades to the survivor's capacity instead of
/// stalling.
class HybridDevice final : public net::Interface {
 public:
  struct FailoverConfig {
    fault::HealthMonitor::Config health;
    /// Station ids stamped onto probe packets (src=self, dst=peer) so the
    /// member MACs route them like ordinary traffic.
    net::StationId self = 0;
    net::StationId peer = 0;
    /// Seed for the monitors' backoff jitter (forked per member).
    std::uint64_t seed = 0x0e11;
    /// Optional observer for breaker transitions (member, state, time).
    std::function<void(int, fault::HealthMonitor::State, sim::Time)> on_transition;
  };

  /// Probe packets ride the member MACs as ordinary packets, tagged by
  /// flow id; the peer device echoes them back outside the reorder path.
  static constexpr int kProbeFlowId = -1001;
  static constexpr int kProbeEchoFlowId = -1002;

  HybridDevice(sim::Simulator& simulator, std::vector<net::Interface*> interfaces,
               std::unique_ptr<PacketScheduler> scheduler);
  HybridDevice(const HybridDevice&) = delete;
  HybridDevice& operator=(const HybridDevice&) = delete;
  /// Stops the health monitors and unhooks the member interfaces' rx
  /// handlers (they capture `this`), so the MACs can outlive the device.
  ~HybridDevice() override;

  // net::Interface — the sending side.
  bool enqueue(const net::Packet& p) override;
  [[nodiscard]] std::size_t queue_length() const override;
  /// Registers the upper-layer delivery callback at the *receiving* device;
  /// packets pass through the reorder buffer first.
  void set_rx_handler(RxHandler handler) override;
  /// Adapter reset: flush every member interface's queue and the reorder
  /// buffer (a fanned-out flush — the logical interface owns its members'
  /// backlog).
  void clear_queue() override;

  /// Feed fresh capacity estimates to the scheduler (Mb/s, one per member
  /// interface, in construction order). With failover enabled, tripped
  /// members are masked to zero before the scheduler sees them.
  void set_capacities(std::vector<double> capacities_mbps);

  /// Wire this device to receive from its member interfaces (call once on
  /// the destination-side device). Also answers the peer's liveness probes.
  void start_receiving();

  /// Start per-member health monitoring and failover (sending side).
  void enable_failover(FailoverConfig config);

  /// Member liveness under failover; always true when failover is off.
  [[nodiscard]] bool member_live(int i) const {
    return live_.empty() || live_[static_cast<std::size_t>(i)] != 0;
  }
  [[nodiscard]] const fault::HealthMonitor& monitor(int i) const {
    return *monitors_[static_cast<std::size_t>(i)];
  }
  [[nodiscard]] fault::HealthMonitor& monitor(int i) {
    return *monitors_[static_cast<std::size_t>(i)];
  }

  [[nodiscard]] const ReorderBuffer& reorder() const { return *reorder_; }
  [[nodiscard]] std::uint64_t sent_per_interface(int i) const {
    return sent_[static_cast<std::size_t>(i)];
  }

  /// Packets rescued from tripped members' queues onto survivors / dropped
  /// because the salvage budget or the survivors' queues were exhausted.
  [[nodiscard]] std::uint64_t salvaged_packets() const { return salvaged_; }
  [[nodiscard]] std::uint64_t salvage_drops() const { return salvage_drops_; }

 private:
  void install_member_handlers();
  void on_member_rx(std::size_t i, const net::Packet& p, sim::Time t);
  void on_member_state(std::size_t i, fault::HealthMonitor::State s, sim::Time t);
  void send_probe(std::size_t i, std::uint64_t nonce);
  void push_masked_capacities();
  void salvage(std::size_t dead);

  sim::Simulator& sim_;
  std::vector<net::Interface*> interfaces_;
  std::unique_ptr<PacketScheduler> scheduler_;
  std::unique_ptr<ReorderBuffer> reorder_;
  RxHandler rx_;
  std::vector<std::uint64_t> sent_;
  bool receiving_ = false;
  bool handlers_installed_ = false;

  // Failover state (empty / inert until enable_failover).
  bool failover_ = false;
  FailoverConfig fcfg_;
  std::vector<std::unique_ptr<fault::HealthMonitor>> monitors_;
  std::vector<std::uint8_t> live_;
  std::vector<double> raw_capacities_;
  std::uint64_t salvaged_ = 0;
  std::uint64_t salvage_drops_ = 0;
};

/// The paper's round-robin baseline (§7.4, Fig. 20), with the blocking
/// semantics of a Click pull path: packets leave a small staging queue in
/// strict alternation, and when the next interface in turn is full the
/// *whole* splitter stalls — head-of-line blocking. That is why round-robin
/// throughput is capped at twice the slower medium's capacity.
class RoundRobinSplitter final : public net::Interface {
 public:
  struct Config {
    std::size_t stage_limit = 128;   ///< staging queue bound (packets)
  };

  RoundRobinSplitter(sim::Simulator& simulator, std::vector<net::Interface*> interfaces,
                     Config config);
  RoundRobinSplitter(sim::Simulator& simulator, std::vector<net::Interface*> interfaces)
      : RoundRobinSplitter(simulator, std::move(interfaces), Config{}) {}
  RoundRobinSplitter(const RoundRobinSplitter&) = delete;
  RoundRobinSplitter& operator=(const RoundRobinSplitter&) = delete;
  ~RoundRobinSplitter() override { retry_.cancel(); }

  bool enqueue(const net::Packet& p) override;
  [[nodiscard]] std::size_t queue_length() const override { return staged_.size(); }
  void set_rx_handler(RxHandler handler) override;

 private:
  void pump();

  sim::Simulator& sim_;
  std::vector<net::Interface*> interfaces_;
  Config cfg_;
  std::deque<net::Packet> staged_;
  std::size_t next_ = 0;
  sim::EventHandle retry_;
};

}  // namespace efd::hybrid
