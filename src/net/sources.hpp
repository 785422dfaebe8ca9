#pragma once

#include <cstdint>

#include "src/net/interface.hpp"
#include "src/sim/simulator.hpp"

namespace efd::net {

/// iperf-style UDP constant-bit-rate source. Saturation (the paper's default
/// workload, §3.2) is a CBR source whose rate exceeds link capacity: the MAC
/// queue stays full and excess packets are dropped, exactly like iperf UDP
/// against a non-blocking PLC adapter.
class UdpSource {
 public:
  struct Config {
    double rate_bps = 300e6;        ///< offered load; >capacity => saturation
    std::size_t packet_bytes = 1470;
    StationId src = 0;
    StationId dst = 0;
    int flow_id = 0;
    int priority = 1;               ///< channel-access class (CA0..CA3)
  };

  UdpSource(sim::Simulator& simulator, Interface& interface, Config config);
  UdpSource(const UdpSource&) = delete;
  UdpSource& operator=(const UdpSource&) = delete;
  /// Cancels the pending emission event (its callback captures `this`).
  ~UdpSource() { pending_.cancel(); }

  /// Start emitting packets at `at` and stop at `until`.
  void run(sim::Time at, sim::Time until);

  /// Stop emitting (idempotent; also stops a scheduled run).
  void stop() { stopped_ = true; }

  [[nodiscard]] std::uint64_t offered_packets() const { return offered_; }
  [[nodiscard]] std::uint64_t dropped_packets() const { return dropped_; }

 private:
  void emit();

  sim::Simulator& sim_;
  Interface& interface_;
  Config config_;
  sim::Time until_;
  sim::EventHandle pending_;
  bool stopped_ = false;
  std::uint32_t seq_ = 0;
  std::uint64_t offered_ = 0;
  std::uint64_t dropped_ = 0;
};

/// Probe-packet source for link-metric estimation (paper §7-§8): `count`
/// packets per burst, bursts every `interval`. A single-packet burst at a
/// 1 s interval is the paper's "1 packet per second" probe; 20-packet bursts
/// reproduce §8.2's aggregation-friendly probing.
class ProbeSource {
 public:
  struct Config {
    sim::Time interval = sim::seconds(1);
    int burst_count = 1;
    std::size_t packet_bytes = 1300;
    StationId src = 0;
    StationId dst = 0;  ///< kBroadcast for broadcast probing
    int flow_id = 0;
    int priority = 1;   ///< channel-access class (CA0..CA3)
  };

  ProbeSource(sim::Simulator& simulator, Interface& interface, Config config);
  ProbeSource(const ProbeSource&) = delete;
  ProbeSource& operator=(const ProbeSource&) = delete;
  /// Cancels the pending emission event (its callback captures `this`).
  ~ProbeSource() { pending_.cancel(); }

  void run(sim::Time at, sim::Time until);
  void stop() { stopped_ = true; }
  /// Re-arm after a stop (paper Fig. 17 pause/resume experiment).
  void resume(sim::Time at, sim::Time until);

  [[nodiscard]] std::uint64_t sent() const { return sent_; }

 private:
  void emit();

  sim::Simulator& sim_;
  Interface& interface_;
  Config config_;
  sim::Time until_;
  sim::EventHandle pending_;
  bool stopped_ = false;
  std::uint32_t seq_ = 0;
  std::uint64_t sent_ = 0;
};

}  // namespace efd::net
