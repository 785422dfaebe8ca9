#pragma once

#include <vector>

#include "src/core/probing.hpp"
#include "src/plc/channel_estimator.hpp"
#include "src/sim/rng.hpp"

namespace efd::core {

/// Metric-sampling driver: exercises a ChannelEstimator against the true
/// channel at a fixed cadence *without* running the frame-level MAC. This
/// mirrors how the paper produced its long traces — saturated (or probe)
/// traffic on the link while BLE/PBerr are polled via MMs every 50 ms-1 s
/// (§6.2, §6.3) — and makes multi-day experiments tractable.
class LinkTraceSampler {
 public:
  struct Config {
    /// Sampling cadence (50 ms in §6.2; 1 s in §6.3).
    sim::Time step = sim::milliseconds(50);
    /// PBs of saturated traffic flowing between samples, spread over the
    /// tone-map slots. Saturated HPAV pushes roughly 2700 PBs per 100 ms.
    int pbs_per_step = 1300;
  };

  LinkTraceSampler(const plc::PlcChannel& channel, plc::ChannelEstimator& estimator,
                   net::StationId tx, net::StationId rx, sim::Rng rng, Config config);
  LinkTraceSampler(const plc::PlcChannel& channel, plc::ChannelEstimator& estimator,
                   net::StationId tx, net::StationId rx, sim::Rng rng)
      : LinkTraceSampler(channel, estimator, tx, rx, rng, Config{}) {}

  /// Advance one step ending at `now`: push saturated-traffic PB statistics
  /// through the estimator and return the updated average BLE.
  double step(sim::Time now);

  /// Run from `from` to `to`, returning the BLE trace at the sampling
  /// cadence.
  std::vector<BleSample> run(sim::Time from, sim::Time to);

 private:
  const plc::PlcChannel& channel_;
  plc::ChannelEstimator& estimator_;
  net::StationId tx_;
  net::StationId rx_;
  sim::Rng rng_;
  Config cfg_;
};

/// Probe-driven estimation driver for the convergence experiments of
/// §7.1-§7.2 (Figs. 16-18): sends `packets_per_second` probes of
/// `packet_bytes` each and tracks the estimated capacity (average BLE).
class ProbeTraceSampler {
 public:
  struct Config {
    double packets_per_second = 1.0;
    std::size_t packet_bytes = 1300;
  };

  ProbeTraceSampler(const plc::PlcChannel& channel, plc::ChannelEstimator& estimator,
                    net::StationId tx, net::StationId rx, sim::Rng rng, Config config);

  /// Process the probes falling in (last, now] and return the estimated
  /// capacity after them.
  double step(sim::Time now);

  /// Sampled estimated capacity every `sample_every` from `from` to `to`.
  std::vector<BleSample> run(sim::Time from, sim::Time to, sim::Time sample_every);

 private:
  const plc::PlcChannel& channel_;
  plc::ChannelEstimator& estimator_;
  net::StationId tx_;
  net::StationId rx_;
  sim::Rng rng_;
  Config cfg_;
  sim::Time last_{};
  bool started_ = false;
};

}  // namespace efd::core
