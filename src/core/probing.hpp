#pragma once

#include <vector>

#include "src/core/classifier.hpp"
#include "src/sim/time.hpp"

namespace efd::core {

/// A (time, BLE) sample of a link trace, typically at the 50 ms MM cadence.
struct BleSample {
  sim::Time t;
  double ble_mbps;
};

/// Probing policies for link-metric estimation (paper §7.3): how often to
/// spend a probe on a link. The paper's contribution is the quality-adaptive
/// policy — bad links are probed at the base interval, average links 8x
/// slower, good links 16x slower — cutting overhead ~32 % at almost no
/// accuracy cost (Fig. 19).
class ProbingPolicy {
 public:
  virtual ~ProbingPolicy() = default;
  /// Probe interval for a link whose (last known) average BLE is given.
  [[nodiscard]] virtual sim::Time interval(double average_ble_mbps) const = 0;
};

class FixedIntervalPolicy final : public ProbingPolicy {
 public:
  explicit FixedIntervalPolicy(sim::Time interval) : interval_(interval) {}
  [[nodiscard]] sim::Time interval(double) const override { return interval_; }

 private:
  sim::Time interval_;
};

class QualityAdaptivePolicy final : public ProbingPolicy {
 public:
  [[nodiscard]] sim::Time interval(double average_ble_mbps) const override;
};

/// Replays a BLE trace under a probing policy and scores it the way the
/// paper's §7.3 does: the estimate at probe time t is BLE_t; the "exact"
/// capacity is the mean of the trace until the next probe; the error is
/// their absolute difference. Also counts probes (overhead).
struct ProbingEvaluation {
  std::vector<double> errors_mbps;  ///< one per probing interval
  std::uint64_t probes = 0;

  [[nodiscard]] double mean_error() const;
};

[[nodiscard]] ProbingEvaluation evaluate_policy(const std::vector<BleSample>& trace,
                                                const ProbingPolicy& policy);

}  // namespace efd::core
