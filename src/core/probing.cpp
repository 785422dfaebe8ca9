#include "src/core/probing.hpp"

#include <cmath>

namespace efd::core {

namespace {
constexpr sim::Time kBase = sim::seconds(5);  ///< bad links
constexpr int kAverageFactor = 8;             ///< average links probe 8x slower
constexpr int kGoodFactor = 16;               ///< good links probe 16x slower
}  // namespace

sim::Time QualityAdaptivePolicy::interval(double average_ble_mbps) const {
  switch (LinkQualityClassifier::classify(average_ble_mbps)) {
    case LinkQuality::kBad: return kBase;
    case LinkQuality::kAverage: return kBase * kAverageFactor;
    case LinkQuality::kGood: return kBase * kGoodFactor;
  }
  return kBase;
}

double ProbingEvaluation::mean_error() const {
  if (errors_mbps.empty()) return 0.0;
  double sum = 0.0;
  for (double e : errors_mbps) sum += e;
  return sum / static_cast<double>(errors_mbps.size());
}

ProbingEvaluation evaluate_policy(const std::vector<BleSample>& trace,
                                  const ProbingPolicy& policy) {
  ProbingEvaluation eval;
  if (trace.empty()) return eval;

  std::size_t i = 0;
  while (i < trace.size()) {
    const double estimate = trace[i].ble_mbps;
    ++eval.probes;
    const sim::Time next_probe = trace[i].t + policy.interval(estimate);
    // Exact capacity over the blind window: mean of the trace samples from
    // this probe (inclusive) until the next probe.
    double sum = 0.0;
    std::size_t n = 0;
    std::size_t j = i;
    while (j < trace.size() && trace[j].t < next_probe) {
      sum += trace[j].ble_mbps;
      ++n;
      ++j;
    }
    if (n > 0) {
      eval.errors_mbps.push_back(std::abs(estimate - sum / static_cast<double>(n)));
    }
    if (j == i) break;  // trace exhausted / zero-length interval guard
    i = j;
  }
  return eval;
}

}  // namespace efd::core
