#pragma once

#include <string>
#include <vector>

#include "src/testkit/world.hpp"

namespace efd::testkit {

/// Outcome of one differential check: the worst disagreement observed over
/// `samples` comparisons against its tolerance.
struct DiffResult {
  std::string what;
  double max_abs_err = 0.0;
  double tolerance = 0.0;
  int samples = 0;
  bool ok = true;
  std::string worst_detail;  ///< where the max error occurred
};

/// Execute a completed scenario's carrier-domain state through both the
/// fast and reference implementations and bound their disagreement:
/// dB conversions, the BER LUT, the channel's cached static SNR, the
/// memoized PB error probability and the tone maps' Eq. (1) BLE. Each
/// check's bound is a named constant in diff.cpp: the contract documented
/// in DESIGN.md §11.
[[nodiscard]] std::vector<DiffResult> run_diff(ScenarioWorld& world);

/// Convenience: results that exceeded their tolerance.
[[nodiscard]] std::vector<DiffResult> diff_failures(const std::vector<DiffResult>& r);

}  // namespace efd::testkit
