#pragma once

namespace efd::core {

/// Quality classes for PLC links, derived from average BLE. The paper's
/// §7.3 heuristic for its adaptive probing method: bad links have BLE below
/// 60 Mb/s, good links above 100 Mb/s, average links in between. The
/// thresholds are the paper's HomePlug AV ones; another PLC generation
/// would need its own (§6.2 footnote).
enum class LinkQuality { kBad, kAverage, kGood };

class LinkQualityClassifier {
 public:
  static constexpr double kBadBelowMbps = 60.0;
  static constexpr double kGoodAboveMbps = 100.0;

  [[nodiscard]] static constexpr LinkQuality classify(double average_ble_mbps) {
    if (average_ble_mbps < kBadBelowMbps) return LinkQuality::kBad;
    if (average_ble_mbps > kGoodAboveMbps) return LinkQuality::kGood;
    return LinkQuality::kAverage;
  }
};

}  // namespace efd::core
