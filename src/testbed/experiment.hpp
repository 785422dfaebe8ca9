#pragma once

#include "src/net/meters.hpp"
#include "src/net/sources.hpp"
#include "src/testbed/testbed.hpp"

namespace efd::testbed {

/// Mean / stddev of windowed throughput samples, Fig. 3 style.
struct ThroughputResult {
  double mean_mbps = 0.0;
  double std_mbps = 0.0;
  double total_mbps = 0.0;  ///< bytes delivered over the whole duration
};

/// Wall-clock anchors for "working hours" vs "night" experiments: the
/// simulation epoch is Monday 00:00, so Tuesday 14:00 is a weekday
/// afternoon and Saturday 03:00 a quiet night (§3.2, §6.2).
[[nodiscard]] sim::Time weekday_afternoon();
[[nodiscard]] sim::Time weekend_night();

/// Saturate a PLC link with UDP (iperf-style) and measure the receiver-side
/// throughput in 100 ms windows for `duration`, starting at the simulator's
/// current time. Leaves a short drain period so back-to-back measurements
/// do not bleed into each other.
ThroughputResult measure_plc_throughput(Testbed& tb, net::StationId src,
                                        net::StationId dst, sim::Time duration,
                                        PlcGeneration g = PlcGeneration::kHpav);

/// Same measurement over the WiFi interface.
ThroughputResult measure_wifi_throughput(Testbed& tb, net::StationId src,
                                         net::StationId dst, sim::Time duration);

/// Simulated time one measure_*_throughput call of `duration` advances the
/// clock by: the measurement plus its drain period.
[[nodiscard]] sim::Time measurement_span(sim::Time duration);

}  // namespace efd::testbed
