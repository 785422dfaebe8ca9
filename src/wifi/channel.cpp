#include "src/wifi/channel.hpp"

#include <cassert>
#include <cmath>

#include "src/grid/value_noise.hpp"

namespace efd::wifi {

namespace {

// Calibration of the §4 comparison (see the class comment).
constexpr double kTxPowerDbm = 17.0;
constexpr double kNoiseFloorDbm = -92.0;
/// Log-distance exponent; 3.85 models an office floor with many walls.
constexpr double kPathLossExponent = 3.85;
constexpr double kPathLossRefDb = 47.0;   ///< at 1 m, 2.4/5 GHz indoor
constexpr double kShadowingSigmaDb = 4.0; ///< per-link lognormal shadowing
/// Fast-fading swing (dB) and its time scale.
constexpr double kFadingDb = 7.0;
constexpr sim::Time kFadingScale = sim::milliseconds(120);
/// Occasional deep-fade / interference bursts: rate and depth.
constexpr double kBurstRateHz = 0.15;
constexpr double kBurstDepthDb = 18.0;
constexpr sim::Time kBurstDuration = sim::milliseconds(300);
/// Per-direction receiver noise-figure skew (small WiFi asymmetry, §5).
constexpr double kAsymmetrySigmaDb = 1.0;
constexpr std::uint64_t kSeed = 0x31f1ULL;

std::uint64_t link_stream(std::uint64_t seed, net::StationId a, net::StationId b) {
  return seed ^ (static_cast<std::uint64_t>(static_cast<std::uint32_t>(a)) << 32) ^
         static_cast<std::uint64_t>(static_cast<std::uint32_t>(b));
}
std::uint64_t pair_stream(std::uint64_t seed, net::StationId a, net::StationId b) {
  // Symmetric in (a, b): shadowing and fading affect both directions alike.
  if (a > b) std::swap(a, b);
  return link_stream(seed, a, b);
}
}  // namespace

void WifiChannel::place_station(net::StationId id, double x, double y) {
  pos_[id] = {x, y};
}

void WifiChannel::add_wall(double x_m, double loss_db) {
  walls_.push_back({x_m, loss_db});
}

double WifiChannel::distance_m(net::StationId a, net::StationId b) const {
  const auto ia = pos_.find(a);
  const auto ib = pos_.find(b);
  assert(ia != pos_.end() && ib != pos_.end() && "station not placed");
  const double dx = ia->second.x - ib->second.x;
  const double dy = ia->second.y - ib->second.y;
  return std::max(1.0, std::hypot(dx, dy));
}

double WifiChannel::mean_snr_db(net::StationId a, net::StationId b) const {
  const double d = distance_m(a, b);
  double pl =
      kPathLossRefDb + 10.0 * kPathLossExponent * std::log10(d);
  const double xa = pos_.at(a).x;
  const double xb = pos_.at(b).x;
  for (const Wall& w : walls_) {
    if ((xa - w.x) * (xb - w.x) < 0.0) pl += w.loss_db;
  }
  // Fixed per-pair shadowing (walls, furniture) — symmetric.
  const double shadow =
      kShadowingSigmaDb *
      (2.0 * grid::ValueNoise::hash01(pair_stream(kSeed, a, b), 7) - 1.0) * 1.5;
  // Small direction-dependent skew (receiver noise figure): WiFi links are
  // mildly asymmetric (§5), far less than PLC.
  const double skew =
      kAsymmetrySigmaDb *
      (2.0 * grid::ValueNoise::hash01(link_stream(kSeed ^ 0xa5, a, b), 9) - 1.0);
  return kTxPowerDbm - pl - kNoiseFloorDbm + shadow + skew;
}

double WifiChannel::snr_db(net::StationId a, net::StationId b, sim::Time t) const {
  const std::uint64_t fade_seed = pair_stream(kSeed ^ 0xfade, a, b);
  const double x = t.seconds() / kFadingScale.seconds();
  double snr = mean_snr_db(a, b) +
               kFadingDb * grid::ValueNoise::fractal(fade_seed, x, 3);
  // Interference / deep-fade bursts in fixed windows.
  const auto window = kBurstDuration;
  const auto idx = t.ns() / window.ns();
  const double p = kBurstRateHz * window.seconds();
  if (grid::ValueNoise::hash01(fade_seed ^ 0xb1157ULL, idx) < p) {
    snr -= kBurstDepthDb;
  }
  return snr;
}

}  // namespace efd::wifi
