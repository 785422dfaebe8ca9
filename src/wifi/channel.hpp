#pragma once

#include <unordered_map>
#include <vector>

#include "src/net/packet.hpp"
#include "src/sim/time.hpp"

namespace efd::wifi {

/// Indoor 802.11n channel between stations placed on a floor plan:
/// log-distance path loss with per-link shadowing, plus fast fading and
/// interference bursts. The model is calibrated against the paper's §4
/// comparison: connectivity dies beyond ~35 m of office walls, and the
/// short-timescale variability is much higher than PLC's (σ_W up to
/// ~19 Mb/s vs σ_P below 4 Mb/s in Fig. 3).
class WifiChannel {
 public:
  /// Place station `id` at floor coordinates (meters).
  void place_station(net::StationId id, double x, double y);

  /// Add a vertical obstruction (concrete core / firewall) at `x_m`: links
  /// whose endpoints straddle it lose `loss_db`. This is what separates the
  /// two wings of the paper's floor so thoroughly that no cross-wing pair
  /// holds a WiFi link (§4.1: every WiFi-connected pair is PLC-connected).
  void add_wall(double x_m, double loss_db);

  [[nodiscard]] double distance_m(net::StationId a, net::StationId b) const;

  /// Instantaneous link SNR (dB) at the receiver, direction a -> b.
  [[nodiscard]] double snr_db(net::StationId a, net::StationId b, sim::Time t) const;

  /// SNR without the fast-fading term (what long-term averaging sees).
  [[nodiscard]] double mean_snr_db(net::StationId a, net::StationId b) const;

 private:
  struct Pos { double x, y; };
  struct Wall { double x; double loss_db; };
  std::unordered_map<net::StationId, Pos> pos_;
  std::vector<Wall> walls_;
};

}  // namespace efd::wifi
