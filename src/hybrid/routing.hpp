#pragma once

#include <map>
#include <utility>
#include <vector>

#include "src/hybrid/link_metrics.hpp"

namespace efd::hybrid {

/// Expected transmission time (ETT, Draves et al. [8], which the paper's
/// §4.3 names as the metric hybrid routing needs): the expected airtime to
/// push `packet_bytes` across the link, accounting for retransmissions.
/// Returns milliseconds; infinity-like (1e9) for dead links.
[[nodiscard]] double expected_transmission_time_ms(const LinkMetric& metric,
                                                   std::size_t packet_bytes);

/// One hop of a hybrid route: which station forwards to which, over which
/// medium.
struct Hop {
  net::StationId from = 0;
  net::StationId to = 0;
  Medium medium = Medium::kPlc;
};

/// Minimum-ETT routing over the hybrid link-metric table — the mesh
/// forwarding the paper's §4.3 calls for. Works on the directed, per-medium
/// graph the IEEE 1905 abstraction layer exposes, and (following the hybrid
/// study [17] the paper cites) discounts hops that *alternate* mediums,
/// because consecutive same-medium hops contend with each other while a
/// PLC hop and a WiFi hop can run concurrently.
class MeshRouter {
 public:
  struct Config {
    std::size_t packet_bytes = 1500;
    /// Metrics older than this are treated as unknown (stale-metric policy;
    /// the probing study of §6-§7 governs how fresh they can be kept).
    sim::Time metric_max_age = sim::minutes(5);
    /// Cost multiplier for a hop whose medium differs from the previous
    /// hop's: < 1 rewards alternation, 1 disables the preference.
    double alternation_discount = 0.85;
    int max_hops = 6;
  };

  MeshRouter(const LinkMetricTable& table, Config config)
      : table_(table), cfg_(config) {}
  explicit MeshRouter(const LinkMetricTable& table)
      : MeshRouter(table, Config{}) {}

  /// Cheapest route src -> dst of at most max_hops hops by summed
  /// (alternation-discounted) ETT. Empty when unreachable with fresh
  /// metrics within max_hops.
  [[nodiscard]] std::vector<Hop> route(net::StationId src, net::StationId dst,
                                       sim::Time now) const;

  /// Summed raw ETT of a route (no alternation discount), for reporting.
  [[nodiscard]] double path_ett_ms(const std::vector<Hop>& path, sim::Time now) const;

 private:
  const LinkMetricTable& table_;
  Config cfg_;
};

/// Multi-hop PLC relay planning for neighborhood-area networks: meters at
/// the far end of a long feeder run see an attenuated direct link to the
/// concentrator; ABB's multi-interface smart-grid study routes them over
/// intermediate meters instead. The planner works on plain per-link ETX
/// costs (expected transmissions; callers typically produce them with
/// `core::predicted_u_etx` from the PHY's PB error estimate) so it stays a
/// pure graph layer — no dependency on the estimation machinery.
class RelayPlanner {
 public:
  struct Config {
    /// A direct link costlier than this is "below the connectivity
    /// threshold" and needs relaying (cf. the paper's §5 coverage study).
    double connect_etx = 3.0;
    /// Links costlier than this are unusable even as relay hops.
    double max_link_etx = 8.0;
    int max_hops = 4;
  };

  RelayPlanner() : RelayPlanner(Config{}) {}
  explicit RelayPlanner(Config config) : cfg_(config) {}

  /// Installs (or refreshes) the directed link src -> dst with the given
  /// ETX cost. Costs above `max_link_etx` register the link as unusable.
  void set_link(net::StationId src, net::StationId dst, double etx);

  /// True when the direct src -> dst link is missing or costlier than the
  /// connectivity threshold — the meter needs a relay path.
  [[nodiscard]] bool needs_relay(net::StationId src, net::StationId dst) const;

  /// Cheapest usable path src -> dst of at most max_hops hops by summed
  /// ETX (deterministic, ties broken by predecessor id), inclusive of both
  /// endpoints. Acyclic, since link costs are positive; empty when
  /// unreachable within max_hops.
  [[nodiscard]] std::vector<net::StationId> plan(net::StationId src,
                                                 net::StationId dst) const;

  /// Summed ETX of a planned path; kUnreachable if any hop is unusable.
  [[nodiscard]] double path_etx(const std::vector<net::StationId>& path) const;

  static constexpr double kUnreachable = 1e9;

  [[nodiscard]] const Config& config() const { return cfg_; }

 private:
  [[nodiscard]] double link_etx(net::StationId src, net::StationId dst) const;

  Config cfg_;
  std::map<net::StationId, std::vector<std::pair<net::StationId, double>>> links_;
};

}  // namespace efd::hybrid
