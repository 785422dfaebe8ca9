#include "src/hybrid/routing.hpp"

#include <algorithm>
#include <map>

namespace efd::hybrid {

namespace {

constexpr double kDeadMs = 1e9;

/// Router states carry the last hop's medium; planner states are stations.
using RouterKey = std::pair<net::StationId, int>;  // medium -1 at the source
net::StationId station_of(const RouterKey& key) { return key.first; }
net::StationId station_of(net::StationId station) { return station; }

/// Cheapest path of at most `max_hops` hops from state `src` to a state at
/// station `dst`, as the states along it (both ends included); empty when
/// none fits. `expand(key, relax)` calls relax(next, hop_cost) for every
/// usable edge out of `key`.
///
/// Bellman-Ford in max_hops rounds: after round h, reach[h] holds the
/// cheapest cost of each state within h hops. Keeping the hop budget in the
/// search means a cheap partial path that spent more hops cannot hide a
/// costlier one that still fits. Equal costs go to the lower predecessor
/// state, so equal-cost paths are identical on every shard and platform;
/// among goal states of equal cost the lowest wins.
template <class Key, class Expand>
std::vector<Key> hop_bounded_search(const Key& src, net::StationId dst,
                                    int max_hops, Expand&& expand) {
  struct Reach {
    double cost;
    Key from;
  };
  std::vector<std::map<Key, Reach>> reach(
      static_cast<std::size_t>(std::max(max_hops, 0)) + 1);
  reach[0][src] = {0.0, src};
  for (std::size_t h = 1; h < reach.size(); ++h) {
    reach[h] = reach[h - 1];
    for (const auto& [key, r] : reach[h - 1]) {
      if (station_of(key) == dst) continue;  // paths end at the goal
      expand(key, [&](const Key& next, double hop_cost) {
        const double cost = r.cost + hop_cost;
        const auto [it, fresh] = reach[h].try_emplace(next, Reach{cost, key});
        if (!fresh && (cost < it->second.cost ||
                       (cost == it->second.cost && key < it->second.from))) {
          it->second = {cost, key};
        }
      });
    }
  }

  const std::map<Key, Reach>& last = reach.back();
  auto goal = last.end();
  for (auto it = last.begin(); it != last.end(); ++it) {
    if (station_of(it->first) == dst &&
        (goal == last.end() || it->second.cost < goal->second.cost)) {
      goal = it;
    }
  }
  if (goal == last.end()) return {};
  // Walk predecessors back to the source, one round per hop.
  std::vector<Key> path{goal->first};
  for (std::size_t h = reach.size() - 1; path.back() != src; --h) {
    path.push_back(reach[h].at(path.back()).from);
  }
  std::reverse(path.begin(), path.end());
  return path;
}

}  // namespace

double expected_transmission_time_ms(const LinkMetric& metric,
                                     std::size_t packet_bytes) {
  if (metric.capacity_mbps <= 0.0) return kDeadMs;
  const double delivery = 1.0 - std::clamp(metric.loss_rate, 0.0, 0.999);
  const double etx = 1.0 / delivery;
  const double airtime_ms =
      static_cast<double>(packet_bytes) * 8.0 / (metric.capacity_mbps * 1e3);
  return etx * airtime_ms;
}

std::vector<Hop> MeshRouter::route(net::StationId src, net::StationId dst,
                                   sim::Time now) const {
  if (src == dst) return {};

  // Collect fresh edges and the node set.
  struct Edge {
    net::StationId to;
    Medium medium;
    double ett_ms;
  };
  std::map<net::StationId, std::vector<Edge>> adjacency;
  for (const auto& e : table_.entries()) {
    if (now - e.metric.updated > cfg_.metric_max_age) continue;
    const double ett = expected_transmission_time_ms(e.metric, cfg_.packet_bytes);
    if (ett >= kDeadMs) continue;
    adjacency[e.src].push_back({e.dst, e.medium, ett});
  }

  // States are (station, last-hop medium), so the alternation discount
  // composes along the path.
  const auto expand = [&](const RouterKey& key, auto&& relax) {
    const auto adj = adjacency.find(key.first);
    if (adj == adjacency.end()) return;
    for (const Edge& edge : adj->second) {
      double hop_cost = edge.ett_ms;
      if (key.second >= 0 && key.second != static_cast<int>(edge.medium)) {
        hop_cost *= cfg_.alternation_discount;
      }
      relax(RouterKey{edge.to, static_cast<int>(edge.medium)}, hop_cost);
    }
  };
  const std::vector<RouterKey> states =
      hop_bounded_search(RouterKey{src, -1}, dst, cfg_.max_hops, expand);
  std::vector<Hop> path;
  for (std::size_t i = 1; i < states.size(); ++i) {
    path.push_back({states[i - 1].first, states[i].first,
                    static_cast<Medium>(states[i].second)});
  }
  return path;
}

double MeshRouter::path_ett_ms(const std::vector<Hop>& path, sim::Time now) const {
  double total = 0.0;
  for (const Hop& hop : path) {
    const auto metric = table_.get(hop.from, hop.to, hop.medium);
    if (!metric || now - metric->updated > cfg_.metric_max_age) return kDeadMs;
    total += expected_transmission_time_ms(*metric, cfg_.packet_bytes);
  }
  return total;
}

void RelayPlanner::set_link(net::StationId src, net::StationId dst, double etx) {
  auto& out = links_[src];
  for (auto& [to, cost] : out) {
    if (to == dst) {
      cost = etx;
      return;
    }
  }
  out.emplace_back(dst, etx);
}

double RelayPlanner::link_etx(net::StationId src, net::StationId dst) const {
  const auto it = links_.find(src);
  if (it == links_.end()) return kUnreachable;
  for (const auto& [to, cost] : it->second) {
    if (to == dst) return cost;
  }
  return kUnreachable;
}

bool RelayPlanner::needs_relay(net::StationId src, net::StationId dst) const {
  return link_etx(src, dst) > cfg_.connect_etx;
}

std::vector<net::StationId> RelayPlanner::plan(net::StationId src,
                                               net::StationId dst) const {
  if (src == dst) return {src};

  const auto expand = [&](net::StationId node, auto&& relax) {
    const auto adj = links_.find(node);
    if (adj == links_.end()) return;
    for (const auto& [to, etx] : adj->second) {
      if (etx > cfg_.max_link_etx) continue;  // unusable even as a relay hop
      relax(to, etx);
    }
  };
  return hop_bounded_search(src, dst, cfg_.max_hops, expand);
}

double RelayPlanner::path_etx(const std::vector<net::StationId>& path) const {
  if (path.size() < 2) return 0.0;
  double total = 0.0;
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    const double etx = link_etx(path[i], path[i + 1]);
    if (etx > cfg_.max_link_etx) return kUnreachable;
    total += etx;
  }
  return total;
}

}  // namespace efd::hybrid
