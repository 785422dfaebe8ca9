#include "src/hybrid/routing.hpp"

#include <algorithm>
#include <map>

namespace efd::hybrid {

namespace {
constexpr double kDeadMs = 1e9;
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

  // Bellman-Ford in max_hops rounds over (station, last-hop medium)
  // states, so the alternation discount composes along the path: after
  // round h, reach[h] holds the cheapest cost of each state within h hops.
  // Keeping the hop budget in the search means a cheap partial route that
  // spent more hops cannot hide a costlier one that still fits. Equal costs
  // go to the lower predecessor state.
  using Key = std::pair<net::StationId, int>;  // medium -1 at the source
  struct Reach {
    double cost;
    Key from;
  };
  const int rounds = std::max(cfg_.max_hops, 0);
  std::vector<std::map<Key, Reach>> reach(static_cast<std::size_t>(rounds) + 1);
  reach[0][{src, -1}] = {0.0, {src, -1}};
  for (std::size_t h = 1; h < reach.size(); ++h) {
    reach[h] = reach[h - 1];
    for (const auto& [key, r] : reach[h - 1]) {
      if (key.first == dst) continue;  // routes end at the goal
      const auto adj = adjacency.find(key.first);
      if (adj == adjacency.end()) continue;
      for (const Edge& edge : adj->second) {
        double hop_cost = edge.ett_ms;
        if (key.second >= 0 && key.second != static_cast<int>(edge.medium)) {
          hop_cost *= cfg_.alternation_discount;
        }
        const double cost = r.cost + hop_cost;
        const auto [it, fresh] = reach[h].try_emplace(
            Key{edge.to, static_cast<int>(edge.medium)}, Reach{cost, key});
        if (!fresh && (cost < it->second.cost ||
                       (cost == it->second.cost && key < it->second.from))) {
          it->second = {cost, key};
        }
      }
    }
  }

  const std::map<Key, Reach>& last = reach.back();
  auto goal = last.end();
  for (auto it = last.lower_bound({dst, -1});
       it != last.end() && it->first.first == dst; ++it) {
    if (goal == last.end() || it->second.cost < goal->second.cost) goal = it;
  }
  if (goal == last.end()) return {};
  // Walk predecessors back to the source, one round per hop.
  std::vector<Hop> path;
  Key cur = goal->first;
  for (std::size_t h = reach.size() - 1; cur != Key{src, -1}; --h) {
    const Key from = reach[h].at(cur).from;
    path.push_back({from.first, cur.first, static_cast<Medium>(cur.second)});
    cur = from;
  }
  std::reverse(path.begin(), path.end());
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

  // Bellman-Ford in max_hops rounds: after round h, reach[h] holds the
  // cheapest ETX of each station within h hops. Keeping the hop budget in
  // the search means a cheap partial path that spent more hops cannot hide
  // a costlier one that still fits. Equal costs go to the lower predecessor
  // id, so equal-cost plans are identical on every shard and platform.
  struct Reach {
    double cost;
    net::StationId from;
  };
  const int rounds = std::max(cfg_.max_hops, 0);
  std::vector<std::map<net::StationId, Reach>> reach(
      static_cast<std::size_t>(rounds) + 1);
  reach[0][src] = {0.0, src};
  for (std::size_t h = 1; h < reach.size(); ++h) {
    reach[h] = reach[h - 1];
    for (const auto& [node, r] : reach[h - 1]) {
      if (node == dst) continue;  // paths end at the goal
      const auto adj = links_.find(node);
      if (adj == links_.end()) continue;
      for (const auto& [to, etx] : adj->second) {
        if (etx > cfg_.max_link_etx) continue;  // unusable even as a relay hop
        const double cost = r.cost + etx;
        const auto [it, fresh] = reach[h].try_emplace(to, Reach{cost, node});
        if (!fresh && (cost < it->second.cost ||
                       (cost == it->second.cost && node < it->second.from))) {
          it->second = {cost, node};
        }
      }
    }
  }

  if (!reach.back().contains(dst)) return {};
  // Walk predecessors back to the source, one round per hop.
  std::vector<net::StationId> path{dst};
  for (std::size_t h = reach.size() - 1; path.back() != src; --h) {
    path.push_back(reach[h].at(path.back()).from);
  }
  std::reverse(path.begin(), path.end());
  return path;
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
