// Fig. 6 + §5: throughput asymmetry of PLC links — both directions of every
// link, the most asymmetric pairs, and the fraction of pairs above 1.5x.
// Pairs are measured back to back in simulated time, each on its own
// testbed (bench::sweep).
#include <algorithm>

#include "bench_util.hpp"

using namespace efd;

namespace {

struct PairResult {
  int a = 0, b = 0;
  double fwd = 0.0, rev = 0.0;
  [[nodiscard]] double ratio() const {
    const double lo = std::min(fwd, rev), hi = std::max(fwd, rev);
    return lo > 0.1 ? hi / lo : 100.0;
  }
};

PairResult measure_pair(testbed::Testbed& tb, int a, int b, sim::Time duration) {
  bench::warm_link(tb, a, b);
  bench::warm_link(tb, b, a);
  PairResult r{a, b, 0, 0};
  r.fwd = testbed::measure_plc_throughput(tb, a, b, duration).mean_mbps;
  r.rev = testbed::measure_plc_throughput(tb, b, a, duration).mean_mbps;
  return r;
}

}  // namespace

int main() {
  bench::header("Fig. 6", "PLC throughput asymmetry",
                "~30% of station pairs show >1.5x asymmetry; examples where one "
                "direction is <60% of the other");
  bench::JsonReporter json("fig06");

  testbed::Testbed::Config cfg;
  cfg.with_hpav500 = false;
  std::vector<std::pair<int, int>> links;
  sim::Simulator topology_sim;
  for (const auto& [a, b] : testbed::Testbed(topology_sim, cfg).plc_links()) {
    if (a > b) continue;  // one entry per undirected pair
    links.emplace_back(a, b);
  }

  const auto duration = sim::seconds(8.0 * bench::duration_scale());
  // Two measurements per pair: forward, then reverse.
  const std::vector<sim::Time> spans(
      links.size(), testbed::measurement_span(duration) * 2);
  const auto measured = bench::sweep<PairResult>(
      "pair", cfg, spans, [&](testbed::Testbed& tb, std::size_t i) {
        return measure_pair(tb, links[i].first, links[i].second, duration);
      });

  std::vector<PairResult> pairs;
  for (const auto& r : measured) {
    if (r.fwd > 0.5 || r.rev > 0.5) pairs.push_back(r);
  }

  int above_15 = 0;
  for (const auto& p : pairs) {
    if (p.ratio() > 1.5) ++above_15;
  }
  std::sort(pairs.begin(), pairs.end(),
            [](const PairResult& x, const PairResult& y) {
              return x.ratio() > y.ratio();
            });

  bench::section("most asymmetric pairs (paper bar chart, 11 links)");
  std::printf("%-8s %10s %10s %8s\n", "link", "x->y Mb/s", "y->x Mb/s", "ratio");
  for (std::size_t i = 0; i < std::min<std::size_t>(11, pairs.size()); ++i) {
    const auto& p = pairs[i];
    std::printf("%2d-%-5d %10.1f %10.1f %7.1fx\n", p.a, p.b, p.fwd, p.rev,
                p.ratio());
  }

  bench::section("aggregate");
  std::printf("pairs measured: %zu\n", pairs.size());
  std::printf("pairs with >1.5x asymmetry: %.0f%%  (paper: ~30%%)\n",
              100.0 * above_15 / std::max<std::size_t>(1, pairs.size()));
  json.add("pairs_measured", static_cast<double>(pairs.size()), "pairs");
  json.add("pct_above_1.5x",
           100.0 * above_15 / std::max<std::size_t>(1, pairs.size()), "%");
  return 0;
}
