#include "src/hybrid/routing.hpp"

#include <gtest/gtest.h>

namespace efd::hybrid {
namespace {

LinkMetric metric(double capacity_mbps, double loss = 0.0,
                  sim::Time updated = sim::seconds(100)) {
  return {capacity_mbps, loss, updated};
}

sim::Time now() { return sim::seconds(110); }

TEST(Ett, AirtimeAndRetransmissions) {
  // 1500 B at 12 Mb/s = 1 ms airtime; 50% loss doubles it.
  EXPECT_NEAR(expected_transmission_time_ms(metric(12.0), 1500), 1.0, 1e-9);
  EXPECT_NEAR(expected_transmission_time_ms(metric(12.0, 0.5), 1500), 2.0, 1e-9);
}

TEST(Ett, DeadLinkIsInfinite) {
  EXPECT_GE(expected_transmission_time_ms(metric(0.0), 1500), 1e8);
}

TEST(MeshRouter, DirectRouteWhenGood) {
  LinkMetricTable table;
  table.update(0, 1, Medium::kPlc, metric(100.0));
  MeshRouter router(table);
  const auto path = router.route(0, 1, now());
  ASSERT_EQ(path.size(), 1u);
  EXPECT_EQ(path[0].from, 0);
  EXPECT_EQ(path[0].to, 1);
  EXPECT_EQ(path[0].medium, Medium::kPlc);
}

TEST(MeshRouter, PicksFasterMedium) {
  LinkMetricTable table;
  table.update(0, 1, Medium::kPlc, metric(30.0));
  table.update(0, 1, Medium::kWifi, metric(90.0));
  MeshRouter router(table);
  const auto path = router.route(0, 1, now());
  ASSERT_EQ(path.size(), 1u);
  EXPECT_EQ(path[0].medium, Medium::kWifi);
}

TEST(MeshRouter, RelaysAroundABadDirectLink) {
  LinkMetricTable table;
  table.update(0, 2, Medium::kPlc, metric(2.0));    // direct but terrible
  table.update(0, 1, Medium::kPlc, metric(100.0));  // via relay 1
  table.update(1, 2, Medium::kPlc, metric(100.0));
  MeshRouter router(table);
  const auto path = router.route(0, 2, now());
  ASSERT_EQ(path.size(), 2u);
  EXPECT_EQ(path[0].to, 1);
  EXPECT_EQ(path[1].to, 2);
}

TEST(MeshRouter, PrefersAlternatingMediumsWhenCostsTie) {
  // Two equal-rate 2-hop options; the PLC+WiFi one wins the discount.
  LinkMetricTable table;
  table.update(0, 1, Medium::kPlc, metric(100.0));
  table.update(1, 2, Medium::kPlc, metric(100.0));
  table.update(1, 2, Medium::kWifi, metric(100.0));
  MeshRouter router(table);
  const auto path = router.route(0, 2, now());
  ASSERT_EQ(path.size(), 2u);
  EXPECT_EQ(path[0].medium, Medium::kPlc);
  EXPECT_EQ(path[1].medium, Medium::kWifi);
}

TEST(MeshRouter, AlternationCanBeDisabled) {
  LinkMetricTable table;
  table.update(0, 1, Medium::kPlc, metric(100.0));
  table.update(1, 2, Medium::kPlc, metric(101.0));  // slightly faster
  table.update(1, 2, Medium::kWifi, metric(100.0));
  MeshRouter::Config cfg;
  cfg.alternation_discount = 1.0;
  MeshRouter router(table, cfg);
  const auto path = router.route(0, 2, now());
  ASSERT_EQ(path.size(), 2u);
  EXPECT_EQ(path[1].medium, Medium::kPlc);
}

TEST(MeshRouter, StaleMetricsAreIgnored) {
  LinkMetricTable table;
  table.update(0, 1, Medium::kPlc, metric(100.0, 0.0, sim::Time{}));  // ancient
  MeshRouter::Config cfg;
  cfg.metric_max_age = sim::seconds(60);
  MeshRouter router(table, cfg);
  EXPECT_TRUE(router.route(0, 1, sim::seconds(120)).empty());
}

TEST(MeshRouter, UnreachableIsEmpty) {
  LinkMetricTable table;
  table.update(0, 1, Medium::kPlc, metric(100.0));
  table.update(2, 3, Medium::kPlc, metric(100.0));
  MeshRouter router(table);
  EXPECT_TRUE(router.route(0, 3, now()).empty());
}

TEST(MeshRouter, RespectsHopLimit) {
  LinkMetricTable table;
  for (int i = 0; i < 9; ++i) {
    table.update(i, i + 1, Medium::kPlc, metric(100.0));
  }
  MeshRouter::Config cfg;
  cfg.max_hops = 6;
  MeshRouter router(table, cfg);
  EXPECT_TRUE(router.route(0, 9, now()).empty());   // needs 9 hops
  EXPECT_EQ(router.route(0, 6, now()).size(), 6u);  // exactly at the limit
}

TEST(MeshRouter, CheapLongPrefixDoesNotHideAFeasibleRoute) {
  // 0->1->2 reaches 2 cheaper than 0->2 but spends both hops of the budget;
  // only 0->2->3 reaches 3 within two hops.
  LinkMetricTable table;
  table.update(0, 1, Medium::kPlc, metric(12.0));  // 1 ms
  table.update(1, 2, Medium::kPlc, metric(12.0));
  table.update(2, 3, Medium::kPlc, metric(12.0));
  table.update(0, 2, Medium::kPlc, metric(2.4));  // 5 ms
  MeshRouter::Config cfg;
  cfg.max_hops = 2;
  const auto path = MeshRouter(table, cfg).route(0, 3, now());
  ASSERT_EQ(path.size(), 2u);
  EXPECT_EQ(path[0].from, 0);
  EXPECT_EQ(path[0].to, 2);
  EXPECT_EQ(path[1].to, 3);
  // With a third hop allowed the cheaper three-hop route wins.
  cfg.max_hops = 3;
  EXPECT_EQ(MeshRouter(table, cfg).route(0, 3, now()).size(), 3u);
}

TEST(MeshRouter, SelfRouteIsEmpty) {
  LinkMetricTable table;
  MeshRouter router(table);
  EXPECT_TRUE(router.route(4, 4, now()).empty());
}

TEST(MeshRouter, PathEttSumsRawCosts) {
  LinkMetricTable table;
  table.update(0, 1, Medium::kPlc, metric(12.0));        // 1 ms
  table.update(1, 2, Medium::kWifi, metric(12.0, 0.5));  // 2 ms
  MeshRouter router(table);
  const auto path = router.route(0, 2, now());
  ASSERT_EQ(path.size(), 2u);
  EXPECT_NEAR(router.path_ett_ms(path, now()), 3.0, 1e-9);
}

TEST(MeshRouter, LossyShortcutLosesToCleanRelay) {
  // ETX folds loss into the cost: a 30%-loss direct link is worse than two
  // clean hops at the same rate.
  LinkMetricTable table;
  table.update(0, 2, Medium::kWifi, metric(50.0, 0.5));
  table.update(0, 1, Medium::kWifi, metric(50.0));
  table.update(1, 2, Medium::kWifi, metric(50.0));
  MeshRouter router(table);
  const auto path = router.route(0, 2, now());
  EXPECT_EQ(path.size(), 1u);  // 0.48 ms direct vs 0.48 ms relay: tie -> direct
  // Now make the direct link lossier: relay wins.
  table.update(0, 2, Medium::kWifi, metric(50.0, 0.7));
  const auto path2 = router.route(0, 2, now());
  EXPECT_EQ(path2.size(), 2u);
}

RelayPlanner chain_with_shortcut(int max_hops) {
  RelayPlanner::Config cfg;
  cfg.max_hops = max_hops;
  RelayPlanner planner(cfg);
  planner.set_link(0, 1, 1.0);
  planner.set_link(1, 2, 1.0);
  planner.set_link(2, 3, 1.0);
  planner.set_link(0, 2, 5.0);
  return planner;
}

TEST(RelayPlanner, CheapLongPrefixDoesNotHideAFeasiblePath) {
  // 0->1->2 reaches 2 cheaper than 0->2 but spends both hops of the budget;
  // only 0->2->3 reaches 3 within two hops.
  const RelayPlanner two = chain_with_shortcut(2);
  EXPECT_EQ(two.plan(0, 3), (std::vector<net::StationId>{0, 2, 3}));
  EXPECT_DOUBLE_EQ(two.path_etx(two.plan(0, 3)), 6.0);
  // With a third hop allowed the cheaper three-hop path wins.
  EXPECT_EQ(chain_with_shortcut(3).plan(0, 3),
            (std::vector<net::StationId>{0, 1, 2, 3}));
}

TEST(RelayPlanner, EqualCostsGoToTheLowerPredecessor) {
  RelayPlanner planner;
  planner.set_link(5, 3, 1.0);
  planner.set_link(5, 2, 1.0);
  planner.set_link(3, 0, 1.0);
  planner.set_link(2, 0, 1.0);
  EXPECT_EQ(planner.plan(5, 0), (std::vector<net::StationId>{5, 2, 0}));
}

}  // namespace
}  // namespace efd::hybrid
