// Golden digests of the two sharded cell worlds. The shard-invariance tests
// compare runs with each other; these pin literal values, so any change to
// the campus or NAN event streams — or to the order their digests fold
// them in — fails here instead of surfacing only in the bench sweeps. A
// deliberate re-baseline updates the literals in the same change.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "src/fault/fault.hpp"
#include "src/grid/campus.hpp"
#include "src/testbed/campus.hpp"
#include "src/testbed/nan.hpp"

namespace efd::testbed {
namespace {

using Digests = std::vector<std::uint64_t>;

CampusRunConfig campus_config() {
  CampusRunConfig cfg;
  cfg.campus.n_outlets = 60;
  cfg.campus.outlets_per_board = 12;
  cfg.campus.stations_per_board = 3;
  cfg.campus.boards_per_building = 3;
  cfg.campus.seed = 42;
  cfg.duration = sim::milliseconds(80);
  cfg.p_remote = 0.4;
  return cfg;
}

/// Every campus fault kind: a dead board, a browned-out board, and a
/// severed WiFi bridge (fails over) and backbone crossing (drops).
CampusRunConfig campus_storm_config() {
  CampusRunConfig cfg = campus_config();
  const grid::CampusTopology topo = grid::CampusTopology::generate(cfg.campus);
  int bridge = -1;
  int backbone = -1;
  for (std::size_t i = 0; i < topo.links().size(); ++i) {
    const bool is_bridge = topo.links()[i].kind == grid::BoundaryKind::kWifiBridge;
    int& pick = is_bridge ? bridge : backbone;
    if (pick < 0) pick = static_cast<int>(i);
  }
  cfg.faults.board_blackout(sim::milliseconds(20), sim::milliseconds(25), 1)
      .board_brownout(sim::milliseconds(30), sim::milliseconds(30), 3, 0.6)
      .link_partition(sim::milliseconds(25), sim::milliseconds(30), bridge)
      .link_partition(sim::milliseconds(35), sim::milliseconds(20), backbone);
  return cfg;
}

NanRunConfig nan_config() {
  NanRunConfig cfg;
  cfg.nan.n_meters = 36;
  cfg.nan.meters_per_transformer = 9;
  cfg.nan.transformers_per_feeder = 2;
  cfg.nan.stations_per_transformer = 5;
  cfg.nan.seed = 42;
  cfg.duration = sim::milliseconds(80);
  cfg.report_interval = sim::milliseconds(2);
  cfg.p_remote = 0.3;
  return cfg;
}

/// Diversity mode with relaying on, under every NAN fault kind. The seed and
/// the aggressive connectivity threshold put meters on multi-hop PLC paths.
NanRunConfig nan_storm_config() {
  NanRunConfig cfg = nan_config();
  cfg.nan.seed = 19;
  cfg.mode = DiversityMode::kDiversity;
  cfg.relay_enabled = true;
  cfg.relay.connect_etx = 1.05;
  cfg.relay.max_hops = 3;
  cfg.faults.blackout(sim::milliseconds(15), sim::milliseconds(20), 0, 1.0)
      .wifi_jam(sim::milliseconds(20), sim::milliseconds(25), 2, 200.0)
      .board_brownout(sim::milliseconds(30), sim::milliseconds(30), 3, 0.6)
      .board_blackout(sim::milliseconds(35), sim::milliseconds(20), 1)
      .link_partition(sim::milliseconds(25), sim::milliseconds(30), 0);
  return cfg;
}

// Each world runs at 1 and 3 shards: the literals are shard-invariant.
constexpr int kShardCounts[] = {1, 3};

TEST(CellWorldGolden, CampusFaultFree) {
  for (const int shards : kShardCounts) {
    CampusRunConfig cfg = campus_config();
    cfg.n_shards = shards;
    const CampusResult r = run_campus(cfg);
    EXPECT_EQ(r.digest, 0x89c6301dd1a083eaULL) << "shards=" << shards;
    EXPECT_EQ(r.board_digests,
              (Digests{0x2ca5a4a0ad2d7d7eULL, 0x561dafcb696172bfULL,
                       0xc61021318a6fbc4fULL, 0x73443c0ba3016372ULL,
                       0x6683e0810fee2d11ULL}))
        << "shards=" << shards;
  }
}

TEST(CellWorldGolden, CampusStorm) {
  for (const int shards : kShardCounts) {
    CampusRunConfig cfg = campus_storm_config();
    cfg.n_shards = shards;
    const CampusResult r = run_campus(cfg);
    ASSERT_GT(r.fault_events, 0u);
    EXPECT_EQ(r.digest, 0x41873fb18599eb62ULL) << "shards=" << shards;
    EXPECT_EQ(r.board_digests,
              (Digests{0xbed986534fc31cf4ULL, 0x6a680c935f32f35dULL,
                       0xa87d0cff9c03f592ULL, 0xef6ad27972e0f131ULL,
                       0x6683e0810fee2d11ULL}))
        << "shards=" << shards;
  }
}

TEST(CellWorldGolden, NanFaultFree) {
  for (const int shards : kShardCounts) {
    NanRunConfig cfg = nan_config();
    cfg.n_shards = shards;
    const NanResult r = run_nan(cfg);
    EXPECT_EQ(r.digest, 0x2272bdaf4820e441ULL) << "shards=" << shards;
    EXPECT_EQ(r.transformer_digests,
              (Digests{0xf36bb0f8959f70ebULL, 0x489e9c2263433124ULL,
                       0x6e97e1bf47755cb3ULL, 0x5d0e1bb3cbf46730ULL}))
        << "shards=" << shards;
  }
}

TEST(CellWorldGolden, NanDiversityRelayStorm) {
  for (const int shards : kShardCounts) {
    NanRunConfig cfg = nan_storm_config();
    cfg.n_shards = shards;
    const NanResult r = run_nan(cfg);
    ASSERT_GT(r.fault_events, 0u);
    ASSERT_GT(r.dup_copies, 0u);
    ASSERT_GT(r.relay_forwards, 0u);
    EXPECT_EQ(r.digest, 0xc19a1f2dcd46d64bULL) << "shards=" << shards;
    EXPECT_EQ(r.transformer_digests,
              (Digests{0x714d15e67f287331ULL, 0x45736af8c8c391f1ULL,
                       0x5f3a04c89b8ae904ULL, 0x5fb5f241c99f4d72ULL}))
        << "shards=" << shards;
  }
}

}  // namespace
}  // namespace efd::testbed
