// Campus-scale fault domains (DESIGN.md §15): board blackouts/brownouts and
// boundary-link partitions injected at shard horizons, with the acceptance
// gates of PR 9 — fault traces and per-board digests byte-identical across
// shard counts, and a run split at a mid-storm horizon reproducing the
// uninterrupted run's digests exactly.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "src/fault/fault.hpp"
#include "src/grid/campus.hpp"
#include "src/sim/rng.hpp"
#include "src/testbed/campus.hpp"
#include "tests/cell_world_split_run_suite.hpp"

namespace efd::testbed {
namespace {

/// 5 boards over 2 buildings: small enough for tier-like runtimes, big
/// enough to have both backbone and WiFi-bridge crossings.
CampusRunConfig small_campus(int n_shards) {
  CampusRunConfig cfg;
  cfg.campus.n_outlets = 60;
  cfg.campus.outlets_per_board = 12;
  cfg.campus.stations_per_board = 3;
  cfg.campus.boards_per_building = 3;
  cfg.campus.seed = 42;
  cfg.n_shards = n_shards;
  cfg.duration = sim::milliseconds(80);
  cfg.p_remote = 0.4;
  return cfg;
}

/// First link of each boundary kind in the generated topology (-1 if the
/// campus has none of that kind).
struct LinkPick {
  int bridge = -1;
  int backbone = -1;
};

LinkPick pick_links(const grid::CampusConfig& cc) {
  const grid::CampusTopology topo = grid::CampusTopology::generate(cc);
  LinkPick pick;
  for (std::size_t i = 0; i < topo.links().size(); ++i) {
    const auto& l = topo.links()[i];
    if (l.kind == grid::BoundaryKind::kWifiBridge && pick.bridge < 0) {
      pick.bridge = static_cast<int>(i);
    }
    if (l.kind == grid::BoundaryKind::kPlcBackbone && pick.backbone < 0) {
      pick.backbone = static_cast<int>(i);
    }
  }
  return pick;
}

/// A deliberate storm touching every fault-domain kind: one board dies, one
/// browns out, a bridge and a backbone crossing are both severed.
CampusRunConfig stormy_campus(int n_shards) {
  CampusRunConfig cfg = small_campus(n_shards);
  const LinkPick pick = pick_links(cfg.campus);
  cfg.faults.board_blackout(sim::milliseconds(20), sim::milliseconds(25), 1)
      .board_brownout(sim::milliseconds(30), sim::milliseconds(30), 3, 0.6);
  if (pick.bridge >= 0) {
    cfg.faults.link_partition(sim::milliseconds(25), sim::milliseconds(30),
                              pick.bridge);
  }
  if (pick.backbone >= 0) {
    cfg.faults.link_partition(sim::milliseconds(35), sim::milliseconds(20),
                              pick.backbone);
  }
  return cfg;
}

// --- Shard-count invariance under faults -----------------------------------

TEST(ChaosCampus, StormTracesAndDigestsAreShardCountInvariant) {
  const CampusResult r1 = run_campus(stormy_campus(1));
  ASSERT_GT(r1.events, 0u);
  ASSERT_GT(r1.delivered, 0u);
  ASSERT_GT(r1.fault_events, 0u);
  ASSERT_FALSE(r1.fault_trace.empty());
  ASSERT_EQ(r1.board_digests.size(), 5u);
  // The blackout board must actually have dropped ingress while dead.
  EXPECT_GT(r1.dead_drops, 0u);
  for (const int shards : {2, 4}) {
    const CampusResult r = run_campus(stormy_campus(shards));
    EXPECT_EQ(r.digest, r1.digest) << "shards=" << shards;
    EXPECT_EQ(r.board_digests, r1.board_digests) << "shards=" << shards;
    EXPECT_EQ(r.fault_trace, r1.fault_trace) << "shards=" << shards;
    EXPECT_EQ(r.fault_events, r1.fault_events) << "shards=" << shards;
    EXPECT_EQ(r.dead_drops, r1.dead_drops) << "shards=" << shards;
    EXPECT_EQ(r.partition_drops, r1.partition_drops) << "shards=" << shards;
    EXPECT_EQ(r.failovers, r1.failovers) << "shards=" << shards;
    EXPECT_EQ(r.failbacks, r1.failbacks) << "shards=" << shards;
  }
}

TEST(ChaosCampus, StormChangesTheDigestButNotTheFaultFreeOne) {
  const CampusResult clean = run_campus(small_campus(2));
  const CampusResult storm = run_campus(stormy_campus(2));
  // Faults must bite: a dead board and severed crossings change delivery.
  EXPECT_NE(storm.digest, clean.digest);
  EXPECT_EQ(clean.fault_events, 0u);
  EXPECT_TRUE(clean.fault_trace.empty());
  EXPECT_EQ(clean.dead_drops, 0u);
  EXPECT_EQ(clean.partition_drops + clean.failovers, 0u);
}

TEST(ChaosCampus, BridgePartitionFailsOverToTheBackbone) {
  CampusRunConfig cfg = small_campus(2);
  const LinkPick pick = pick_links(cfg.campus);
  ASSERT_GE(pick.bridge, 0) << "campus has no WiFi bridge to partition";
  cfg.faults.link_partition(sim::milliseconds(10), sim::milliseconds(50),
                            pick.bridge);
  const CampusResult r = run_campus(cfg);
  // The bridge has a powerline fallback, so the partition reroutes instead
  // of dropping; restoration fails back to the primary path.
  EXPECT_GT(r.failovers, 0u);
  EXPECT_GT(r.failbacks, 0u);
  EXPECT_EQ(r.dead_drops, 0u);
}

TEST(ChaosCampus, RandomCampusStormIsSeedDeterministic) {
  fault::FaultPlan::CampusStormConfig sc;
  sc.n_boards = 5;
  sc.n_links = 4;
  sc.horizon = sim::milliseconds(60);
  const fault::FaultPlan plan = fault::FaultPlan::random_campus_storm(sim::Rng{7}, sc);
  ASSERT_EQ(plan.size(), 6u);  // 2 blackouts + 2 brownouts + 2 partitions
  CampusRunConfig a = small_campus(1);
  a.faults = plan;
  CampusRunConfig b = small_campus(4);
  b.faults = fault::FaultPlan::random_campus_storm(sim::Rng{7}, sc);
  const CampusResult ra = run_campus(a);
  const CampusResult rb = run_campus(b);
  EXPECT_GT(ra.fault_events, 0u);
  EXPECT_EQ(rb.digest, ra.digest);
  EXPECT_EQ(rb.fault_trace, ra.fault_trace);
  EXPECT_EQ(rb.board_digests, ra.board_digests);
}

// --- Split run --------------------------------------------------------------
// The split run itself is the shared suite in
// tests/cell_world_split_run_suite.hpp, called at the bottom of this file.

}  // namespace

template <>
struct CellWorldTraits<CampusWorld> {
  static CampusRunConfig storm(int n_shards) { return stormy_campus(n_shards); }
  static const std::vector<std::uint64_t>& cell_digests(const CampusResult& r) {
    return r.board_digests;
  }
};

TEST(ChaosCampus, SplitRunReplaysTheUninterruptedDigests) {
  expect_split_run_replays_the_uninterrupted_digests<CampusWorld>();
}

}  // namespace efd::testbed
