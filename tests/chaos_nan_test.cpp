// NAN diversity/relay chaos suite: seeded fault storms over the
// neighborhood-area network must leave every digest, fault trace and
// redundancy counter byte-identical across shard counts, and first-wins
// duplication must degrade gracefully — never a worse delivery count than
// either single medium — when one medium is blacked out for the whole run.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "src/fault/fault.hpp"
#include "src/grid/nan.hpp"
#include "src/sim/rng.hpp"
#include "src/testbed/nan.hpp"
#include "tests/cell_world_split_run_suite.hpp"

namespace efd::testbed {
namespace {

/// 4 transformers over 2 feeders: small enough for tier-like runtimes, big
/// enough to have both MV feeder-run and feeder-head WiFi crossings.
NanRunConfig small_nan(int n_shards) {
  NanRunConfig cfg;
  cfg.nan.n_meters = 36;
  cfg.nan.meters_per_transformer = 9;
  cfg.nan.transformers_per_feeder = 2;
  cfg.nan.stations_per_transformer = 5;
  cfg.nan.seed = 42;
  cfg.n_shards = n_shards;
  cfg.duration = sim::milliseconds(80);
  cfg.report_interval = sim::milliseconds(2);
  cfg.p_remote = 0.3;
  return cfg;
}

/// A deliberate storm touching every NAN fault kind: a PLC surge, a WiFi
/// jam, a browned-out and a dead transformer, and a severed crossing (no
/// fallback path exists in the NAN, so partitions always drop).
NanRunConfig stormy_nan(int n_shards) {
  NanRunConfig cfg = small_nan(n_shards);
  cfg.faults.blackout(sim::milliseconds(15), sim::milliseconds(20), 0, 1.0)
      .wifi_jam(sim::milliseconds(20), sim::milliseconds(25), 2, 200.0)
      .board_brownout(sim::milliseconds(30), sim::milliseconds(30), 3, 0.6)
      .board_blackout(sim::milliseconds(35), sim::milliseconds(20), 1)
      .link_partition(sim::milliseconds(25), sim::milliseconds(30), 0);
  return cfg;
}

TEST(ChaosNan, StormTracesAndDigestsAreShardCountInvariant) {
  const NanResult r1 = run_nan(stormy_nan(1));
  ASSERT_GT(r1.events, 0u);
  ASSERT_GT(r1.delivered, 0u);
  ASSERT_GT(r1.fault_events, 0u);
  ASSERT_FALSE(r1.fault_trace.empty());
  ASSERT_EQ(r1.transformer_digests.size(), 4u);
  // Diversity mode must actually have spent redundancy and suppressed the
  // losing copies.
  EXPECT_GT(r1.dup_copies, 0u);
  EXPECT_GT(r1.suppressed, 0u);
  EXPECT_GT(r1.wins_plc + r1.wins_wifi, 0u);
  for (const int shards : {2, 4}) {
    const NanResult r = run_nan(stormy_nan(shards));
    EXPECT_EQ(r.digest, r1.digest) << "shards=" << shards;
    EXPECT_EQ(r.transformer_digests, r1.transformer_digests) << "shards=" << shards;
    EXPECT_EQ(r.fault_trace, r1.fault_trace) << "shards=" << shards;
    EXPECT_EQ(r.fault_events, r1.fault_events) << "shards=" << shards;
    EXPECT_EQ(r.delivered, r1.delivered) << "shards=" << shards;
    EXPECT_EQ(r.delivered_remote, r1.delivered_remote) << "shards=" << shards;
    EXPECT_EQ(r.dup_copies, r1.dup_copies) << "shards=" << shards;
    EXPECT_EQ(r.dup_bytes, r1.dup_bytes) << "shards=" << shards;
    EXPECT_EQ(r.wins_plc, r1.wins_plc) << "shards=" << shards;
    EXPECT_EQ(r.wins_wifi, r1.wins_wifi) << "shards=" << shards;
    EXPECT_EQ(r.suppressed, r1.suppressed) << "shards=" << shards;
    EXPECT_EQ(r.stragglers, r1.stragglers) << "shards=" << shards;
    EXPECT_EQ(r.dead_drops, r1.dead_drops) << "shards=" << shards;
    EXPECT_EQ(r.partition_drops, r1.partition_drops) << "shards=" << shards;
    EXPECT_EQ(r.relay_forwards, r1.relay_forwards) << "shards=" << shards;
  }
}

TEST(ChaosNan, StormChangesTheDigestButNotTheFaultFreeOne) {
  const NanResult clean = run_nan(small_nan(2));
  const NanResult storm = run_nan(stormy_nan(2));
  EXPECT_NE(storm.digest, clean.digest);
  EXPECT_EQ(clean.fault_events, 0u);
  EXPECT_TRUE(clean.fault_trace.empty());
  EXPECT_EQ(clean.dead_drops, 0u);
  EXPECT_EQ(clean.partition_drops, 0u);
}

/// One whole-run single-medium blackout, shared by every mode under test so
/// the per-tick rng draws (mode-independent by construction) line up packet
/// for packet.
NanRunConfig blacked_out(DiversityMode mode, fault::FaultKind kind) {
  NanRunConfig cfg = small_nan(2);
  cfg.mode = mode;
  const double severity = kind == fault::FaultKind::kWifiJam ? 200.0 : 1.0;
  for (int t = 0; t < 4; ++t) {
    cfg.faults.add({sim::microseconds(1), sim::milliseconds(200), kind, t, severity});
  }
  return cfg;
}

TEST(ChaosNan, DiversityNeverWorseThanEitherMediumUnderPlcBlackout) {
  // The PLC side is dead for the entire run: per-packet duplication must
  // ride the WiFi copies and deliver at least as much as either
  // single-medium baseline (first-wins has no failure mode that loses
  // reports both media would have carried).
  const fault::FaultKind kind = fault::FaultKind::kPlcBlackout;
  const NanResult div = run_nan(blacked_out(DiversityMode::kDiversity, kind));
  const NanResult plc = run_nan(blacked_out(DiversityMode::kPlcOnly, kind));
  const NanResult wifi = run_nan(blacked_out(DiversityMode::kWifiOnly, kind));
  ASSERT_EQ(div.offered, plc.offered);   // identical report pattern
  ASSERT_EQ(div.offered, wifi.offered);
  EXPECT_GE(div.delivered, plc.delivered);
  EXPECT_GE(div.delivered, wifi.delivered);
  // Under a total PLC blackout every win is a WiFi win.
  EXPECT_EQ(div.wins_plc, 0u);
  EXPECT_GT(div.wins_wifi, 0u);
}

TEST(ChaosNan, DiversityNeverWorseThanEitherMediumUnderWifiJam) {
  const fault::FaultKind kind = fault::FaultKind::kWifiJam;
  const NanResult div = run_nan(blacked_out(DiversityMode::kDiversity, kind));
  const NanResult plc = run_nan(blacked_out(DiversityMode::kPlcOnly, kind));
  const NanResult wifi = run_nan(blacked_out(DiversityMode::kWifiOnly, kind));
  ASSERT_EQ(div.offered, plc.offered);
  ASSERT_EQ(div.offered, wifi.offered);
  EXPECT_GE(div.delivered, plc.delivered);
  EXPECT_GE(div.delivered, wifi.delivered);
  EXPECT_EQ(div.wins_wifi, 0u);
  EXPECT_GT(div.wins_plc, 0u);
}

TEST(ChaosNan, RelayEngagesAndStaysShardCountInvariant) {
  // An aggressive connectivity threshold forces below-threshold meters onto
  // multi-hop PLC paths; the store-and-forward hops must execute and the
  // whole relayed timeline must stay a pure function of the config.
  NanRunConfig cfg = small_nan(1);
  cfg.nan.seed = 19;  // this feeder has three below-threshold drop tails
  cfg.mode = DiversityMode::kPlcOnly;
  cfg.relay.connect_etx = 1.05;
  cfg.relay.max_hops = 3;
  const NanResult r1 = run_nan(cfg);
  EXPECT_GT(r1.relay_meters, 0u);
  EXPECT_GT(r1.relay_forwards, 0u);
  EXPECT_GE(r1.relay_hops_max, 2);
  cfg.n_shards = 4;
  const NanResult r4 = run_nan(cfg);
  EXPECT_EQ(r4.digest, r1.digest);
  EXPECT_EQ(r4.transformer_digests, r1.transformer_digests);
  EXPECT_EQ(r4.relay_meters, r1.relay_meters);
  EXPECT_EQ(r4.relay_forwards, r1.relay_forwards);
  EXPECT_EQ(r4.relay_hops_max, r1.relay_hops_max);

  // Relaying off (max_hops=1 keeps only the direct link) changes the
  // timeline: the forwards disappear.
  cfg.n_shards = 1;
  cfg.relay_enabled = false;
  const NanResult off = run_nan(cfg);
  EXPECT_EQ(off.relay_meters, 0u);
  EXPECT_EQ(off.relay_forwards, 0u);
}

TEST(ChaosNan, SeededNanStormIsSeedDeterministic) {
  const NanRunConfig base = small_nan(1);
  fault::FaultPlan::CampusStormConfig sc;
  sc.start = sim::milliseconds(10);
  sc.horizon = sim::milliseconds(60);
  sc.min_duration = sim::milliseconds(5);
  sc.max_duration = sim::milliseconds(25);
  sc.n_boards = 4;
  sc.n_links =
      static_cast<int>(grid::NanTopology::generate(base.nan).links().size());
  const fault::FaultPlan plan = fault::FaultPlan::random_campus_storm(sim::Rng{7}, sc);
  ASSERT_EQ(plan.size(), 6u);
  NanRunConfig a = base;
  a.faults = plan;
  NanRunConfig b = small_nan(4);
  b.faults = fault::FaultPlan::random_campus_storm(sim::Rng{7}, sc);
  const NanResult ra = run_nan(a);
  const NanResult rb = run_nan(b);
  EXPECT_GT(ra.fault_events, 0u);
  EXPECT_EQ(rb.digest, ra.digest);
  EXPECT_EQ(rb.fault_trace, ra.fault_trace);
  EXPECT_EQ(rb.transformer_digests, ra.transformer_digests);
}

TEST(ChaosNan, EveryFaultKindChangesTheDigest) {
  // A kind that no world hooks would only be traced: the run it lands in
  // would stay byte-identical to the fault-free one.
  const NanResult clean = run_nan(small_nan(1));
  for (std::size_t k = 0; k < fault::kFaultKindCount; ++k) {
    const auto kind = static_cast<fault::FaultKind>(k);
    NanRunConfig cfg = small_nan(1);
    const int target = kind == fault::FaultKind::kLinkPartition ? 0 : 2;
    const double severity = kind == fault::FaultKind::kWifiJam ? 200.0 : 1.0;
    cfg.faults.add(
        {sim::milliseconds(15), sim::milliseconds(30), kind, target, severity});
    const NanResult r = run_nan(cfg);
    EXPECT_GE(r.fault_events, 2u) << fault::to_string(kind);
    EXPECT_NE(r.digest, clean.digest) << fault::to_string(kind);
  }
}

}  // namespace

template <>
struct CellWorldTraits<NanWorld> {
  static NanRunConfig storm(int n_shards) { return stormy_nan(n_shards); }
  static const std::vector<std::uint64_t>& cell_digests(const NanResult& r) {
    return r.transformer_digests;
  }
};

// A split run through the shared scaffold, as for the campus.
TEST(ChaosNan, SplitRunReplaysTheUninterruptedDigests) {
  expect_split_run_replays_the_uninterrupted_digests<NanWorld>();
}

}  // namespace efd::testbed
