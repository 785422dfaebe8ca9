#pragma once

// Checkpoint/restore through the shared CellWorld scaffold, written once as
// function templates. Each world's chaos suite specializes the traits and
// calls them from its own named tests:
//
//   template <> struct CellWorldTraits<CampusWorld> { ... };
//   TEST(ChaosCampus, RestoreRejectsACorruptedCheckpoint) {
//     expect_restore_rejects_a_corrupted_checkpoint<CampusWorld>();
//   }
//
// The traits give the world's storm config (an 80 ms run with faults
// firing across the 40 ms checkpoint), its cell count, and its per-cell
// digests.

#include <gtest/gtest.h>

#include "src/sim/time.hpp"
#include "src/testbed/cell_world.hpp"

namespace efd::testbed {

template <class World>
struct CellWorldTraits;

template <class World>
void expect_checkpoint_restore_replays_the_uninterrupted_digests() {
  using Traits = CellWorldTraits<World>;
  // Reference: one uninterrupted run through the full duration.
  World reference(Traits::storm(2));
  reference.run();
  const auto full = reference.result();

  // Interrupted run: stop mid-storm, fingerprint, keep going — continuing
  // from a quiescent horizon must not perturb the timeline.
  World world(Traits::storm(2));
  world.run_until(sim::milliseconds(40));
  const CellCheckpoint cp = world.checkpoint();
  EXPECT_EQ(cp.engine.n_shards, 2);
  EXPECT_EQ(cp.engine.n_cells, Traits::kCells);
  world.run_until(sim::milliseconds(80));
  const auto continued = world.result();
  EXPECT_EQ(continued.digest, full.digest);
  EXPECT_EQ(continued.fault_trace, full.fault_trace);
  EXPECT_EQ(Traits::cell_digests(continued), Traits::cell_digests(full));

  // Restore rewinds to the checkpoint (reset + deterministic replay,
  // FNV-verified) and replaying to the end reproduces the same digests.
  ASSERT_TRUE(world.restore(cp));
  world.run_until(sim::milliseconds(80));
  const auto replayed = world.result();
  EXPECT_EQ(replayed.digest, full.digest);
  EXPECT_EQ(replayed.fault_trace, full.fault_trace);
  EXPECT_EQ(Traits::cell_digests(replayed), Traits::cell_digests(full));
  EXPECT_EQ(replayed.delivered, full.delivered);
  EXPECT_EQ(replayed.dead_drops, full.dead_drops);
}

template <class World>
void expect_restore_rejects_a_corrupted_checkpoint() {
  using Traits = CellWorldTraits<World>;
  World world(Traits::storm(1));
  world.run_until(sim::milliseconds(30));
  const CellCheckpoint good = world.checkpoint();

  CellCheckpoint bad = good;
  bad.world_digest ^= 1;
  EXPECT_FALSE(world.restore(bad));

  CellCheckpoint tampered = good;
  ASSERT_FALSE(tampered.engine.shards.empty());
  tampered.engine.shards[0].pending_digest ^= 1;
  EXPECT_FALSE(world.restore(tampered));

  // The genuine fingerprint still restores after the failed attempts.
  EXPECT_TRUE(world.restore(good));
}

}  // namespace efd::testbed
