#pragma once

// A split run through the shared CellWorld scaffold, written once as a
// function template. Each world's chaos suite specializes the traits and
// calls it from its own named test:
//
//   template <> struct CellWorldTraits<CampusWorld> { ... };
//   TEST(ChaosCampus, SplitRunReplaysTheUninterruptedDigests) {
//     expect_split_run_replays_the_uninterrupted_digests<CampusWorld>();
//   }
//
// The traits give the world's storm config (an 80 ms run with faults
// firing across the 40 ms split) and its per-cell digests.

#include <gtest/gtest.h>

#include "src/sim/time.hpp"

namespace efd::testbed {

template <class World>
struct CellWorldTraits;

template <class World>
void expect_split_run_replays_the_uninterrupted_digests() {
  using Traits = CellWorldTraits<World>;
  // Reference: one uninterrupted run through the full duration.
  World reference(Traits::storm(2));
  reference.run();
  const auto full = reference.result();

  // Split run: stop mid-storm and keep going — continuing from a quiescent
  // horizon must not perturb the timeline.
  World world(Traits::storm(2));
  world.run_until(sim::milliseconds(40));
  world.run_until(sim::milliseconds(80));
  const auto continued = world.result();
  EXPECT_EQ(continued.digest, full.digest);
  EXPECT_EQ(continued.fault_trace, full.fault_trace);
  EXPECT_EQ(Traits::cell_digests(continued), Traits::cell_digests(full));
  EXPECT_EQ(continued.delivered, full.delivered);
  EXPECT_EQ(continued.dead_drops, full.dead_drops);
}

}  // namespace efd::testbed
