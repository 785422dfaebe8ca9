// Diversity-combining tests: first-wins dedup at the tagged ReorderBuffer
// (the per-meter dedup testbed::NanWorld runs at each concentrator), its
// interplay with the gap timeout (a duplicate is not a straggler, and
// neither may leak to the app layer), and an allocation pin on the
// steady-state dedup path (via the counting operator new in
// alloc_count.cpp).
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "alloc_count.hpp"
#include "src/hybrid/reorder.hpp"

namespace efd::hybrid {
namespace {

using efd::testsupport::AllocationWindow;

/// Tagged-feed harness around one ReorderBuffer: records delivered
/// sequences and the winning tag of each delivery.
struct DedupHarness {
  explicit DedupHarness(sim::Simulator& sim, ReorderBuffer::Config cfg)
      : rb(sim, [this](const net::Packet& p, sim::Time) { out.push_back(p.seq); },
           cfg) {
    rb.set_win_listener(
        [this](const net::Packet& p, int tag) { wins.emplace_back(p.seq, tag); });
  }

  void feed(std::uint32_t seq, int tag, sim::Simulator& sim) {
    net::Packet p;
    p.seq = seq;
    rb.on_packet(p, sim.now(), tag);
    ++fed;
  }

  // Every fed copy must land in exactly one bucket — the accounting the
  // NanResult counters are built on.
  void expect_conservation() const {
    EXPECT_EQ(out.size() + rb.stragglers_dropped() + rb.duplicates_dropped() +
                  rb.buffered(),
              fed);
  }

  ReorderBuffer rb;
  std::vector<std::uint32_t> out;
  std::vector<std::pair<std::uint32_t, int>> wins;
  std::uint64_t fed = 0;
};

TEST(DiversityDedup, LateDuplicateAfterWinnerIsSuppressed) {
  // The losing copy of a duplicated packet arrives well after its winner
  // was delivered: suppressed as a duplicate, win reported exactly once,
  // with the tag of the medium that actually won.
  sim::Simulator sim;
  ReorderBuffer::Config cfg;
  cfg.hold_timeout = sim::milliseconds(10);
  DedupHarness h(sim, cfg);

  h.feed(0, /*tag=*/0, sim);
  sim.run_until(sim::milliseconds(15));  // warm-up done, 0 delivered
  ASSERT_EQ(h.out, (std::vector<std::uint32_t>{0}));
  h.feed(0, /*tag=*/1, sim);  // the slow medium's copy limps in
  EXPECT_EQ(h.out, (std::vector<std::uint32_t>{0}));
  EXPECT_EQ(h.rb.duplicates_dropped(), 1u);
  EXPECT_EQ(h.rb.stragglers_dropped(), 0u);
  ASSERT_EQ(h.wins.size(), 1u);
  EXPECT_EQ(h.wins[0], (std::pair<std::uint32_t, int>{0u, 0}));
  h.expect_conservation();
}

TEST(DiversityDedup, DuplicateStraddlingReorderGap) {
  // A duplicate arrives while its sequence is still *buffered* behind an
  // open reorder gap: it must be suppressed immediately (not buffered
  // twice), and when the gap later times out the buffered original is
  // delivered with the tag of the first-arriving copy. The packet lost in
  // the gap stays a straggler — the two drop reasons never blur.
  sim::Simulator sim;
  ReorderBuffer::Config cfg;
  cfg.hold_timeout = sim::milliseconds(10);
  DedupHarness h(sim, cfg);

  h.feed(0, /*tag=*/0, sim);
  sim.run_until(sim::milliseconds(15));  // locked, 0 delivered
  ASSERT_EQ(h.out, (std::vector<std::uint32_t>{0}));

  h.feed(2, /*tag=*/1, sim);  // gap at 1 starts blocking; 2 buffered (tag 1)
  h.feed(2, /*tag=*/0, sim);  // the other medium's copy, gap still open
  EXPECT_EQ(h.rb.duplicates_dropped(), 1u);
  EXPECT_EQ(h.rb.buffered(), 1u);  // one copy buffered, not two

  sim.run_until(sim.now() + sim::milliseconds(15));  // gap abandoned, 2 out
  ASSERT_EQ(h.out, (std::vector<std::uint32_t>{0, 2}));
  ASSERT_EQ(h.wins.size(), 2u);
  EXPECT_EQ(h.wins[1], (std::pair<std::uint32_t, int>{2u, 1}));  // first copy won

  h.feed(1, /*tag=*/0, sim);  // the gap packet finally arrives: straggler
  EXPECT_EQ(h.rb.stragglers_dropped(), 1u);
  EXPECT_EQ(h.rb.duplicates_dropped(), 1u);
  // The straggler's own duplicated copy: the abandoned entry was consumed
  // by the first late arrival, so the second copy is a duplicate *of the
  // straggler* — each abandoned sequence is charged exactly one straggler.
  h.feed(1, /*tag=*/1, sim);
  EXPECT_EQ(h.rb.stragglers_dropped(), 1u);
  EXPECT_EQ(h.rb.duplicates_dropped(), 2u);
  EXPECT_EQ(h.out, (std::vector<std::uint32_t>{0, 2}));
  h.expect_conservation();
}

TEST(DiversityDedup, ClearMidDuplicateForgetsDedupStateKeepsCounters) {
  // Adapter reset between a winner and its late loser: clear() wipes the
  // dedup state (the buffer relocks on whatever arrives next, so the stale
  // copy is delivered as a fresh flow start — documented semantics), while
  // the drop counters survive the reset for end-of-run accounting.
  sim::Simulator sim;
  ReorderBuffer::Config cfg;
  cfg.hold_timeout = sim::milliseconds(10);
  DedupHarness h(sim, cfg);

  h.feed(0, /*tag=*/0, sim);
  sim.run_until(sim::milliseconds(15));
  h.feed(0, /*tag=*/1, sim);  // suppressed: dedup state intact
  ASSERT_EQ(h.rb.duplicates_dropped(), 1u);

  h.rb.clear();

  h.feed(0, /*tag=*/1, sim);  // a third copy, post-reset: relocks warm-up
  sim.run_until(sim.now() + sim::milliseconds(30));
  EXPECT_EQ(h.out, (std::vector<std::uint32_t>{0, 0}));  // delivered again
  EXPECT_EQ(h.rb.duplicates_dropped(), 1u);  // counter survived the clear
  EXPECT_EQ(h.rb.stragglers_dropped(), 0u);
  ASSERT_EQ(h.wins.size(), 2u);
  EXPECT_EQ(h.wins[1], (std::pair<std::uint32_t, int>{0u, 1}));
  h.expect_conservation();
}

TEST(AllocationPins, SteadyStateDedupIsAllocationFree) {
  // The receive-side hot path under duplication: in-order winner delivered
  // through the fast path, losing copy suppressed by counter bump — no heap
  // traffic once the flow is locked.
  sim::Simulator sim;
  std::uint64_t delivered = 0;
  ReorderBuffer::Config cfg;
  cfg.hold_timeout = sim::milliseconds(10);
  ReorderBuffer rb(sim, [&](const net::Packet&, sim::Time) { ++delivered; }, cfg);
  std::uint64_t wins = 0;
  rb.set_win_listener([&](const net::Packet&, int) { ++wins; });

  net::Packet p;
  p.seq = 0;
  rb.on_packet(p, sim.now(), 0);
  sim.run_until(sim::milliseconds(15));  // warm-up locked, seq 0 delivered
  rb.on_packet(p, sim.now(), 1);  // warm the duplicate-drop path's lazy
  ASSERT_EQ(delivered, 1u);       // counter registration outside the window
  ASSERT_EQ(rb.duplicates_dropped(), 1u);

  AllocationWindow window;
  for (std::uint32_t s = 1; s <= 512; ++s) {
    p.seq = s;
    rb.on_packet(p, sim.now(), 0);  // winner: in-order fast path
    rb.on_packet(p, sim.now(), 1);  // loser: duplicate drop
  }
  EXPECT_EQ(window.count(), 0u) << window.bytes() << " bytes allocated";
  EXPECT_EQ(delivered, 513u);
  EXPECT_EQ(wins, 513u);
  EXPECT_EQ(rb.duplicates_dropped(), 513u);
}

}  // namespace
}  // namespace efd::hybrid
