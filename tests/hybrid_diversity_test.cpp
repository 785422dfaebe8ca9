// Diversity-combining tests: first-wins dedup at the tagged ReorderBuffer,
// its interplay with the gap timeout (a duplicate is not a straggler, and
// neither may leak to the app layer), per-flow mode selection on the
// HybridDevice, and allocation pins on the steady-state duplication path
// (via the counting operator new in alloc_count.cpp).
#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "alloc_count.hpp"
#include "src/hybrid/device.hpp"
#include "src/net/meters.hpp"

namespace efd::hybrid {
namespace {

using efd::testsupport::AllocationWindow;

/// Interface stub delivering packets after a fixed latency — two of these
/// with different latencies make a deterministic fast/slow medium pair.
class PipeInterface final : public net::Interface {
 public:
  PipeInterface(sim::Simulator& sim, sim::Time latency) : sim_(sim), latency_(latency) {}

  bool enqueue(const net::Packet& p) override {
    ++enqueued_;
    sim_.after(latency_, [this, p] {
      if (rx_) rx_(p, sim_.now());
    });
    return true;
  }
  [[nodiscard]] std::size_t queue_length() const override { return 0; }
  void set_rx_handler(RxHandler handler) override { rx_ = std::move(handler); }

  std::uint64_t enqueued_ = 0;

 private:
  sim::Simulator& sim_;
  sim::Time latency_;
  RxHandler rx_;
};

/// Sink stub that accepts (and counts) everything without scheduling or
/// allocating — for pinning the tx-side duplication path.
class SinkInterface final : public net::Interface {
 public:
  bool enqueue(const net::Packet&) override {
    ++enqueued_;
    return true;
  }
  [[nodiscard]] std::size_t queue_length() const override { return 0; }
  void set_rx_handler(RxHandler) override {}

  std::uint64_t enqueued_ = 0;
};

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

TEST(HybridDevice, DiversityDuplicatesEveryPacketAndFastMediumWins) {
  sim::Simulator sim;
  PipeInterface fast(sim, sim::milliseconds(2));
  PipeInterface slow(sim, sim::milliseconds(8));
  HybridDevice tx(sim, {&fast, &slow},
                  std::make_unique<CapacityScheduler>(sim::Rng{7}));
  tx.set_capacities({80.0, 20.0});
  tx.set_default_mode(SplitMode::kDiversity);

  HybridDevice rx(sim, {&fast, &slow}, std::make_unique<RoundRobinScheduler>(2));
  net::OrderMeter order;
  std::uint64_t delivered = 0;
  rx.set_rx_handler([&](const net::Packet& p, sim::Time t) {
    order.on_packet(p, t);
    ++delivered;
  });
  rx.start_receiving();

  constexpr std::uint32_t kPackets = 300;
  constexpr std::uint32_t kBytes = 400;
  net::Packet p;
  p.size_bytes = kBytes;
  for (std::uint32_t s = 0; s < kPackets; ++s) {
    p.seq = s;
    p.created = sim.now();
    tx.enqueue(p);
    sim.run_until(sim.now() + sim::microseconds(100.0));
  }
  sim.run_until(sim.now() + sim::seconds(1));

  // Exactly one app-layer delivery per sequence, in order.
  EXPECT_EQ(delivered, kPackets);
  EXPECT_EQ(order.out_of_order(), 0u);
  // Both members carried the full flow; everything past the first copy is
  // accounted as redundancy spend.
  EXPECT_EQ(tx.sent_per_interface(0), kPackets);
  EXPECT_EQ(tx.sent_per_interface(1), kPackets);
  EXPECT_EQ(tx.diversity_dup_packets(), kPackets);
  EXPECT_EQ(tx.diversity_dup_bytes(), std::uint64_t{kPackets} * kBytes);
  // The 2 ms pipe wins every race against the 8 ms pipe; each losing copy
  // is suppressed before the app layer.
  EXPECT_EQ(rx.wins(0), kPackets);
  EXPECT_EQ(rx.wins(1), 0u);
  EXPECT_EQ(rx.suppressed_copies(), kPackets);
}

TEST(HybridDevice, SlowMediumWinCountedWhenFastCopyLoses) {
  // Flip the latencies mid-flow cheaply: send one packet where only the
  // "slow" member gets it first by making interface 1 the faster pipe.
  sim::Simulator sim;
  PipeInterface a(sim, sim::milliseconds(9));
  PipeInterface b(sim, sim::milliseconds(1));
  HybridDevice tx(sim, {&a, &b}, std::make_unique<RoundRobinScheduler>(2));
  tx.set_default_mode(SplitMode::kDiversity);
  HybridDevice rx(sim, {&a, &b}, std::make_unique<RoundRobinScheduler>(2));
  std::uint64_t delivered = 0;
  rx.set_rx_handler([&](const net::Packet&, sim::Time) { ++delivered; });
  rx.start_receiving();

  net::Packet p;
  for (std::uint32_t s = 0; s < 50; ++s) {
    p.seq = s;
    tx.enqueue(p);
    sim.run_until(sim.now() + sim::milliseconds(20));
  }
  sim.run_until(sim.now() + sim::seconds(1));
  EXPECT_EQ(delivered, 50u);
  EXPECT_EQ(rx.wins(0), 0u);
  EXPECT_EQ(rx.wins(1), 50u);
  EXPECT_EQ(rx.suppressed_copies(), 50u);
}

TEST(HybridDevice, PerFlowModeSelectsDuplicationAgainstLoadBalance) {
  // Duplication and load balancing coexist on one device, selected by flow
  // id: flow 7 is reliability-first (duplicated), everything else rides the
  // capacity split with a single copy.
  sim::Simulator sim;
  SinkInterface s0;
  SinkInterface s1;
  HybridDevice tx(sim, {&s0, &s1}, std::make_unique<RoundRobinScheduler>(2));
  tx.set_flow_mode(7, SplitMode::kDiversity);
  EXPECT_EQ(tx.mode_for(7), SplitMode::kDiversity);
  EXPECT_EQ(tx.mode_for(3), SplitMode::kLoadBalance);

  net::Packet p;
  p.size_bytes = 100;
  std::uint32_t seq = 0;
  for (int i = 0; i < 40; ++i) {
    p.flow_id = (i % 2 == 0) ? 7 : 3;
    p.seq = seq++;
    tx.enqueue(p);
  }
  // 20 duplicated packets (2 copies each) + 20 single copies.
  EXPECT_EQ(s0.enqueued_ + s1.enqueued_, 20u * 2 + 20u);
  EXPECT_EQ(tx.diversity_dup_packets(), 20u);
  EXPECT_EQ(tx.diversity_dup_bytes(), 20u * 100u);
  // The load-balance half alternated round-robin: 10 per member, plus the
  // 20 duplicated copies each member always gets.
  EXPECT_EQ(s0.enqueued_, 30u);
  EXPECT_EQ(s1.enqueued_, 30u);
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

TEST(AllocationPins, SteadyStateDuplicationTxIsAllocationFree) {
  // The send-side hot path: per-packet fan-out to every member plus the
  // redundancy accounting must not touch the heap.
  sim::Simulator sim;
  SinkInterface s0;
  SinkInterface s1;
  HybridDevice tx(sim, {&s0, &s1}, std::make_unique<RoundRobinScheduler>(2));
  tx.set_default_mode(SplitMode::kDiversity);
  net::Packet p;
  p.size_bytes = 256;
  p.seq = 0;
  tx.enqueue(p);  // warm any lazy init outside the window

  AllocationWindow window;
  for (std::uint32_t s = 1; s <= 512; ++s) {
    p.seq = s;
    tx.enqueue(p);
  }
  EXPECT_EQ(window.count(), 0u) << window.bytes() << " bytes allocated";
  EXPECT_EQ(tx.diversity_dup_packets(), 513u);
  EXPECT_EQ(s0.enqueued_, 513u);
  EXPECT_EQ(s1.enqueued_, 513u);
}

}  // namespace
}  // namespace efd::hybrid
