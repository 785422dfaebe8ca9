// Edge cases of the slab-backed event engine (DESIGN.md §9): handle
// generations across slot reuse, lazy-tombstone cancellation, FIFO
// tie-breaks at scale, run_until boundary semantics, reset() sequencing, and
// the zero-steady-state-allocation contract (via the counting operator new
// in alloc_count.cpp, whose own over-aligned path is checked at the end).
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

#include "alloc_count.hpp"
#include "src/sim/inline_function.hpp"
#include "src/sim/simulator.hpp"

namespace efd::sim {
namespace {

// --- InlineFunction -------------------------------------------------------

TEST(InlineFunction, SmallCapturesAreStoredInline) {
  int x = 0;
  auto small = [&x] { ++x; };
  static_assert(EventFn::stores_inline<decltype(small)>);
  const testsupport::AllocationWindow window;
  EventFn fn(small);
  EXPECT_EQ(window.count(), 0u);
  fn();
  fn();
  EXPECT_EQ(x, 2);
}

// There is no heap fallback: a callable that outgrows the buffer, or whose
// move may throw, cannot become an EventFn, so scheduling it through
// `at`/`after` fails to compile at the call site.
template <typename F>
concept Schedulable = requires(Simulator& sim, F f) {
  sim.at(Time{}, std::move(f));
  sim.after(Time{}, std::move(f));
};

struct ThrowingMove {
  ThrowingMove() = default;
  ThrowingMove(const ThrowingMove&) = default;
  ThrowingMove(ThrowingMove&&) noexcept(false) {}
  void operator()() const {}
};

TEST(InlineFunction, OversizedOrThrowingMoveCapturesDoNotCompile) {
  struct Big {
    char data[96];
  };
  auto fat = [big = Big{}] { (void)big; };
  static_assert(!EventFn::stores_inline<decltype(fat)>);
  static_assert(!std::is_constructible_v<EventFn, decltype(fat)>);
  static_assert(!Schedulable<decltype(fat)>);

  static_assert(sizeof(ThrowingMove) <= EventFn::kCapacity);
  static_assert(!std::is_constructible_v<EventFn, ThrowingMove>);
  static_assert(!Schedulable<ThrowingMove>);

  auto small = [] {};
  static_assert(Schedulable<decltype(small)>);
}

TEST(InlineFunction, MoveTransfersTheCallable) {
  int x = 0;
  EventFn a([&x] { ++x; });
  EventFn b(std::move(a));
  EXPECT_FALSE(static_cast<bool>(a));
  EXPECT_TRUE(static_cast<bool>(b));
  b();
  EXPECT_EQ(x, 1);
  a = std::move(b);
  a();
  EXPECT_EQ(x, 2);
}

TEST(InlineFunction, DestructorReleasesTheCapture) {
  const auto token = std::make_shared<int>(42);
  {
    EventFn fn([token] {});
    EXPECT_EQ(token.use_count(), 2);
  }
  EXPECT_EQ(token.use_count(), 1);
}

// --- handle generations over slot reuse -----------------------------------

TEST(EventEngine, StaleHandleDoesNotCancelRecycledSlot) {
  Simulator sim;
  EventHandle stale = sim.at(seconds(1), [] {});
  sim.run();  // fires; the slot is freed and its generation advances
  EXPECT_FALSE(stale.pending());

  bool fired = false;
  EventHandle fresh = sim.at(seconds(2), [&] { fired = true; });
  stale.cancel();  // stale generation: must not touch the recycled slot
  EXPECT_TRUE(fresh.pending());
  sim.run();
  EXPECT_TRUE(fired);
}

TEST(EventEngine, StaleHandleAfterCancelCollectionIsInert) {
  Simulator sim;
  EventHandle a = sim.at(seconds(1), [] {});
  a.cancel();
  sim.run();  // collects the tombstone, freeing the slot

  int fired = 0;
  EventHandle b = sim.at(seconds(2), [&] { ++fired; });
  a.cancel();  // must not cancel b's event in the recycled slot
  EXPECT_TRUE(b.pending());
  sim.run();
  EXPECT_EQ(fired, 1);
}

TEST(EventEngine, CancelAfterFireIsIdempotent) {
  Simulator sim;
  int fired = 0;
  EventHandle h = sim.at(seconds(1), [&] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(h.pending());
  h.cancel();
  h.cancel();  // repeated cancels: no effect, no crash
  EXPECT_FALSE(h.pending());
  sim.run();
  EXPECT_EQ(fired, 1);
}

TEST(EventEngine, HandleToFiringEventIsInertInsideItsCallback) {
  Simulator sim;
  EventHandle h;
  bool was_pending = true;
  h = sim.at(seconds(1), [&] { was_pending = h.pending(); });
  sim.run();
  EXPECT_FALSE(was_pending);
}

// --- tombstones and slab accounting ---------------------------------------

TEST(EventEngine, CancelledEventsAreReapedNotDispatched) {
  Simulator sim;
  int fired = 0;
  std::vector<EventHandle> handles;
  for (int i = 0; i < 100; ++i) {
    handles.push_back(sim.at(seconds(1), [&] { ++fired; }));
  }
  for (int i = 0; i < 100; i += 2) handles[static_cast<std::size_t>(i)].cancel();
  EXPECT_EQ(sim.slab_occupancy(), 100u);  // tombstones still hold slots
  sim.run();
  EXPECT_EQ(fired, 50);
  EXPECT_EQ(sim.events_dispatched(), 50u);
  EXPECT_EQ(sim.slab_occupancy(), 0u);  // every slot reclaimed
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(EventEngine, SlabReusesSlotsInsteadOfGrowing) {
  Simulator sim;
  for (int round = 0; round < 10; ++round) {
    for (int i = 0; i < 8; ++i) {
      sim.after(nanoseconds(i + 1), [] {});
    }
    sim.run();
  }
  EXPECT_LE(sim.slab_capacity(), 8u);
}

// --- FIFO tie-break at scale ----------------------------------------------

TEST(EventEngine, TenThousandSameTimestampEventsFireFifo) {
  Simulator sim;
  std::vector<int> order;
  order.reserve(10000);
  for (int i = 0; i < 10000; ++i) {
    sim.at(seconds(1), [&order, i] { order.push_back(i); });
  }
  sim.run();
  ASSERT_EQ(order.size(), 10000u);
  for (int i = 0; i < 10000; ++i) {
    ASSERT_EQ(order[static_cast<std::size_t>(i)], i) << "FIFO broken at " << i;
  }
}

TEST(EventEngine, SameInstantFifoSurvivesInterleavedCancels) {
  Simulator sim;
  std::vector<int> order;
  std::vector<EventHandle> handles;
  for (int i = 0; i < 1000; ++i) {
    handles.push_back(sim.at(seconds(1), [&order, i] { order.push_back(i); }));
  }
  for (int i = 0; i < 1000; i += 3) handles[static_cast<std::size_t>(i)].cancel();
  sim.run();
  int expect = 0;
  std::size_t at = 0;
  for (int i = 0; i < 1000; ++i) {
    if (i % 3 == 0) continue;
    ASSERT_LT(at, order.size());
    EXPECT_EQ(order[at++], i) << "survivor order broken at " << expect;
    ++expect;
  }
  EXPECT_EQ(at, order.size());
}

// --- run_until boundary ----------------------------------------------------

TEST(EventEngine, RunUntilIsInclusiveOfTheBoundaryInstant) {
  Simulator sim;
  int fired = 0;
  sim.at(seconds(5), [&] { ++fired; });
  sim.at(seconds(5) + nanoseconds(1), [&] { ++fired; });
  sim.run_until(seconds(5));
  EXPECT_EQ(fired, 1);  // t == end fires, t == end + 1ns does not
  EXPECT_EQ(sim.now(), seconds(5));
  sim.run_until(seconds(6));
  EXPECT_EQ(fired, 2);
}

TEST(EventEngine, ClockRestsAtLastEventWhenQueueDrains) {
  Simulator sim;
  sim.at(seconds(3), [] {});
  sim.run_until(seconds(10));
  EXPECT_EQ(sim.now(), seconds(10));  // run_until pins the clock to end
  Simulator sim2;
  sim2.at(seconds(3), [] {});
  sim2.run();  // run() leaves the clock at the last dispatched event
  EXPECT_EQ(sim2.now(), seconds(3));
}

TEST(EventEngine, EventAtTheCurrentInstantFires) {
  Simulator sim;
  sim.run_until(seconds(2));
  bool fired = false;
  sim.at(sim.now(), [&] { fired = true; });
  sim.run_until(sim.now());
  EXPECT_TRUE(fired);
}

// --- reset() ---------------------------------------------------------------

TEST(EventEngine, ResetZeroesDispatchCountAndClock) {
  Simulator sim;
  sim.at(seconds(1), [] {});
  sim.at(seconds(2), [] {});
  sim.run();
  EXPECT_EQ(sim.events_dispatched(), 2u);
  sim.reset();
  EXPECT_EQ(sim.now(), Time{});
  EXPECT_EQ(sim.events_dispatched(), 0u);
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_EQ(sim.slab_occupancy(), 0u);
}

TEST(EventEngine, ResetSimulatorReplaysIdenticalEventOrderings) {
  // The ParallelRunner reuse contract: the same schedule replayed on a reset
  // simulator produces the same FIFO sequencing as a fresh one.
  const auto record_run = [](Simulator& sim) {
    std::vector<int> order;
    for (int i = 0; i < 32; ++i) {
      sim.at(seconds(i % 4), [&order, i] { order.push_back(i); });
    }
    sim.run();
    return order;
  };
  Simulator fresh;
  const std::vector<int> want = record_run(fresh);

  Simulator reused;
  reused.at(seconds(9), [] {});  // leave pending + dispatched state behind
  reused.at(seconds(1), [] {});
  reused.run_until(seconds(2));
  reused.reset();
  EXPECT_EQ(record_run(reused), want);
  EXPECT_EQ(reused.events_dispatched(), 32u);
}

TEST(EventEngine, HandlesFromBeforeResetAreInert) {
  Simulator sim;
  EventHandle pre = sim.at(seconds(5), [] {});
  sim.reset();
  EXPECT_FALSE(pre.pending());

  bool fired = false;
  EventHandle post = sim.at(seconds(1), [&] { fired = true; });
  pre.cancel();  // stale pre-reset handle must not cancel the new event
  EXPECT_TRUE(post.pending());
  sim.run();
  EXPECT_TRUE(fired);
}

// --- zero-allocation contract ---------------------------------------------

TEST(EventEngine, SteadyStateInlineScheduleDispatchIsAllocationFree) {
  Simulator sim;
  std::uint64_t ticks = 0;
  // Warm-up: grow the slab, heap vector, free list, and the obs shard /
  // metric-id statics outside the measured window.
  for (int i = 0; i < 256; ++i) {
    sim.after(nanoseconds(10 + i), [&ticks] { ++ticks; });
  }
  sim.run();

  const testsupport::AllocationWindow window;
  for (int round = 0; round < 100; ++round) {
    for (int i = 0; i < 64; ++i) {
      sim.after(nanoseconds(10 + i), [&ticks] { ++ticks; });
    }
    sim.run_until(sim.now() + nanoseconds(1000));
  }
  EXPECT_EQ(window.count(), 0u);
  EXPECT_EQ(ticks, 256u + 6400u);
}

TEST(EventEngine, SteadyStateCancelIsAllocationFree) {
  Simulator sim;
  // Warm-up covers the tombstone-reap path too, so the lazily registered
  // "sim.events_cancelled" metric id is resolved outside the window.
  for (int i = 0; i < 64; ++i) sim.after(nanoseconds(10), [] {});
  sim.after(nanoseconds(10), [] {}).cancel();
  sim.run();

  const testsupport::AllocationWindow window;
  for (int round = 0; round < 100; ++round) {
    EventHandle h = sim.after(nanoseconds(10), [] {});
    h.cancel();
    sim.run_until(sim.now() + nanoseconds(100));
  }
  EXPECT_EQ(window.count(), 0u);
}

// --- The counting fixture itself ---------------------------------------------

TEST(AllocationWindow, CountsOverAlignedAllocations) {
  // Over-aligned types go through operator new(size_t, align_val_t); the
  // counting fixture must see those too.
  struct alignas(64) Line {
    double v[8];
  };
  const testsupport::AllocationWindow window;
  const auto one = std::make_unique<Line>();
  const auto many = std::make_unique<Line[]>(3);
  EXPECT_EQ(window.count(), 2u);
  EXPECT_GE(window.bytes(), 4 * sizeof(Line));
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(one.get()) % alignof(Line), 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(many.get()) % alignof(Line), 0u);
}

}  // namespace
}  // namespace efd::sim
