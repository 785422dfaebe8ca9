// The sharded conservative engine (DESIGN.md §14): hardened EFD_SHARDS /
// EFD_BENCH_THREADS parsing, advance_to clock discipline, boundary-event
// FIFO and grouping-invariant delivery order on toy cells, campus digest
// equality across shard counts, and the per-shard
// zero-steady-state-allocation pin (via the counting operator new in
// alloc_count.cpp).
#include <gtest/gtest.h>

#include <cstdlib>
#include <functional>
#include <stdexcept>
#include <thread>
#include <tuple>
#include <vector>

#include "alloc_count.hpp"
#include "src/core/env.hpp"
#include "src/sim/sharded.hpp"
#include "src/sim/simulator.hpp"
#include "src/testbed/campus.hpp"
#include "src/testbed/parallel_runner.hpp"

namespace efd::sim {
namespace {

// --- Environment parsing --------------------------------------------------

class EnvGuard {
 public:
  explicit EnvGuard(const char* name) : name_(name) { ::unsetenv(name); }
  ~EnvGuard() { ::unsetenv(name_); }
  void set(const char* value) { ::setenv(name_, value, 1); }

 private:
  const char* name_;
};

TEST(EnvCount, FallbackOnUnsetEmptyAndGarbage) {
  EnvGuard env("EFD_TEST_COUNT");
  EXPECT_EQ(core::env_count("EFD_TEST_COUNT", 7), 7);
  env.set("");
  EXPECT_EQ(core::env_count("EFD_TEST_COUNT", 7), 7);
  env.set("   ");
  EXPECT_EQ(core::env_count("EFD_TEST_COUNT", 7), 7);
  env.set("abc");
  EXPECT_EQ(core::env_count("EFD_TEST_COUNT", 7), 7);
  env.set("12junk");
  EXPECT_EQ(core::env_count("EFD_TEST_COUNT", 7), 7);
  env.set("0");
  EXPECT_EQ(core::env_count("EFD_TEST_COUNT", 7), 7);
  env.set("-3");
  EXPECT_EQ(core::env_count("EFD_TEST_COUNT", 7), 7);
  env.set("999999999999999999999");  // overflows long
  EXPECT_EQ(core::env_count("EFD_TEST_COUNT", 7), 7);
}

TEST(EnvCount, ParsesAndClamps) {
  EnvGuard env("EFD_TEST_COUNT");
  env.set("12");
  EXPECT_EQ(core::env_count("EFD_TEST_COUNT", 7), 12);
  env.set(" 7 ");  // surrounding whitespace is fine
  EXPECT_EQ(core::env_count("EFD_TEST_COUNT", 1), 7);
  env.set("50000");
  EXPECT_EQ(core::env_count("EFD_TEST_COUNT", 1, 1024), 1024);
}

TEST(EnvCount, ShardAndThreadKnobsAreHardened) {
  {
    EnvGuard env("EFD_SHARDS");
    EXPECT_EQ(ShardedSimulator::env_shards(3), 3);
    env.set("8");
    EXPECT_EQ(ShardedSimulator::env_shards(1), 8);
    env.set("not-a-number");
    EXPECT_EQ(ShardedSimulator::env_shards(1), 1);
    env.set("4096");
    EXPECT_EQ(ShardedSimulator::env_shards(1), 1024);
  }
  {
    EnvGuard env("EFD_BENCH_THREADS");
    EXPECT_EQ(testbed::ParallelRunner::env_threads(), 0);
    env.set("");
    EXPECT_EQ(testbed::ParallelRunner::env_threads(), 0);
    env.set("-2");
    EXPECT_EQ(testbed::ParallelRunner::env_threads(), 0);
    env.set("6");
    EXPECT_EQ(testbed::ParallelRunner::env_threads(), 6);
  }
}

// --- advance_to -----------------------------------------------------------

TEST(AdvanceTo, MovesClockWithoutDispatching) {
  Simulator sim;
  int fired = 0;
  sim.after(nanoseconds(100), [&fired] { ++fired; });
  sim.advance_to(Time{50});
  EXPECT_EQ(sim.now().ns(), 50);
  EXPECT_EQ(fired, 0);
  // The pending event still fires at its own time afterwards.
  sim.run_until(Time{100});
  EXPECT_EQ(fired, 1);
}

TEST(AdvanceTo, ReapsTombstonesOnTheWay) {
  Simulator sim;
  EventHandle h = sim.after(nanoseconds(10), [] {});
  h.cancel();
  sim.after(nanoseconds(100), [] {});
  sim.advance_to(Time{60});
  EXPECT_EQ(sim.now().ns(), 60);
  EXPECT_EQ(sim.pending_events(), 1u);  // the cancelled one was collected
}

TEST(AdvanceTo, LandingExactlyOnAPendingEventIsAllowed) {
  Simulator sim;
  int fired = 0;
  sim.after(nanoseconds(100), [&fired] { ++fired; });
  sim.advance_to(Time{100});
  EXPECT_EQ(sim.now().ns(), 100);
  EXPECT_EQ(fired, 0);
  sim.run_until(Time{100});
  EXPECT_EQ(fired, 1);
}

// --- Toy cells: ordering and determinism ----------------------------------

/// A ring of N cells. Each cell ticks every 500us, forwarding a counter to
/// its right neighbor; arrivals hop `kHops` times before dying. Everything
/// observable lands in per-cell logs.
struct ToyRing {
  static constexpr int kHops = 3;

  explicit ToyRing(int n_cells, int n_shards, std::int64_t lookahead_ns = 1'000'000)
      : n(n_cells) {
    ShardedSimulator::Config cfg;
    cfg.n_cells = n_cells;
    cfg.n_shards = n_shards;
    for (int c = 0; c < n_cells; ++c) {
      cfg.links.push_back({c, (c + 1) % n_cells, Time{lookahead_ns}});
    }
    engine = std::make_unique<ShardedSimulator>(std::move(cfg));
    logs.resize(static_cast<std::size_t>(n_cells));
    counters.assign(static_cast<std::size_t>(n_cells), 0);
    for (int c = 0; c < n_cells; ++c) {
      logs[static_cast<std::size_t>(c)].reserve(4096);
      engine->set_cell_handler(c, [this, c](const BoundaryEvent& e, Simulator& sim) {
        EXPECT_EQ(sim.now().ns(), e.t_ns);  // handler runs at delivery time
        logs[static_cast<std::size_t>(c)].push_back({e.t_ns, e.src_cell, e.a});
        if (e.kind + 1 < kHops) {
          BoundaryEvent f = e;
          f.src_cell = c;
          f.dst_cell = (c + 1) % n;
          f.kind = e.kind + 1;
          f.t_ns = sim.now().ns() + 1'000'000;
          engine->post(f);
        }
      });
      schedule_tick(c);
    }
  }

  void schedule_tick(int c) {
    engine->cell_sim(c).after(microseconds(500), [this, c] {
      Simulator& sim = engine->cell_sim(c);
      const std::uint64_t v = ++counters[static_cast<std::size_t>(c)];
      logs[static_cast<std::size_t>(c)].push_back({sim.now().ns(), -1, v});
      BoundaryEvent e;
      e.t_ns = sim.now().ns() + 1'000'000;
      e.src_cell = c;
      e.dst_cell = (c + 1) % n;
      e.a = v;
      engine->post(e);
      schedule_tick(c);
    });
  }

  /// All logs concatenated in cell order: the grouping-invariant trace.
  [[nodiscard]] std::vector<std::tuple<std::int64_t, int, std::uint64_t>> trace() const {
    std::vector<std::tuple<std::int64_t, int, std::uint64_t>> all;
    for (const auto& log : logs) all.insert(all.end(), log.begin(), log.end());
    return all;
  }

  int n;
  std::unique_ptr<ShardedSimulator> engine;
  std::vector<std::vector<std::tuple<std::int64_t, int, std::uint64_t>>> logs;
  std::vector<std::uint64_t> counters;
};

TEST(ShardedSimulator, DeliveryOrderIsIdenticalAcrossShardCounts) {
  std::vector<std::tuple<std::int64_t, int, std::uint64_t>> reference;
  std::uint64_t reference_events = 0;
  for (const int shards : {1, 2, 3, 6}) {
    ToyRing ring(6, shards);
    EXPECT_EQ(ring.engine->n_shards(), shards);
    ring.engine->run_until(milliseconds(50));
    const auto trace = ring.trace();
    ASSERT_FALSE(trace.empty());
    if (shards == 1) {
      reference = trace;
      reference_events = ring.engine->events_dispatched();
    } else {
      EXPECT_EQ(trace, reference) << "shards=" << shards;
      EXPECT_EQ(ring.engine->events_dispatched(), reference_events);
    }
  }
}

TEST(ShardedSimulator, ArrivalsArePerLinkFifo) {
  ToyRing ring(4, 2);
  ring.engine->run_until(milliseconds(40));
  // Within one cell's log, arrivals from a fixed source must appear in
  // nondecreasing timestamp order (mailbox FIFO + merge order).
  for (int c = 0; c < ring.n; ++c) {
    std::int64_t last_arrival = -1;
    for (const auto& [t, src, v] : ring.logs[static_cast<std::size_t>(c)]) {
      if (src < 0) continue;  // local tick
      EXPECT_GE(t, last_arrival);
      last_arrival = t;
    }
  }
  const auto& stats = ring.engine->shard_stats();
  std::uint64_t posted = 0;
  std::uint64_t delivered = 0;
  for (const auto& s : stats) {
    posted += s.boundary_posted;
    delivered += s.boundary_delivered;
  }
  EXPECT_GT(posted, 0u);
  // Everything posted for delivery inside the run must have been delivered
  // (the last window of each shard extends through end).
  EXPECT_GT(delivered, 0u);
  EXPECT_LE(delivered, posted);
}

TEST(ShardedSimulator, RepeatedRunsContinueTheTimeline) {
  ToyRing a(4, 2);
  a.engine->run_until(milliseconds(20));
  a.engine->run_until(milliseconds(40));
  ToyRing b(4, 2);
  b.engine->run_until(milliseconds(40));
  EXPECT_EQ(a.trace(), b.trace());
}

TEST(ShardedSimulator, SteadyStateWindowsAreAllocationFree) {
  // n_shards == 1 runs the identical window protocol inline on this
  // thread, so the counting allocator sees exactly the engine's work.
  ToyRing ring(2, 1);
  for (auto& log : ring.logs) log.reserve(1 << 16);
  // Warm-up: past the second mailbox chunk (256 events each), so chunk
  // recycling has a spare in the free list; slab and metric ids warm too.
  ring.engine->run_until(milliseconds(400));
  const testsupport::AllocationWindow window;
  ring.engine->run_until(milliseconds(460));
  EXPECT_EQ(window.count(), 0u);
}

// --- Mailbox counters and freelist recycling -------------------------------

TEST(ShardMailbox, CountersTrackOccupancyAndPeak) {
  ShardMailbox m;
  BoundaryEvent e;
  for (int i = 0; i < 3; ++i) {
    e.t_ns = i;
    m.push(e);
  }
  EXPECT_EQ(m.occupancy(), 3u);
  EXPECT_EQ(m.peak_occupancy(), 3u);
  ASSERT_NE(m.peek(), nullptr);
  m.pop();
  ASSERT_NE(m.peek(), nullptr);
  m.pop();
  EXPECT_EQ(m.occupancy(), 1u);
  EXPECT_EQ(m.peak_occupancy(), 3u);  // high-water sticks
}

TEST(ShardMailbox, FreelistRecyclesChunksUnderBoundaryChurn) {
  ShardMailbox m;
  BoundaryEvent e;
  // Lockstep push/pop across several chunk boundaries warms the free list
  // (and the free-list vector's capacity).
  const int kChunk = static_cast<int>(ShardMailbox::kChunkEvents);
  for (int i = 0; i < kChunk * 3; ++i) {
    e.t_ns = i;
    m.push(e);
    ASSERT_NE(m.peek(), nullptr);
    m.pop();
  }
  // Steady state: every chunk the producer needs comes back from the
  // recycler — churn across four more boundaries allocates nothing.
  const testsupport::AllocationWindow window;
  for (int i = 0; i < kChunk * 4; ++i) {
    e.t_ns = i;
    m.push(e);
    ASSERT_NE(m.peek(), nullptr);
    m.pop();
  }
  EXPECT_EQ(window.count(), 0u);
  EXPECT_EQ(m.occupancy(), 0u);
}

// --- Watchdog and exception drain ------------------------------------------

TEST(ShardedSimulator, WatchdogAbortsADeliberatelyStalledShard) {
  // One cell wedges (spinning until told to abort) on both the inline
  // 1-shard path and a 2-shard worker pool: the watchdog must detect the
  // missing progress and fail the run instead of hanging forever.
  for (const int shards : {1, 2}) {
    ShardedSimulator::Config cfg;
    cfg.n_cells = 2;
    cfg.n_shards = shards;
    cfg.links.push_back({0, 1, Time{1'000'000}});
    cfg.links.push_back({1, 0, Time{1'000'000}});
    cfg.watchdog.budget_ns = 100'000'000;  // 100 ms of wall-clock silence
    ShardedSimulator engine(std::move(cfg));
    engine.set_cell_handler(0, [](const BoundaryEvent&, Simulator&) {});
    engine.set_cell_handler(1, [](const BoundaryEvent&, Simulator&) {});
    engine.cell_sim(0).after(milliseconds(1), [&engine] {
      while (!engine.abort_requested()) std::this_thread::yield();
    });
    EXPECT_THROW(engine.run_until(milliseconds(10)), ShardStallError)
        << "shards=" << shards;
  }
}

TEST(ShardedSimulator, CellExceptionPropagatesWithoutHanging) {
  ToyRing ring(8, 4);
  ring.engine->cell_sim(3).after(milliseconds(5), [] {
    throw std::runtime_error("mid-storm cell failure");
  });
  // The throwing shard publishes a drain horizon, the other three finish
  // their windows, and run_until rethrows the first cell exception.
  EXPECT_THROW(ring.engine->run_until(milliseconds(50)), std::runtime_error);
}

// --- Mailbox bound ----------------------------------------------------------

/// Two cells on two shards, one link each way with lookahead L; each cell
/// posts to the other every T. Returns the peak mailbox occupancy of a run
/// through `end`.
std::uint64_t ping_pong_peak(Time lookahead, Time period, Time end) {
  ShardedSimulator::Config cfg;
  cfg.n_cells = 2;
  cfg.n_shards = 2;
  cfg.links = {{0, 1, lookahead}, {1, 0, lookahead}};
  ShardedSimulator engine(std::move(cfg));
  std::uint64_t delivered[2] = {0, 0};
  std::function<void(int)> tick = [&](int c) {
    engine.cell_sim(c).after(period, [&, c] {
      BoundaryEvent e;
      e.src_cell = c;
      e.dst_cell = 1 - c;
      e.t_ns = (engine.cell_sim(c).now() + lookahead).ns();
      engine.post(e);
      tick(c);
    });
  };
  for (int c = 0; c < 2; ++c) {
    engine.set_cell_handler(c, [&delivered, c](const BoundaryEvent&, Simulator&) {
      ++delivered[c];
    });
    tick(c);
  }
  engine.run_until(end);
  // Every post due by `end` arrived.
  const auto due = static_cast<std::uint64_t>((end - lookahead) / period);
  EXPECT_EQ(delivered[0], due);
  EXPECT_EQ(delivered[1], due);
  return engine.mailbox_peak_occupancy();
}

TEST(ShardedSimulator, ConservativeSyncBoundsMailboxOccupancy) {
  // A consumer at horizon H has popped every event due before H, so an
  // unconsumed event on the link into it is due at t >= H and was posted
  // at s = t - L >= H - L. Its producer's window target is at most
  // H + L (the reverse link's lookahead over the consumer's horizon), so
  // s < H + L. Unconsumed posts were therefore made within 2L of the
  // consumer's horizon: at most ceil(2L/T) of them (floor + 1 below),
  // whatever the run's length.
  const Time lookahead = milliseconds(1);
  const Time period = microseconds(100);
  const std::uint64_t bound =
      static_cast<std::uint64_t>(2 * lookahead.ns() / period.ns()) + 1;
  const std::uint64_t peak = ping_pong_peak(lookahead, period, milliseconds(50));
  EXPECT_GT(peak, 0u);
  EXPECT_LE(peak, bound);
  // Memory stays bounded rather than growing with the run.
  EXPECT_LE(ping_pong_peak(lookahead, period, milliseconds(500)), bound);
}

// --- Campus: digest invariance ---------------------------------------------

testbed::CampusRunConfig small_campus(int n_shards) {
  testbed::CampusRunConfig cfg;
  cfg.campus.n_outlets = 60;
  cfg.campus.outlets_per_board = 12;  // 5 boards
  cfg.campus.stations_per_board = 3;
  cfg.campus.boards_per_building = 3;
  cfg.campus.seed = 42;
  cfg.n_shards = n_shards;
  cfg.duration = milliseconds(80);
  cfg.p_remote = 0.4;
  return cfg;
}

TEST(Campus, DigestIsInvariantAcrossShardCounts) {
  const testbed::CampusResult r1 = testbed::run_campus(small_campus(1));
  ASSERT_GT(r1.events, 0u);
  ASSERT_GT(r1.delivered, 0u);
  ASSERT_GT(r1.packets_remote, 0u);
  ASSERT_GT(r1.boundary_posted, 0u);
  for (const int shards : {2, 5}) {
    const testbed::CampusResult r = testbed::run_campus(small_campus(shards));
    EXPECT_EQ(r.digest, r1.digest) << "shards=" << shards;
    EXPECT_EQ(r.events, r1.events) << "shards=" << shards;
    EXPECT_EQ(r.delivered, r1.delivered) << "shards=" << shards;
    EXPECT_EQ(r.boundary_posted, r1.boundary_posted) << "shards=" << shards;
    EXPECT_EQ(r.n_shards, shards);
  }
}

TEST(Campus, ShardStatsAccountForEveryEvent) {
  testbed::CampusWorld world(small_campus(2));
  world.run();
  const testbed::CampusResult r = world.result();
  std::uint64_t by_shard = 0;
  for (const auto& s : r.shards) by_shard += s.events_dispatched;
  EXPECT_EQ(by_shard, r.events);
  EXPECT_GE(r.load_balance, 1.0);
}

}  // namespace
}  // namespace efd::sim
