// efd::core::Arena + ArenaAllocator: bump semantics, chunk growth, reset()
// reuse, the heap-escape rules containers rely on, and the zero-alloc pin on
// arena-backed scenario churn (the property the proptest sweep's per-task
// arenas exist for). The counting operator new comes from alloc_count.cpp.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "alloc_count.hpp"
#include "src/core/arena.hpp"
#include "src/testkit/scenario.hpp"

namespace efd {
namespace {

TEST(ArenaTest, AllocationsAreAlignedAndDistinct) {
  core::Arena arena;
  void* a = arena.allocate(3, 1);
  void* b = arena.allocate(8, 8);
  void* c = arena.allocate(16, 64);
  EXPECT_NE(a, nullptr);
  EXPECT_NE(a, b);
  EXPECT_NE(b, c);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b) % 8, 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(c) % 64, 0u);
  EXPECT_GE(arena.bytes_used(), 3u + 8u + 16u);
}

TEST(ArenaTest, ZeroSizeAllocationsYieldDistinctPointers) {
  core::Arena arena;
  void* a = arena.allocate(0, 1);
  void* b = arena.allocate(0, 1);
  EXPECT_NE(a, b);
}

TEST(ArenaTest, ChunksDoubleAndOversizeRequestsGetTheirOwnChunk) {
  core::Arena arena(1024);
  (void)arena.allocate(512, 1);
  EXPECT_EQ(arena.chunk_count(), 1u);
  (void)arena.allocate(1024, 1);  // spills into a second, doubled chunk
  EXPECT_EQ(arena.chunk_count(), 2u);
  // A request larger than the next chunk size still succeeds in one piece.
  void* big = arena.allocate(1 << 20, 64);
  EXPECT_NE(big, nullptr);
  EXPECT_GE(arena.bytes_reserved(), (1u << 20));
}

TEST(ArenaTest, ResetReusesChunksWithZeroHeapTraffic) {
  core::Arena arena;
  // Warm-up: force several chunks into existence.
  for (int i = 0; i < 8; ++i) (void)arena.allocate(48 * 1024, 8);
  const std::size_t reserved = arena.bytes_reserved();
  const std::size_t chunks = arena.chunk_count();

  const testsupport::AllocationWindow window;
  for (int round = 0; round < 10; ++round) {
    arena.reset();
    EXPECT_EQ(arena.bytes_used(), 0u);
    for (int i = 0; i < 8; ++i) (void)arena.allocate(48 * 1024, 8);
  }
  EXPECT_EQ(window.count(), 0u);
  EXPECT_EQ(window.bytes(), 0u);
  EXPECT_EQ(arena.bytes_reserved(), reserved);
  EXPECT_EQ(arena.chunk_count(), chunks);
}

TEST(ArenaAllocatorTest, VectorGrowsOnArenaNotHeap) {
  core::Arena arena;
  std::vector<int, core::ArenaAllocator<int>> v{
      core::ArenaAllocator<int>(arena)};
  // Warm the arena past this vector's eventual footprint.
  (void)arena.allocate(1 << 16, 8);
  arena.reset();
  const testsupport::AllocationWindow window;
  for (int i = 0; i < 1000; ++i) v.push_back(i);
  EXPECT_EQ(window.count(), 0u);
  EXPECT_EQ(v.get_allocator().arena(), &arena);
}

TEST(ArenaAllocatorTest, DefaultConstructedFallsBackToHeap) {
  std::vector<int, core::ArenaAllocator<int>> v;
  const testsupport::AllocationWindow window;
  for (int i = 0; i < 100; ++i) v.push_back(i);
  EXPECT_GT(window.count(), 0u);
  EXPECT_EQ(v.get_allocator().arena(), nullptr);
}

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

TEST(ArenaAllocatorTest, CopiesEscapeToHeapAndSurviveReset) {
  core::Arena arena;
  std::vector<int, core::ArenaAllocator<int>> on_arena{
      core::ArenaAllocator<int>(arena)};
  for (int i = 0; i < 64; ++i) on_arena.push_back(i);

  auto copy = on_arena;  // select_on_container_copy_construction -> heap
  EXPECT_EQ(copy.get_allocator().arena(), nullptr);
  arena.reset();
  (void)arena.allocate(4096, 8);  // scribble over the old storage region
  ASSERT_EQ(copy.size(), 64u);
  EXPECT_EQ(copy[0], 0);
  EXPECT_EQ(copy[63], 63);
}

TEST(ArenaAllocatorTest, MovesKeepTheArenaBinding) {
  core::Arena arena;
  std::vector<int, core::ArenaAllocator<int>> v{
      core::ArenaAllocator<int>(arena)};
  v.push_back(7);
  auto moved = std::move(v);
  EXPECT_EQ(moved.get_allocator().arena(), &arena);
  EXPECT_EQ(moved.at(0), 7);
}

TEST(ArenaAllocatorTest, EqualityComparesTheArena) {
  core::Arena a;
  core::Arena b;
  const core::ArenaAllocator<int> on_a{a};
  const core::ArenaAllocator<int> on_a2{a};
  const core::ArenaAllocator<int> on_b{b};
  const core::ArenaAllocator<int> heap1;
  const core::ArenaAllocator<int> heap2;
  EXPECT_TRUE(on_a == on_a2);
  EXPECT_FALSE(on_a == on_b);
  EXPECT_TRUE(heap1 == heap2);
  EXPECT_FALSE(on_a == heap1);
}

TEST(ArenaScenarioTest, ArenaBackedGenerationMatchesHeapGeneration) {
  const testkit::ScenarioGen gen(0x5eedULL);
  core::Arena arena;
  for (std::uint64_t i = 0; i < 16; ++i) {
    const testkit::Scenario heap = gen.generate(i);
    testkit::Scenario on_arena(arena);
    gen.generate_into(i, on_arena);
    EXPECT_EQ(heap.describe(), on_arena.describe()) << "index " << i;
    arena.reset();
  }
}

TEST(ArenaScenarioTest, ScenarioChurnIsHeapFreeAfterWarmup) {
  // The acceptance pin: the proptest sweep's per-task build/tear-down of
  // Scenario graphs performs zero heap allocations once the worker's arena
  // has grown to the high-water mark (ParallelRunner resets it per task).
  const testkit::ScenarioGen gen(0xc0ffeeULL);
  constexpr std::uint64_t kScenarios = 64;
  core::Arena arena;
  const auto churn = [&gen, &arena] {  // the ParallelRunner per-task pattern
    for (std::uint64_t i = 0; i < kScenarios; ++i) {
      arena.reset();
      testkit::Scenario s(arena);
      gen.generate_into(i, s);
    }
  };
  churn();  // warm-up: grow the arena to the sweep's high-water mark

  const testsupport::AllocationWindow window;
  churn();
  EXPECT_EQ(window.count(), 0u);
  EXPECT_EQ(window.bytes(), 0u);
}

}  // namespace
}  // namespace efd
