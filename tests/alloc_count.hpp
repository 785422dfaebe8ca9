#pragma once

// Shared counting-allocator fixture for allocation-regression tests:
// tests/alloc_count.cpp replaces the global operator new/delete (the
// over-aligned forms included) with versions that count every heap
// allocation in the process, so a test can pin a code path to zero (or N)
// allocations. Register a test that includes this header with
// `efd_test(<name> ALLOC_COUNT)`; that links the replacement, and the
// counters below, into its binary. Without it the counters are undefined
// and the test does not link.

#include <atomic>
#include <cstdint>

namespace efd::testsupport {

/// Heap allocations since process start (every operator new, any thread).
extern std::atomic<std::uint64_t> g_allocations;

/// Bytes requested from operator new since process start (requested, not
/// rounded-up — enough to pin "how much" as well as "how often").
extern std::atomic<std::uint64_t> g_allocated_bytes;

/// Allocations performed while an instance is alive. Construct, run the code
/// under test, then read `count()` / `bytes()`.
class AllocationWindow {
 public:
  AllocationWindow()
      : start_(g_allocations.load()), start_bytes_(g_allocated_bytes.load()) {}
  [[nodiscard]] std::uint64_t count() const {
    return g_allocations.load() - start_;
  }
  [[nodiscard]] std::uint64_t bytes() const {
    return g_allocated_bytes.load() - start_bytes_;
  }

 private:
  std::uint64_t start_;
  std::uint64_t start_bytes_;
};

}  // namespace efd::testsupport
