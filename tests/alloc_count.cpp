// The counting replacement of the global allocation functions behind
// alloc_count.hpp. It lives in its own translation unit, linked only into
// the test binaries registered with `efd_test(<name> ALLOC_COUNT)`, so each
// of them holds exactly one definition and no caller inlines its body.

#include "alloc_count.hpp"

#include <cstddef>
#include <cstdlib>
#include <new>

namespace efd::testsupport {

std::atomic<std::uint64_t> g_allocations{0};
std::atomic<std::uint64_t> g_allocated_bytes{0};

}  // namespace efd::testsupport

namespace {

void count(std::size_t size) {
  efd::testsupport::g_allocations.fetch_add(1, std::memory_order_relaxed);
  efd::testsupport::g_allocated_bytes.fetch_add(size, std::memory_order_relaxed);
}

}  // namespace

void* operator new(std::size_t size) {
  count(size);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new(std::size_t size, std::align_val_t align) {
  count(size);
  const auto a = static_cast<std::size_t>(align);
  // aligned_alloc wants a non-zero multiple of the alignment.
  const std::size_t rounded = size == 0 ? a : (size + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
