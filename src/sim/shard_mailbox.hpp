#pragma once

// Cross-shard boundary-event transport for the sharded event engine
// (DESIGN.md §14.3). One mailbox per *directed boundary link* (source
// cell -> destination cell), so each mailbox has exactly one producing
// thread (the shard executing the source cell) and one consuming thread
// (the shard executing the destination cell) — a true SPSC channel,
// lock-free on both hot paths.
//
// Memory model: events are written into fixed-size chunks; the producer
// publishes an event by a release-store of the chunk's `filled` counter and
// a new chunk by a release-store of the predecessor's `next` pointer. The
// consumer acquire-loads both, so every field of a BoundaryEvent it reads
// happened-before the load that revealed it. Spent chunks are recycled
// through a mutex-guarded free list (cold path, touched once every
// kChunkEvents events), which keeps the steady state allocation-free.
//
// Capacity (DESIGN.md §14.3): storage stays unbounded — a push that
// blocked inside the mailbox while the consuming shard waits for the
// producer's horizon is a deadlock the conservative protocol cannot break.
// The protocol bounds occupancy instead: with a link each way of lookahead
// L, a consumer at horizon H has popped everything due before H and its
// producer cannot run past H + L, so the undelivered events were posted
// within [H - L, H + L). The monotone pushed/popped counters give
// occupancy(); peak_occupancy() is the producer-maintained high-water mark
// surfaced in bench metrics and the watchdog's stall diagnostics.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <new>
#include <vector>

#include "src/sim/time.hpp"

namespace efd::sim {

/// One time-stamped event crossing a shard boundary. `t_ns` is the delivery
/// time at the destination cell and must respect the link's lookahead:
/// t_ns >= (sender's clock at post time) + lookahead. The payload words are
/// opaque to the engine; the campus layer packs packet metadata into them.
struct BoundaryEvent {
  std::int64_t t_ns = 0;     ///< delivery time at the destination cell
  std::int32_t src_cell = 0;
  std::int32_t dst_cell = 0;
  std::uint32_t kind = 0;    ///< caller-defined discriminator
  std::uint32_t bytes = 0;   ///< wire size, for airtime/accounting
  std::uint64_t a = 0;       ///< opaque payload
  std::uint64_t b = 0;
  std::uint64_t c = 0;
};

/// Single-producer single-consumer FIFO of BoundaryEvents with unbounded
/// storage and counter-based occupancy accounting (see the header comment
/// for what bounds it). Chunks make
/// "unbounded" cheap: the producer allocates only when the free list is
/// empty, and the consumer returns spent chunks for reuse.
class ShardMailbox {
 public:
  static constexpr std::size_t kChunkEvents = 256;

  ShardMailbox() {
    head_ = tail_ = new Chunk();
  }

  ShardMailbox(const ShardMailbox&) = delete;
  ShardMailbox& operator=(const ShardMailbox&) = delete;

  ~ShardMailbox() {
    Chunk* c = head_;
    while (c != nullptr) {
      Chunk* next = c->next.load(std::memory_order_relaxed);
      delete c;
      c = next;
    }
    for (Chunk* f : free_) delete f;
  }

  /// Producer side. Events must be pushed in non-decreasing `t_ns` order
  /// (they are: the producer's simulation clock is monotone and every link
  /// applies one fixed lookahead).
  void push(const BoundaryEvent& e) {
    Chunk* t = tail_;
    const std::size_t n = t->filled.load(std::memory_order_relaxed);
    if (n == kChunkEvents) {
      Chunk* fresh = acquire_chunk();
      fresh->events[0] = e;
      fresh->filled.store(1, std::memory_order_release);
      t->next.store(fresh, std::memory_order_release);
      tail_ = fresh;
    } else {
      t->events[n] = e;
      t->filled.store(n + 1, std::memory_order_release);
    }
    const std::uint64_t pushed =
        pushed_.fetch_add(1, std::memory_order_relaxed) + 1;
    const std::uint64_t occ = pushed - popped_.load(std::memory_order_relaxed);
    if (occ > peak_.load(std::memory_order_relaxed)) {
      peak_.store(occ, std::memory_order_relaxed);
    }
  }

  /// Consumer side: the oldest undelivered event, or nullptr when none is
  /// visible. A non-null pointer stays valid until the next pop().
  [[nodiscard]] const BoundaryEvent* peek() {
    Chunk* h = head_;
    if (read_ < h->filled.load(std::memory_order_acquire)) {
      return &h->events[read_];
    }
    if (read_ == kChunkEvents) {
      Chunk* next = h->next.load(std::memory_order_acquire);
      if (next == nullptr) return nullptr;
      release_chunk(h);
      head_ = next;
      read_ = 0;
      return peek();
    }
    return nullptr;
  }

  /// Consumer side: discard the event peek() returned.
  void pop() {
    ++read_;
    popped_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Undelivered events (pushed minus popped). Safe from any thread; the
  /// two counters are read independently so a concurrent reader may see a
  /// value off by in-flight operations — fine for diagnostics.
  [[nodiscard]] std::uint64_t occupancy() const {
    const std::uint64_t pushed = pushed_.load(std::memory_order_relaxed);
    const std::uint64_t popped = popped_.load(std::memory_order_relaxed);
    return pushed >= popped ? pushed - popped : 0;
  }

  /// High-water mark of occupancy() since construction.
  [[nodiscard]] std::uint64_t peak_occupancy() const {
    return peak_.load(std::memory_order_relaxed);
  }

 private:
  struct Chunk {
    BoundaryEvent events[kChunkEvents];
    std::atomic<std::size_t> filled{0};
    std::atomic<Chunk*> next{nullptr};
  };

  Chunk* acquire_chunk() {
    {
      const std::scoped_lock lock(free_mutex_);
      if (!free_.empty()) {
        Chunk* c = free_.back();
        free_.pop_back();
        c->filled.store(0, std::memory_order_relaxed);
        c->next.store(nullptr, std::memory_order_relaxed);
        return c;
      }
    }
    return new Chunk();
  }

  void release_chunk(Chunk* c) {
    const std::scoped_lock lock(free_mutex_);
    free_.push_back(c);
  }

  alignas(64) Chunk* tail_;       ///< producer-owned
  std::atomic<std::uint64_t> pushed_{0};   ///< producer-written
  std::atomic<std::uint64_t> peak_{0};     ///< producer-written high-water
  alignas(64) Chunk* head_;       ///< consumer-owned
  std::size_t read_ = 0;          ///< consumer cursor within head_
  std::atomic<std::uint64_t> popped_{0};   ///< consumer-written
  std::mutex free_mutex_;
  std::vector<Chunk*> free_;
};

}  // namespace efd::sim
