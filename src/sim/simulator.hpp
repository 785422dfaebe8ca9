#pragma once

#include <cstdint>
#include <vector>

#include "src/sim/inline_function.hpp"
#include "src/sim/time.hpp"

namespace efd::sim {

class Simulator;

/// The event engine's callback type: 48 bytes of inline capture and no heap
/// fallback (see InlineFunction). Storing an event never allocates, and a
/// capture that outgrows the buffer fails to compile at its `at`/`after`
/// call site. 48 covers every event shape in the
/// codebase: `this` plus a few ids/Times, or a sender plus the units its
/// completion may requeue.
using EventFn = InlineFunction<void(), 48>;

/// Handle to a scheduled event; allows cancellation. A handle is a
/// {slab slot, generation} pair: copies refer to the same slot, so one can be
/// stashed by the component that scheduled the event and cancelled later
/// (e.g. a retransmission timer disarmed by a SACK). Once the event fires or
/// its cancellation is collected, the slot's generation advances and every
/// outstanding handle to it goes inert — a stale handle can never cancel an
/// event that recycled the slot.
class EventHandle {
 public:
  EventHandle() = default;

  /// Cancel the event if it has not fired yet. Idempotent. Cancellation is a
  /// lazy tombstone: the slot is reclaimed when the dispatch loop pops it.
  inline void cancel();

  /// True if the handle refers to an event that is still pending.
  [[nodiscard]] inline bool pending() const;

 private:
  friend class Simulator;
  EventHandle(Simulator* sim, std::uint32_t slot, std::uint32_t gen)
      : sim_(sim), slot_(slot), gen_(gen) {}

  Simulator* sim_ = nullptr;
  std::uint32_t slot_ = 0;
  std::uint32_t gen_ = 0;
};

/// Discrete-event simulator: a clock plus a time-ordered queue of callbacks.
/// Events scheduled for the same instant fire in scheduling order (FIFO),
/// which keeps MAC-layer tie-breaking deterministic.
///
/// Engine layout (DESIGN.md §9): event records live in a generation-counted
/// slab with free-list reuse; the ready queue is a 4-ary min-heap of slim
/// {time, seq, slot} nodes ordered by (time, seq). In steady state —
/// slab and heap at capacity — schedule + dispatch performs zero heap
/// allocations (pinned by sim_event_engine_test).
class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  [[nodiscard]] Time now() const { return now_; }

  /// Schedule `fn` at absolute time `t` (must not be in the past).
  EventHandle at(Time t, EventFn fn);

  /// Schedule `fn` after a relative delay from now.
  EventHandle after(Time delay, EventFn fn) {
    return at(now_ + delay, std::move(fn));
  }

  /// Run events until the queue drains or the clock would pass `end`.
  /// The clock is left at `end` (or at the last event if the queue drained).
  /// Each call observes the `sim.queue_depth` and `sim.slab_occupancy`
  /// histograms once, before dispatching.
  void run_until(Time end);

  /// Move the clock forward to `t` without dispatching anything. Every
  /// pending event must lie at or after `t` (asserted): the sharded engine
  /// uses this to place the clock exactly on a boundary-event timestamp
  /// after run_until(t - 1ns), so arrival handlers observe now() == t and
  /// schedule follow-ups normally. Tombstoned events earlier than `t` are
  /// reaped here, like the dispatch loop would.
  void advance_to(Time t);

  /// Run until the event queue is empty (observes like run_until).
  void run();

  /// Number of events dispatched since construction or the last reset().
  [[nodiscard]] std::uint64_t events_dispatched() const { return dispatched_; }

  /// Events scheduled but not yet fired or collected (tombstoned events
  /// count until the dispatch loop reaps them).
  [[nodiscard]] std::size_t pending_events() const { return heap_.size(); }

  /// Slab slots currently live (scheduled or tombstoned-awaiting-reap).
  [[nodiscard]] std::size_t slab_occupancy() const {
    return slots_.size() - free_.size();
  }

  /// Slab slots ever allocated (high-water mark of concurrent events).
  [[nodiscard]] std::size_t slab_capacity() const { return slots_.size(); }

  /// Drop all pending events and restore the as-constructed state: clock,
  /// FIFO sequence counter, and dispatch count all return to zero, so a
  /// reset simulator replays identical event orderings. Slot generations are
  /// NOT reset — handles from before the reset stay inert even when their
  /// slot is recycled.
  void reset();

 private:
  friend class EventHandle;
  /// Shard windows dispatch through dispatch_until: a shard's heap mixes
  /// the events of all its cells and its window count depends on timing,
  /// so its depth is not a function of the run and is not observed.
  friend class ShardedSimulator;

  struct Slot {
    EventFn fn;
    std::uint32_t gen = 0;
    bool cancelled = false;
    bool occupied = false;
  };

  /// Heap node: the sort keys plus the slab slot, kept slim so sifts move
  /// 24 bytes instead of a fat event record.
  struct HeapNode {
    std::int64_t t_ns;
    std::uint64_t seq;
    std::uint32_t slot;
  };

  static bool earlier(const HeapNode& a, const HeapNode& b) {
    if (a.t_ns != b.t_ns) return a.t_ns < b.t_ns;
    return a.seq < b.seq;
  }

  /// The dispatch loop: fire every live event at or before `end_ns`,
  /// reaping tombstones on the way. Observes no histogram.
  void dispatch(std::int64_t end_ns);
  /// dispatch(end), then leave the clock at `end`: run_until without the
  /// observations.
  void dispatch_until(Time end) {
    dispatch(end.ns());
    if (now_ < end) now_ = end;
  }

  void sift_up(std::size_t i);
  void sift_down(std::size_t i);
  void pop_top();
  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t slot);

  std::vector<Slot> slots_;           ///< event record slab
  std::vector<std::uint32_t> free_;   ///< free slot stack (LIFO reuse)
  std::vector<HeapNode> heap_;        ///< 4-ary min-heap over (t, seq)
  Time now_{};
  std::uint64_t seq_ = 0;
  std::uint64_t dispatched_ = 0;
};

inline void EventHandle::cancel() {
  if (sim_ == nullptr || slot_ >= sim_->slots_.size()) return;
  Simulator::Slot& s = sim_->slots_[slot_];
  if (s.gen == gen_ && s.occupied) s.cancelled = true;
}

inline bool EventHandle::pending() const {
  if (sim_ == nullptr || slot_ >= sim_->slots_.size()) return false;
  const Simulator::Slot& s = sim_->slots_[slot_];
  return s.gen == gen_ && s.occupied && !s.cancelled;
}

}  // namespace efd::sim
