#include "src/sim/simulator.hpp"

#include <cassert>
#include <limits>
#include <utility>

#include "src/obs/obs.hpp"

namespace efd::sim {

namespace {
/// 4-ary heap geometry: children of i are 4i+1..4i+4, parent is (i-1)/4.
/// Shallower than a binary heap (half the levels), so a sift touches fewer
/// cache lines; the 4-way child scan is branch-cheap on slim 24-byte nodes.
constexpr std::size_t kArity = 4;
}  // namespace

std::uint32_t Simulator::acquire_slot() {
  if (free_.empty()) {
    slots_.emplace_back();
    // The free stack must absorb every live slot without reallocating, or
    // release_slot allocates while a pre-scheduled batch (a fault plan, a
    // bursty source) drains — paid here, where the slab grows anyway.
    if (free_.capacity() < slots_.capacity()) free_.reserve(slots_.capacity());
    return static_cast<std::uint32_t>(slots_.size() - 1);
  }
  const std::uint32_t slot = free_.back();
  free_.pop_back();
  return slot;
}

void Simulator::release_slot(std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.fn = EventFn{};
  s.cancelled = false;
  s.occupied = false;
  ++s.gen;  // every outstanding handle to this slot goes inert
  free_.push_back(slot);
}

void Simulator::sift_up(std::size_t i) {
  const HeapNode node = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / kArity;
    if (!earlier(node, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = node;
}

void Simulator::sift_down(std::size_t i) {
  const HeapNode node = heap_[i];
  const std::size_t n = heap_.size();
  for (;;) {
    const std::size_t first = i * kArity + 1;
    if (first >= n) break;
    std::size_t best = first;
    const std::size_t last = std::min(first + kArity, n);
    for (std::size_t c = first + 1; c < last; ++c) {
      if (earlier(heap_[c], heap_[best])) best = c;
    }
    if (!earlier(heap_[best], node)) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = node;
}

void Simulator::pop_top() {
  heap_[0] = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) sift_down(0);
}

EventHandle Simulator::at(Time t, EventFn fn) {
  assert(t >= now_ && "cannot schedule into the past");
  EFD_COUNTER_INC("sim.events_scheduled");
  const std::uint32_t slot = acquire_slot();
  Slot& s = slots_[slot];
  s.fn = std::move(fn);
  s.occupied = true;
  heap_.push_back(HeapNode{t.ns(), seq_++, slot});
  sift_up(heap_.size() - 1);
  return EventHandle{this, slot, s.gen};
}

void Simulator::run_until(Time end) {
  // One observation per call: histogram cells sum, so simulators on
  // several threads merge to the same distribution in any order.
  EFD_HISTO_OBSERVE("sim.queue_depth", heap_.size());
  EFD_HISTO_OBSERVE("sim.slab_occupancy", slab_occupancy());
  dispatch_until(end);
}

void Simulator::dispatch(std::int64_t end_ns) {
  // One scope per dispatch batch, not per event: a per-event scope would
  // dominate the ~100ns schedule+dispatch budget this engine exists for.
  EFD_PROF_SCOPE("sim.run");
  while (!heap_.empty() && heap_[0].t_ns <= end_ns) {
    const HeapNode top = heap_[0];
    pop_top();
    now_ = Time{top.t_ns};
    Slot& s = slots_[top.slot];
    if (s.cancelled) {
      EFD_COUNTER_INC("sim.events_cancelled");
      release_slot(top.slot);
      continue;
    }
    // Move the callback out and free the slot *before* invoking: the
    // callback may schedule (growing the slab) or cancel other events, and a
    // handle to the now-firing event must already be inert.
    EventFn fn = std::move(s.fn);
    release_slot(top.slot);
    ++dispatched_;
    EFD_COUNTER_INC("sim.events_dispatched");
    fn();
  }
}

void Simulator::advance_to(Time t) {
  assert(t >= now_ && "cannot advance the clock backwards");
  while (!heap_.empty() && heap_[0].t_ns < t.ns() &&
         slots_[heap_[0].slot].cancelled) {
    const HeapNode top = heap_[0];
    EFD_COUNTER_INC("sim.events_cancelled");
    pop_top();
    release_slot(top.slot);
  }
  assert((heap_.empty() || heap_[0].t_ns >= t.ns()) &&
         "advance_to would skip a live event");
  now_ = t;
}

void Simulator::run() {
  EFD_HISTO_OBSERVE("sim.queue_depth", heap_.size());
  EFD_HISTO_OBSERVE("sim.slab_occupancy", slab_occupancy());
  dispatch(std::numeric_limits<std::int64_t>::max());
}

void Simulator::reset() {
  heap_.clear();
  free_.clear();
  // Free every slot, highest index first, so the post-reset acquisition
  // order (0, 1, 2, ...) matches a freshly constructed simulator's.
  for (std::size_t i = slots_.size(); i-- > 0;) {
    Slot& s = slots_[i];
    if (s.occupied) {
      s.fn = EventFn{};
      s.cancelled = false;
      s.occupied = false;
      ++s.gen;
    }
    free_.push_back(static_cast<std::uint32_t>(i));
  }
  now_ = Time{};
  seq_ = 0;
  dispatched_ = 0;
}

}  // namespace efd::sim
