#include "src/hybrid/reorder.hpp"

#include <utility>

#include "src/obs/obs.hpp"

namespace efd::hybrid {

ReorderBuffer::ReorderBuffer(sim::Simulator& simulator,
                             net::Interface::RxHandler deliver, Config config)
    : sim_(simulator), deliver_(std::move(deliver)), cfg_(config) {}

void ReorderBuffer::on_packet(const net::Packet& p, sim::Time now, int tag) {
  if (!started_) {
    // Warm-up: the first packets of a split flow can arrive out of order
    // (the flow's true first sequence may be in flight on the slower
    // medium), so buffer for one hold period before locking onto a start.
    started_ = true;
    warmup_ = true;
    blocked_ = true;
    block_start_ = now;
    buffer_.emplace(p.seq, Buffered{p, tag});
    arm_timeout();
    return;
  }
  if (warmup_) {
    if (!buffer_.emplace(p.seq, Buffered{p, tag}).second) {
      drop_duplicate();
      return;
    }
    overflow_valve();
    return;
  }
  if (p.seq < next_seq_) {
    const auto it = abandoned_.find(p.seq);
    if (it == abandoned_.end()) {
      // A copy of a sequence that was already delivered — the losing copy
      // of a duplicated packet, or a failover-salvage re-send.
      drop_duplicate();
      return;
    }
    // Late straggler: its gap was abandoned before it arrived. Delivering
    // it now would hand the app layer an out-of-order packet — drop it.
    abandoned_.erase(it);
    ++straggler_drops_;
    EFD_COUNTER_INC("hybrid.reorder.straggler_drops");
    return;
  }
  if (buffer_.empty() && p.seq == next_seq_) {
    // Steady-state fast path: the expected sequence with nothing queued
    // ahead of it delivers immediately, allocation-free.
    deliver(p, tag);
    ++next_seq_;
    blocked_ = false;
    return;
  }
  if (!buffer_.emplace(p.seq, Buffered{p, tag}).second) {
    // Same sequence already waiting in the buffer: a duplicate straddling
    // an open reorder gap. First(-buffered) copy wins.
    drop_duplicate();
    return;
  }
  EFD_HISTO_OBSERVE("hybrid.reorder.occupancy", buffer_.size());
  const std::uint32_t before = next_seq_;
  drain();
  if (buffer_.empty()) {
    blocked_ = false;
    return;
  }
  // A (possibly new) gap blocks the head. The hold timer measures how long
  // *this* gap has been blocking, so it restarts whenever progress is made.
  if (!blocked_ || next_seq_ != before) {
    blocked_ = true;
    block_start_ = now;
  }
  arm_timeout();
  overflow_valve();
}

void ReorderBuffer::clear() {
  timeout_.cancel();
  buffer_.clear();
  abandoned_.clear();
  next_seq_ = 0;
  started_ = false;
  warmup_ = false;
  blocked_ = false;
  block_start_ = sim::Time{};
}

void ReorderBuffer::deliver(const net::Packet& p, int tag) {
  deliver_(p, sim_.now());
  EFD_COUNTER_INC("hybrid.reorder.delivered");
  if (win_ && tag != kUntagged) win_(p, tag);
}

void ReorderBuffer::drop_duplicate() {
  ++duplicate_drops_;
  EFD_COUNTER_INC("hybrid.reorder.duplicate_drops");
}

void ReorderBuffer::abandon_through(std::uint32_t target) {
  // Remember which sequences a lock-forward skipped so their late copies
  // read as stragglers, not duplicates. Bounded: only the max_buffered
  // skipped sequences nearest the new head are kept; older entries are the
  // least likely to ever show up again.
  std::uint32_t from = next_seq_;
  if (target - from > cfg_.max_buffered) {
    from = target - static_cast<std::uint32_t>(cfg_.max_buffered);
  }
  for (std::uint32_t s = from; s != target; ++s) abandoned_.insert(s);
  while (abandoned_.size() > cfg_.max_buffered) {
    abandoned_.erase(abandoned_.begin());
  }
}

void ReorderBuffer::overflow_valve() {
  // A burst of losses must not hold memory hostage.
  if (buffer_.size() <= cfg_.max_buffered) return;
  EFD_COUNTER_INC("hybrid.reorder.overflows");
  warmup_ = false;
  abandon_through(buffer_.begin()->first);
  next_seq_ = buffer_.begin()->first;
  drain();
  if (buffer_.empty()) blocked_ = false;
}

void ReorderBuffer::drain() {
  auto it = buffer_.begin();
  while (it != buffer_.end() && it->first == next_seq_) {
    deliver(it->second.p, it->second.tag);
    it = buffer_.erase(it);
    ++next_seq_;
  }
}

void ReorderBuffer::arm_timeout() {
  if (timeout_.pending()) return;
  const sim::Time waited = sim_.now() - block_start_;
  const sim::Time remaining =
      waited < cfg_.hold_timeout ? cfg_.hold_timeout - waited : sim::Time{};
  timeout_ = sim_.after(remaining, [this] { on_timeout(); });
}

void ReorderBuffer::on_timeout() {
  if (buffer_.empty()) {
    blocked_ = false;
    warmup_ = false;
    return;
  }
  if (!warmup_ && sim_.now() - block_start_ < cfg_.hold_timeout) {
    // Progress was made since this timer was armed; wait out the remainder
    // of the *current* gap's budget.
    arm_timeout();
    return;
  }
  // Warm-up over, or a gap timed out: (re)lock onto the earliest sequence.
  if (!warmup_) {
    ++timeouts_;
    EFD_COUNTER_INC("hybrid.reorder.timeouts");
  }
  warmup_ = false;
  abandon_through(buffer_.begin()->first);
  next_seq_ = buffer_.begin()->first;
  drain();
  if (!buffer_.empty()) {
    block_start_ = sim_.now();
    arm_timeout();
  } else {
    blocked_ = false;
  }
}

}  // namespace efd::hybrid
