#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "src/sim/simulator.hpp"

namespace efd::net {

/// The slotted CSMA/CA tournament that IEEE 1901 and 802.11 share (§2.2),
/// written once for both media. Whenever the medium goes idle and an IFS has
/// passed, every registered MAC with work pending contends: only the highest
/// channel-access priority proceeds, then the smallest backoff counter
/// transmits and equal minima collide. Losers sensed `min` idle slots and
/// then a busy medium; how that moves their backoff is the MAC's own rule
/// (the 1901 deferral counter against 802.11's frozen counter), applied in
/// `Mac::on_medium_busy(min)`.
///
/// `Medium` derives from this class (CRTP) and keeps only its PHY:
///   - `sim::Time ifs()`: the idle time before a round (called once per
///     scheduled round);
///   - `sim::Time finish_round(std::vector<Frame>& frames,
///     const std::vector<Mac*>& senders)`: put one round's frames (one per
///     sender, in contender order) on the air, schedule their completions,
///     and return when the medium goes idle.
/// `Mac` provides `has_pending()`, `current_priority()`, `current_backoff()`,
/// `on_medium_busy(int)` and `build_frame(sim::Time) -> Frame`.
///
/// The per-round vectors are members reused from round to round, and every
/// event captures only `this`, so a warm round allocates nothing here.
template <class Medium, class Mac, class Frame>
class ContentionRound {
 public:
  // Scheduled events hold `this`.
  ContentionRound(const ContentionRound&) = delete;
  ContentionRound& operator=(const ContentionRound&) = delete;

  void register_mac(Mac& mac) { macs_.push_back(&mac); }

  /// A MAC signals that its queue went non-empty.
  void notify_ready() {
    if (!busy_ && !contention_scheduled_) schedule_contention();
  }

  [[nodiscard]] bool busy() const { return busy_; }
  /// Rounds in which more than one frame went on the air.
  [[nodiscard]] std::uint64_t collisions() const { return collisions_; }

 protected:
  /// `slot` is the backoff slot; `backoff_gap` precedes the backoff slots
  /// (the 1901 priority-resolution symbols, none in 802.11 DCF).
  ContentionRound(sim::Simulator& simulator, sim::Time slot, sim::Time backoff_gap)
      : sim_(simulator), slot_(slot), backoff_gap_(backoff_gap) {}

  /// Release the medium and, if any MAC has work pending, contend again.
  void go_idle() {
    busy_ = false;
    for (Mac* m : macs_) {
      if (m->has_pending()) {
        schedule_contention();
        return;
      }
    }
  }

  sim::Simulator& sim_;
  std::vector<Mac*> macs_;
  bool busy_ = false;
  bool contention_scheduled_ = false;

 private:
  Medium& medium() { return static_cast<Medium&>(*this); }

  void schedule_contention() {
    contention_scheduled_ = true;
    sim_.after(medium().ifs(), [this] { resolve_contention(); });
  }

  void resolve_contention() {
    contention_scheduled_ = false;
    if (busy_) return;

    contenders_.clear();
    for (Mac* m : macs_) {
      if (m->has_pending()) contenders_.push_back(m);
    }
    if (contenders_.empty()) return;

    // Priority resolution: stations signal their access class and only the
    // highest class proceeds to backoff. Lower classes defer without
    // consuming backoff slots.
    int top_priority = 0;
    for (Mac* m : contenders_) top_priority = std::max(top_priority, m->current_priority());
    std::erase_if(contenders_,
                  [&](Mac* m) { return m->current_priority() < top_priority; });

    // Slotted backoff: the smallest counter transmits; equal minima collide.
    int min_backoff = std::numeric_limits<int>::max();
    for (Mac* m : contenders_) min_backoff = std::min(min_backoff, m->current_backoff());
    winners_.clear();
    for (Mac* m : contenders_) {
      if (m->current_backoff() == min_backoff) {
        winners_.push_back(m);
      } else {
        m->on_medium_busy(min_backoff);
      }
    }

    busy_ = true;
    sim_.at(sim_.now() + backoff_gap_ + (min_backoff + 1) * slot_,
            [this] { transmit(); });
  }

  /// The preamble of the round's winners.
  void transmit() {
    // A winner may have lost its backlog between the backoff win and the
    // preamble (failover salvaging a tripped member's queue); it cannot
    // transmit. Without failover every winner still has work pending.
    std::erase_if(winners_, [](Mac* m) { return !m->has_pending(); });
    if (winners_.empty()) {
      go_idle();
      return;
    }
    for (Mac* m : winners_) frames_.push_back(m->build_frame(sim_.now()));
    if (frames_.size() > 1) ++collisions_;
    const sim::Time idle_at = medium().finish_round(frames_, winners_);
    frames_.clear();
    sim_.at(idle_at, [this] { go_idle(); });
  }

  sim::Time slot_;
  sim::Time backoff_gap_;
  std::vector<Mac*> contenders_;
  std::vector<Mac*> winners_;
  std::vector<Frame> frames_;
  std::uint64_t collisions_ = 0;
};

}  // namespace efd::net
