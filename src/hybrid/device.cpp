#include "src/hybrid/device.hpp"

#include <cassert>
#include <utility>

#include "src/obs/obs.hpp"

namespace efd::hybrid {

namespace {
/// Probe ids carry a tag plus the member index so they cannot collide with
/// traffic-source packet ids inside a MAC queue, and the nonce in the low
/// bits so the echo maps back onto the member's monitor.
constexpr std::uint64_t kProbeIdTag = 0xFA17ull << 48;
constexpr std::uint64_t kProbeNonceMask = (1ull << 40) - 1;

std::uint64_t probe_id(std::size_t member, std::uint64_t nonce) {
  return kProbeIdTag | (static_cast<std::uint64_t>(member) << 40) |
         (nonce & kProbeNonceMask);
}
}  // namespace

HybridDevice::HybridDevice(sim::Simulator& simulator,
                           std::vector<net::Interface*> interfaces,
                           std::unique_ptr<PacketScheduler> scheduler)
    : sim_(simulator),
      interfaces_(std::move(interfaces)),
      scheduler_(std::move(scheduler)),
      sent_(interfaces_.size(), 0),
      wins_(interfaces_.size(), 0) {
  assert(!interfaces_.empty());
}

bool HybridDevice::enqueue(const net::Packet& p) {
  EFD_PROF_SCOPE("hybrid.enqueue");
  if (mode_for(p.flow_id) == SplitMode::kDiversity) return enqueue_diverse(p);
  int i = scheduler_->pick(p);
  assert(i >= 0 && i < static_cast<int>(interfaces_.size()));
  if (failover_ && !live_[static_cast<std::size_t>(i)]) {
    // The scheduler's masked weights make dead picks rare (only the
    // round-robin / all-zero fallback paths can land here); redirect to the
    // next live member instead of feeding a queue no one is draining.
    const int n = static_cast<int>(interfaces_.size());
    for (int k = 1; k < n; ++k) {
      const int j = (i + k) % n;
      if (live_[static_cast<std::size_t>(j)]) {
        i = j;
        EFD_COUNTER_INC("hybrid.failover.redirects");
        break;
      }
    }
    // All members dead: fall through to the original pick — the packet
    // waits in the dead queue and is salvaged or replaced on recovery.
  }
  ++sent_[static_cast<std::size_t>(i)];
  return interfaces_[static_cast<std::size_t>(i)]->enqueue(p);
}

bool HybridDevice::enqueue_diverse(const net::Packet& p) {
  // Per-packet duplication: one copy on every live member. The first
  // accepted copy is the packet proper; every further accepted copy is
  // redundancy spend, tracked so the bench figures can price diversity
  // against load balancing.
  bool accepted = false;
  for (std::size_t j = 0; j < interfaces_.size(); ++j) {
    if (failover_ && !live_[j]) continue;
    if (!interfaces_[j]->enqueue(p)) continue;
    ++sent_[j];
    if (accepted) {
      ++dup_tx_packets_;
      dup_tx_bytes_ += p.size_bytes;
      EFD_COUNTER_INC("hybrid.diversity.dup_packets");
      EFD_COUNTER_ADD("hybrid.diversity.dup_bytes", p.size_bytes);
    }
    accepted = true;
  }
  if (!accepted) {
    // Every live member refused (or all are dead): behave like the
    // load-balance path and let the scheduler's pick queue it, so the
    // packet is salvaged or replaced on recovery instead of vanishing.
    const int i = scheduler_->pick(p);
    assert(i >= 0 && i < static_cast<int>(interfaces_.size()));
    ++sent_[static_cast<std::size_t>(i)];
    return interfaces_[static_cast<std::size_t>(i)]->enqueue(p);
  }
  return true;
}

std::size_t HybridDevice::queue_length() const {
  std::size_t total = 0;
  for (const net::Interface* ifc : interfaces_) total += ifc->queue_length();
  return total;
}

void HybridDevice::rebuild_reorder() {
  reorder_ = std::make_unique<ReorderBuffer>(
      sim_, [this](const net::Packet& p, sim::Time t) { rx_(p, t); },
      reorder_cfg_);
  // First-wins attribution: the member whose copy the resequencer actually
  // delivered gets the win; losing copies show up as duplicates_dropped().
  reorder_->set_win_listener([this](const net::Packet&, int tag) {
    if (tag >= 0 && tag < static_cast<int>(wins_.size())) {
      ++wins_[static_cast<std::size_t>(tag)];
      EFD_COUNTER_INC("hybrid.diversity.wins");
    }
  });
}

void HybridDevice::set_rx_handler(RxHandler handler) {
  rx_ = std::move(handler);
  rebuild_reorder();
}

void HybridDevice::set_reorder_config(ReorderBuffer::Config config) {
  reorder_cfg_ = config;
  if (reorder_) rebuild_reorder();
}

void HybridDevice::clear_queue() {
  for (net::Interface* ifc : interfaces_) ifc->clear_queue();
  if (reorder_) reorder_->clear();
}

void HybridDevice::install_member_handlers() {
  if (handlers_installed_) return;
  handlers_installed_ = true;
  for (std::size_t i = 0; i < interfaces_.size(); ++i) {
    interfaces_[i]->set_rx_handler(
        [this, i](const net::Packet& p, sim::Time t) { on_member_rx(i, p, t); });
  }
}

void HybridDevice::on_member_rx(std::size_t i, const net::Packet& p, sim::Time t) {
  if (p.flow_id == kProbeFlowId) {
    // The peer's liveness probe: echo it straight back on the member it
    // arrived on — a round trip proves that member alive in both directions.
    net::Packet echo = p;
    echo.flow_id = kProbeEchoFlowId;
    echo.src = p.dst;
    echo.dst = p.src;
    echo.created = t;
    interfaces_[i]->enqueue(echo);
    EFD_COUNTER_INC("hybrid.failover.probe_echoes");
    return;
  }
  if (p.flow_id == kProbeEchoFlowId) {
    if (failover_) {
      monitors_[i]->on_probe_result(p.id & kProbeNonceMask, /*ok=*/true);
    }
    return;
  }
  if (receiving_ && reorder_) {
    reorder_->on_packet(p, t, static_cast<int>(i));
  }
}

void HybridDevice::start_receiving() {
  assert(reorder_ && "set_rx_handler must be called first");
  receiving_ = true;
  install_member_handlers();
}

void HybridDevice::enable_failover(FailoverConfig config) {
  assert(!failover_ && "enable_failover must be called at most once");
  failover_ = true;
  fcfg_ = std::move(config);
  live_.assign(interfaces_.size(), 1);
  if (raw_capacities_.empty()) {
    raw_capacities_.assign(interfaces_.size(), 0.0);
  }
  sim::Rng rng{fcfg_.seed};
  monitors_.reserve(interfaces_.size());
  for (std::size_t i = 0; i < interfaces_.size(); ++i) {
    auto mon = std::make_unique<fault::HealthMonitor>(
        sim_, rng.fork(static_cast<std::uint64_t>(i)), fcfg_.health,
        [this, i](std::uint64_t nonce) { send_probe(i, nonce); });
    mon->set_listener([this, i](fault::HealthMonitor::State s, sim::Time t) {
      on_member_state(i, s, t);
    });
    monitors_.push_back(std::move(mon));
  }
  install_member_handlers();
  for (auto& mon : monitors_) mon->start();
}

void HybridDevice::send_probe(std::size_t i, std::uint64_t nonce) {
  net::Packet p;
  p.id = probe_id(i, nonce);
  p.flow_id = kProbeFlowId;
  p.seq = static_cast<std::uint32_t>(nonce);
  p.size_bytes = fcfg_.probe_bytes;
  p.src = fcfg_.self;
  p.dst = fcfg_.peer;
  p.created = sim_.now();
  EFD_COUNTER_INC("hybrid.failover.probes_tx");
  if (!interfaces_[i]->enqueue(p)) {
    // Queue full — the probe never left; count it as an immediate failure
    // rather than burning the whole probe timeout.
    monitors_[i]->on_probe_result(nonce, /*ok=*/false);
  }
}

void HybridDevice::on_member_state(std::size_t i, fault::HealthMonitor::State s,
                                   sim::Time t) {
  using State = fault::HealthMonitor::State;
  const bool was_live = live_[i] != 0;
  if (s == State::kOpen && was_live) {
    // Trip: zero the member's scheduler weight *now* (don't wait for the
    // next capacity refresh) and rescue its queued backlog.
    live_[i] = 0;
    push_masked_capacities();
    salvage(i);
    EFD_COUNTER_INC("hybrid.failover.trips");
  } else if (s == State::kClosed && !was_live) {
    live_[i] = 1;
    push_masked_capacities();
    EFD_COUNTER_INC("hybrid.failover.recoveries");
  }
  // Half-open keeps the member masked: probes may flow, traffic may not.
  if (fcfg_.on_transition) fcfg_.on_transition(static_cast<int>(i), s, t);
}

void HybridDevice::set_capacities(std::vector<double> capacities_mbps) {
  assert(capacities_mbps.size() == interfaces_.size());
  raw_capacities_ = std::move(capacities_mbps);
  push_masked_capacities();
}

void HybridDevice::push_masked_capacities() {
  if (!failover_) {
    scheduler_->set_capacities(raw_capacities_);
    return;
  }
  std::vector<double> masked = raw_capacities_;
  for (std::size_t i = 0; i < masked.size(); ++i) {
    if (!live_[i]) masked[i] = 0.0;
  }
  scheduler_->set_capacities(std::move(masked));
}

void HybridDevice::salvage(std::size_t dead) {
  std::vector<net::Packet> orphans = interfaces_[dead]->take_queue();
  std::size_t budget = fcfg_.salvage_budget;
  const std::size_t n = interfaces_.size();
  for (const net::Packet& p : orphans) {
    if (p.flow_id == kProbeFlowId || p.flow_id == kProbeEchoFlowId) continue;
    bool rescued = false;
    if (budget > 0) {
      // Bounded retry: offer the packet to each live survivor once, in
      // construction order starting after the dead member.
      for (std::size_t k = 1; k < n && !rescued; ++k) {
        const std::size_t j = (dead + k) % n;
        if (!live_[j]) continue;
        if (interfaces_[j]->enqueue(p)) {
          rescued = true;
          ++sent_[j];
        }
      }
    }
    if (rescued) {
      --budget;
      ++salvaged_;
      EFD_COUNTER_INC("hybrid.failover.salvaged");
    } else {
      ++salvage_drops_;
      EFD_COUNTER_INC("hybrid.failover.salvage_drops");
    }
  }
}

HybridDevice::~HybridDevice() {
  // Monitors first: their probe callbacks capture `this`.
  monitors_.clear();
  if (!handlers_installed_) return;
  for (net::Interface* ifc : interfaces_) {
    ifc->set_rx_handler([](const net::Packet&, sim::Time) {});
  }
}

RoundRobinSplitter::RoundRobinSplitter(sim::Simulator& simulator,
                                       std::vector<net::Interface*> interfaces,
                                       Config config)
    : sim_(simulator), interfaces_(std::move(interfaces)), cfg_(config) {
  assert(!interfaces_.empty());
}

bool RoundRobinSplitter::enqueue(const net::Packet& p) {
  if (staged_.size() >= cfg_.stage_limit) return false;
  staged_.push_back(p);
  pump();
  return true;
}

void RoundRobinSplitter::set_rx_handler(RxHandler handler) {
  // Receiving is symmetric: hand the same upper-layer callback to every
  // member interface (use a HybridDevice with a reorder buffer when
  // in-order delivery matters).
  for (net::Interface* ifc : interfaces_) ifc->set_rx_handler(handler);
}

void RoundRobinSplitter::pump() {
  while (!staged_.empty()) {
    net::Interface* target = interfaces_[next_];
    if (target->queue_length() >= cfg_.watermark) {
      // Head-of-line stall: strict alternation waits for *this* interface.
      if (!retry_.pending()) {
        retry_ = sim_.after_inline(cfg_.retry, [this] { pump(); });
      }
      return;
    }
    target->enqueue(staged_.front());
    staged_.pop_front();
    next_ = (next_ + 1) % interfaces_.size();
  }
}

}  // namespace efd::hybrid
