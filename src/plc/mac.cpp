#include "src/plc/mac.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cmath>
#include <unordered_set>

#include "src/obs/obs.hpp"
#include "src/plc/medium.hpp"

namespace efd::plc {

namespace {

constexpr int kMaxPbRetries = 31;
/// CW per backoff stage (IEEE 1901 CA0/CA1 class). Every priority uses
/// it: the standard's tighter CA2/CA3 ladder {8, 16, 16, 32} is not
/// modelled.
constexpr std::array<int, 4> kCw = {8, 16, 32, 64};
/// Deferral counter per stage (IEEE 1901).
constexpr std::array<int, 4> kDc = {0, 1, 3, 15};

int pbs_for(std::size_t bytes) {
  return static_cast<int>(
      (bytes + PhyParams::kPbPayloadBytes - 1) / PhyParams::kPbPayloadBytes);
}
}  // namespace

PlcMac::PlcMac(sim::Simulator& simulator, PlcMedium& medium, const PlcChannel& channel,
               EstimatorDirectory& directory, net::StationId self, sim::Rng rng,
               Config config)
    : sim_(simulator),
      medium_(medium),
      channel_(channel),
      directory_(directory),
      self_(self),
      rng_(rng),
      cfg_(config) {
  dc_ = kDc[0];
  // Register the MAC's metric names up front: contention-dependent counters
  // (deferrals, collisions) then show up in snapshots as explicit zeros for
  // uncontended runs instead of being absent.
  static const bool obs_names_registered = [] {
    auto& reg = obs::MetricsRegistry::instance();
    for (const char* name :
         {"plc.mac.drops", "plc.mac.backoff_redraws", "plc.mac.csma_deferrals",
          "plc.mac.frames_tx", "plc.mac.pbs_tx", "plc.mac.sacks_rx",
          "plc.mac.pb_errors", "plc.mac.pb_retx", "plc.mac.collisions",
          "plc.mac.packets_delivered"}) {
      (void)reg.counter_id(name);
    }
    (void)reg.histogram_id("plc.mac.frame_pbs");
    return true;
  }();
  (void)obs_names_registered;
}

bool PlcMac::enqueue(const net::Packet& p) {
  const int n = pbs_for(p.size_bytes);
  if (queued_pbs_ + static_cast<std::size_t>(n) > cfg_.queue_limit_pbs) {
    ++drops_;
    EFD_COUNTER_INC("plc.mac.drops");
    return false;
  }
  auto shared = std::make_shared<const net::Packet>(p);
  for (int i = 0; i < n; ++i) {
    pb_queue_.push_back(PbUnit{shared, i, n, 0});
  }
  queued_pbs_ += static_cast<std::size_t>(n);
  if (queued_pbs_ == static_cast<std::size_t>(n)) {
    medium_.notify_ready();
  }
  return true;
}

std::size_t PlcMac::queue_length() const {
  return queued_pbs_ / 3;  // rough packets-outstanding figure
}

std::vector<net::Packet> PlcMac::take_queue() {
  std::vector<net::Packet> out;
  std::unordered_set<const net::Packet*> seen;
  for (const PbUnit& pb : pb_queue_) {
    if (seen.insert(pb.packet.get()).second) out.push_back(*pb.packet);
  }
  pb_queue_.clear();
  queued_pbs_ = 0;
  return out;
}

void PlcMac::reset_backoff() {
  stage_ = 0;
  backoff_ = -1;
  dc_ = kDc[0];
}

void PlcMac::redraw_backoff() {
  EFD_COUNTER_INC("plc.mac.backoff_redraws");
  backoff_ = static_cast<int>(
      rng_.uniform_int(0, kCw[static_cast<std::size_t>(stage_)] - 1));
  dc_ = kDc[static_cast<std::size_t>(stage_)];
}

void PlcMac::enter_next_stage() {
  stage_ = std::min<int>(stage_ + 1, static_cast<int>(kCw.size()) - 1);
  redraw_backoff();
}

int PlcMac::current_backoff() {
  if (backoff_ < 0) redraw_backoff();
  return backoff_;
}

void PlcMac::on_medium_busy(int slots_elapsed) {
  if (backoff_ < 0) return;
  backoff_ = std::max(0, backoff_ - slots_elapsed);
  if (cfg_.disable_deferral) return;  // 802.11-style: only collisions escalate
  // IEEE 1901 deferral counter: sensing the medium busy with an exhausted
  // deferral counter escalates the backoff stage without any collision.
  if (dc_ == 0) {
    EFD_COUNTER_INC("plc.mac.csma_deferrals");
    enter_next_stage();
  } else {
    --dc_;
  }
}

PlcFrame PlcMac::build_frame(sim::Time now) {
  assert(!pb_queue_.empty());
  const PhyParams& phy = channel_.phy();
  PlcFrame frame;
  frame.src = self_;
  frame.dst = pb_queue_.front().packet->dst;
  frame.slot = channel_.slot_at(now);
  frame.start = now;

  const ToneMap* tm = &channel_.robo();
  if (frame.dst == net::kBroadcast) {
    frame.robo = true;
  } else {
    const ChannelEstimator& est = directory_.estimator(frame.dst, self_);
    frame.robo = frame.sound = !est.has_tone_maps();
    tm = &est.tone_map(frame.slot);
  }
  frame.ble_mbps = tm->ble_mbps();
  frame.tone_map = tm;

  // Bits one OFDM symbol carries under this tone map (post-FEC payload),
  // discounted by MAC framing / AES alignment / per-PB CRC overhead.
  const double bits_per_symbol = std::max(
      1.0, tm->phy_rate_mbps() * phy.symbol.us() * phy.pb_wire_efficiency);
  const auto max_symbols =
      std::max<int>(1, static_cast<int>(phy.max_frame.ns() / phy.symbol.ns()));

  // Aggregate PBs from the queue head — retransmissions were pushed to the
  // front, so they leave first (Fig. 1's PB queue). Stop at the frame's
  // symbol budget; never split below one PB.
  int n_pbs = 0;
  while (!pb_queue_.empty()) {
    const int symbols_with_next = static_cast<int>(
        std::ceil((n_pbs + 1) * PhyParams::pb_bits() / bits_per_symbol));
    if (n_pbs > 0 && symbols_with_next > max_symbols) break;
    // Frames are unicast to one destination; stop at a destination switch.
    if (pb_queue_.front().packet->dst != frame.dst) break;
    frame.pbs.push_back(pb_queue_.front());
    pb_queue_.pop_front();
    --queued_pbs_;
    ++n_pbs;
  }
  frame.n_symbols = std::max(
      1, static_cast<int>(std::ceil(n_pbs * PhyParams::pb_bits() / bits_per_symbol)));
  frame.end = now + phy.delimiter + frame.n_symbols * phy.symbol;
  EFD_COUNTER_INC("plc.mac.frames_tx");
  EFD_COUNTER_ADD("plc.mac.pbs_tx", n_pbs);
  EFD_HISTO_OBSERVE("plc.mac.frame_pbs", n_pbs);
  return frame;
}

std::size_t PlcMac::requeue(const std::vector<PbUnit>& pbs) {
  std::size_t requeued = 0;
  for (auto it = pbs.rbegin(); it != pbs.rend(); ++it) {
    PbUnit pb = *it;
    if (pb.retries >= kMaxPbRetries) continue;
    ++pb.retries;
    pb_queue_.push_front(std::move(pb));
    ++queued_pbs_;
    ++requeued;
  }
  return requeued;
}

void PlcMac::on_sack(const std::vector<PbUnit>& errored) {
  EFD_COUNTER_INC("plc.mac.sacks_rx");
  EFD_COUNTER_ADD("plc.mac.pb_errors", errored.size());
  reset_backoff();
  // Selective retransmission: only corrupted PBs go back.
  const std::size_t retx = requeue(errored);
  EFD_COUNTER_ADD("plc.mac.pb_retx", retx);
  if (!pb_queue_.empty()) medium_.notify_ready();
}

void PlcMac::on_no_sack(const std::vector<PbUnit>& pbs, bool broadcast) {
  if (broadcast) {
    // Broadcast is never SACKed; nothing to retransmit.
    reset_backoff();
    if (!pb_queue_.empty()) medium_.notify_ready();
    return;
  }
  // Collision inferred: whole frame returns to the queue, stage escalates.
  EFD_COUNTER_INC("plc.mac.collisions");
  requeue(pbs);
  enter_next_stage();
  if (!pb_queue_.empty()) medium_.notify_ready();
}

void PlcMac::on_frame_received(const PlcFrame& frame,
                               const std::vector<int>& errored_pbs, sim::Time now) {
  // Feed the receiver-side channel estimator. Sound frames trigger the
  // initial estimation; collision-corrupted PBs arrive through the same
  // path and are indistinguishable from channel errors (§8.2).
  if (frame.dst != net::kBroadcast) {
    ChannelEstimator& est = directory_.estimator(self_, frame.src);
    if (frame.sound) est.on_sound_frame(now);
    est.on_frame_received(frame.slot, static_cast<int>(frame.pbs.size()),
                          static_cast<int>(errored_pbs.size()), frame.n_symbols, now);
  }

  // Reassemble packets from clean PBs.
  auto next_errored = errored_pbs.begin();
  for (std::size_t i = 0; i < frame.pbs.size(); ++i) {
    if (next_errored != errored_pbs.end() &&
        static_cast<std::size_t>(*next_errored) == i) {
      ++next_errored;
      continue;
    }
    const PbUnit& pb = frame.pbs[i];
    Reassembly& r = reassembly_[pb.packet.get()];
    if (r.total == 0) {
      r.packet = pb.packet;
      r.total = pb.total;
    }
    const std::uint64_t bit = 1ULL << (pb.index % 64);
    if (r.received_mask & bit) continue;  // duplicate PB
    r.received_mask |= bit;
    const int have = std::popcount(r.received_mask);
    if (have == r.total) {
      ++delivered_;
      EFD_COUNTER_INC("plc.mac.packets_delivered");
      if (rx_) rx_(*r.packet, now);
      reassembly_.erase(pb.packet.get());
    }
  }
  // Bound the reassembly table: abandoned entries (all-PB-dropped packets)
  // must not accumulate over day-long runs.
  if (reassembly_.size() > 4096) reassembly_.clear();
}

}  // namespace efd::plc
