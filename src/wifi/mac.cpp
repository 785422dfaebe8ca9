#include "src/wifi/mac.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "src/obs/obs.hpp"

namespace efd::wifi {

namespace {
constexpr std::size_t kQueueLimit = 200;  ///< packets
constexpr int kCwMin = 16;
constexpr int kCwMax = 1024;
constexpr int kMaxAmpdu = 16;             ///< MPDUs per aggregate
constexpr sim::Time kMaxAirtime = sim::milliseconds(2.0);
constexpr sim::Time kPreamble = sim::microseconds(60.0);
/// Rate-control estimate: staleness and measurement noise.
constexpr sim::Time kSnrStaleness = sim::milliseconds(50.0);
constexpr double kSnrNoiseDb = 1.2;
constexpr double kMarginDb = 1.0;
}  // namespace

// --------------------------------------------------------------------------
// WifiMedium
// --------------------------------------------------------------------------

WifiMedium::WifiMedium(sim::Simulator& simulator, const WifiChannel& channel,
                       sim::Rng rng)
    : ContentionRound(simulator, kSlot, sim::Time{}), channel_(channel), rng_(rng) {}

void WifiMedium::add_mcs_listener(std::function<void(const McsRecord&)> fn) {
  listeners_.push_back(std::move(fn));
}

sim::Time WifiMedium::finish_round(std::vector<WifiFrame>& frames,
                                   const std::vector<WifiMac*>& senders) {
  const bool collision = frames.size() > 1;
  if (collision) EFD_COUNTER_INC("wifi.medium.collisions");

  sim::Time payload_end = frames[0].end;
  for (const WifiFrame& f : frames) payload_end = std::max(payload_end, f.end);

  for (std::size_t fi = 0; fi < frames.size(); ++fi) {
    WifiFrame& f = frames[fi];
    WifiMac* sender = senders[fi];
    for (const auto& fn : listeners_) {
      fn(McsRecord{f.start, f.src, f.dst, f.mcs, Mcs::rate_mbps(f.mcs)});
    }

    WifiMac* rx_mac = nullptr;
    for (WifiMac* m : macs_) {
      if (m->id() == f.dst) {
        rx_mac = m;
        break;
      }
    }
    bool decodable = rx_mac != nullptr;
    if (decodable && collision) {
      const double own = channel_.snr_db(f.src, f.dst, f.start);
      double worst = -1e9;
      for (std::size_t gi = 0; gi < frames.size(); ++gi) {
        if (gi == fi) continue;
        worst = std::max(worst, channel_.snr_db(frames[gi].src, f.dst, f.start));
      }
      decodable = own - worst >= kCaptureThresholdDb;
    }

    // Exactly one completion per frame, at the end of its BlockAck (or of
    // the timeout waiting for it), and it takes only the MPDUs it may
    // requeue: the failed ones, or the whole frame when nothing decoded.
    const sim::Time ack_end = payload_end + kSifs + WifiMac::kBlockAck;
    if (decodable) {
      const double snr = channel_.snr_db(f.src, f.dst, f.start) - jam_db_;
      const double p = Mcs::mpdu_error_probability(f.mcs, snr);
      std::vector<int> failed;
      for (std::size_t i = 0; i < f.mpdus.size(); ++i) {
        if (rng_.bernoulli(p)) failed.push_back(static_cast<int>(i));
      }
      rx_mac->on_frame_received(f, failed, payload_end);
      std::vector<Mpdu> bad;
      bad.reserve(failed.size());
      for (int i : failed) bad.push_back(f.mpdus[static_cast<std::size_t>(i)]);
      sim_.at(ack_end, [sender, bad = std::move(bad)] { sender->on_block_ack(bad); });
    } else {
      sim_.at(ack_end,
              [sender, mpdus = std::move(f.mpdus)] { sender->on_no_ack(mpdus); });
    }
  }

  return payload_end + kSifs + WifiMac::kBlockAck;
}

// --------------------------------------------------------------------------
// WifiMac
// --------------------------------------------------------------------------

WifiMac::WifiMac(sim::Simulator& simulator, WifiMedium& medium,
                 const WifiChannel& channel, net::StationId self, sim::Rng rng)
    : sim_(simulator),
      medium_(medium),
      channel_(channel),
      self_(self),
      rng_(rng),
      cw_(kCwMin) {}

bool WifiMac::enqueue(const net::Packet& p) {
  if (queue_.size() >= kQueueLimit) {
    ++drops_;
    return false;
  }
  queue_.push_back(Mpdu{p, 0});
  if (queue_.size() == 1) medium_.notify_ready();
  return true;
}

std::vector<net::Packet> WifiMac::take_queue() {
  std::vector<net::Packet> out;
  out.reserve(queue_.size());
  for (const Mpdu& m : queue_) out.push_back(m.packet);
  queue_.clear();
  return out;
}

void WifiMac::redraw_backoff() {
  backoff_ = static_cast<int>(rng_.uniform_int(0, cw_ - 1));
}

int WifiMac::current_backoff() {
  if (backoff_ < 0) redraw_backoff();
  return backoff_;
}

void WifiMac::on_medium_busy(int slots_elapsed) {
  // 802.11: the counter freezes during busy and resumes; no stage change.
  if (backoff_ >= 0) backoff_ = std::max(0, backoff_ - slots_elapsed);
}

WifiFrame WifiMac::build_frame(sim::Time now) {
  assert(!queue_.empty());
  WifiFrame f;
  f.src = self_;
  f.dst = queue_.front().packet.dst;
  f.start = now;

  // Rate control: a stale, noisy view of the receiver SNR (the transmitter
  // learns the channel from acked history, not from the instant of TX).
  const sim::Time stale_at =
      now >= kSnrStaleness ? now - kSnrStaleness : sim::Time{};
  const double est_snr = channel_.snr_db(self_, f.dst, stale_at) +
                         rng_.normal(0.0, kSnrNoiseDb);
  int mcs = Mcs::pick(est_snr - kMarginDb);
  if (mcs < 0) mcs = 0;  // no sustainable MCS: transmit robust and fail
  f.mcs = mcs;
  EFD_COUNTER_INC("wifi.mac.mcs_selections");
  EFD_HISTO_OBSERVE("wifi.mac.mcs_index", mcs);

  const double rate_mbps = Mcs::rate_mbps(mcs);
  sim::Time airtime = kPreamble;
  while (!queue_.empty() && static_cast<int>(f.mpdus.size()) < kMaxAmpdu) {
    const net::Packet& next = queue_.front().packet;
    if (next.dst != f.dst) break;
    const auto mpdu_air = sim::microseconds(
        static_cast<double>(next.size_bytes + 40) * 8.0 / rate_mbps);
    if (!f.mpdus.empty() && airtime + mpdu_air > kMaxAirtime) break;
    airtime += mpdu_air;
    f.mpdus.push_back(queue_.front());
    queue_.pop_front();
  }
  f.end = now + airtime;
  EFD_COUNTER_INC("wifi.mac.frames_tx");
  EFD_HISTO_OBSERVE("wifi.mac.ampdu_mpdus", f.mpdus.size());
  return f;
}

void WifiMac::requeue(const std::vector<Mpdu>& mpdus) {
  for (auto it = mpdus.rbegin(); it != mpdus.rend(); ++it) {
    if (it->retries >= kMaxRetries) {
      ++drops_;
      EFD_COUNTER_INC("wifi.mac.drops");
      continue;
    }
    EFD_COUNTER_INC("wifi.mac.retries");
    queue_.push_front(Mpdu{it->packet, it->retries + 1});
  }
}

void WifiMac::on_block_ack(const std::vector<Mpdu>& failed) {
  cw_ = kCwMin;
  backoff_ = -1;
  EFD_COUNTER_ADD("wifi.mac.mpdu_errors", failed.size());
  requeue(failed);
  if (!queue_.empty()) medium_.notify_ready();
}

void WifiMac::on_no_ack(const std::vector<Mpdu>& mpdus) {
  EFD_COUNTER_INC("wifi.mac.no_acks");
  cw_ = std::min(cw_ * 2, kCwMax);
  requeue(mpdus);
  redraw_backoff();
  if (!queue_.empty()) medium_.notify_ready();
}

void WifiMac::on_frame_received(const WifiFrame& frame, const std::vector<int>& failed,
                                sim::Time now) {
  auto next_failed = failed.begin();
  for (std::size_t i = 0; i < frame.mpdus.size(); ++i) {
    if (next_failed != failed.end() && static_cast<std::size_t>(*next_failed) == i) {
      ++next_failed;
      continue;
    }
    ++delivered_;
    EFD_COUNTER_INC("wifi.mac.packets_delivered");
    if (rx_) rx_(frame.mpdus[i].packet, now);
  }
}

}  // namespace efd::wifi
