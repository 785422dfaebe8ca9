#include "src/plc/medium.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "src/plc/mac.hpp"

namespace efd::plc {

PlcMedium::PlcMedium(sim::Simulator& simulator, const PlcChannel& channel, sim::Rng rng)
    : ContentionRound(simulator, kSlot, kPrs), channel_(channel), rng_(rng) {}

void PlcMedium::enable_beacons() {
  assert(!beacons_enabled_ && "beacons already enabled");
  beacons_enabled_ = true;
  sim_.after(kBeaconPeriod, [this] { beacon_tick(); });
}

void PlcMedium::beacon_tick() {
  ++beacons_;
  // The beacon region reserves the medium. If a frame exchange is in
  // flight, the region follows it: charge the hold to the next contention.
  // If the medium is idle, hold it busy for the beacon duration directly.
  if (busy_ || contention_scheduled_) {
    pending_beacon_hold_ += kBeaconDuration;
  } else {
    busy_ = true;
    sim_.after(kBeaconDuration, [this] { go_idle(); });
  }
  sim_.after(kBeaconPeriod, [this] { beacon_tick(); });
}

PlcMedium::SnifferId PlcMedium::add_sniffer(
    std::function<void(const SofRecord&)> sniffer) {
  assert(sniffer && "sniffer callback must be callable");
  std::uint32_t slot;
  if (sniffer_free_.empty()) {
    slot = static_cast<std::uint32_t>(sniffers_.size());
    sniffers_.emplace_back();
  } else {
    slot = sniffer_free_.back();
    sniffer_free_.pop_back();
  }
  sniffers_[slot].fn = std::move(sniffer);
  ++sniffer_count_;
  return (static_cast<SnifferId>(sniffers_[slot].gen) << 32) | slot;
}

void PlcMedium::remove_sniffer(SnifferId id) {
  const auto slot = static_cast<std::uint32_t>(id & 0xffffffffu);
  const auto gen = static_cast<std::uint32_t>(id >> 32);
  if (slot >= sniffers_.size()) return;
  SnifferSlot& s = sniffers_[slot];
  if (s.gen != gen || !s.fn) return;  // stale or already-removed id
  s.fn = nullptr;
  ++s.gen;
  sniffer_free_.push_back(slot);
  --sniffer_count_;
}

sim::Time PlcMedium::ifs() {
  const sim::Time ifs = kCifs + pending_beacon_hold_;
  pending_beacon_hold_ = sim::Time{};
  return ifs;
}

void PlcMedium::emit_sof(const PlcFrame& f) const {
  if (sniffer_count_ == 0) return;
  const SofRecord rec{f.start,
                      f.end,
                      f.src,
                      f.dst,
                      f.slot,
                      f.ble_mbps,
                      static_cast<int>(f.pbs.size()),
                      f.n_symbols,
                      f.robo,
                      f.sound,
                      f.dst == net::kBroadcast};
  for (const SnifferSlot& s : sniffers_) {
    if (s.fn) s.fn(rec);
  }
}

sim::Time PlcMedium::finish_round(std::vector<PlcFrame>& frames,
                                  const std::vector<PlcMac*>& senders) {
  assert(!frames.empty() && frames.size() == senders.size());
  const bool collision = frames.size() > 1;
  frames_sent_ += frames.size();

  sim::Time payload_end = frames[0].end;
  for (const PlcFrame& f : frames) payload_end = std::max(payload_end, f.end);

  const sim::Time sack_end = payload_end + kRifs + channel_.phy().delimiter;
  for (std::size_t fi = 0; fi < frames.size(); ++fi) {
    PlcFrame& f = frames[fi];
    PlcMac* sender = senders[fi];
    const bool broadcast = f.dst == net::kBroadcast;

    // SACK collision: frames of (nearly) equal length end together and so
    // do their receivers' SACKs — neither sender learns anything, both
    // infer a collision and retransmit wholesale. No PB-error report ever
    // reaches the estimator, which is why equal-length (saturated or
    // burst-probe) collisions leave BLE untouched while a short probe
    // captured inside a long frame poisons it (§8.2, Fig. 24).
    bool sack_collides = false;
    for (std::size_t gi = 0; collision && gi < frames.size(); ++gi) {
      if (gi == fi) continue;
      const auto gap = f.end >= frames[gi].end ? f.end - frames[gi].end
                                               : frames[gi].end - f.end;
      if (gap < channel_.phy().delimiter) sack_collides = true;
    }

    // SNR advantage of this frame over the strongest concurrent interferer
    // at receiver `rx` — positive and large enough means capture.
    const auto advantage_db = [&](net::StationId rx) {
      if (!collision) return 1e9;
      const double own = channel_.mean_snr_db(f.src, rx, f.slot, f.start);
      double worst = -1e9;
      for (std::size_t gi = 0; gi < frames.size(); ++gi) {
        if (gi == fi) continue;
        worst = std::max(worst,
                         channel_.mean_snr_db(frames[gi].src, rx, f.slot, f.start));
      }
      return own - worst;
    };
    double max_overlap = 0.0;
    for (std::size_t gi = 0; gi < frames.size(); ++gi) {
      if (gi == fi) continue;
      const PlcFrame& g = frames[gi];
      const double ov =
          std::min(f.end, g.end).seconds() - std::max(f.start, g.start).seconds();
      const double len = (f.end - f.start).seconds();
      if (len > 0.0) max_overlap = std::max(max_overlap, std::clamp(ov / len, 0.0, 1.0));
    }

    // Decode attempt at one receiver; returns false when the SoF is lost
    // or the frame exchange cannot complete (SACK collision). On success
    // `errored` holds the corrupted PB positions.
    std::vector<int> errored;
    const auto receive_at = [&](PlcMac& rx_mac) -> bool {
      if (sack_collides && !broadcast) return false;
      const double adv = advantage_db(rx_mac.id());
      if (collision && adv < kCaptureThresholdDb) return false;
      double p = channel_.pb_error_probability(*f.tone_map, f.src, rx_mac.id(),
                                               f.slot, f.start);
      if (fault_pberr_ > 0.0) {
        // Injected impulsive noise rides on top of the channel's own error
        // floor; the estimator cannot tell the two apart (exactly like
        // capture-effect losses, §8.2).
        p = 1.0 - (1.0 - p) * (1.0 - fault_pberr_);
      }
      if (collision) {
        // Captured frame: interference corrupts PBs during the overlap —
        // errors the estimator cannot tell from channel noise (§8.2).
        const double p_extra =
            0.85 * max_overlap * std::exp(-(adv - kCaptureThresholdDb) / 8.0);
        p = 1.0 - (1.0 - p) * (1.0 - p_extra);
      }
      errored.clear();
      for (std::size_t i = 0; i < f.pbs.size(); ++i) {
        if (rng_.bernoulli(p)) errored.push_back(static_cast<int>(i));
      }
      rx_mac.on_frame_received(f, errored, payload_end);
      return true;
    };

    bool decodable = false;
    if (broadcast) {
      for (PlcMac* m : macs_) {
        if (m != sender && receive_at(*m)) decodable = true;
      }
    } else {
      for (PlcMac* m : macs_) {
        if (m->id() == f.dst) {
          decodable = receive_at(*m);
          break;
        }
      }
    }
    if (decodable || !collision) emit_sof(f);

    // Exactly one completion per frame, and it takes only the PBs it may
    // requeue: the SACK's corrupted ones, or the whole frame when no SACK
    // comes (the sender times out and infers a collision). A broadcast is
    // never SACKed and completes when its payload ends.
    if (decodable && !broadcast) {
      std::vector<PbUnit> bad;
      bad.reserve(errored.size());
      for (int i : errored) bad.push_back(f.pbs[static_cast<std::size_t>(i)]);
      sim_.at(sack_end, [sender, bad = std::move(bad)] { sender->on_sack(bad); });
    } else {
      sim_.at(broadcast ? payload_end : sack_end,
              [sender, pbs = std::move(f.pbs), broadcast] {
                sender->on_no_sack(pbs, broadcast);
              });
    }
  }

  // Medium idles after the longest payload plus the SACK exchange.
  return sack_end;
}

}  // namespace efd::plc
