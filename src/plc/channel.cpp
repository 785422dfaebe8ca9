#include "src/plc/channel.hpp"

#include <cassert>
#include <cmath>

#include "src/grid/simd.hpp"
#include "src/obs/obs.hpp"

namespace efd::plc {

void PlcChannel::attach_station(net::StationId id, int outlet) {
  assert(outlet >= 0 && outlet < grid_.node_count());
  outlets_[id] = outlet;
}

int PlcChannel::outlet(net::StationId id) const {
  const auto it = outlets_.find(id);
  assert(it != outlets_.end() && "station not attached to the grid");
  return it->second;
}

int PlcChannel::slot_at(sim::Time t) const {
  const double phase = grid::Mains::half_cycle_phase(t);
  const int slot = static_cast<int>(phase * phy_.tone_map_slots);
  return std::min(slot, phy_.tone_map_slots - 1);
}

PlcChannel::SnrEntry& PlcChannel::touch(net::StationId a, net::StationId b, int slot,
                                        sim::Time t) const {
  const std::uint64_t epoch = grid_.state_epoch(t);
  if (!cache_epoch_valid_ || cache_epoch_ != epoch) {
    // Appliance state moved: every cached vector and memo is stale. Evict
    // wholesale so entries for links that are never queried again cannot
    // accumulate across epochs.
    EFD_COUNTER_INC("plc.channel.cache_evictions");
    cache_.clear();
    atten_cache_.clear();
    cache_epoch_ = epoch;
    cache_epoch_valid_ = true;
  }
  const auto [it, fresh] = cache_.try_emplace(link_key(a, b, slot));
  if (fresh) it->second.t0 = t;
  return it->second;
}

const std::vector<double>& PlcChannel::compute_snr(SnrEntry& e, net::StationId a,
                                                   net::StationId b, int slot,
                                                   bool keep) const {
  const int oa = outlet(a);
  const int ob = outlet(b);
  // Every SNR entry computes at its first touch, so this entry's stamp is
  // the instant the link's attenuation is first touched.
  const auto [it, fresh] = atten_cache_.try_emplace(link_key(a, b, 0x3f));
  AttenEntry& ae = it->second;
  if (fresh) ae.t0 = e.t0;
  thread_local std::vector<double> att_scratch;
  thread_local std::vector<double> snr_scratch;
  // A transient compute reads a kept attenuation but keeps none itself.
  std::vector<double>& att = keep || !ae.att_db.empty() ? ae.att_db : att_scratch;
  if (ae.att_db.empty()) grid_.attenuation_db(oa, ob, phy_.band, ae.t0, att);
  // The noise lands in the output vector; the SNR is assembled over it in
  // place.
  std::vector<double>& snr = keep ? e.snr_db : snr_scratch;
  grid_.noise_psd_db(ob, phy_.band, e.t0, slot, phy_.tone_map_slots, snr);
  grid::simd::active_kernels().assemble_snr_n(phy_.tx_psd_db, att.data(), snr.data(),
                                              snr.data(), att.size());
  if (keep && ++ae.kept_slots == phy_.tone_map_slots) {
    // Every slot's vector is kept: no query in this epoch reads the
    // attenuation again.
    std::vector<double>().swap(ae.att_db);
    EFD_COUNTER_INC("plc.channel.atten_released");
  }
  return snr;
}

PlcChannel::SnrEntry& PlcChannel::entry(net::StationId a, net::StationId b, int slot,
                                        sim::Time t) const {
  SnrEntry& e = touch(a, b, slot, t);
  if (!e.snr_db.empty()) {
    EFD_COUNTER_INC("plc.channel.snr_cache_hits");
    return e;
  }
  EFD_COUNTER_INC("plc.channel.snr_cache_misses");
  compute_snr(e, a, b, slot, true);
  return e;
}

const std::vector<double>& PlcChannel::static_snr_db(net::StationId a, net::StationId b,
                                                     int slot, sim::Time t) const {
  return entry(a, b, slot, t).snr_db;
}

double PlcChannel::fast_offset_db(net::StationId b, sim::Time t) const {
  const int ob = outlet(b);
  if (ob != offset_outlet_ || t != offset_t_) {
    offset_db_ = grid_.fast_noise_offset_db(ob, t);
    offset_outlet_ = ob;
    offset_t_ = t;
  }
  return offset_db_;
}

std::vector<double> PlcChannel::snr_db(net::StationId a, net::StationId b, int slot,
                                       sim::Time t) const {
  std::vector<double> snr = entry(a, b, slot, t).snr_db;
  const double offset = fast_offset_db(b, t);
  grid::simd::active_kernels().shift_n(snr.data(), offset, snr.data(), snr.size());
  return snr;
}

double PlcChannel::pb_error_probability(const ToneMap& tm, net::StationId a,
                                        net::StationId b, int slot, sim::Time t) const {
  SnrEntry& e = entry(a, b, slot, t);
  const double offset = fast_offset_db(b, t);
  // Quantize the scalar offset to 0.25 dB buckets for memoization.
  const auto bucket = static_cast<std::int64_t>(std::lround(offset * 4.0));
  const std::uint64_t key =
      (static_cast<std::uint64_t>(tm.id()) << 20) ^
      static_cast<std::uint64_t>(static_cast<std::uint32_t>(bucket + 512));
  const auto it = e.pberr.find(key);
  if (it != e.pberr.end()) {
    EFD_COUNTER_INC("plc.channel.pberr_memo_hits");
    return it->second;
  }
  EFD_COUNTER_INC("plc.channel.pberr_memo_misses");

  // Shift into per-thread scratch instead of allocating a fresh vector.
  thread_local std::vector<double> shifted;
  const double off = static_cast<double>(bucket) / 4.0;
  shifted.resize(e.snr_db.size());
  grid::simd::active_kernels().shift_n(e.snr_db.data(), off, shifted.data(),
                                       e.snr_db.size());
  const double p = tm.pb_error_probability(shifted);
  // Bound the memo: tone maps churn on bad links, so evict wholesale.
  if (e.pberr.size() > 4096) e.pberr.clear();
  e.pberr[key] = p;
  return p;
}

double PlcChannel::cable_distance(net::StationId a, net::StationId b) const {
  return grid_.cable_distance(outlet(a), outlet(b));
}

double PlcChannel::mean_snr_db(net::StationId a, net::StationId b, int slot,
                               sim::Time t) const {
  SnrEntry& e = touch(a, b, slot, t);
  const std::vector<double>* snr = &e.snr_db;
  if (!snr->empty()) {
    EFD_COUNTER_INC("plc.channel.snr_cache_hits");
  } else if (e.scalar_queries++ > 0) {
    // Asked again: keep the vector, so repeated queries (the medium's
    // per-collision capture check) pay for one recompute at most.
    EFD_COUNTER_INC("plc.channel.snr_cache_misses");
    compute_snr(e, a, b, slot, true);
  } else {
    EFD_COUNTER_INC("plc.channel.snr_transient");
    snr = &compute_snr(e, a, b, slot, false);
  }
  // Same sum, in the same order, as averaging `snr_db`: each shifted entry
  // is the exact difference `v - offset`, without the copy.
  const double offset = fast_offset_db(b, t);
  double sum = 0.0;
  for (double v : *snr) sum += v - offset;
  return snr->empty() ? 0.0 : sum / static_cast<double>(snr->size());
}

}  // namespace efd::plc
