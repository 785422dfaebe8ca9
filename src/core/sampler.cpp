#include "src/core/sampler.hpp"

#include <algorithm>
#include <cmath>

namespace efd::core {

namespace {

/// OFDM symbols per emulated frame (saturated frames are long).
constexpr int kSymbolsPerFrame = 40;

/// Binomial draw for PB errors: exact sampling is wasteful for thousands of
/// PBs per step; use a normal approximation above a small-n cutoff.
int draw_errors(sim::Rng& rng, int n, double p) {
  if (p <= 0.0 || n <= 0) return 0;
  if (p >= 1.0) return n;
  if (n <= 32) {
    int errors = 0;
    for (int i = 0; i < n; ++i) errors += rng.bernoulli(p) ? 1 : 0;
    return errors;
  }
  const double mean = n * p;
  const double sd = std::sqrt(n * p * (1.0 - p));
  const int e = static_cast<int>(std::lround(rng.normal(mean, sd)));
  return std::clamp(e, 0, n);
}

}  // namespace

LinkTraceSampler::LinkTraceSampler(const plc::PlcChannel& channel,
                                   plc::ChannelEstimator& estimator,
                                   net::StationId tx, net::StationId rx, sim::Rng rng,
                                   Config config)
    : channel_(channel),
      estimator_(estimator),
      tx_(tx),
      rx_(rx),
      rng_(rng),
      cfg_(config) {}

double LinkTraceSampler::step(sim::Time now) {
  if (!estimator_.has_tone_maps()) estimator_.on_sound_frame(now);
  const int slots = channel_.phy().tone_map_slots;
  const int pbs_per_slot = std::max(1, cfg_.pbs_per_step / slots);
  for (int s = 0; s < slots; ++s) {
    const plc::ToneMap& tm =
        estimator_.tone_maps()[static_cast<std::size_t>(s)];
    const double p = channel_.pb_error_probability(tm, tx_, rx_, s, now);
    // Batch the slot's traffic into a handful of statistically equivalent
    // frame reports — the estimator consumes PB counts, so a long step need
    // not be replayed frame by frame.
    const int frames = std::clamp(
        pbs_per_slot * 8 / (kSymbolsPerFrame * 10), 1, 6);
    const int pbs_per_frame = std::max(1, pbs_per_slot / frames);
    for (int f = 0; f < frames; ++f) {
      const int errors = draw_errors(rng_, pbs_per_frame, p);
      estimator_.on_frame_received(s, pbs_per_frame, errors,
                                   kSymbolsPerFrame, now);
    }
  }
  return estimator_.average_ble_mbps();
}

std::vector<BleSample> LinkTraceSampler::run(sim::Time from, sim::Time to) {
  std::vector<BleSample> trace;
  trace.reserve(static_cast<std::size_t>((to - from) / cfg_.step) + 1);
  for (sim::Time t = from; t < to; t += cfg_.step) {
    trace.push_back({t, step(t)});
  }
  return trace;
}

ProbeTraceSampler::ProbeTraceSampler(const plc::PlcChannel& channel,
                                     plc::ChannelEstimator& estimator,
                                     net::StationId tx, net::StationId rx,
                                     sim::Rng rng, Config config)
    : channel_(channel),
      estimator_(estimator),
      tx_(tx),
      rx_(rx),
      rng_(rng),
      cfg_(config) {}

double ProbeTraceSampler::step(sim::Time now) {
  if (!started_) {
    last_ = now;
    started_ = true;
  }
  const double elapsed = (now - last_).seconds();
  const int probes = static_cast<int>(std::floor(elapsed * cfg_.packets_per_second));
  if (probes <= 0) return estimator_.average_ble_mbps();
  last_ += sim::seconds(probes / cfg_.packets_per_second);

  const plc::PhyParams& phy = channel_.phy();
  const auto pb_payload =
      static_cast<std::size_t>(plc::PhyParams::kPbPayloadBytes);
  const int pbs = std::max(
      1, static_cast<int>((cfg_.packet_bytes + pb_payload - 1) / pb_payload));
  for (int k = 0; k < probes; ++k) {
    if (!estimator_.has_tone_maps()) estimator_.on_sound_frame(now);
    // Probes land at an arbitrary point of the mains cycle.
    const int slot = static_cast<int>(rng_.uniform_int(0, phy.tone_map_slots - 1));
    const plc::ToneMap& tm =
        estimator_.tone_maps()[static_cast<std::size_t>(slot)];
    const double bits_per_symbol = std::max(
        1.0, tm.phy_rate_mbps() * phy.symbol.us() * phy.pb_wire_efficiency);
    const int n_symbols = std::max(
        1, static_cast<int>(std::ceil(pbs * plc::PhyParams::pb_bits() / bits_per_symbol)));
    const double p = channel_.pb_error_probability(tm, tx_, rx_, slot, now);
    const int errors = draw_errors(rng_, pbs, p);
    estimator_.on_frame_received(slot, pbs, errors, n_symbols, now);
  }
  return estimator_.average_ble_mbps();
}

std::vector<BleSample> ProbeTraceSampler::run(sim::Time from, sim::Time to,
                                              sim::Time sample_every) {
  std::vector<BleSample> trace;
  for (sim::Time t = from; t < to; t += sample_every) {
    trace.push_back({t, step(t)});
  }
  return trace;
}

}  // namespace efd::core
