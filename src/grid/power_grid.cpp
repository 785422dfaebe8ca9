#include "src/grid/power_grid.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <numbers>

#include "src/grid/db_units.hpp"
#include "src/grid/simd.hpp"
#include "src/grid/value_noise.hpp"
#include "src/obs/obs.hpp"
#include "src/sim/fnv1a.hpp"

namespace efd::grid {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Cable attenuation coefficients: a small per-meter term plus a
/// frequency-dependent term (skin effect / dielectric loss grow with
/// frequency), cable_loss_db(d, f) = kCableLossPerM*d + kCableLossPerMMhz*d*f.
/// Calibrated so that a bare 70 m cable costs only a few dB — the paper
/// observes at most a 2 Mb/s throughput drop over 70 m of unloaded cable
/// (§5). The large distance losses observed in buildings come from branch
/// taps, not the cable itself.
constexpr double kCableLossPerM = 0.015;
constexpr double kCableLossPerMMhz = 0.0012;

/// Insertion loss of one branch tap (T-junction) along the path: every
/// junction splits signal power into the side branches.
constexpr double kTapLossDb = 1.5;

/// Reflection coefficient magnitude of a load Z against the line impedance.
double reflection(double z_load) {
  return std::abs(z_load - PowerGrid::kZ0) / (z_load + PowerGrid::kZ0);
}

/// Per-appliance mains-synchronous noise weight for a tone-map slot: a
/// smooth per-appliance phase over the half cycle, in [0, 1].
double slot_weight(const Appliance& a, int slot, int n_slots) {
  const double phase =
      2.0 * std::numbers::pi * ValueNoise::hash01(a.seed, 200);
  const double x = (static_cast<double>(slot) + 0.5) / static_cast<double>(n_slots);
  return 0.5 * (1.0 + std::sin(2.0 * std::numbers::pi * x + phase));
}

}  // namespace

int PowerGrid::add_node(std::string name) {
  distances_valid_ = false;
  names_.push_back(std::move(name));
  return static_cast<int>(names_.size()) - 1;
}

void PowerGrid::add_cable(int a, int b, double length_m, double extra_loss_db) {
  assert(a >= 0 && a < node_count() && b >= 0 && b < node_count());
  assert(length_m > 0.0 && extra_loss_db >= 0.0);
  distances_valid_ = false;
  cables_.push_back({a, b, length_m, extra_loss_db});
}

int PowerGrid::add_appliance(Appliance appliance) {
  assert(appliance.outlet >= 0 && appliance.outlet < node_count());
  distances_valid_ = false;  // noise-neighbor lists must be rebuilt
  epoch_bucket_ = -1;
  profiles_.clear();  // per-(appliance, band) tables must be rebuilt
  appliances_.push_back(std::move(appliance));
  return static_cast<int>(appliances_.size()) - 1;
}

const PowerGrid::BandProfiles& PowerGrid::ensure_profiles(const CarrierBand& band) const {
  for (const BandProfiles& p : profiles_) {
    if (p.band.f_min_mhz == band.f_min_mhz && p.band.f_max_mhz == band.f_max_mhz &&
        p.band.n_carriers == band.n_carriers) {
      return p;
    }
  }
  EFD_COUNTER_INC("grid.profiles.rebuilds");
  EFD_PROF_SCOPE("grid.profiles");  // rebuild path only; hits return above
  BandProfiles p;
  p.band = band;
  const auto n = static_cast<std::size_t>(band.n_carriers);
  p.freq_mhz.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    p.freq_mhz[i] = band.carrier_mhz(static_cast<int>(i));
  }
  p.notch_sin.resize(appliances_.size() * n);
  p.color_lin.resize(appliances_.size() * n);
  for (std::size_t k = 0; k < appliances_.size(); ++k) {
    const Appliance& j = appliances_[k];
    const double phi = 2.0 * std::numbers::pi * ValueNoise::hash01(j.seed, 300);
    double* notch = &p.notch_sin[k * n];
    double* color = &p.color_lin[k * n];
    for (std::size_t i = 0; i < n; ++i) {
      const double f = p.freq_mhz[i];
      notch[i] = std::sin(2.0 * std::numbers::pi * f * j.branch_delay_us + phi);
      color[i] = db_to_linear(j.noise.base_db + j.noise.color_db_per_mhz * f);
    }
  }
  profiles_.push_back(std::move(p));
  return profiles_.back();
}

void PowerGrid::ensure_distances() const {
  if (distances_valid_) return;
  EFD_PROF_SCOPE("grid.distances");
  const auto n = names_.size();
  dist_.assign(n * n, kInf);
  extra_.assign(n * n, 0.0);
  hops_.assign(n * n, 0);
  for (std::size_t i = 0; i < n; ++i) dist_[i * n + i] = 0.0;
  for (const Cable& c : cables_) {
    const auto a = static_cast<std::size_t>(c.a);
    const auto b = static_cast<std::size_t>(c.b);
    if (c.length_m < dist_[a * n + b]) {
      dist_[a * n + b] = dist_[b * n + a] = c.length_m;
      extra_[a * n + b] = extra_[b * n + a] = c.extra_loss_db;
      hops_[a * n + b] = hops_[b * n + a] = 1;
    }
  }
  // Floyd-Warshall; the grid has at most a few dozen nodes. The lumped
  // extra loss and the tap count ride along the shortest-by-length path.
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t i = 0; i < n; ++i) {
      const double dik = dist_[i * n + k];
      if (dik == kInf) continue;
      for (std::size_t j = 0; j < n; ++j) {
        const double alt = dik + dist_[k * n + j];
        if (alt < dist_[i * n + j]) {
          dist_[i * n + j] = alt;
          extra_[i * n + j] = extra_[i * n + k] + extra_[k * n + j];
          hops_[i * n + j] = hops_[i * n + k] + hops_[k * n + j];
        }
      }
    }
  }
  distances_valid_ = true;

  // Precompute, per node, the appliances whose noise can reach it.
  noise_neighbors_.assign(n, {});
  for (std::size_t node = 0; node < n; ++node) {
    for (std::size_t k = 0; k < appliances_.size(); ++k) {
      if (noise_coupling(appliances_[k], static_cast<int>(node)) >= 1e-3) {
        noise_neighbors_[node].push_back(static_cast<int>(k));
      }
    }
  }
}

double PowerGrid::cable_distance(int a, int b) const {
  ensure_distances();
  return dist(a, b);
}

double PowerGrid::path_extra_loss_db(int a, int b) const {
  ensure_distances();
  return extra(a, b);
}

double PowerGrid::noise_coupling(const Appliance& j, int node) const {
  const double d = dist(j.outlet, node);
  if (d == kInf) return 0.0;
  // Noise travels along the same lossy line, decaying over a ~9 m scale.
  return std::exp(-d / 9.0);
}

double PowerGrid::path_weight(const Appliance& j, int a, int b) const {
  const double dab = dist(a, b);
  const double detour = dist(a, j.outlet) + dist(j.outlet, b) - dab;
  if (!(detour < kInf)) return 0.0;
  // On-path appliances (detour ~ 0) matter fully; branches decay over ~8 m.
  return std::exp(-std::max(0.0, detour) / 8.0);
}

std::vector<double> PowerGrid::attenuation_db(int a, int b, const CarrierBand& band,
                                              sim::Time t) const {
  std::vector<double> att;
  attenuation_db(a, b, band, t, att);
  return att;
}

void PowerGrid::attenuation_db(int a, int b, const CarrierBand& band, sim::Time t,
                               std::vector<double>& out) const {
  EFD_COUNTER_INC("grid.atten.queries");
  EFD_PROF_SCOPE("grid.atten");
  ensure_distances();
  assert(a >= 0 && a < node_count() && b >= 0 && b < node_count());
  const simd::CarrierKernels& kernels = simd::active_kernels();
  const auto n = static_cast<std::size_t>(band.n_carriers);
  out.resize(n);
  const double d = dist(a, b);
  if (d == kInf) {
    std::fill(out.begin(), out.end(), 200.0);  // no electrical path
    return;
  }
  const BandProfiles& prof = ensure_profiles(band);

  // Transmitter-side injection loss: low-impedance loads plugged near the
  // transmitter shunt the injected signal, and the outlet's own coupling
  // quality (socket contact, extension strips) varies from a fraction of a
  // dB to several dB. Both depend on the *transmitter* end only, which is
  // what makes links asymmetric (§5: ~30% of pairs exceed 1.5x).
  double injection_db = 6.0 * ValueNoise::hash01(0x1aeceULL, a);
  for (const Appliance& j : appliances_) {
    if (!j.schedule.is_on(t)) continue;
    const double dj = dist(j.outlet, a);
    if (dj == kInf) continue;
    const double proximity = std::exp(-dj / 7.0);
    // Passive stubs do not shunt the transmitter the way operating loads
    // do; their effect is pure multipath.
    if (j.type == ApplianceType::kPassiveStub) continue;
    injection_db += proximity * 2.5 * (kZ0 / (kZ0 + j.impedance_ohm));
  }

  // Slow drift of the transfer function (thermal, minor load changes): a
  // fraction of a dB over hours.
  const std::uint64_t link_seed =
      0x5eedULL ^ (static_cast<std::uint64_t>(a) << 32) ^ static_cast<std::uint64_t>(b);
  const double drift_db = 0.6 * ValueNoise::fractal(link_seed, t.seconds() / 3600.0, 2);

  // Lumped panel losses plus tap loss at every junction crossed. A direct
  // cable (one hop) has no taps, which keeps the paper's bare-70 m-cable
  // observation intact.
  const double lumped_db =
      extra(a, b) + kTapLossDb * std::max(0, hops(a, b) - 1);
  // Cable loss is affine in carrier frequency, so the whole base spectrum is
  // one affine map of the precomputed carrier-frequency vector.
  const double base_db = kCableLossPerM * d + lumped_db + injection_db + drift_db;
  // The batched carrier work attributes to the live dispatch entry
  // ("scalar"/"avx2"/"neon"), so the profile tree separates per-carrier
  // kernel time from the per-appliance scalar prologue above.
  EFD_PROF_SCOPE(kernels.name);
  kernels.affine_n(base_db, kCableLossPerMMhz * d, prof.freq_mhz.data(), out.data(), n);

  // Multipath notches from impedance mismatches of powered appliances near
  // the path. Each appliance's branch line creates frequency-periodic
  // notches at spacing 1/branch_delay; the sine profile is time-invariant
  // and read from the band table.
  for (std::size_t k = 0; k < appliances_.size(); ++k) {
    const Appliance& j = appliances_[k];
    if (!j.schedule.is_on(t)) continue;
    const double w = path_weight(j, a, b);
    if (w < 1e-3) continue;
    const double gamma = reflection(j.impedance_ohm);
    const double depth = j.notch_depth_db * gamma * w;
    const double broadband = 0.5 * gamma * w;
    kernels.accumulate_notch_n(broadband, depth, &prof.notch_sin[k * n], out.data(), n);
  }
}

std::vector<double> PowerGrid::noise_psd_db(int b, const CarrierBand& band, sim::Time t,
                                            int slot, int n_slots) const {
  std::vector<double> noise;
  noise_psd_db(b, band, t, slot, n_slots, noise);
  return noise;
}

void PowerGrid::noise_psd_db(int b, const CarrierBand& band, sim::Time t, int slot,
                             int n_slots, std::vector<double>& out) const {
  EFD_COUNTER_INC("grid.noise.queries");
  EFD_PROF_SCOPE("grid.noise");
  ensure_distances();
  assert(b >= 0 && b < node_count());
  assert(slot >= 0 && slot < n_slots);
  const simd::CarrierKernels& kernels = simd::active_kernels();
  const BandProfiles& prof = ensure_profiles(band);
  const auto n = static_cast<std::size_t>(band.n_carriers);
  // Background mains noise: the grid outside the building couples in a
  // residual wideband, mains-synchronous component that never switches off
  // (why night traces still wiggle, §6.2). It sits over the 0 dB floor.
  const double bg_phase = (static_cast<double>(slot) + 0.5) / n_slots;
  const double bg_db =
      1.0 + 1.5 * 0.5 * (1.0 + std::sin(2.0 * std::numbers::pi * bg_phase + 0.7));
  // Accumulate appliance contributions in the power domain over the floor.
  // Each appliance factors into (per-query scalar) x (precomputed spectral
  // profile), so the inner loop carries no transcendentals.
  out.assign(n, 1.0 + db_to_linear(bg_db));
  EFD_PROF_SCOPE(kernels.name);
  for (int k : noise_neighbors_[static_cast<std::size_t>(b)]) {
    const Appliance& j = appliances_[static_cast<std::size_t>(k)];
    if (!j.schedule.is_on(t)) continue;
    const double coupling = noise_coupling(j, b);
    // The -3 dB injection factor models the appliance's own EMI filtering;
    // calibrated so working-hours load costs links a few dB of SNR, not
    // their lives (the paper's day/night swing is a handful of Mb/s).
    const double coupling_db = 10.0 * std::log10(coupling) - 6.0;
    const double sync_db = j.noise.sync_db * slot_weight(j, slot, n_slots);
    const double scale = db_to_linear(sync_db + coupling_db);
    kernels.accumulate_scaled_n(scale, &prof.color_lin[static_cast<std::size_t>(k) * n],
                                out.data(), n);
  }
  kernels.linear_to_db_n(out.data(), out.data(), n);
}

double PowerGrid::fast_noise_offset_db(int b, sim::Time t) const {
  ensure_distances();
  const std::vector<int>& neighbors =
      noise_neighbors_[static_cast<std::size_t>(b)];
  // Residual grid-wide jitter, present around the clock.
  double offset = 2.5 * ValueNoise::fractal(0xb6dULL ^ static_cast<std::uint64_t>(b),
                                            t.seconds() / 0.12, 2);
  // Background impulsive noise: switching transients elsewhere in the
  // building arrive as ~10 ms bursts whose magnitude varies widely. A link
  // with little SNR headroom errors on most of them (frequent tone-map
  // updates, ~100 ms scale); a link with ample headroom only on the rare
  // big ones — which is exactly the quality/update-rate coupling of §6.2.
  {
    const auto window = sim::milliseconds(10);
    const auto idx = t.ns() / window.ns();
    const std::uint64_t bs = static_cast<std::uint64_t>(b);
    if (ValueNoise::hash01(0x1497ULL ^ bs, idx) < 0.012) {
      const double u = ValueNoise::hash01(0x1498ULL ^ bs, idx);
      offset += 2.0 + 12.0 * u * u;
    }
  }
  for (int k : neighbors) {
    const Appliance& j = appliances_[static_cast<std::size_t>(k)];
    if (!j.schedule.is_on(t)) continue;
    const double coupling = noise_coupling(j, b);
    // Cycle-scale jitter: smooth value noise with a ~100 ms lattice.
    offset += coupling * j.noise.jitter_db *
              ValueNoise::fractal(j.seed ^ 0x11c7ULL, t.seconds() / 0.1, 2);
    // Switching impulses: 10 ms windows active at the appliance's rate.
    if (j.noise.impulse_rate_hz > 0.0) {
      const auto window = sim::milliseconds(10);
      const auto idx = t.ns() / window.ns();
      const double p = j.noise.impulse_rate_hz * window.seconds();
      if (ValueNoise::hash01(j.seed ^ 0x1337ULL, idx) < p) {
        offset += coupling * j.noise.impulse_db;
      }
    }
  }
  return offset;
}

std::uint64_t PowerGrid::state_epoch(sim::Time t) const {
  // Memoize per 1 s bucket: this is called on every channel query, and
  // appliance schedules only move on second scales.
  const std::int64_t bucket = t.ns() / sim::seconds(1).ns();
  if (bucket == epoch_bucket_) return epoch_value_;
  sim::Fnv1a64 hash;
  for (const Appliance& j : appliances_) hash.mix_byte(j.schedule.is_on(t) ? 1 : 0);
  const std::uint64_t epoch = hash.h;
  EFD_COUNTER_INC("grid.epoch.recomputes");
  if (epoch_bucket_ >= 0 && epoch != epoch_value_) {
    EFD_COUNTER_INC("grid.epoch.advances");
  }
  epoch_bucket_ = bucket;
  epoch_value_ = epoch;
  return epoch;
}

int PowerGrid::appliances_on(sim::Time t) const {
  int n = 0;
  for (const Appliance& j : appliances_) n += j.schedule.is_on(t) ? 1 : 0;
  return n;
}

}  // namespace efd::grid
