#include "src/testkit/diff.hpp"

#include <cmath>
#include <cstdio>
#include <set>
#include <utility>

#include "src/grid/simd.hpp"
#include "src/plc/channel_estimator.hpp"
#include "src/sim/rng.hpp"
#include "src/testkit/reference.hpp"

namespace efd::testkit {

namespace {

// Agreement bounds between the production fast paths and the naive
// double-precision reference implementations (DESIGN.md §11).

/// exp2/log2 dB conversions vs pow(10, x/10) / 10*log10 — both are a
/// handful of correctly-rounded libm calls apart, so relative error.
constexpr double kDbConversionRel = 1e-12;
/// BER lookup table vs closed-form erfc, absolute (the LUT's own stated
/// contract, regression-tested in plc tests).
constexpr double kUncodedBerAbs = 1e-4;
/// Cached per-carrier static SNR vs a fresh recompute from the grid at
/// the same epoch, absolute dB (identical code path, so near-zero).
constexpr double kStaticSnrAbsDb = 1e-9;
/// Memoized+LUT PB error probability vs the reference recompute with the
/// same 0.25 dB offset quantization. The waterfall slope amplifies the
/// LUT's 1e-4 BER error, hence the looser bound.
constexpr double kPberrAbs = 5e-3;
/// ToneMap's cached Eq. (1) BLE vs the recompute, relative.
constexpr double kBleRel = 1e-12;

struct DiffAccum {
  DiffResult r;

  explicit DiffAccum(std::string what, double tolerance) {
    r.what = std::move(what);
    r.tolerance = tolerance;
  }

  void sample(double err, const char* fmt, auto... args) {
    ++r.samples;
    if (err > r.max_abs_err) {
      r.max_abs_err = err;
      char buf[192];
      std::snprintf(buf, sizeof buf, fmt, args...);
      r.worst_detail = buf;
    }
  }

  DiffResult finish() {
    r.ok = r.max_abs_err <= r.tolerance;
    return r;
  }
};

/// Directed unicast links with built tone maps: the state the run exercised.
struct Link {
  net::StationId tx;
  net::StationId rx;
  const plc::ChannelEstimator* est;
};

std::vector<Link> run_links(ScenarioWorld& world) {
  std::vector<Link> links;
  std::set<std::pair<net::StationId, net::StationId>> seen;
  for (const Scenario::TrafficSpec& t : world.scenario().traffic) {
    if (t.dst < 0) continue;
    const auto& stations = world.scenario().stations;
    const net::StationId tx = stations[static_cast<std::size_t>(t.src)].id;
    const net::StationId rx = stations[static_cast<std::size_t>(t.dst)].id;
    if (!seen.insert({tx, rx}).second) continue;
    const plc::ChannelEstimator& est = world.network().estimator(rx, tx);
    if (est.has_tone_maps()) links.push_back({tx, rx, &est});
  }
  return links;
}

DiffResult diff_db_conversions(ScenarioWorld& world) {
  DiffAccum acc("db-conversions", kDbConversionRel);
  const CarrierMathImpl& fast = fast_impl();
  const CarrierMathImpl& ref = reference_impl();
  sim::Rng rng = sim::Rng{world.scenario().world_seed}.fork(0xd1ffu);
  for (int i = 0; i < 256; ++i) {
    const double db = rng.uniform(-120.0, 80.0);
    const double f = fast.db_to_linear(db);
    const double r = ref.db_to_linear(db);
    acc.sample(std::abs(f - r) / std::max(std::abs(r), 1e-300),
               "db_to_linear(%.6f): fast %.17g ref %.17g", db, f, r);
    const double lin = ref.db_to_linear(rng.uniform(-120.0, 80.0));
    const double fb = fast.linear_to_db(lin);
    const double rb = ref.linear_to_db(lin);
    acc.sample(std::abs(fb - rb) / std::max(std::abs(rb), 1e-12),
               "linear_to_db(%.17g): fast %.12f ref %.12f", lin, fb, rb);
  }
  return acc.finish();
}

DiffResult diff_uncoded_ber(ScenarioWorld& world) {
  DiffAccum acc("uncoded-ber-lut", kUncodedBerAbs);
  const CarrierMathImpl& fast = fast_impl();
  const CarrierMathImpl& ref = reference_impl();
  sim::Rng rng = sim::Rng{world.scenario().world_seed}.fork(0xbe4u);
  for (int i = 0; i < 512; ++i) {
    // Enumerator range: kBpsk (1) .. kQam1024 (7); kOff is trivially 0.
    const auto m = static_cast<plc::Modulation>(rng.uniform_int(1, 7));
    const double snr = rng.uniform(-85.0, 65.0);
    const double f = fast.uncoded_ber(m, snr);
    const double r = ref.uncoded_ber(m, snr);
    acc.sample(std::abs(f - r), "mod %d @ %.3f dB: LUT %.8f exact %.8f",
               static_cast<int>(m), snr, f, r);
  }
  return acc.finish();
}

DiffResult diff_static_snr(ScenarioWorld& world) {
  DiffAccum acc("static-snr-cache", kStaticSnrAbsDb);
  const plc::PlcChannel& ch = world.channel();
  const plc::PhyParams& phy = ch.phy();
  const sim::Time now = world.sim().now();
  // The world channel's entries are computed at their first touch in the
  // epoch, which may be earlier than `now` (the slow drift term is
  // continuous in t, so they differ from a recompute at `now` by the drift
  // delta, legitimately); each is kept once read as a vector or twice as a
  // scalar. A cold-cache channel over the same grid first touches its
  // entries at exactly `now`, so the production assembly path (tx PSD -
  // attenuation - noise, carrier by carrier) must match the naive
  // recompute to rounding.
  plc::PlcChannel cold(ch.grid(), phy);
  for (const Scenario::StationSpec& st : world.scenario().stations) {
    cold.attach_station(st.id, st.outlet);
  }
  for (const Link& l : run_links(world)) {
    const int oa = ch.outlet(l.tx);
    const int ob = ch.outlet(l.rx);
    for (int slot = 0; slot < phy.tone_map_slots; ++slot) {
      const std::vector<double>& cached = cold.static_snr_db(l.tx, l.rx, slot, now);
      const std::vector<double> att =
          ch.grid().attenuation_db(oa, ob, phy.band, now);
      const std::vector<double> noise =
          ch.grid().noise_psd_db(ob, phy.band, now, slot, phy.tone_map_slots);
      for (std::size_t i = 0; i < cached.size(); ++i) {
        const double fresh = phy.tx_psd_db - att[i] - noise[i];
        acc.sample(std::abs(cached[i] - fresh),
                   "link %d->%d slot %d carrier %zu: cached %.12f fresh %.12f",
                   l.tx, l.rx, slot, i, cached[i], fresh);
      }
    }
  }
  return acc.finish();
}

DiffResult diff_pberr(ScenarioWorld& world) {
  DiffAccum acc("pb-error-probability", kPberrAbs);
  const plc::PlcChannel& ch = world.channel();
  const sim::Time now = world.sim().now();
  for (const Link& l : run_links(world)) {
    const auto& maps = l.est->tone_maps();
    // Replicate the production path's 0.25 dB offset quantization so the
    // diff isolates LUT-vs-exact carrier math, not the documented
    // quantization (which is part of the fast path's contract, bounded
    // separately by construction).
    const double offset = ch.fast_offset_db(l.rx, now);
    const double off = std::lround(offset * 4.0) / 4.0;
    int slot = 0;
    for (const plc::ToneMap& tm : maps) {
      const double fast = ch.pb_error_probability(tm, l.tx, l.rx, slot, now);
      std::vector<double> snr = ch.static_snr_db(l.tx, l.rx, slot, now);
      for (double& v : snr) v -= off;
      const double reps = tm.is_robo() ? tm.robo_repetitions() : 1;
      const double refp = ref::pb_error_probability(
          tm.carriers(), snr, static_cast<int>(reps), reference_impl());
      acc.sample(std::abs(fast - refp),
                 "link %d->%d slot %d map %u: fast %.8f ref %.8f", l.tx, l.rx,
                 slot, tm.id(), fast, refp);
      ++slot;
    }
  }
  return acc.finish();
}

DiffResult diff_ble(ScenarioWorld& world) {
  DiffAccum acc("ble-eq1", kBleRel);
  const plc::PhyParams& phy = world.channel().phy();
  for (const Link& l : run_links(world)) {
    for (const plc::ToneMap& tm : l.est->tone_maps()) {
      const double fast = tm.ble_mbps();
      const double ref = ref::ble_mbps(tm, phy);
      acc.sample(std::abs(fast - ref) / std::max(std::abs(ref), 1e-12),
                 "link %d->%d slot map %u: cached %.12f recomputed %.12f", l.tx,
                 l.rx, tm.id(), fast, ref);
    }
  }
  const plc::ToneMap& robo = world.channel().robo();
  const double robo_ref = ref::ble_mbps(robo, phy);
  acc.sample(std::abs(robo.ble_mbps() - robo_ref) / robo_ref,
             "robo map: cached %.12f recomputed %.12f", robo.ble_mbps(), robo_ref);
  return acc.finish();
}

/// Batch-kernel dB arithmetic of one dispatch entry vs the naive reference:
/// the conversion and reduction kernels within db_conversion_rel, and the
/// element-wise kernels against the scalar entry (which they are required to
/// match far tighter than the same bound). Odd vector lengths exercise every
/// entry's tail path.
DiffResult diff_kernels_db(ScenarioWorld& world,
                           const grid::simd::CarrierKernels& k) {
  DiffAccum acc(std::string("kernels-") + k.name + "-db", kDbConversionRel);
  const CarrierMathImpl& ref = reference_impl();
  const grid::simd::CarrierKernels& sc = grid::simd::scalar_kernels();
  sim::Rng rng = sim::Rng{world.scenario().world_seed}.fork(0x51d1u);
  for (const std::size_t n : {std::size_t{1}, std::size_t{7}, std::size_t{916},
                              std::size_t{917}}) {
    std::vector<double> db(n), x(n), out(n), tmp(n), scout(n), sctmp(n);
    for (std::size_t i = 0; i < n; ++i) {
      db[i] = rng.uniform(-120.0, 80.0);
      x[i] = rng.uniform(-50.0, 50.0);
    }
    k.db_to_linear_n(db.data(), out.data(), n);
    double ref_sum = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double r = ref.db_to_linear(db[i]);
      ref_sum += r;
      acc.sample(std::abs(out[i] - r) / std::max(std::abs(r), 1e-300),
                 "%s db_to_linear_n[%zu/%zu]: %.17g ref %.17g", k.name, i, n,
                 out[i], r);
    }
    const double sum = k.sum_db_to_linear_n(db.data(), n);
    acc.sample(std::abs(sum - ref_sum) / std::max(std::abs(ref_sum), 1e-300),
               "%s sum_db_to_linear_n(n=%zu): %.17g ref %.17g", k.name, n, sum,
               ref_sum);
    k.linear_to_db_n(out.data(), tmp.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      const double r = ref.linear_to_db(out[i]);
      acc.sample(std::abs(tmp[i] - r) / std::max(std::abs(r), 1e-12),
                 "%s linear_to_db_n[%zu/%zu]: %.12f ref %.12f", k.name, i, n,
                 tmp[i], r);
    }
    // Element-wise kernels vs the scalar entry.
    k.affine_n(3.25, 0.125, x.data(), out.data(), n);
    sc.affine_n(3.25, 0.125, x.data(), scout.data(), n);
    k.assemble_snr_n(55.0, db.data(), x.data(), tmp.data(), n);
    sc.assemble_snr_n(55.0, db.data(), x.data(), sctmp.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      acc.sample(std::abs(out[i] - scout[i]) / std::max(std::abs(scout[i]), 1e-12),
                 "%s affine_n[%zu/%zu]: %.17g scalar %.17g", k.name, i, n,
                 out[i], scout[i]);
      acc.sample(std::abs(tmp[i] - sctmp[i]) / std::max(std::abs(sctmp[i]), 1e-12),
                 "%s assemble_snr_n[%zu/%zu]: %.17g scalar %.17g", k.name, i, n,
                 tmp[i], sctmp[i]);
    }
    k.accumulate_notch_n(0.75, 4.5, x.data(), out.data(), n);
    sc.accumulate_notch_n(0.75, 4.5, x.data(), scout.data(), n);
    k.accumulate_scaled_n(0.3, db.data(), out.data(), n);
    sc.accumulate_scaled_n(0.3, db.data(), scout.data(), n);
    k.shift_n(out.data(), 1.5, out.data(), n);
    sc.shift_n(scout.data(), 1.5, scout.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      acc.sample(std::abs(out[i] - scout[i]) / std::max(std::abs(scout[i]), 1e-12),
                 "%s notch+scaled+shift[%zu/%zu]: %.17g scalar %.17g", k.name, i,
                 n, out[i], scout[i]);
    }
  }
  return acc.finish();
}

/// One dispatch entry's BER-LUT gather/reduction through the full ToneMap
/// path vs the naive closed-form reference, including the ROBO combining
/// branch, at the PB-error tolerance.
DiffResult diff_kernels_pberr(ScenarioWorld& world,
                              const grid::simd::CarrierKernels& k) {
  DiffAccum acc(std::string("kernels-") + k.name + "-pberr", kPberrAbs);
  const plc::PhyParams& phy = world.channel().phy();
  sim::Rng rng = sim::Rng{world.scenario().world_seed}.fork(0x51d2u);
  const auto n = static_cast<std::size_t>(phy.band.n_carriers);
  for (int trial = 0; trial < 8; ++trial) {
    std::vector<double> snr(n);
    for (double& v : snr) v = rng.uniform(-20.0, 45.0);
    const plc::ToneMap tm =
        plc::ToneMap::from_snr(snr, 2.0, phy, 0.0, static_cast<std::uint32_t>(trial));
    const double fast = tm.pb_error_probability(snr, k);
    const double refp =
        ref::pb_error_probability(tm.carriers(), snr, 1, reference_impl());
    acc.sample(std::abs(fast - refp), "%s trial %d: fast %.8f ref %.8f", k.name,
               trial, fast, refp);
    const plc::ToneMap& robo = world.channel().robo();
    const double fast_robo = robo.pb_error_probability(snr, k);
    const double ref_robo = ref::pb_error_probability(
        robo.carriers(), snr, robo.robo_repetitions(), reference_impl());
    acc.sample(std::abs(fast_robo - ref_robo),
               "%s robo trial %d: fast %.8f ref %.8f", k.name, trial, fast_robo,
               ref_robo);
  }
  return acc.finish();
}

}  // namespace

std::vector<DiffResult> run_diff(ScenarioWorld& world) {
  std::vector<DiffResult> out{
      diff_db_conversions(world), diff_uncoded_ber(world),
      diff_static_snr(world),     diff_pberr(world),
      diff_ble(world),
  };
  // Every dispatch entry this machine can run: scalar always, plus the
  // vector implementations whose ISA the CPU reports.
  for (const grid::simd::CarrierKernels* k : grid::simd::available_kernels()) {
    out.push_back(diff_kernels_db(world, *k));
    out.push_back(diff_kernels_pberr(world, *k));
  }
  return out;
}

std::vector<DiffResult> diff_failures(const std::vector<DiffResult>& r) {
  std::vector<DiffResult> out;
  for (const DiffResult& d : r) {
    if (!d.ok) out.push_back(d);
  }
  return out;
}

}  // namespace efd::testkit
