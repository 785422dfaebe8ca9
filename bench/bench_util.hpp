#pragma once

// Shared plumbing for the paper-reproduction benches: every bench's main is
// one bench::run call, which prints the figure's header, hands the body the
// Fig. 2 testbed (when it asks for one) and writes BENCH_<id>.json. The body
// runs one experiment and prints the rows/series of the corresponding paper
// table or figure plus the reference shape to compare against. See
// DESIGN.md §4 for the experiment index and each bench's scaling floor.

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/core/capacity.hpp"
#include "src/core/sampler.hpp"
#include "src/core/sof_capture.hpp"
#include "src/grid/schedule.hpp"
#include "src/grid/simd.hpp"
#include "src/net/meters.hpp"
#include "src/net/sources.hpp"
#include "src/obs/obs.hpp"
#include "src/sim/sharded.hpp"
#include "src/sim/stats.hpp"
#include "src/testbed/experiment.hpp"
#include "src/testbed/parallel_runner.hpp"

namespace efd::bench {

/// `value` times the EFD_BENCH_SCALE multiplier (default 1.0), clamped from
/// below at `floor`: the smallest scale at which the bench's claim still
/// reads. CI's bench smoke job sets a fraction so the whole suite finishes
/// in seconds; the output keeps its shape, only the statistical weight drops.
inline double scaled(double value, double floor) {
  static const double scale = [] {
    const char* env = std::getenv("EFD_BENCH_SCALE");
    if (env == nullptr) return 1.0;
    const double v = std::atof(env);
    return v > 0.0 ? v : 1.0;
  }();
  return value * std::max(scale, floor);
}

/// A digest cut to six decimal digits: a metric is a double, which holds a
/// 64-bit digest only approximately, and the baselines pin six digits.
inline std::uint64_t digest6(std::uint64_t h) { return h % 1'000'000; }

/// Machine-readable bench results: collects (name, value, unit) metrics
/// that bench::run writes to `BENCH_<id>.json` next to the human-readable
/// table, with the run's wall-clock and a full `metrics_snapshot` block from
/// efd::obs (every layer's counters and histograms, merged across
/// ParallelRunner workers). Downstream tooling diffs these files across
/// commits to track the perf/shape trajectory.
class JsonReporter {
 public:
  /// Records a metric and returns its value, so a bench prints exactly the
  /// number it records.
  double add(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, unit, value});
    return value;
  }

  void write(const std::string& id, double wall_s) {
    // Event-engine throughput, the headline the perf CI gate tracks: total
    // dispatched events (merged across ParallelRunner workers) over the
    // bench's wall clock. Zero when efd::obs is runtime-disabled.
    const auto snap = obs::MetricsRegistry::instance().snapshot();
    const auto events =
        static_cast<double>(snap.counter("sim.events_dispatched"));
    metrics_.push_back({"sim_events_dispatched", "events", events});
    metrics_.push_back(
        {"sim_events_per_sec", "events/s", wall_s > 0.0 ? events / wall_s : 0.0});
    // Which carrier-kernel dispatch entry produced this run (index into
    // grid::simd::available_kernels(): 0 = scalar). Comparing runs made with
    // different entries is still valid — shape metrics are ISA-independent —
    // but the comparator surfaces the mismatch instead of hiding it.
    metrics_.push_back({"carrier_math_impl", "index",
                        static_cast<double>(grid::simd::active_impl_index())});
    // Fault machine metric (DESIGN.md §15), present in every BENCH_*.json
    // so the comparator can surface chaos-profile drift (warn-only: it
    // depends on the bench's fault plan). The cell-world benches add
    // mailbox_peak_occupancy themselves (mailbox_peak below).
    const auto fault_events =
        static_cast<double>(snap.counter("fault.injector.applied") +
                            snap.counter("fault.injector.cleared") +
                            snap.counter("fault.injector.recovery_events"));
    metrics_.push_back({"fault_events", "events", fault_events});
    const std::string path = "BENCH_" + id + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return;
    std::fprintf(f, "{\n  \"figure\": \"%s\",\n", escaped(id).c_str());
    std::fprintf(f, "  \"wall_clock_s\": %.3f,\n", wall_s);
    std::fprintf(f, "  \"metrics\": [\n");
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      const Metric& m = metrics_[i];
      // Counts are written exactly (a double holds every integer below
      // 2^53), so the comparator's exact-match gate sees every event;
      // everything else keeps six significant digits.
      const bool integral =
          std::abs(m.value) < 0x1p53 && m.value == std::trunc(m.value);
      std::fprintf(f, "    {\"name\": \"%s\", \"value\": ", escaped(m.name).c_str());
      std::fprintf(f, integral ? "%.0f" : "%.6g", m.value);
      std::fprintf(f, ", \"unit\": \"%s\"}%s\n", escaped(m.unit).c_str(),
                   i + 1 < metrics_.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n");
    std::fprintf(f, "  \"metrics_snapshot\": %s\n}\n",
                 obs::snapshot_json(/*indent=*/2).c_str());
    std::fclose(f);
  }

 private:
  struct Metric {
    std::string name;
    std::string unit;
    double value;
  };

  static std::string escaped(const std::string& s) {
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
      if (c == '"' || c == '\\') out.push_back('\\');
      out.push_back(c);
    }
    return out;
  }

  std::vector<Metric> metrics_;
};

/// Wall-clock seconds `f()` takes.
template <typename F>
double wall_seconds(const F& f) {
  const auto t0 = std::chrono::steady_clock::now();
  f();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

/// What every bench declares about itself.
struct Figure {
  const char* id;  ///< names the bench's BENCH_<id>.json
  const char* label;
  const char* title;
  const char* paper_shape;
};

/// The Fig. 2 testbed as the benches run it: HomePlug AV only (fig07 adds
/// the HPAV500 stack for its AV-vs-AV500 comparison).
inline testbed::Testbed::Config fig2_config() {
  testbed::Testbed::Config cfg;
  cfg.with_hpav500 = false;
  return cfg;
}

/// A bench's whole main: prints the header, runs `body` and writes what it
/// records to BENCH_<id>.json. A `(sim::Simulator&, testbed::Testbed&,
/// JsonReporter&)` body gets a fresh fig2_config() testbed on that simulator.
template <typename Body>
int run(const Figure& fig, const Body& body) {
  std::printf("==============================================================\n");
  std::printf("%s — %s\n", fig.label, fig.title);
  std::printf("paper shape: %s\n", fig.paper_shape);
  std::printf("==============================================================\n");
  // Still open while write() snapshots, so the emitted profile root tracks
  // the bench wall clock (the CI smoke job asserts within 5%).
  EFD_PROF_SCOPE("bench");
  JsonReporter json;
  const double wall_s = wall_seconds([&] {
    if constexpr (std::is_invocable_v<const Body&, sim::Simulator&, testbed::Testbed&,
                                      JsonReporter&>) {
      sim::Simulator sim;
      testbed::Testbed tb = [&] {
        EFD_PROF_SCOPE("phase.setup");
        return testbed::Testbed(sim, fig2_config());
      }();
      body(sim, tb, json);
    } else {
      body(json);
    }
  });
  json.write(fig.id, wall_s);
  return 0;
}

/// EFD_SHARDS (default 1) for the sharded benches (campus, NAN): recorded as
/// n_shards and announced under `title` with the duration scale at `floor`.
inline int env_shards(JsonReporter& json, const char* title, double floor) {
  const int shards = sim::ShardedSimulator::env_shards(1);
  json.add("n_shards", shards, "shards");
  std::printf("%s  (EFD_SHARDS=%d, duration scale %.2f)\n", title, shards,
              scaled(1.0, floor));
  return shards;
}

/// The cell-world benches' boundary-mailbox high-water mark over all their
/// runs (CellResult::mailbox_peak; DESIGN.md §14.3). Warn-only in
/// bench_compare: at several shards it depends on scheduling.
inline void mailbox_peak(JsonReporter& json, std::uint64_t peak) {
  json.add("mailbox_peak_occupancy", static_cast<double>(peak), "events");
}

inline void section(const std::string& name) {
  std::printf("\n-- %s --\n", name.c_str());
}

/// The figure benches' one sweep path. Item `i` is measured by
/// `measure(tb, i)` on its own Testbed built from `cfg` on the worker's
/// reused Simulator, fanned out over EFD_BENCH_THREADS workers (unset:
/// hardware concurrency). Before measuring, item `i`'s testbed runs to
/// weekday_afternoon() plus the simulated time `spans` gives items
/// [0, i) — where a back-to-back campaign on one testbed reaches it — so
/// each item sees its own grid state while its result stays a pure
/// function of `i`, and stdout is identical for every worker count.
template <typename R, typename Measure>
std::vector<R> sweep(const char* item, const testbed::Testbed::Config& cfg,
                     const std::vector<sim::Time>& spans, const Measure& measure) {
  std::vector<sim::Time> starts;
  starts.reserve(spans.size());
  sim::Time t = testbed::weekday_afternoon();
  for (const sim::Time span : spans) {
    starts.push_back(t);
    t = t + span;
  }
  const testbed::ParallelRunner pool(testbed::ParallelRunner::env_threads());
  const int n = static_cast<int>(spans.size());
  std::fprintf(stderr, "sweep: per-%s testbeds on %d worker(s)\n", item,
               std::min(pool.thread_count(), n));
  return pool.map_with_sim<R>(n, [&](int i, sim::Simulator& sim) {
    const auto item_index = static_cast<std::size_t>(i);
    testbed::Testbed tb(sim, cfg);
    sim.run_until(starts[item_index]);
    return measure(tb, item_index);
  });
}

/// Cycle-scale BLE trace of link a->b (Figs. 10, 11, 19): the default 50 ms
/// LinkTraceSampler, fed saturated traffic, over `span` from now.
inline std::vector<core::BleSample> cycle_trace(
    testbed::Testbed& tb, net::StationId a, net::StationId b, std::uint64_t salt,
    sim::Time span, testbed::PlcGeneration g = testbed::PlcGeneration::kHpav) {
  core::LinkTraceSampler sampler(tb.plc_channel(g),
                                 tb.plc_network_of(b, g).estimator(b, a), a, b,
                                 sim::Rng{tb.seed() ^ salt});
  const sim::Time now = tb.simulator().now();
  return sampler.run(now, now + span);
}

/// Drive a ChannelEstimator for a link with emulated saturated traffic
/// until it converges (the paper's devices are long-converged when
/// measured).
inline void warm_link(testbed::Testbed& tb, net::StationId src, net::StationId dst,
                      testbed::PlcGeneration g = testbed::PlcGeneration::kHpav,
                      double seconds = 3.0) {
  (void)cycle_trace(tb, src, dst, 0x3a3a, sim::seconds(seconds), g);
}

/// Probe-driven estimation of link a->b right after a device reset (Figs.
/// 16-18): `pps` probes/s of `bytes` each.
inline core::ProbeTraceSampler probe_after_reset(testbed::Testbed& tb, int a, int b,
                                                 std::uint64_t salt, double pps,
                                                 std::size_t bytes) {
  auto& est = tb.plc_network_of(b).estimator(b, a);
  est.reset(tb.simulator().now());
  return {tb.plc_channel(), est, a, b, sim::Rng{tb.seed() ^ salt}, {pps, bytes}};
}

/// Random-scale BLE trace of link a->b (Figs. 4, 12-14): one sample every
/// `step` over `span` from now, each handed to `on_sample(t, ble)`. Saturated
/// traffic (~26,000 PBs/s) flows between samples, whatever the step.
template <typename OnSample>
void trace(testbed::Testbed& tb, net::StationId a, net::StationId b,
           std::uint64_t salt, sim::Time span, sim::Time step,
           const OnSample& on_sample) {
  core::LinkTraceSampler::Config scfg;
  scfg.step = step;
  scfg.pbs_per_step = static_cast<int>(26000 * step.seconds());
  core::LinkTraceSampler sampler(tb.plc_channel(),
                                 tb.plc_network_of(b).estimator(b, a), a, b,
                                 sim::Rng{tb.seed() ^ salt}, scfg);
  const sim::Time start = tb.simulator().now();
  for (std::int64_t i = 0; i < span / step; ++i) {
    const sim::Time t = start + step * i;
    on_sample(t, sampler.step(t));
  }
}

/// Hour-of-day BLE means of a trace, weekdays and weekends apart (Figs. 13
/// and 14).
struct HourProfile {
  sim::RunningStats weekday[24];
  sim::RunningStats weekend[24];

  void add(sim::Time t, double ble) {
    const auto hour = static_cast<std::size_t>(grid::Calendar::hour_of_day(t));
    (grid::Calendar::is_weekend(t) ? weekend : weekday)[hour].add(ble);
  }
};

/// Max minus min of a profile's 24 hourly means: the daily swing.
inline double swing(const sim::RunningStats (&hours)[24]) {
  sim::RunningStats means;
  for (const auto& h : hours) means.add(h.mean());
  return means.max() - means.min();
}

/// MM readings of a probed link, polled every 5 s (Figs. 23, 24).
struct Phase {
  sim::RunningStats ble;
  sim::RunningStats pberr;
};

/// Figs. 23-24's run: link a->b carries 150 kb/s of 1500 B probes, sent in
/// `burst`-packet bursts, for 400 s; background c->d at `bg_rate_bps` joins
/// at t=200 s. Returns a->b's readings before and during the background.
inline std::pair<Phase, Phase> run_contention(testbed::Testbed& tb, int a, int b,
                                              int c, int d, double bg_rate_bps,
                                              int burst) {
  sim::Simulator& sim = tb.simulator();
  warm_link(tb, a, b);
  auto& net_ab = tb.plc_network_of(a);

  net::ProbeSource::Config pcfg;
  pcfg.src = a;
  pcfg.dst = b;
  pcfg.packet_bytes = 1500;
  pcfg.burst_count = burst;
  // Keep the probing *rate* constant: bursts stretch the interval.
  pcfg.interval = sim::milliseconds(75.0 * burst);
  net::ProbeSource probes(sim, tb.plc_station(a).mac(), pcfg);

  net::UdpSource::Config bcfg;
  bcfg.src = c;
  bcfg.dst = d;
  bcfg.rate_bps = bg_rate_bps;
  net::UdpSource background(sim, tb.plc_station(c).mac(), bcfg);

  const sim::Time start = sim.now();
  probes.run(start, start + sim::seconds(400));
  background.run(start + sim::seconds(200), start + sim::seconds(400));

  Phase before, during;
  for (int s = 5; s < 400; s += 5) {
    sim.run_until(start + sim::seconds(s));
    Phase& phase = s < 200 ? before : during;
    phase.ble.add(net_ab.mm_average_ble(a, b));
    phase.pberr.add(net_ab.mm_pberr(a, b));
  }
  background.stop();
  probes.stop();
  sim.run_until(sim.now() + sim::seconds(1));
  return {before, during};
}

/// The first probe link a->b (>= 20 dB) and background link c->d (>= 12 dB,
/// same network, disjoint stations) for which `pick` accepts a's SNR edge
/// over c at b (Figs. 23, 24). Returns {a, b, c, d}, or all -1.
template <typename Pick>
std::array<int, 4> contention_pair(testbed::Testbed& tb, const Pick& pick) {
  auto& ch = tb.plc_channel();
  const sim::Time now = tb.simulator().now();
  for (const auto& [a, b] : tb.plc_links()) {
    if (ch.mean_snr_db(a, b, 0, now) < 20.0) continue;
    for (const auto& [c, d] : tb.plc_links()) {
      if (c == a || c == b || d == a || d == b) continue;
      if (!tb.same_plc_network(a, c)) continue;
      if (ch.mean_snr_db(c, d, 0, now) < 12.0) continue;
      if (pick(ch.mean_snr_db(a, b, 0, now) - ch.mean_snr_db(c, b, 0, now))) {
        return {a, b, c, d};
      }
    }
  }
  return {-1, -1, -1, -1};
}

/// Average BLE of a link after warming it (cheap capacity classification
/// used by several benches to pick representative links).
inline double warmed_ble(testbed::Testbed& tb, net::StationId src, net::StationId dst) {
  warm_link(tb, src, dst);
  return tb.plc_network_of(dst).estimator(dst, src).average_ble_mbps();
}

}  // namespace efd::bench
