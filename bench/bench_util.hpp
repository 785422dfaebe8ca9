#pragma once

// Shared plumbing for the paper-reproduction benches: every bench builds the
// Fig. 2 testbed, runs one experiment, and prints the rows/series of the
// corresponding paper table or figure plus the reference shape to compare
// against. See DESIGN.md §4 for the experiment index.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/core/capacity.hpp"
#include "src/core/sampler.hpp"
#include "src/core/sof_capture.hpp"
#include "src/grid/simd.hpp"
#include "src/net/meters.hpp"
#include "src/net/sources.hpp"
#include "src/obs/obs.hpp"
#include "src/sim/stats.hpp"
#include "src/testbed/experiment.hpp"
#include "src/testbed/parallel_runner.hpp"

namespace efd::bench {

/// Multiplier for simulated experiment durations, from the EFD_BENCH_SCALE
/// environment variable (default 1.0). CI's bench smoke job sets a fraction
/// so a full figure bench finishes in seconds; the output keeps its shape,
/// only the statistical weight drops.
inline double duration_scale() {
  static const double scale = [] {
    const char* env = std::getenv("EFD_BENCH_SCALE");
    if (env == nullptr) return 1.0;
    const double v = std::atof(env);
    return v > 0.0 ? v : 1.0;
  }();
  return scale;
}

/// A digest cut to six decimal digits: JsonReporter formats metrics with
/// %.6g, so only that much of a digest round-trips exactly.
inline std::uint64_t digest6(std::uint64_t h) { return h % 1'000'000; }

/// Machine-readable bench results: collects (name, value, unit) metrics and
/// writes `BENCH_<figure>.json` next to the human-readable table on
/// destruction, including the run's wall-clock and a full `metrics_snapshot`
/// block from efd::obs (every layer's counters/gauges/histograms, merged
/// across ParallelRunner workers). Downstream tooling diffs these files
/// across commits to track the perf/shape trajectory.
class JsonReporter {
 public:
  explicit JsonReporter(std::string figure)
      : figure_(std::move(figure)), start_(std::chrono::steady_clock::now()) {}

  JsonReporter(const JsonReporter&) = delete;
  JsonReporter& operator=(const JsonReporter&) = delete;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, unit, value});
  }

  ~JsonReporter() {
    const double wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
            .count();
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
    // Fault/backpressure machine metrics (DESIGN.md §15), present in every
    // BENCH_*.json so the comparator can surface chaos-profile drift
    // (warn-only: both depend on the bench's fault plan and scheduling).
    const auto fault_events =
        static_cast<double>(snap.counter("fault.injector.applied") +
                            snap.counter("fault.injector.cleared") +
                            snap.counter("fault.injector.recovery_events"));
    metrics_.push_back({"fault_events", "events", fault_events});
    metrics_.push_back(
        {"mailbox_peak_occupancy", "events",
         static_cast<double>(snap.gauge("sim.shard.mailbox_peak"))});
    const std::string path = "BENCH_" + figure_ + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return;
    std::fprintf(f, "{\n  \"figure\": \"%s\",\n", escaped(figure_).c_str());
    std::fprintf(f, "  \"wall_clock_s\": %.3f,\n", wall_s);
    std::fprintf(f, "  \"metrics\": [\n");
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      const Metric& m = metrics_[i];
      std::fprintf(f, "    {\"name\": \"%s\", \"value\": %.6g, \"unit\": \"%s\"}%s\n",
                   escaped(m.name).c_str(), m.value, escaped(m.unit).c_str(),
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

  std::string figure_;
  std::chrono::steady_clock::time_point start_;
  std::vector<Metric> metrics_;
  /// Root profiler scope covering the reporter's lifetime — i.e. the whole
  /// bench, since every figure bench constructs its reporter first. Member
  /// destructors run after the destructor body, so this scope is still open
  /// while ~JsonReporter snapshots; the snapshot's open-frame accounting
  /// then makes the emitted profile root track the bench wall clock (the CI
  /// smoke job asserts within 5%).
  obs::ProfScope prof_{"bench"};
};

inline void header(const char* figure, const char* title, const char* paper_shape) {
  std::printf("==============================================================\n");
  std::printf("%s — %s\n", figure, title);
  std::printf("paper shape: %s\n", paper_shape);
  std::printf("==============================================================\n");
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

/// Drive a ChannelEstimator for a link with emulated saturated traffic
/// until it converges (the paper's devices are long-converged when
/// measured).
inline void warm_link(testbed::Testbed& tb, net::StationId src, net::StationId dst,
                      testbed::PlcGeneration g = testbed::PlcGeneration::kHpav,
                      double seconds = 3.0) {
  auto& est = tb.plc_network_of(dst, g).estimator(dst, src);
  core::LinkTraceSampler sampler(tb.plc_channel(g), est, src, dst,
                                 sim::Rng{tb.seed() ^ 0x3a3aULL});
  const sim::Time now = tb.simulator().now();
  (void)sampler.run(now, now + sim::seconds(seconds));
}

/// Average BLE of a link after warming it (cheap capacity classification
/// used by several benches to pick representative links).
inline double warmed_ble(testbed::Testbed& tb, net::StationId src, net::StationId dst,
                         testbed::PlcGeneration g = testbed::PlcGeneration::kHpav) {
  warm_link(tb, src, dst, g);
  return tb.plc_network_of(dst, g).estimator(dst, src).average_ble_mbps();
}

}  // namespace efd::bench
