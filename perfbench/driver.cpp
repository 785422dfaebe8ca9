// Benchmark driver. Generates one workload from a seed, times calls into the
// simulator's public API, checks the simulated output, and prints the
// end-to-end metrics (or, with --trace 1, the per-layer metrics) as one JSON
// object on the last line of stdout. perfbench/run.py builds and runs it;
// perfbench/README.md explains the workloads and every metric.
//
//   efd_perfbench --workload link_trace|testbed_frames|campus|nan_storm
//                 --seed N --seconds S --trace 0|1
//
// One repetition = set-up (world construction plus warm-up, timed as
// setup_s) followed by the timed phase: a fixed simulated input cut into
// fixed simulated-time slices, each slice one operation. Repetitions repeat
// until the time budget is spent. run_s, setup_s and cpu_s are medians over
// repetitions, so one disturbed repetition does not move them; the slice
// percentiles pool the slices of every repetition.

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/core/sampler.hpp"
#include "src/fault/fault.hpp"
#include "src/grid/nan.hpp"
#include "src/grid/simd.hpp"
#include "src/hybrid/device.hpp"
#include "src/net/sources.hpp"
#include "src/obs/obs.hpp"
#include "src/plc/modulation.hpp"
#include "src/sim/rng.hpp"
#include "src/testbed/campus.hpp"
#include "src/testbed/experiment.hpp"
#include "src/testbed/nan.hpp"
#include "src/testbed/testbed.hpp"

#ifndef EFD_PERFBENCH_BUILD_TYPE
#define EFD_PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace efd;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Process CPU seconds (user + system, every thread).
double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

/// Peak resident memory of this process image (VmHWM). Unlike ru_maxrss it
/// does not inherit the peak of the process that exec'd the driver.
double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) kib = std::atof(line + 6);
  }
  std::fclose(f);
  return kib / 1024.0;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile (q in (0, 1]).
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

struct Fnv1a {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  }
  void mix(double d) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof bits);
    mix(bits);
  }
};

/// Restrict the process to the `want` highest-numbered CPUs it may use
/// (0: keep every allowed CPU). Threads started later inherit the mask.
/// Returns the CPUs the process may run on.
std::vector<int> pin_cpus(int want) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return {};
  std::vector<int> cpus;
  for (int c = CPU_SETSIZE - 1; c >= 0 && (want == 0 || static_cast<int>(cpus.size()) < want);
       --c) {
    if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
  }
  std::sort(cpus.begin(), cpus.end());
  if (want == 0) return cpus;
  cpu_set_t mask;
  CPU_ZERO(&mask);
  for (const int c : cpus) CPU_SET(c, &mask);
  if (cpus.empty() || sched_setaffinity(0, sizeof mask, &mask) != 0) return {};
  return cpus;
}

// --- One repetition ---------------------------------------------------------

struct Rep {
  double build_s = 0.0;  ///< world construction
  double warm_s = 0.0;   ///< warm-up kept out of the timed phase
  double run_s = 0.0;    ///< timed phase, host wall clock
  double cpu_s = 0.0;    ///< timed phase, process CPU
  std::vector<double> slice_ms;
  int slices = 0;        ///< slices attempted (one operation each)
  std::vector<std::string> failures;  ///< thrown calls and failed checks

  // Deterministic output: identical in every repetition of one invocation.
  std::uint64_t digest = 0;
  std::uint64_t events = 0;
  std::uint64_t tonemap_updates = 0;  ///< where the public API exposes it

  /// Per-layer values the benchmark reads from public result objects
  /// (ShardStats, CampusResult, NanResult, its own counters).
  std::map<std::string, double> layer;

  void check(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
};

// Slices per repetition. The percentiles pool the slices of every
// repetition, and kMinReps repetitions give at least 100 of them.
constexpr int kSlices = 30;
constexpr int kMinReps = 4;

/// Simulated end of slice `k` of a phase spanning `span`.
sim::Time slice_end(sim::Time span, int k) {
  return sim::Time{span.ns() * (k + 1) / kSlices};
}

/// A traced run's per-layer counts and scopes cover the timed phase only;
/// set-up shows as testbed.build_ms and testbed.warm_ms.
void reset_traces() {
  if (obs::enabled()) {
    obs::MetricsRegistry::instance().reset();
    obs::ProfileRegistry::instance().reset();
  }
}

/// Time kSlices calls `slice(k)`. A slice that throws is a failure; the
/// world is not usable after a throw, so the repetition stops there.
template <class Slice>
void time_slices(Rep& rep, Slice&& slice) {
  reset_traces();
  rep.slices = kSlices;
  const double cpu0 = cpu_seconds();
  const auto t0 = Clock::now();
  for (int k = 0; k < kSlices; ++k) {
    const auto ts = Clock::now();
    try {
      slice(k);
    } catch (const std::exception& e) {
      rep.failures.push_back(std::string("slice threw: ") + e.what());
      break;
    }
    rep.slice_ms.push_back(1e3 * seconds_since(ts));
  }
  rep.run_s = seconds_since(t0);
  rep.cpu_s = cpu_seconds() - cpu0;
}

/// Time one run of a sharded engine through `span` simulated time, cut
/// into kSlices slices. `run()` advances the world in a single call: each
/// run_until on the sharded engine starts its shard threads and joins its
/// watchdog, which sleeps in 10 ms steps, so timing one call per slice
/// would time that join rather than the simulation. Instead a probe event
/// on each shard's simulator stamps when that shard reached each slice
/// end, and a slice ends when the last shard has. Returns the number of
/// probe events, which the engine counts as dispatched.
template <class Run>
std::uint64_t time_sharded(Rep& rep, sim::ShardedSimulator& engine, sim::Time span,
                           Run&& run) {
  using Stamps = std::vector<Clock::time_point>;
  std::vector<Stamps> stamps(static_cast<std::size_t>(engine.n_shards()), Stamps(kSlices));
  for (int s = 0; s < engine.n_shards(); ++s) {
    for (int k = 0; k < kSlices; ++k) {
      Clock::time_point* stamp = &stamps[static_cast<std::size_t>(s)][static_cast<std::size_t>(k)];
      engine.shard_sim(s).at(slice_end(span, k), [stamp] { *stamp = Clock::now(); });
    }
  }
  reset_traces();
  rep.slices = kSlices;
  const double cpu0 = cpu_seconds();
  const auto t0 = Clock::now();
  bool ran = true;
  try {
    run();
  } catch (const std::exception& e) {
    rep.failures.push_back(std::string("run threw: ") + e.what());
    ran = false;
  }
  rep.run_s = seconds_since(t0);
  rep.cpu_s = cpu_seconds() - cpu0;
  Clock::time_point prev = t0;
  for (int k = 0; ran && k < kSlices; ++k) {
    Clock::time_point end = prev;
    for (const Stamps& st : stamps) end = std::max(end, st[static_cast<std::size_t>(k)]);
    rep.slice_ms.push_back(std::chrono::duration<double, std::milli>(end - prev).count());
    prev = end;
  }
  return static_cast<std::uint64_t>(kSlices) * static_cast<std::uint64_t>(engine.n_shards());
}

// --- Workloads --------------------------------------------------------------
//
// Each workload is a plan drawn once from the seed (inputs only) plus a
// function that runs one repetition of it.

struct Workload {
  std::string name;
  int pin = 1;      ///< CPUs to pin the process to (0: every allowed CPU)
  int shards = 0;   ///< sharded-engine shard count, 0 = no sharded engine
  std::string inputs;  ///< what the seed picked, for the report
  std::function<Rep()> run;
};

std::string pair_list(const std::vector<std::pair<int, int>>& pairs) {
  std::string out;
  for (const auto& [a, b] : pairs) {
    out += (out.empty() ? "" : " ") + std::to_string(a) + "->" + std::to_string(b);
  }
  return out;
}

/// The Fig. 2 floor with the HomePlug AV stack only (as the figure
/// benches build it).
testbed::Testbed::Config floor_config() {
  testbed::Testbed::Config cfg;
  cfg.with_hpav500 = false;
  return cfg;
}

// link_trace: fig14's sampler config over a seeded link set spanning good,
// average and bad links (Fig. 12-14 path; no MAC, no event engine).
Workload make_link_trace(std::uint64_t seed) {
  // Links ranked by SNR are cut into kLinks equal strata, one link drawn
  // from each: every seed samples the whole quality range in the same
  // proportions, so seeds change which links run but barely how much
  // retuning they need (the worst links cost ~3x the host time of the
  // best).
  constexpr int kLinks = 8;
  const sim::Time kStep = sim::seconds(5);
  const sim::Time kSpan = sim::hours(2);    // simulated per repetition
  const sim::Time start = testbed::weekday_afternoon();

  std::vector<std::pair<int, int>> links;
  {
    sim::Simulator sim;
    testbed::Testbed tb(sim, floor_config());
    std::vector<std::pair<double, std::pair<int, int>>> ranked;
    for (const auto& [a, b] : tb.plc_links()) {
      const double snr = tb.plc_channel().mean_snr_db(a, b, 0, start);
      if (snr < 7.0) continue;  // below this the link never forms (fig14)
      ranked.push_back({-snr, {a, b}});
    }
    std::sort(ranked.begin(), ranked.end());
    sim::Rng rng = sim::Rng{seed}.fork(0x11);
    for (int k = 0; k < kLinks; ++k) {
      const std::size_t lo = ranked.size() * static_cast<std::size_t>(k) / kLinks;
      const std::size_t hi = ranked.size() * static_cast<std::size_t>(k + 1) / kLinks;
      const auto j = static_cast<std::size_t>(
          rng.uniform_int(static_cast<std::int64_t>(lo), static_cast<std::int64_t>(hi) - 1));
      links.push_back(ranked[j].second);
    }
  }

  Workload w;
  w.name = "link_trace";
  w.inputs = "links " + pair_list(links);
  w.run = [links, seed, kStep, kSpan, start] {
    Rep rep;
    auto t0 = Clock::now();
    sim::Simulator sim;
    testbed::Testbed tb(sim, floor_config());
    rep.build_s = seconds_since(t0);

    const plc::PhyParams& phy = tb.plc_channel().phy();
    const double ble_max =
        phy.band.n_carriers *
        *std::max_element(plc::kBitsPerSymbol.begin(), plc::kBitsPerSymbol.end()) *
        phy.fec_rate / phy.symbol.us();

    t0 = Clock::now();
    core::LinkTraceSampler::Config scfg;
    scfg.step = kStep;
    scfg.pbs_per_step = 130000;
    std::vector<core::LinkTraceSampler> samplers;
    std::vector<plc::ChannelEstimator*> estimators;
    for (std::size_t i = 0; i < links.size(); ++i) {
      const auto [a, b] = links[i];
      auto& est = tb.plc_network_of(b).estimator(b, a);
      core::LinkTraceSampler warm(tb.plc_channel(), est, a, b,
                                  sim::Rng{seed}.fork(0x200 + i));
      (void)warm.run(start - sim::seconds(3), start);
      samplers.emplace_back(tb.plc_channel(), est, a, b,
                            sim::Rng{seed}.fork(0x100 + i), scfg);
      estimators.push_back(&est);
    }
    rep.warm_s = seconds_since(t0);

    std::uint64_t updates0 = 0;
    for (const auto* e : estimators) updates0 += e->update_count();
    const std::int64_t steps = kSpan / kStep;
    const std::int64_t per_slice = steps / kSlices;
    Fnv1a digest;
    bool in_range = true;
    time_slices(rep, [&](int k) {
      for (std::int64_t j = 0; j < per_slice; ++j) {
        const sim::Time t = start + kStep * (k * per_slice + j);
        for (auto& s : samplers) {
          const double ble = s.step(t);
          in_range = in_range && std::isfinite(ble) && ble >= 0.0 && ble <= ble_max;
          digest.mix(ble);
        }
      }
    });
    std::uint64_t updates = 0;
    for (const auto* e : estimators) updates += e->update_count();
    rep.check(in_range, "every sampled BLE is finite and within [0, PHY max]");
    rep.digest = digest.h;
    rep.tonemap_updates = updates - updates0;
    rep.layer["core.sampler_steps"] =
        static_cast<double>(kSlices * per_slice * static_cast<std::int64_t>(links.size()));
    return rep;
  };
  return w;
}

// testbed_frames: three disjoint station pairs, each a HybridDevice over its
// PLC and WiFi MACs, saturated with 400 Mb/s UDP on a weekday afternoon
// (fig20's frame-level path).
Workload make_testbed_frames(std::uint64_t seed) {
  constexpr int kPairs = 3;
  const sim::Time kSpan = sim::seconds(80);  // simulated per repetition
  const sim::Time start = testbed::weekday_afternoon();

  // fig20's pair criterion (both media work, but differ), on board B1.
  // Board B2 has one such station pair; a seed that drew it would run a
  // second PLC medium in parallel and cost ~30 % more host time than one
  // that did not, so all three pairs share B1's medium.
  std::vector<std::pair<int, int>> pairs;
  {
    sim::Simulator sim;
    testbed::Testbed tb(sim, floor_config());
    std::vector<std::pair<int, int>> pool;
    for (const auto& [a, b] : tb.plc_links()) {
      if (!testbed::on_board_b1(a)) continue;
      if (tb.plc_channel().mean_snr_db(a, b, 0, start) < 18.0) continue;
      const double wifi_snr = tb.wifi().channel().mean_snr_db(a, b);
      if (wifi_snr > 12.0 && wifi_snr < 25.0) pool.push_back({a, b});
    }
    sim::Rng rng = sim::Rng{seed}.fork(0x22);
    std::vector<bool> used(testbed::Testbed::kStations, false);
    while (static_cast<int>(pairs.size()) < kPairs && !pool.empty()) {
      const auto j = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(pool.size()) - 1));
      const auto [a, b] = pool[j];
      pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(j));
      if (used[static_cast<std::size_t>(a)] || used[static_cast<std::size_t>(b)]) continue;
      used[static_cast<std::size_t>(a)] = used[static_cast<std::size_t>(b)] = true;
      pairs.push_back({a, b});
    }
  }

  Workload w;
  w.name = "testbed_frames";
  w.inputs = "pairs " + pair_list(pairs);
  w.run = [pairs, seed, kSpan, start] {
    Rep rep;
    auto t0 = Clock::now();
    sim::Simulator sim;
    testbed::Testbed tb(sim, floor_config());
    sim.run_until(start - sim::seconds(10));
    rep.build_s = seconds_since(t0);

    // Warm-up: converge each PLC estimator, then measure both media so the
    // capacity scheduler starts from real estimates (as fig20 does).
    t0 = Clock::now();
    std::vector<std::pair<double, double>> caps;
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      const auto [a, b] = pairs[i];
      auto& est = tb.plc_network_of(b).estimator(b, a);
      core::LinkTraceSampler warm(tb.plc_channel(), est, a, b,
                                  sim::Rng{seed}.fork(0x300 + i));
      (void)warm.run(sim.now(), sim.now() + sim::seconds(3));
      const auto plc = testbed::measure_plc_throughput(tb, a, b, sim::seconds(1));
      const auto wifi = testbed::measure_wifi_throughput(tb, a, b, sim::seconds(1));
      caps.push_back({plc.mean_mbps, wifi.mean_mbps});
    }
    sim.run_until(start);

    struct Flow {
      std::unique_ptr<hybrid::HybridDevice> tx, rx;
      std::unique_ptr<net::UdpSource> source;
      std::vector<std::uint8_t> seen;  ///< delivered sequence numbers
      std::uint64_t delivered = 0, duplicates = 0, bytes = 0;
    };
    std::vector<Flow> flows(pairs.size());
    Fnv1a digest;
    std::uint64_t updates0 = 0;
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      const auto [a, b] = pairs[i];
      Flow& f = flows[i];
      f.tx = std::make_unique<hybrid::HybridDevice>(
          sim, std::vector<net::Interface*>{&tb.plc_station(a).mac(), &tb.wifi_station(a)},
          std::make_unique<hybrid::CapacityScheduler>(sim::Rng{seed}.fork(0x400 + i)));
      f.tx->set_capacities({caps[i].first, caps[i].second});
      f.rx = std::make_unique<hybrid::HybridDevice>(
          sim, std::vector<net::Interface*>{&tb.plc_station(b).mac(), &tb.wifi_station(b)},
          std::make_unique<hybrid::RoundRobinScheduler>(2));
      f.rx->set_rx_handler([&f, &digest](const net::Packet& p, sim::Time t) {
        if (p.seq >= f.seen.size()) f.seen.resize(p.seq + 1024, 0);
        if (f.seen[p.seq] != 0) ++f.duplicates;
        f.seen[p.seq] = 1;
        ++f.delivered;
        f.bytes += p.size_bytes;
        digest.mix(static_cast<std::uint64_t>(p.flow_id));
        digest.mix(static_cast<std::uint64_t>(p.seq));
        digest.mix(static_cast<std::uint64_t>(t.ns()));
      });
      f.rx->start_receiving();
      net::UdpSource::Config ucfg;
      ucfg.src = a;
      ucfg.dst = b;
      ucfg.flow_id = static_cast<int>(i);
      ucfg.rate_bps = 400e6;
      f.source = std::make_unique<net::UdpSource>(sim, *f.tx, ucfg);
      f.source->run(start, start + kSpan);
      updates0 += tb.plc_network_of(b).estimator(b, a).update_count();
    }
    rep.warm_s = seconds_since(t0);

    // PLC MAC packet counts before the timed phase, for delivered/accepted.
    std::vector<std::pair<std::uint64_t, std::uint64_t>> plc0;
    for (const auto& [a, b] : pairs) {
      plc0.push_back({tb.plc_station(a).mac().packets_dropped(),
                      tb.plc_station(b).mac().packets_delivered()});
    }
    const std::uint64_t events0 = sim.events_dispatched();
    time_slices(rep, [&](int k) {
      sim.run_until(start + slice_end(kSpan, k));
    });
    rep.events = sim.events_dispatched() - events0;
    for (auto& f : flows) f.source->stop();
    sim.run_until(sim.now() + sim::milliseconds(500));  // drain, untimed

    std::uint64_t offered = 0, accepted = 0, delivered = 0, updates = 0;
    std::uint64_t plc_accepted = 0, plc_delivered = 0;
    for (std::size_t i = 0; i < flows.size(); ++i) {
      const Flow& f = flows[i];
      const auto [a, b] = pairs[i];
      const std::uint64_t o = f.source->offered_packets();
      offered += o;
      accepted += o - f.source->dropped_packets();
      delivered += f.delivered;
      updates += tb.plc_network_of(b).estimator(b, a).update_count();
      plc_accepted += f.tx->sent_per_interface(0) -
                      (tb.plc_station(a).mac().packets_dropped() - plc0[i].first);
      plc_delivered += tb.plc_station(b).mac().packets_delivered() - plc0[i].second;
      const std::string flow = "flow " + std::to_string(i);
      rep.check(f.delivered <= o, flow + ": delivered <= offered");
      rep.check(f.duplicates == 0, flow + ": no duplicate delivery");
      rep.check(f.bytes > 0, flow + ": goodput above 0");
    }
    rep.check(flows.size() == static_cast<std::size_t>(kPairs),
              "three disjoint station pairs");
    rep.digest = digest.h;
    rep.tonemap_updates = updates - updates0;
    rep.layer["net.offered_pkts"] = static_cast<double>(offered);
    rep.layer["net.delivered_pkts"] = static_cast<double>(delivered);
    rep.layer["hybrid.enqueue_accept_ratio"] =
        ratio(static_cast<double>(accepted), static_cast<double>(offered));
    rep.layer["plc.mac.delivered_ratio"] =
        ratio(static_cast<double>(plc_delivered), static_cast<double>(plc_accepted));
    return rep;
  };
  return w;
}

void add_shard_layers(Rep& rep, const std::vector<sim::ShardedSimulator::ShardStats>& shards,
                      std::uint64_t boundary_posted, std::uint64_t mailbox_peak,
                      double load_balance) {
  double busy = 0.0, wait = 0.0, windows = 0.0;
  for (const auto& s : shards) {
    busy += static_cast<double>(s.busy_ns) / 1e6;
    wait += static_cast<double>(s.wait_ns) / 1e6;
    windows += static_cast<double>(s.windows);
  }
  rep.layer["sim.shard.busy_ms"] = busy;
  rep.layer["sim.shard.wait_ms"] = wait;
  rep.layer["sim.shard.wait_share"] = ratio(wait, busy + wait);
  rep.layer["sim.shard.windows"] = windows;
  rep.layer["sim.shard.boundary_posted"] = static_cast<double>(boundary_posted);
  rep.layer["sim.shard.mailbox_peak"] = static_cast<double>(mailbox_peak);
  rep.layer["sim.shard.load_balance"] = load_balance;
}

// campus: the top row of bench_scale_campus (10,000 outlets, 500 boards),
// fault-free, at 2 shards. Cold start is what users pay, so it is timed.
Workload make_campus(std::uint64_t seed) {
  testbed::CampusRunConfig cfg;
  cfg.campus.n_outlets = 10'000;
  cfg.campus.outlets_per_board = 20;
  cfg.campus.stations_per_board = 4;
  cfg.campus.seed = sim::Rng{seed}.fork(0x33).uniform_int(1, 1'000'000);
  cfg.n_shards = 2;
  cfg.duration = sim::milliseconds(60);

  Workload w;
  w.name = "campus";
  w.inputs = "topology seed " + std::to_string(cfg.campus.seed);
  // Pinned to 2 or 3 CPUs, the two shards' yield spin and the watchdog's
  // wake-ups made repetitions bimodal (~2 s or ~4 s of identical work);
  // with every CPU of the 4-vCPU host they stayed within about 10 %.
  w.pin = 0;
  w.shards = cfg.n_shards;
  w.run = [cfg] {
    Rep rep;
    const auto t0 = Clock::now();
    testbed::CampusWorld world(cfg);
    rep.build_s = seconds_since(t0);
    const std::uint64_t probes = time_sharded(rep, world.engine(), cfg.duration,
                                              [&] { world.run_until(cfg.duration); });
    const testbed::CampusResult r = world.result();
    const std::uint64_t offered = r.packets_local + r.packets_remote;
    rep.check(r.delivered <= offered, "delivered <= offered");
    rep.check(r.boundary_delivered <= r.boundary_posted,
              "boundary_delivered <= boundary_posted");
    rep.check(r.n_shards == cfg.n_shards, "ran at the requested shard count");
    rep.digest = r.digest;
    rep.events = r.events - probes;
    add_shard_layers(rep, r.shards, r.boundary_posted, r.mailbox_peak, r.load_balance);
    rep.layer["net.offered_pkts"] = static_cast<double>(offered);
    rep.layer["net.delivered_pkts"] = static_cast<double>(r.delivered);
    rep.layer["fault.events"] = static_cast<double>(r.fault_events);
    return rep;
  };
  return w;
}

// nan_storm: NanWorld in diversity mode with relaying and a seeded 4-fault
// storm (bench_nan_diversity's storm shape) scaled to the run, at 1 shard.
Workload make_nan_storm(std::uint64_t seed) {
  testbed::NanRunConfig cfg;
  cfg.nan.n_meters = 2'000;
  cfg.nan.meters_per_transformer = 10;
  cfg.nan.transformers_per_feeder = 3;
  cfg.nan.stations_per_transformer = 6;
  sim::Rng rng = sim::Rng{seed}.fork(0x44);
  cfg.nan.seed = rng.uniform_int(1, 1'000'000);
  cfg.n_shards = 1;
  cfg.mode = testbed::DiversityMode::kDiversity;
  cfg.relay_enabled = true;
  cfg.duration = sim::milliseconds(150);
  cfg.report_interval = sim::milliseconds(2);
  cfg.p_remote = 0.25;

  const grid::NanTopology topo = grid::NanTopology::generate(cfg.nan);
  const int cells = topo.n_transformers();
  const auto n_links = static_cast<std::int64_t>(topo.links().size());
  const auto pick = [&rng](std::int64_t n) { return static_cast<int>(rng.uniform_int(0, n - 1)); };
  const int blackout = pick(cells), jam = pick(cells), brownout = pick(cells);
  const int partition = pick(n_links);
  const double d = cfg.duration.ms() / 200.0;  // bench_nan_diversity is 200 ms
  cfg.faults
      .blackout(sim::milliseconds(30.0 * d), sim::milliseconds(60.0 * d), blackout, 1.0)
      .wifi_jam(sim::milliseconds(50.0 * d), sim::milliseconds(70.0 * d), jam, 200.0)
      .board_brownout(sim::milliseconds(80.0 * d), sim::milliseconds(60.0 * d), brownout, 0.6)
      .link_partition(sim::milliseconds(60.0 * d), sim::milliseconds(50.0 * d), partition);

  Workload w;
  w.name = "nan_storm";
  w.shards = cfg.n_shards;
  w.inputs = "topology seed " + std::to_string(cfg.nan.seed) + ", blackout cell " +
             std::to_string(blackout) + ", jammed cell " + std::to_string(jam) +
             ", brownout cell " + std::to_string(brownout) + ", partitioned link " +
             std::to_string(partition);
  w.run = [cfg] {
    Rep rep;
    const auto t0 = Clock::now();
    testbed::NanWorld world(cfg);
    rep.build_s = seconds_since(t0);
    const std::uint64_t probes = time_sharded(rep, world.engine(), cfg.duration,
                                              [&] { world.run_until(cfg.duration); });
    const testbed::NanResult r = world.result();
    const std::uint64_t wins = r.wins_plc + r.wins_wifi;
    rep.check(r.delivered + r.delivered_remote <= r.offered,
              "delivered + delivered_remote <= offered");
    rep.check(r.delivered <= wins && wins <= r.offered,
              "delivered <= wins_plc + wins_wifi <= offered");
    rep.check(r.suppressed <= r.dup_copies, "suppressed <= dup_copies");
    rep.digest = r.digest;
    rep.events = r.events - probes;
    add_shard_layers(rep, r.shards, r.boundary_posted, r.mailbox_peak, r.load_balance);
    rep.layer["net.offered_pkts"] = static_cast<double>(r.offered);
    rep.layer["net.delivered_pkts"] = static_cast<double>(r.delivered + r.delivered_remote);
    rep.layer["fault.events"] = static_cast<double>(r.fault_events);
    rep.layer["testbed.nan.relay_forwards"] = static_cast<double>(r.relay_forwards);
    rep.layer["testbed.nan.dup_copies"] = static_cast<double>(r.dup_copies);
    rep.layer["testbed.nan.suppressed"] = static_cast<double>(r.suppressed);
    return rep;
  };
  return w;
}

// --- Traced-run collector -----------------------------------------------------

struct ScopeTotals {
  double self_ms = 0.0;
  double total_ms = 0.0;
  double count = 0.0;
};

/// Profile self/total time per scope name, summed over every tree position
/// and thread.
void fold_profile(const obs::ProfileNode& node, std::map<std::string, ScopeTotals>& out) {
  for (const auto& child : node.children) {
    ScopeTotals& t = out[child.name];
    t.self_ms += static_cast<double>(child.self_ns) / 1e6;
    t.total_ms += static_cast<double>(child.total_ns) / 1e6;
    t.count += static_cast<double>(child.count);
    fold_profile(child, out);
  }
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Per-layer metrics of one traced repetition, read right after it. The
/// two that need the untraced repetitions too (sim.ns_per_event,
/// trace.overhead_ratio) are added in main.
std::vector<Metric> per_layer(const Rep& rep) {
  const obs::MetricsSnapshot m = obs::MetricsRegistry::instance().snapshot();
  std::map<std::string, ScopeTotals> prof;
  fold_profile(obs::ProfileRegistry::instance().snapshot().root, prof);
  const auto c = [&m](const char* name) { return static_cast<double>(m.counter(name)); };
  const auto layer = [&rep](const char* name) {
    const auto it = rep.layer.find(name);
    return it == rep.layer.end() ? 0.0 : it->second;
  };
  const auto mpdus = m.histogram("wifi.mac.ampdu_mpdus");
  const double updates = c("plc.est.tonemap_updates");
  const double steps = layer("core.sampler_steps");
  const double events = static_cast<double>(rep.events);

  return {
      {"core.sampler_step_ms", ratio(1e3 * rep.run_s, steps), "ms"},
      {"core.sampler_steps", steps, "count"},
      {"plc.tonemap_updates", updates, "count"},
      {"plc.error_retunes", c("plc.est.error_retunes"), "count"},
      {"plc.sound_frames", c("plc.est.sound_frames"), "count"},
      {"plc.tonemap_adapt_self_ms", prof["plc.tonemap_adapt"].self_ms, "ms"},
      {"plc.ms_per_retune", ratio(prof["plc.tonemap_adapt"].total_ms, updates), "ms"},
      {"plc.tonemap_recompute_calls", prof["plc.tonemap_recompute"].count, "count"},
      {"plc.tonemap_recompute_ms", prof["plc.tonemap_recompute"].total_ms, "ms"},
      {"plc.pberr_ms", prof["plc.pberr"].total_ms, "ms"},
      {"plc.pberr_memo_hit_ratio",
       ratio(c("plc.channel.pberr_memo_hits"),
             c("plc.channel.pberr_memo_hits") + c("plc.channel.pberr_memo_misses")),
       "ratio"},
      {"plc.snr_cache_hit_ratio",
       ratio(c("plc.channel.snr_cache_hits"),
             c("plc.channel.snr_cache_hits") + c("plc.channel.snr_cache_misses")),
       "ratio"},
      {"plc.mac.frames_tx", c("plc.mac.frames_tx"), "count"},
      {"plc.mac.collisions", c("plc.mac.collisions"), "count"},
      {"plc.mac.pb_retx", c("plc.mac.pb_retx"), "count"},
      {"plc.mac.drops", c("plc.mac.drops"), "count"},
      {"plc.mac.delivered_ratio", layer("plc.mac.delivered_ratio"), "ratio"},
      {"wifi.mac.frames_tx", c("wifi.mac.frames_tx"), "count"},
      {"wifi.mac.retries", c("wifi.mac.retries"), "count"},
      {"wifi.mac.mpdu_error_ratio",
       ratio(c("wifi.mac.mpdu_errors"), mpdus != nullptr ? mpdus->sum : 0.0), "ratio"},
      {"wifi.mac.drops", c("wifi.mac.drops"), "count"},
      {"sim.events", events, "count"},
      {"sim.run_self_ms", prof["sim.run"].self_ms + prof["shard.run"].self_ms, "ms"},
      {"sim.shard.busy_ms", layer("sim.shard.busy_ms"), "ms"},
      {"sim.shard.wait_ms", layer("sim.shard.wait_ms"), "ms"},
      {"sim.shard.wait_share", layer("sim.shard.wait_share"), "ratio"},
      {"sim.shard.windows", layer("sim.shard.windows"), "count"},
      {"sim.shard.boundary_posted", layer("sim.shard.boundary_posted"), "count"},
      {"sim.shard.mailbox_peak", layer("sim.shard.mailbox_peak"), "count"},
      {"sim.shard.load_balance", layer("sim.shard.load_balance"), "ratio"},
      {"grid.epoch_recomputes", c("grid.epoch.recomputes"), "count"},
      {"grid.profile_rebuilds", c("grid.profiles.rebuilds"), "count"},
      {"grid.profiles_ms", prof["grid.profiles"].total_ms, "ms"},
      {"grid.atten_ms", prof["grid.atten"].total_ms, "ms"},
      {"grid.noise_ms", prof["grid.noise"].total_ms, "ms"},
      {"hybrid.enqueue_ms", prof["hybrid.enqueue"].total_ms, "ms"},
      {"hybrid.sched_decisions", c("hybrid.sched.decisions"), "count"},
      {"hybrid.enqueue_accept_ratio", layer("hybrid.enqueue_accept_ratio"), "ratio"},
      {"hybrid.reorder_delivered", c("hybrid.reorder.delivered"), "count"},
      {"hybrid.reorder_overflows", c("hybrid.reorder.overflows"), "count"},
      {"hybrid.reorder_timeouts", c("hybrid.reorder.timeouts"), "count"},
      {"hybrid.duplicate_drops", c("hybrid.reorder.duplicate_drops"), "count"},
      {"net.offered_pkts", layer("net.offered_pkts"), "count"},
      {"net.delivered_pkts", layer("net.delivered_pkts"), "count"},
      {"fault.events", layer("fault.events"), "count"},
      {"testbed.build_ms", 1e3 * rep.build_s, "ms"},
      {"testbed.warm_ms", 1e3 * rep.warm_s, "ms"},
      {"testbed.nan.relay_forwards", layer("testbed.nan.relay_forwards"), "count"},
      {"testbed.nan.dup_copies", layer("testbed.nan.dup_copies"), "count"},
      {"testbed.nan.suppressed", layer("testbed.nan.suppressed"), "count"},
  };
}

/// Per-layer values that depend on thread scheduling (they differ between
/// repetitions of identical simulated work); all other counts are exact.
const char* const kSchedulingDependent[] = {
    "sim.shard.wait_ms", "sim.shard.windows", "sim.shard.wait_share",
    "sim.shard.busy_ms", "sim.shard.load_balance", "sim.shard.mailbox_peak"};

// --- Main ---------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      a.workload = val;
    } else if (key == "--seed") {
      a.seed = std::strtoull(val, &end, 10);
      if (*end != '\0') return false;
    } else if (key == "--seconds") {
      a.seconds = std::strtod(val, &end);
      if (*end != '\0' || !(a.seconds > 0.0)) return false;
    } else if (key == "--trace") {
      if (std::strcmp(val, "0") != 0 && std::strcmp(val, "1") != 0) return false;
      a.trace = val[0] == '1';
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a.workload.empty();
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') out.push_back('\\');
    out.push_back(ch);
  }
  return out + "\"";
}

std::string hex(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: efd_perfbench --workload NAME --seed N --seconds S --trace 0|1\n");
    return 2;
  }
  Workload w;
  try {
    if (args.workload == "link_trace") {
      w = make_link_trace(args.seed);
    } else if (args.workload == "testbed_frames") {
      w = make_testbed_frames(args.seed);
    } else if (args.workload == "campus") {
      w = make_campus(args.seed);
    } else if (args.workload == "nan_storm") {
      w = make_nan_storm(args.seed);
    } else {
      std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "workload generation failed: %s\n", e.what());
    return 1;
  }

  const std::vector<int> cpus = pin_cpus(w.pin);

  // Untraced repetitions give the end-to-end metrics. A traced run
  // alternates them with traced ones (obs and profiler on), so host drift
  // and first-touch page faults weigh on both halves alike. Repetitions
  // continue while the next one fits the budget, and at least kMinReps
  // untraced (2 of each kind when tracing) run.
  std::vector<Rep> reps, traced;
  std::vector<std::vector<Metric>> layer_runs;
  std::vector<double> rep_s;
  double rss_mb = 0.0;
  const auto start = Clock::now();
  for (int i = 0;; ++i) {
    const bool tracing = args.trace && i % 2 == 1;
    obs::set_enabled(tracing);
    obs::set_prof_enabled(tracing);
    const auto r0 = Clock::now();
    Rep r = w.run();
    rep_s.push_back(seconds_since(r0));
    // Peak memory after the first repetition: later ones can only add
    // allocator fragmentation to it.
    if (i == 0) rss_mb = peak_rss_mb();
    if (tracing) {
      layer_runs.push_back(per_layer(r));
      traced.push_back(std::move(r));
    } else {
      reps.push_back(std::move(r));
    }
    const bool enough = args.trace ? traced.size() >= 2 : reps.size() >= static_cast<std::size_t>(kMinReps);
    if (enough && seconds_since(start) + median(rep_s) > args.seconds) break;
  }
  obs::set_enabled(false);
  obs::set_prof_enabled(false);

  // Failure accounting: one operation per slice. A repetition whose checks
  // fail, or whose deterministic output differs from the first
  // repetition's, fails all of its slices.
  std::uint64_t attempted = 0, failed = 0;
  std::vector<std::string> failures;
  const Rep& first = reps.front();
  const auto account = [&](const std::vector<Rep>& set) {
    for (const Rep& r : set) {
      std::vector<std::string> f = r.failures;
      if (r.digest != first.digest || r.events != first.events ||
          r.tonemap_updates != first.tonemap_updates) {
        f.push_back("deterministic output differs between repetitions");
      }
      attempted += static_cast<std::uint64_t>(r.slices);
      if (!f.empty()) failed += static_cast<std::uint64_t>(r.slices);
      failures.insert(failures.end(), f.begin(), f.end());
    }
  };
  account(reps);
  account(traced);
  std::sort(failures.begin(), failures.end());
  failures.erase(std::unique(failures.begin(), failures.end()), failures.end());

  std::vector<Metric> metrics;
  if (!args.trace) {
    std::vector<double> setup, run, cpu, slices;
    for (const Rep& r : reps) {
      setup.push_back(r.build_s + r.warm_s);
      run.push_back(r.run_s);
      cpu.push_back(r.cpu_s);
      slices.insert(slices.end(), r.slice_ms.begin(), r.slice_ms.end());
    }
    metrics = {{"run_s", median(run), "s"},
               {"setup_s", median(setup), "s"},
               {"slice_ms_p50", percentile(slices, 0.50), "ms"},
               {"slice_ms_p90", percentile(slices, 0.90), "ms"},
               {"cpu_s", median(cpu), "s"},
               {"peak_rss_mb", rss_mb, "MB"}};
  } else {
    std::vector<double> traced_run_s, untraced_run_s;
    for (const Rep& r : reps) untraced_run_s.push_back(r.run_s);
    for (const Rep& r : traced) traced_run_s.push_back(r.run_s);
    for (std::size_t i = 0; i < layer_runs.front().size(); ++i) {
      std::vector<double> v;
      for (const auto& run : layer_runs) v.push_back(run[i].value);
      metrics.push_back({layer_runs.front()[i].name, median(v), layer_runs.front()[i].unit});
    }
    metrics.push_back({"sim.ns_per_event",
                       ratio(1e9 * median(untraced_run_s), static_cast<double>(first.events)),
                       "ns"});
    metrics.push_back({"trace.overhead_ratio",
                       ratio(median(traced_run_s), median(untraced_run_s)), "ratio"});
  }

  // Human-readable report, then provenance and the result line.
  std::printf("workload %s  seed %llu  repetitions %zu untraced + %zu traced  "
              "slices/repetition %d\ninputs: %s\n",
              w.name.c_str(), static_cast<unsigned long long>(args.seed), reps.size(),
              traced.size(), kSlices, w.inputs.c_str());
  std::printf("repetition run_s:");
  for (const Rep& r : reps) std::printf(" %.3f", r.run_s);
  std::printf("\n");
  for (const Metric& m : metrics) {
    std::printf("  %-30s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("checks: %s\n", failures.empty() ? "pass" : "FAIL");
  for (const auto& f : failures) std::printf("  failed: %s\n", f.c_str());
  if (args.trace) {
    std::map<std::string, ScopeTotals> prof;
    fold_profile(obs::ProfileRegistry::instance().snapshot().root, prof);
    std::vector<std::pair<double, std::string>> by_self;
    double self_sum = 0.0;
    for (const auto& [name, t] : prof) {
      by_self.push_back({t.self_ms, name});
      self_sum += t.self_ms;
    }
    std::sort(by_self.rbegin(), by_self.rend());
    std::printf("profile self time of the last traced repetition, by scope:\n");
    for (const auto& [ms, name] : by_self) {
      std::printf("  %-28s %10.1f ms  %5.1f%%\n", name.c_str(), ms,
                  100.0 * ratio(ms, self_sum));
    }
    std::printf("scheduling-dependent per-layer values:");
    for (const char* name : kSchedulingDependent) std::printf(" %s", name);
    std::printf("\n(every other count is exact and repeats across runs of one seed)\n");
  }

  char nproc[16];
  std::snprintf(nproc, sizeof nproc, "%ld", sysconf(_SC_NPROCESSORS_ONLN));
  std::string cpu_list;
  for (const int c : cpus) cpu_list += (cpu_list.empty() ? "" : ",") + std::to_string(c);
  std::printf(
      "provenance: {\"workload\": %s, \"seed\": %llu, \"carrier_math_impl\": %s, "
      "\"shards\": %d, \"nproc\": %s, \"pinned_cpus\": %s, \"build_type\": %s, "
      "\"digest\": %s, \"sim_events\": %llu, \"tonemap_updates\": %llu}\n",
      json_str(w.name).c_str(), static_cast<unsigned long long>(args.seed),
      json_str(grid::simd::active_impl_name()).c_str(), w.shards, nproc,
      json_str(cpu_list).c_str(), json_str(EFD_PERFBENCH_BUILD_TYPE).c_str(),
      json_str(hex(first.digest)).c_str(),
      static_cast<unsigned long long>(first.events),
      static_cast<unsigned long long>(first.tonemap_updates));

  std::string line = "{\"correct\": ";
  line += failed == 0 ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", metrics[i].value);
    line += (i == 0 ? "" : ", ") + json_str(metrics[i].name) + ": {\"value\": " + value +
            ", \"unit\": " + json_str(metrics[i].unit) + "}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  return 0;
}
