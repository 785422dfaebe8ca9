// Microbenchmarks (google-benchmark) for the simulation's hot kernels —
// the loops that dominate multi-day trace generation. Useful when touching
// the channel cache, the tone-map builder, or the event queue.
#include <benchmark/benchmark.h>

#include <cmath>
#include <functional>
#include <limits>
#include <memory>
#include <queue>
#include <random>
#include <string>
#include <vector>

#include "src/fault/fault.hpp"
#include "src/fault/injector.hpp"
#include "src/grid/appliance.hpp"
#include "src/grid/simd.hpp"
#include "src/sim/rng.hpp"
#include "src/hybrid/device.hpp"
#include "src/obs/obs.hpp"
#include "src/plc/channel.hpp"
#include "src/plc/channel_estimator.hpp"
#include "src/plc/modulation.hpp"
#include "src/sim/simulator.hpp"

namespace {

using namespace efd;

struct Rig {
  grid::PowerGrid grid;
  std::unique_ptr<plc::PlcChannel> channel;

  Rig() {
    const int a = grid.add_node("a");
    const int j = grid.add_node("j");
    const int b = grid.add_node("b");
    grid.add_cable(a, j, 12.0);
    grid.add_cable(j, b, 10.0);
    for (std::uint64_t s = 0; s < 6; ++s) {
      grid.add_appliance(grid::make_appliance(
          s % 2 == 0 ? grid::ApplianceType::kWorkstation
                     : grid::ApplianceType::kLightBank,
          s < 3 ? j : b, s));
    }
    channel = std::make_unique<plc::PlcChannel>(grid, plc::PhyParams::hpav());
    channel->attach_station(0, a);
    channel->attach_station(1, b);
  }
};

void BM_EventQueueSchedule(benchmark::State& state) {
  sim::Simulator sim;
  std::int64_t t = 0;
  for (auto _ : state) {
    sim.at(sim::Time{t += 10}, [] {});
    if (t % 1024 == 0) sim.run_until(sim::Time{t});
  }
  sim.run();
}
BENCHMARK(BM_EventQueueSchedule);

// --- event engine vs the pre-slab baseline (DESIGN.md §9) ------------------
// `engine_baseline` replicates the engine this repo shipped before the
// slab/4-ary-heap rewrite — std::priority_queue sifting fat events, each
// carrying a type-erased std::function plus two shared_ptr<bool> control
// blocks (three heap allocations per event). The BM_EventEngine* pairs run
// the same workload on both so the schedule+dispatch speedup is measured
// in-binary, not across commits.

namespace engine_baseline {

class OldSimulator {
 public:
  void at(sim::Time t, std::function<void()> fn) {
    EFD_COUNTER_INC("sim.events_scheduled");
    queue_.push(Event{t, seq_++, std::move(fn),
                      std::make_shared<bool>(false),
                      std::make_shared<bool>(false)});
  }

  void run_until(sim::Time end) {
    EFD_GAUGE_SET("sim.queue_depth", queue_.size());
    while (!queue_.empty() && queue_.top().t <= end) {
      Event ev = queue_.top();
      queue_.pop();
      now_ = ev.t;
      if (*ev.cancelled) continue;
      *ev.fired = true;
      EFD_COUNTER_INC("sim.events_dispatched");
      ev.fn();
    }
    if (now_ < end) now_ = end;
  }

  void run() { run_until(sim::Time{std::numeric_limits<std::int64_t>::max()}); }

 private:
  struct Event {
    sim::Time t;
    std::uint64_t seq;
    std::function<void()> fn;
    std::shared_ptr<bool> cancelled;
    std::shared_ptr<bool> fired;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.t != b.t) return a.t > b.t;
      return a.seq > b.seq;
    }
  };
  std::priority_queue<Event, std::vector<Event>, Later> queue_;
  sim::Time now_{};
  std::uint64_t seq_ = 0;
};

}  // namespace engine_baseline

void BM_EventEngineBaselineScheduleDispatch(benchmark::State& state) {
  engine_baseline::OldSimulator sim;
  std::int64_t t = 0;
  std::uint64_t sink = 0;
  for (auto _ : state) {
    sim.at(sim::Time{t += 10}, [&sink] { ++sink; });
    if (t % 1024 == 0) sim.run_until(sim::Time{t});
  }
  sim.run();
  benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_EventEngineBaselineScheduleDispatch);

void BM_EventEngineScheduleDispatch(benchmark::State& state) {
  sim::Simulator sim;
  std::int64_t t = 0;
  std::uint64_t sink = 0;
  for (auto _ : state) {
    sim.at(sim::Time{t += 10}, [&sink] { ++sink; });
    if (t % 1024 == 0) sim.run_until(sim::Time{t});
  }
  sim.run();
  benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_EventEngineScheduleDispatch);

void BM_EventEngineScheduleCancelDrain(benchmark::State& state) {
  // Tombstone path: every event is cancelled after scheduling, the dispatch
  // loop only reaps tombstones.
  sim::Simulator sim;
  std::int64_t t = 0;
  for (auto _ : state) {
    sim::EventHandle h = sim.at(sim::Time{t += 10}, [] {});
    h.cancel();
    if (t % 1024 == 0) sim.run_until(sim::Time{t});
  }
  sim.run();
}
BENCHMARK(BM_EventEngineScheduleCancelDrain);

void BM_EventEngineTimerChurn(benchmark::State& state) {
  // MAC-retry shape: 64 self-rescheduling timers with staggered periods, the
  // steady-state pattern of PlcMedium/WifiMedium contention rounds.
  sim::Simulator sim;
  struct Timer {
    sim::Simulator* sim;
    sim::Time period;
    std::uint64_t fires = 0;
    void arm() {
      sim->after(period, [this] {
        ++fires;
        arm();
      });
    }
  };
  std::vector<Timer> timers;
  timers.reserve(64);
  for (int i = 0; i < 64; ++i) {
    timers.push_back(Timer{&sim, sim::nanoseconds(900 + 7 * i)});
    timers.back().arm();
  }
  std::int64_t end = 0;
  for (auto _ : state) {
    sim.run_until(sim::Time{end += 1000});
  }
  std::uint64_t total = 0;
  for (const Timer& timer : timers) total += timer.fires;
  benchmark::DoNotOptimize(total);
}
BENCHMARK(BM_EventEngineTimerChurn);

void BM_GridAttenuation(benchmark::State& state) {
  Rig rig;
  const auto t = sim::days(1) + sim::hours(12);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        rig.grid.attenuation_db(0, 2, rig.channel->phy().band, t));
  }
}
BENCHMARK(BM_GridAttenuation);

void BM_GridNoisePsd(benchmark::State& state) {
  Rig rig;
  const auto t = sim::days(1) + sim::hours(12);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        rig.grid.noise_psd_db(2, rig.channel->phy().band, t, 2, 6));
  }
}
BENCHMARK(BM_GridNoisePsd);

void BM_ChannelSnrCached(benchmark::State& state) {
  Rig rig;
  const auto t = sim::days(1) + sim::hours(12);
  (void)rig.channel->static_snr_db(0, 1, 0, t);  // prime the cache
  for (auto _ : state) {
    benchmark::DoNotOptimize(rig.channel->static_snr_db(0, 1, 0, t));
  }
}
BENCHMARK(BM_ChannelSnrCached);

void BM_ToneMapFromSnr(benchmark::State& state) {
  Rig rig;
  const auto snr =
      rig.channel->snr_db(0, 1, 0, sim::days(1) + sim::hours(12));
  const plc::PhyParams phy = plc::PhyParams::hpav();
  std::uint32_t id = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(plc::ToneMap::from_snr(snr, 1.5, phy, 0.01, ++id));
  }
}
BENCHMARK(BM_ToneMapFromSnr);

void BM_PbErrorCold(benchmark::State& state) {
  // The un-memoized kernel: mean LUT-backed uncoded BER over 917 loaded
  // carriers pushed through the FEC waterfall.
  Rig rig;
  const auto t = sim::days(1) + sim::hours(12);
  const auto snr = rig.channel->snr_db(0, 1, 0, t);
  const auto tm = plc::ToneMap::from_snr(snr, 1.5, rig.channel->phy(), 0.01, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tm.pb_error_probability(snr));
  }
}
BENCHMARK(BM_PbErrorCold);

void BM_UncodedBer(benchmark::State& state) {
  double snr = -40.0;
  for (auto _ : state) {
    snr += 0.37;
    if (snr > 40.0) snr = -40.0;
    benchmark::DoNotOptimize(
        plc::uncoded_ber(plc::Modulation::kQam64, snr));
  }
}
BENCHMARK(BM_UncodedBer);

void BM_UncodedBerExact(benchmark::State& state) {
  double snr = -40.0;
  for (auto _ : state) {
    snr += 0.37;
    if (snr > 40.0) snr = -40.0;
    benchmark::DoNotOptimize(
        plc::uncoded_ber_exact(plc::Modulation::kQam64, snr));
  }
}
BENCHMARK(BM_UncodedBerExact);

void BM_PbErrorMemoized(benchmark::State& state) {
  Rig rig;
  const auto t = sim::days(1) + sim::hours(12);
  const auto snr = rig.channel->snr_db(0, 1, 0, t);
  const auto tm = plc::ToneMap::from_snr(snr, 1.5, rig.channel->phy(), 0.01, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rig.channel->pb_error_probability(tm, 0, 1, 0, t));
  }
}
BENCHMARK(BM_PbErrorMemoized);

/// Times one slot's full bit-loading pass (perturbed-SNR copy + margin
/// ladder at `margin_db`), the kernel behind every estimator retune, after
/// `frames` error-free 3-PB frames. Each frame adds 3 PB samples; past 1,200
/// samples the ladder's depth leaves 0 and its four rungs become distinct.
void run_build_slot_map(benchmark::State& state, int frames, double margin_db) {
  Rig rig;
  plc::ChannelEstimator est(*rig.channel, 0, 1, sim::Rng{3}, {});
  const sim::Time now = sim::days(1) + sim::hours(12);
  est.on_sound_frame(now);
  for (int i = 0; i < frames; ++i) {
    est.on_frame_received(rig.channel->slot_at(now), 3, 0, 2, now);
  }
  plc::ToneMap tm;
  std::uint32_t id = 0;
  for (auto _ : state) {
    est.build_slot_map(2, now, margin_db, ++id, tm);
    benchmark::DoNotOptimize(tm.ble_mbps());
  }
}

void BM_BuildSlotMap(benchmark::State& state) {
  // Cold: straight after the sound-frame bootstrap, a one-rung ladder.
  run_build_slot_map(state, 0, 1.5);
}
BENCHMARK(BM_BuildSlotMap);

void BM_BuildSlotMapWarm(benchmark::State& state) {
  // Warm: 6,003 PB samples put the ladder at depth 0.5, four distinct rungs.
  run_build_slot_map(state, 2000, 1.5);
}
BENCHMARK(BM_BuildSlotMapWarm);

void BM_BuildSlotMapWarmBounded(benchmark::State& state) {
  // Warm at a 25 dB margin. The rig's link is strong enough that up to
  // ~15 dB every rung loads QAM-1024 everywhere and ties, so every rung is
  // scored; here the rungs load differently, the most aggressive one wins
  // with PBerr ~0, and the ladder's bound skips the other three.
  run_build_slot_map(state, 2000, 25.0);
}
BENCHMARK(BM_BuildSlotMapWarmBounded);

/// Per-call reference for kernel/polar_normal/<impl>/917: the same values
/// drawn one at a time through a fresh std::normal_distribution on
/// std::mt19937_64.
void BM_NormalPerCall(benchmark::State& state) {
  std::mt19937_64 engine{3};
  std::vector<double> noise(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    for (double& v : noise) v = std::normal_distribution<double>{0.0, 0.3}(engine);
    benchmark::DoNotOptimize(noise.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_NormalPerCall)->Arg(917);

// --- efd::obs overhead (DESIGN.md §8) -------------------------------------
// The instrumentation's three cost tiers: enabled (relaxed RMW on a
// thread-local shard), runtime-disabled (one relaxed load + branch — what
// every instrumented kernel above pays when EFD_OBS=0), and the histogram
// path. Compile-time removal (EFD_OBS_ENABLED=0) has no bench: there is
// nothing left to time.

void BM_ObsCounterInc(benchmark::State& state) {
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  for (auto _ : state) {
    EFD_COUNTER_INC("bench.obs.counter");
  }
  obs::set_enabled(was_enabled);
}
BENCHMARK(BM_ObsCounterInc);

void BM_ObsCounterIncDisabled(benchmark::State& state) {
  const bool was_enabled = obs::enabled();
  obs::set_enabled(false);
  for (auto _ : state) {
    EFD_COUNTER_INC("bench.obs.counter");
  }
  obs::set_enabled(was_enabled);
}
BENCHMARK(BM_ObsCounterIncDisabled);

void BM_ObsHistogramObserve(benchmark::State& state) {
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  std::uint64_t v = 0;
  for (auto _ : state) {
    EFD_HISTO_OBSERVE("bench.obs.histogram", ++v & 0xfff);
  }
  obs::set_enabled(was_enabled);
}
BENCHMARK(BM_ObsHistogramObserve);

void BM_ObsSnapshot(benchmark::State& state) {
  EFD_COUNTER_INC("bench.obs.counter");  // ensure something is registered
  for (auto _ : state) {
    benchmark::DoNotOptimize(obs::MetricsRegistry::instance().snapshot());
  }
}
BENCHMARK(BM_ObsSnapshot);

// Profiler scope tiers (DESIGN.md §13). Named prof/... — outside the
// kernel/ prefix — so the CI speedup gate ignores them. The enabled scope
// does real work inside so the measured delta is the instrumentation cost
// on a realistic (non-empty) region, matching the <2% budget the CI
// compile-out leg checks at whole-bench granularity. Guarded so the
// compile-out build references no profiler symbol at all (its nm check
// relies on profile.o never being pulled from the archive).
#if EFD_OBS_ENABLED
void BM_ProfScopeEnabled(benchmark::State& state) {
  const bool was_enabled = obs::prof_enabled();
  obs::set_prof_enabled(true);
  std::uint64_t v = 1;
  for (auto _ : state) {
    EFD_PROF_SCOPE("bench.prof.scope");
    v = v * 6364136223846793005ULL + 1442695040888963407ULL;
    benchmark::DoNotOptimize(v);
  }
  obs::set_prof_enabled(was_enabled);
}
BENCHMARK(BM_ProfScopeEnabled)->Name("prof/scope_enabled");

void BM_ProfScopeDisabled(benchmark::State& state) {
  const bool was_enabled = obs::prof_enabled();
  obs::set_prof_enabled(false);
  std::uint64_t v = 1;
  for (auto _ : state) {
    EFD_PROF_SCOPE("bench.prof.scope");
    v = v * 6364136223846793005ULL + 1442695040888963407ULL;
    benchmark::DoNotOptimize(v);
  }
  obs::set_prof_enabled(was_enabled);
}
BENCHMARK(BM_ProfScopeDisabled)->Name("prof/scope_disabled");

void BM_ProfSnapshot(benchmark::State& state) {
  {
    EFD_PROF_SCOPE("bench.prof.scope");  // ensure the tree is non-empty
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(obs::ProfileRegistry::instance().snapshot());
  }
}
BENCHMARK(BM_ProfSnapshot)->Name("prof/snapshot");
#endif  // EFD_OBS_ENABLED

// --- fault layer overhead (DESIGN.md §10) ---------------------------------
// The robustness machinery must be free when unused: with no FaultPlan
// installed an injector schedules nothing, and a HybridDevice without
// enable_failover() pays exactly one untaken branch per enqueue. The pair
// below measures the data path with the fault layer absent vs armed (all
// members healthy), so any creep in the disabled-path cost shows up as the
// two converging away from zero rather than staying within noise.

struct SinkInterface final : net::Interface {
  bool enqueue(const net::Packet&) override {
    ++accepted;
    return true;
  }
  [[nodiscard]] std::size_t queue_length() const override { return 0; }
  void set_rx_handler(RxHandler) override {}
  void clear_queue() override {}
  std::uint64_t accepted = 0;
};

void BM_HybridEnqueueFaultLayerOff(benchmark::State& state) {
  sim::Simulator sim;
  SinkInterface a, b;
  hybrid::HybridDevice dev(sim, {&a, &b},
                           std::make_unique<hybrid::RoundRobinScheduler>(2));
  net::Packet p;
  p.size_bytes = 1316;
  for (auto _ : state) {
    ++p.seq;
    benchmark::DoNotOptimize(dev.enqueue(p));
  }
  benchmark::DoNotOptimize(a.accepted + b.accepted);
}
BENCHMARK(BM_HybridEnqueueFaultLayerOff);

void BM_HybridEnqueueFailoverArmed(benchmark::State& state) {
  sim::Simulator sim;
  SinkInterface a, b;
  hybrid::HybridDevice dev(sim, {&a, &b},
                           std::make_unique<hybrid::RoundRobinScheduler>(2));
  hybrid::HybridDevice::FailoverConfig fc;
  fc.health.probe_interval = sim::hours(1);  // no probe fires mid-bench
  dev.enable_failover(fc);
  net::Packet p;
  p.size_bytes = 1316;
  for (auto _ : state) {
    ++p.seq;
    benchmark::DoNotOptimize(dev.enqueue(p));
  }
  benchmark::DoNotOptimize(a.accepted + b.accepted);
}
BENCHMARK(BM_HybridEnqueueFailoverArmed);

void BM_FaultInjectorIdleChurn(benchmark::State& state) {
  // The 64-timer churn workload with an armed-but-empty injector alongside:
  // hooks installed, no plan, so the dispatch rate must match
  // BM_EventEngineTimerChurn (an idle fault layer executes nothing).
  sim::Simulator sim;
  fault::FaultInjector inj(sim);
  inj.set_hooks(fault::FaultKind::kPlcBlackout,
                {[](const fault::FaultSpec&, sim::Time) {},
                 [](const fault::FaultSpec&, sim::Time) {}});
  inj.install(fault::FaultPlan{});
  struct Timer {
    sim::Simulator* sim;
    sim::Time period;
    std::uint64_t fires = 0;
    void arm() {
      sim->after(period, [this] {
        ++fires;
        arm();
      });
    }
  };
  std::vector<Timer> timers;
  timers.reserve(64);
  for (int i = 0; i < 64; ++i) {
    timers.push_back(Timer{&sim, sim::nanoseconds(900 + 7 * i)});
    timers.back().arm();
  }
  std::int64_t end = 0;
  for (auto _ : state) {
    sim.run_until(sim::Time{end += 1000});
  }
  std::uint64_t total = 0;
  for (const Timer& timer : timers) total += timer.fires;
  benchmark::DoNotOptimize(total);
}
BENCHMARK(BM_FaultInjectorIdleChurn);

void BM_EstimatorFrameUpdate(benchmark::State& state) {
  Rig rig;
  plc::ChannelEstimator est(*rig.channel, 0, 1, sim::Rng{3}, {});
  sim::Time now = sim::days(1) + sim::hours(12);
  est.on_sound_frame(now);
  for (auto _ : state) {
    now += sim::milliseconds(3);
    est.on_frame_received(rig.channel->slot_at(now), 50, 0, 40, now);
  }
}
BENCHMARK(BM_EstimatorFrameUpdate);

// --- per-kernel dispatch-table benchmarks ----------------------------------
// One benchmark per (kernel, implementation, carrier count), registered
// dynamically because the implementation list depends on the host CPU. Names
// follow "kernel/<kernel>/<impl>/<n>"; tools/bench_compare.py --gbench turns
// the scalar-vs-vector time ratio per (kernel, n) into a host-independent
// speedup gate.
const bool kKernelBenchesRegistered = [] {
  static sim::Rng rng{0xbe9c4ULL};
  for (const grid::simd::CarrierKernels* kp : grid::simd::available_kernels()) {
    const grid::simd::CarrierKernels& k = *kp;
    for (const std::size_t n : {std::size_t{917}, std::size_t{2232}}) {
      const auto name = [&](const char* kernel) {
        return std::string("kernel/") + kernel + "/" + k.name + "/" +
               std::to_string(n);
      };
      auto db = std::make_shared<std::vector<double>>(n);
      auto lin = std::make_shared<std::vector<double>>(n);
      auto out = std::make_shared<std::vector<double>>(n);
      for (std::size_t i = 0; i < n; ++i) {
        (*db)[i] = rng.uniform(-60.0, 50.0);
        (*lin)[i] = std::pow(10.0, (*db)[i] / 10.0);
      }
      benchmark::RegisterBenchmark(
          name("db_to_linear").c_str(), [&k, db, out, n](benchmark::State& state) {
            for (auto _ : state) {
              k.db_to_linear_n(db->data(), out->data(), n);
              benchmark::DoNotOptimize(out->data());
            }
          });
      benchmark::RegisterBenchmark(
          name("linear_to_db").c_str(), [&k, lin, out, n](benchmark::State& state) {
            for (auto _ : state) {
              k.linear_to_db_n(lin->data(), out->data(), n);
              benchmark::DoNotOptimize(out->data());
            }
          });
      benchmark::RegisterBenchmark(
          name("attenuation").c_str(), [&k, db, lin, out, n](benchmark::State& state) {
            // The attenuation assembly pair: affine base + one notch pass.
            for (auto _ : state) {
              k.affine_n(12.5, 0.036, db->data(), out->data(), n);
              k.accumulate_notch_n(0.4, 6.5, lin->data(), out->data(), n);
              benchmark::DoNotOptimize(out->data());
            }
          });
      benchmark::RegisterBenchmark(
          name("noise_sum").c_str(), [&k, lin, out, n](benchmark::State& state) {
            // Noise accumulation + dB conversion (the noise_psd_db pair).
            for (auto _ : state) {
              k.accumulate_scaled_n(0.21, lin->data(), out->data(), n);
              k.linear_to_db_n(lin->data(), out->data(), n);
              benchmark::DoNotOptimize(out->data());
            }
          });
      benchmark::RegisterBenchmark(
          name("snr_assemble").c_str(), [&k, db, lin, out, n](benchmark::State& state) {
            for (auto _ : state) {
              k.assemble_snr_n(-50.0, db->data(), lin->data(), out->data(), n);
              benchmark::DoNotOptimize(out->data());
            }
          });
      benchmark::RegisterBenchmark(
          name("robo_sum").c_str(), [&k, db, n](benchmark::State& state) {
            for (auto _ : state) {
              benchmark::DoNotOptimize(k.sum_db_to_linear_n(db->data(), n));
            }
          });
      auto levels = std::make_shared<std::vector<std::uint8_t>>(n);
      for (std::uint8_t& level : *levels) {
        level =
            static_cast<std::uint8_t>(rng.uniform_int(0, plc::kModulationCount - 1));
      }
      benchmark::RegisterBenchmark(
          name("ber_reduce").c_str(), [&k, levels, db, n](benchmark::State& state) {
            const grid::simd::InterpTableView lut = plc::ber_lut_view();
            const grid::simd::BitLoadingTable& table = plc::bit_loading_table();
            for (auto _ : state) {
              benchmark::DoNotOptimize(
                  k.ber_weighted_sum_n(lut, table, levels->data(), db->data(), 7.0, n));
            }
          });
      benchmark::RegisterBenchmark(
          name("polar_normal").c_str(), [&k, out, n](benchmark::State& state) {
            // One slot's estimation noise, as build_slot_map draws it.
            sim::Rng draws{3};
            for (auto _ : state) {
              draws.normal_fill(*out, 0.0, 0.3, k.polar_block);
              benchmark::DoNotOptimize(out->data());
              benchmark::ClobberMemory();
            }
          });
      auto loaded = std::make_shared<std::vector<std::uint8_t>>(n);
      benchmark::RegisterBenchmark(
          name("load_bits").c_str(), [&k, db, loaded, n](benchmark::State& state) {
            // One ladder rung's bit loading.
            const grid::simd::BitLoadingTable& table = plc::bit_loading_table();
            for (auto _ : state) {
              benchmark::DoNotOptimize(
                  k.load_bits_n(table, db->data(), 3.0, n, loaded->data()));
              benchmark::ClobberMemory();
            }
          });
    }
  }
  return true;
}();

}  // namespace

BENCHMARK_MAIN();
