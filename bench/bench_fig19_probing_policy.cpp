// Fig. 19 + §7.3: probing frequency vs estimation accuracy — CDF of the
// estimation error for fixed 5 s probing, fixed 80 s probing, and the
// paper's quality-adaptive method (bad links at 5 s, average 8x slower,
// good 16x slower), which cuts probing overhead ~32% at almost no accuracy
// cost.
#include "bench_util.hpp"

using namespace efd;

namespace {

constexpr bench::Figure kFigure{
    "fig19", "Fig. 19", "estimation-error CDF for probing policies",
    "the adaptive method matches the 5 s-everywhere accuracy while "
    "cutting probe overhead ~32%; 80 s-everywhere is cheap but "
    "inaccurate on bad links"};

void experiment(sim::Simulator& sim, testbed::Testbed& tb, bench::JsonReporter& json) {
  sim.run_until(testbed::weekend_night());

  // Collect a 200 s, 50 ms-resolution BLE trace per live link (§6.2 data).
  const auto span = sim::seconds(bench::scaled(200.0, 0.5));
  std::vector<std::vector<core::BleSample>> traces;
  for (const auto& [a, b] : tb.plc_links()) {
    if (tb.plc_channel().mean_snr_db(a, b, 0, sim.now()) < 5.0) continue;
    bench::warm_link(tb, a, b);
    traces.push_back(bench::cycle_trace(tb, a, b, 0x19c, span));
  }
  std::printf("links traced: %zu\n", traces.size());

  struct PolicyRun {
    const char* name;
    std::unique_ptr<core::ProbingPolicy> policy;
    std::vector<double> errors;
    std::uint64_t probes = 0;
  };
  std::vector<PolicyRun> runs;
  runs.push_back({"probing per 5 s", std::make_unique<core::FixedIntervalPolicy>(
                                         sim::seconds(5)),
                  {}, 0});
  runs.push_back({"probing per 80 s", std::make_unique<core::FixedIntervalPolicy>(
                                          sim::seconds(80)),
                  {}, 0});
  runs.push_back({"our method (adaptive)",
                  std::make_unique<core::QualityAdaptivePolicy>(), {}, 0});

  for (auto& run : runs) {
    for (const auto& trace : traces) {
      const auto eval = core::evaluate_policy(trace, *run.policy);
      run.errors.insert(run.errors.end(), eval.errors_mbps.begin(),
                        eval.errors_mbps.end());
      run.probes += eval.probes;
    }
  }

  bench::section("estimation-error CDF (Mb/s)");
  std::printf("%-24s %8s %8s %8s %8s %8s %10s\n", "policy", "p50", "p75", "p90",
              "p95", "p99", "probes");
  for (auto& run : runs) {
    const sim::Cdf cdf{run.errors};
    std::printf("%-24s %8.2f %8.2f %8.2f %8.2f %8.2f %10llu\n", run.name,
                cdf.quantile(0.50), cdf.quantile(0.75), cdf.quantile(0.90),
                cdf.quantile(0.95), cdf.quantile(0.99),
                static_cast<unsigned long long>(run.probes));
  }

  bench::section("overhead");
  const double reduction = 100.0 * (1.0 - static_cast<double>(runs[2].probes) /
                                              static_cast<double>(runs[0].probes));
  std::printf("adaptive vs 5 s-everywhere: %.0f%% fewer probes (paper: 32%%)\n",
              json.add("adaptive_probe_reduction", reduction, "%"));
  const auto median = [&](int i) { return sim::Cdf{runs[i].errors}.quantile(0.5); };
  std::printf("mean error: 5 s %.2f | 80 s %.2f | adaptive %.2f Mb/s\n",
              json.add("median_error_5s", median(0), "Mb/s"),
              json.add("median_error_80s", median(1), "Mb/s"),
              json.add("median_error_adaptive", median(2), "Mb/s"));
}

}  // namespace

int main() { return bench::run(kFigure, experiment); }
