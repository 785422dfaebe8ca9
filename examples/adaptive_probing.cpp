// Adaptive probing: operate the paper's §7.3 quality-adaptive probing
// method live on the testbed — classify every link from its BLE, assign
// per-class probe intervals (bad: 5 s, average: 40 s, good: 80 s), and
// report the overhead saved vs probing everything at the base interval
// while tracking estimation accuracy.
//
// Build & run:  ./build/examples/adaptive_probing
#include <cstdio>
#include <vector>

#include "src/core/probing.hpp"
#include "src/core/sampler.hpp"
#include "src/testbed/experiment.hpp"

using namespace efd;

int main() {
  sim::Simulator sim;
  testbed::Testbed::Config cfg;
  cfg.with_hpav500 = false;
  testbed::Testbed tb(sim, cfg);
  sim.run_until(testbed::weekend_night());

  const core::QualityAdaptivePolicy adaptive;
  const core::FixedIntervalPolicy fixed{sim::seconds(5)};

  std::printf("Tracing all live links for 120 s at the 50 ms MM cadence...\n\n");
  struct LinkEval {
    int a, b;
    double ble;
    core::LinkQuality klass;
    core::ProbingEvaluation adaptive_eval, fixed_eval;
  };
  std::vector<LinkEval> evals;
  for (const auto& [a, b] : tb.plc_links()) {
    if (tb.plc_channel().mean_snr_db(a, b, 0, sim.now()) < 5.0) continue;
    auto& est = tb.plc_network_of(b).estimator(b, a);
    core::LinkTraceSampler sampler(tb.plc_channel(), est, a, b, sim::Rng{4});
    const auto trace = sampler.run(sim.now(), sim.now() + sim::seconds(120));
    LinkEval e{a, b, 0.0, core::LinkQuality::kBad, {}, {}};
    e.ble = trace.back().ble_mbps;
    e.klass = core::LinkQualityClassifier::classify(e.ble);
    e.adaptive_eval = core::evaluate_policy(trace, adaptive);
    e.fixed_eval = core::evaluate_policy(trace, fixed);
    evals.push_back(e);
  }

  const char* names[] = {"bad", "average", "good"};
  int class_counts[3] = {0, 0, 0};
  std::uint64_t adaptive_probes = 0, fixed_probes = 0;
  double adaptive_err = 0.0, fixed_err = 0.0;
  std::size_t n_err = 0;
  for (const auto& e : evals) {
    ++class_counts[static_cast<int>(e.klass)];
    adaptive_probes += e.adaptive_eval.probes;
    fixed_probes += e.fixed_eval.probes;
    adaptive_err += e.adaptive_eval.mean_error();
    fixed_err += e.fixed_eval.mean_error();
    ++n_err;
  }

  std::printf("link classes: bad %d (probe every 5 s), average %d (40 s), "
              "good %d (80 s)\n\n",
              class_counts[0], class_counts[1], class_counts[2]);
  std::printf("%-22s %12s %16s\n", "policy", "probes", "mean error Mb/s");
  std::printf("%-22s %12llu %16.2f\n", "fixed 5 s everywhere",
              static_cast<unsigned long long>(fixed_probes), fixed_err / n_err);
  std::printf("%-22s %12llu %16.2f\n", "quality-adaptive",
              static_cast<unsigned long long>(adaptive_probes),
              adaptive_err / n_err);
  std::printf("\noverhead reduction: %.0f%% (paper reports 32%% on its mix of "
              "link qualities)\n",
              100.0 * (1.0 - static_cast<double>(adaptive_probes) /
                                 static_cast<double>(fixed_probes)));
  std::printf("probing bandwidth at 1500 B probes: %.0f kb/s -> %.0f kb/s\n",
              fixed_probes * 1500 * 8.0 / 120.0 / 1e3,
              adaptive_probes * 1500 * 8.0 / 120.0 / 1e3);

  std::printf("\nper-class interval sanity (Table 3: adapt frequency to "
              "quality):\n");
  for (int k = 0; k < 3; ++k) {
    double ble_example = k == 0 ? 30.0 : (k == 1 ? 80.0 : 140.0);
    std::printf("  %-8s -> probe every %.0f s\n", names[k],
                adaptive.interval(ble_example).seconds());
  }
  return 0;
}
