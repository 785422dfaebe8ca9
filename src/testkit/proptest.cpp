#include "src/testkit/proptest.hpp"

#include <algorithm>
#include <cstdio>

#include "src/sim/simulator.hpp"
#include "src/testbed/parallel_runner.hpp"
#include "src/testkit/world.hpp"

namespace efd::testkit {

namespace {

ScenarioVerdict check_scenario_with(const Scenario& s, sim::Simulator& sim,
                                    const ProptestOptions& opts) {
  ScenarioVerdict v;
  v.index = s.index;

  // Determinism gate: two worlds from the same scenario, each on a freshly
  // reset engine, must produce byte-identical traces. A mismatch means
  // hidden cross-run state (simulator reuse, address-ordered iteration,
  // uninitialized reads) leaked into the observable surface.
  std::uint64_t first_digest = 0;
  {
    ScenarioWorld warmup(s, sim);
    first_digest = warmup.run().digest();
  }
  sim.reset();
  ScenarioWorld world(s, sim);
  const RunTrace trace = world.run();
  v.digest = trace.digest();
  v.determinism_ok = (v.digest == first_digest);

  v.violations = check_invariants(world, trace, opts.invariants);
  for (Violation& hv : check_hybrid_invariants(s, opts.invariants)) {
    v.violations.push_back(std::move(hv));
  }
  v.diff_failed = diff_failures(run_diff(world, opts.tolerances));
  return v;
}

std::string describe_verdict(const Scenario& s, const ScenarioVerdict& v) {
  std::string out = s.describe();
  if (!v.determinism_ok) out += "\n  determinism: same-seed digests differ";
  for (const Violation& viol : v.violations) {
    out += "\n  violation [" + viol.invariant + "]: " + viol.detail;
  }
  for (const DiffResult& d : v.diff_failed) {
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "\n  diff [%s]: max err %.3e > tol %.3e over %d samples (%s)",
                  d.what.c_str(), d.max_abs_err, d.tolerance, d.samples,
                  d.worst_detail.c_str());
    out += buf;
  }
  return out;
}

}  // namespace

ScenarioVerdict check_scenario(const Scenario& s, const ProptestOptions& opts) {
  sim::Simulator sim;
  return check_scenario_with(s, sim, opts);
}

ProptestReport run_proptest(std::uint64_t seed, int n, const ProptestOptions& opts) {
  ProptestReport report;
  report.seed = seed;
  report.n = n;

  ScenarioGen gen(seed);
  testbed::ParallelRunner runner(
      opts.threads > 0 ? opts.threads : testbed::ParallelRunner::env_threads());
  // Per-task storage discipline: the scenario's lists live on the worker's
  // arena (reset before every task), so after each worker has warmed up its
  // chunk the whole generate/check/teardown cycle is heap-free. The
  // ScenarioVerdict result is plain value data and owns no arena storage.
  const std::vector<ScenarioVerdict> verdicts =
      runner.map_with_sim<ScenarioVerdict>(
          n, [&gen, &opts](int i, sim::Simulator& sim, core::Arena& arena) {
            Scenario s(arena);
            gen.generate_into(static_cast<std::uint64_t>(i), s);
            return check_scenario_with(s, sim, opts);
          });

  // Fold in index order: identical for any worker count.
  std::uint64_t combined = 0xcbf29ce484222325ULL;
  for (const ScenarioVerdict& v : verdicts) {
    combined ^= v.digest;
    combined *= 0x100000001b3ULL;
  }
  report.combined_digest = combined;

  for (const ScenarioVerdict& v : verdicts) {
    if (!v.ok()) report.failures.push_back(v);
  }
  if (!report.failures.empty()) {
    const ScenarioVerdict& first = report.failures.front();
    Scenario failing = gen.generate(first.index);
    report.first_failure = describe_verdict(failing, first);
    if (opts.shrink_on_failure) {
      report.shrunk = shrink(
          failing,
          [&opts](const Scenario& cand) {
            return !check_scenario(cand, opts).ok();
          },
          opts.max_shrink_steps);
      report.has_shrunk = true;
    }
  }
  return report;
}

std::string ProptestReport::summary() const {
  char head[160];
  std::snprintf(head, sizeof head,
                "proptest seed=%llu n=%d: %zu failing scenario(s), combined "
                "digest %016llx",
                static_cast<unsigned long long>(seed), n, failures.size(),
                static_cast<unsigned long long>(combined_digest));
  std::string out = head;
  if (!failures.empty()) {
    out += "\nfirst failure:\n" + first_failure;
    if (has_shrunk) {
      out += "\nshrunk reproducer:\n" + shrunk.describe();
    }
  }
  return out;
}

}  // namespace efd::testkit
