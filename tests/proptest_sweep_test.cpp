// The proptest sweep proper (ctest label `proptest`): N randomized
// scenarios through invariants + differential checks + the determinism
// gate, plus the harness acceptance test — a deliberately injected
// violation must be caught and shrunk to a minimal reproducer.
#include <gtest/gtest.h>

#include <cstdlib>

#include "src/testkit/proptest.hpp"

namespace efd::testkit {
namespace {

int sweep_count() {
  // CI legs size the sweep via EFD_PROPTEST_N (500 on the release leg,
  // reduced on sanitizers); the local default keeps `ctest -L proptest`
  // under a minute per test.
  if (const char* env = std::getenv("EFD_PROPTEST_N")) {
    const int n = std::atoi(env);
    if (n > 0) return n;
  }
  return 60;
}

TEST(ProptestSweep, FixedSeedSweepIsCleanAndReproducible) {
  const auto report = run_proptest(20250815, sweep_count());
  EXPECT_TRUE(report.ok()) << report.summary();

  // Same-seed rerun: byte-identical observable surface.
  const auto rerun = run_proptest(20250815, sweep_count());
  EXPECT_EQ(report.combined_digest, rerun.combined_digest);
}

TEST(ProptestSweep, SecondSeedSweepIsClean) {
  const auto report = run_proptest(424242, sweep_count() / 2 + 1);
  EXPECT_TRUE(report.ok()) << report.summary();
}

TEST(ProptestSweep, InjectedViolationIsCaughtAndShrunk) {
  // Simulate a "PB error probability lost its clamp" bug via the corruption
  // hook: the sweep must fail, identify the pberr-range invariant, and
  // shrink the first failing scenario to a small reproducer.
  ProptestOptions opts;
  opts.invariants.inject_pberr_offset = 1.5;
  const auto report = run_proptest(20250815, 12, opts);
  ASSERT_FALSE(report.ok());

  bool pberr_violation = false;
  for (const ScenarioVerdict& v : report.failures) {
    for (const Violation& viol : v.violations) {
      pberr_violation |= viol.invariant == "pberr-range";
    }
  }
  EXPECT_TRUE(pberr_violation) << report.summary();

  // The shrinker must reach a scenario no bigger than a 3-outlet grid while
  // the injected violation persists.
  EXPECT_LE(report.shrunk.n_outlets, 3) << report.shrunk.describe();
  EXPECT_FALSE(check_scenario(report.shrunk, opts).ok());
}

}  // namespace
}  // namespace efd::testkit
