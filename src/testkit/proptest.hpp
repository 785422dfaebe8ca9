#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/testkit/diff.hpp"
#include "src/testkit/invariants.hpp"
#include "src/testkit/scenario.hpp"

namespace efd::testkit {

struct ProptestOptions {
  /// Worker threads for the sweep; <= 0 resolves EFD_BENCH_THREADS, then
  /// hardware concurrency (testbed::ParallelRunner semantics).
  int threads = 0;
  /// Deliberate-corruption hooks; neutral by default.
  InvariantOptions invariants;
};

/// Verdict for one scenario: everything that went wrong, plus the trace
/// digest (the determinism surface).
struct ScenarioVerdict {
  std::uint64_t index = 0;
  std::vector<Violation> violations;
  std::vector<DiffResult> diff_failed;
  bool determinism_ok = true;
  std::uint64_t digest = 0;

  [[nodiscard]] bool ok() const {
    return violations.empty() && diff_failed.empty() && determinism_ok;
  }
};

/// Aggregate result of a sweep. `combined_digest` folds every scenario's
/// digest in index order, so it is identical for any worker count and
/// byte-identical across same-seed reruns.
struct ProptestReport {
  std::uint64_t seed = 0;
  int n = 0;
  std::vector<ScenarioVerdict> failures;  ///< only the scenarios that failed
  std::uint64_t combined_digest = 0;
  Scenario shrunk;              ///< minimal reproducer of the first failure
  std::string first_failure;    ///< human-readable description

  [[nodiscard]] bool ok() const { return failures.empty(); }
  [[nodiscard]] std::string summary() const;
};

/// Run one scenario through the full gauntlet: build the world twice from
/// the same seed (digests must agree — the determinism gate), then the
/// invariant checkers, the differential checks, and the hybrid fuzz.
[[nodiscard]] ScenarioVerdict check_scenario(const Scenario& s,
                                             const ProptestOptions& opts = {});

/// Sweep scenarios [0, n) from `seed` across a ParallelRunner. On failure
/// the lowest-index failing scenario is shrunk (at most 256 greedy steps)
/// with check_scenario as the predicate.
[[nodiscard]] ProptestReport run_proptest(std::uint64_t seed, int n,
                                          const ProptestOptions& opts = {});

}  // namespace efd::testkit
