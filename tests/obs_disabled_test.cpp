// Compiled with EFD_OBS_ENABLED=0 (see tests/CMakeLists.txt): the EFD_*
// macros must vanish entirely — no registrations, no allocations, no side
// effects — so shipping builds can compile out observability wholesale.
#include <gtest/gtest.h>

#include <string>

#include "alloc_count.hpp"
#include "src/obs/obs.hpp"

#if EFD_OBS_ENABLED
#error "obs_disabled_test must be compiled with EFD_OBS_ENABLED=0"
#endif

namespace efd {
namespace {

TEST(ObsDisabledTest, MacrosAddZeroAllocations) {
  // Warm anything lazily initialized outside the measured window.
  const testsupport::AllocationWindow window;
  for (int i = 0; i < 10000; ++i) {
    EFD_COUNTER_INC("disabled.counter");
    EFD_COUNTER_ADD("disabled.counter_add", i);
    EFD_HISTO_OBSERVE("disabled.histogram", i);
    EFD_PROF_SCOPE("disabled.prof");
  }
  EXPECT_EQ(window.count(), 0u);
  EXPECT_EQ(window.bytes(), 0u);
}

TEST(ObsDisabledTest, ProfScopeIsAnEmptyClass) {
  // The compiled-out ProfScope must carry no state: if it grew any, the
  // EFD_PROF_SCOPE expansion would no longer be free in disabled builds.
  // (The absent-"profile"-key and no-profiler-symbols properties need the
  // whole project built with EFD_OBS_ENABLED=0 — the CI compile-out leg
  // asserts those with nm on bench_micro_kernels.)
  EXPECT_EQ(sizeof(obs::ProfScope), 1u);  // empty class minimum
}

TEST(ObsDisabledTest, MacrosRegisterNothing) {
  EFD_COUNTER_INC("disabled.should_not_exist");
  EFD_HISTO_OBSERVE("disabled.histo_should_not_exist", 1.0);
  const std::string json = obs::snapshot_json();
  EXPECT_EQ(json.find("disabled."), std::string::npos);
}

TEST(ObsDisabledTest, MacroArgumentsAreNotEvaluated) {
  int evaluations = 0;
  const auto count = [&evaluations] { return ++evaluations; };
  (void)count;  // referenced only as the macros' unevaluated arguments
  EFD_COUNTER_ADD("disabled.arg", count());
  EFD_HISTO_OBSERVE("disabled.arg", count() * 0.5);
  EFD_HISTO_OBSERVE("disabled.arg", count());
  EXPECT_EQ(evaluations, 0);
}

}  // namespace
}  // namespace efd
