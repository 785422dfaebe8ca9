#pragma once

// efd::obs umbrella header — the instrumentation macros every layer uses.
//
// All macros take string-literal metric names of the form
// "layer.component.metric" (taxonomy in DESIGN.md §8). Each call site
// resolves its name to a stable id exactly once (function-local static);
// afterwards a disabled registry costs one relaxed load + branch, and
// compiling with EFD_OBS_ENABLED=0 removes the call sites entirely.

#include "src/obs/metrics.hpp"
#include "src/obs/profile.hpp"

#if EFD_OBS_ENABLED

#define EFD_OBS_CONCAT2(a, b) a##b
#define EFD_OBS_CONCAT(a, b) EFD_OBS_CONCAT2(a, b)

#define EFD_COUNTER_ADD(name, v)                                       \
  do {                                                                 \
    static const ::efd::obs::CounterId efd_obs_cid =                   \
        ::efd::obs::MetricsRegistry::instance().counter_id(name);      \
    ::efd::obs::counter_add(efd_obs_cid, static_cast<std::uint64_t>(v)); \
  } while (0)

#define EFD_COUNTER_INC(name) EFD_COUNTER_ADD(name, 1)

#define EFD_HISTO_OBSERVE(name, v)                                    \
  do {                                                                \
    static const ::efd::obs::HistogramId efd_obs_hid =                \
        ::efd::obs::MetricsRegistry::instance().histogram_id(name);   \
    ::efd::obs::histogram_observe(efd_obs_hid, static_cast<double>(v)); \
  } while (0)

/// Hierarchical profiler period covering the rest of the enclosing scope.
/// `name` is a const char* that must outlive the process (string literal or
/// the carrier dispatch table's static entry names); nesting builds the
/// flamegraph tree emitted as "profile" by snapshot_json (DESIGN.md §13).
#define EFD_PROF_SCOPE(name) \
  ::efd::obs::ProfScope EFD_OBS_CONCAT(efd_obs_prof_, __LINE__)(name)

#else  // !EFD_OBS_ENABLED — every macro compiles to nothing.

// A value argument is consumed unevaluated (sizeof), so no code runs for it
// and a variable computed only to be recorded does not read as unused.
#define EFD_COUNTER_ADD(name, v) \
  do {                           \
    (void)sizeof(v);             \
  } while (0)
#define EFD_COUNTER_INC(name) \
  do {                        \
  } while (0)
#define EFD_HISTO_OBSERVE(name, v) \
  do {                             \
    (void)sizeof(v);               \
  } while (0)
#define EFD_PROF_SCOPE(name) \
  do {                       \
  } while (0)

#endif  // EFD_OBS_ENABLED
