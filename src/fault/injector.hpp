#pragma once

#include <array>
#include <functional>
#include <vector>

#include "src/fault/fault.hpp"
#include "src/sim/simulator.hpp"

namespace efd::fault {

/// Drives a FaultPlan against the simulator clock. The injector itself is
/// mechanism-free: per-kind hooks (wired by the harness) apply and clear
/// the concrete effect — an impulse-noise floor on a PlcMedium, a jamming
/// penalty on a WifiMedium, a dark distribution board. The injector owns
/// the schedule and the fault/recovery event trace.
///
/// Determinism: install() schedules every apply/clear at plan-defined
/// absolute times, so the trace is a pure function of (plan, simulator
/// event order). Recovery-side components append their transitions through
/// record(), on the same clock. No wall time, no global state — the same
/// seed and plan yield a byte-identical trace on any host and under any
/// EFD_BENCH_THREADS fan-out (injectors are per-simulator).
///
/// Steady-state cost: between scheduled fault events the injector executes
/// nothing; trace capacity is reserved at install time, so firing events
/// performs no allocation (pinned by fault_test).
class FaultInjector {
 public:
  struct Hooks {
    std::function<void(const FaultSpec&, sim::Time)> apply;
    std::function<void(const FaultSpec&, sim::Time)> clear;
  };

  explicit FaultInjector(sim::Simulator& simulator) : sim_(simulator) {}
  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;
  /// Disarms pending fault events — their callbacks capture `this`.
  ~FaultInjector();

  /// Install the apply/clear hooks for one fault kind. A kind with no hooks
  /// installed is still traced (the schedule fires, the trace records it) —
  /// useful for dry runs.
  void set_hooks(FaultKind kind, Hooks hooks);

  /// Schedule every fault in `plan`. May be called more than once; each
  /// call adds its plan's events to the schedule. Onsets must not be in
  /// the simulator's past.
  void install(const FaultPlan& plan);

  /// Append a recovery-side event to the trace (health-monitor trips and
  /// recoveries). `severity` is phase-defined.
  void record(FaultPhase phase, FaultKind kind, int target, double severity = 0.0);

  [[nodiscard]] const std::vector<FaultEvent>& trace() const { return trace_; }
  /// Newline-joined to_line() rendering of the whole trace; the
  /// byte-identical determinism artifact.
  [[nodiscard]] std::string trace_lines() const;

  /// Faults currently in force (applied, not yet cleared).
  [[nodiscard]] int active_faults() const { return active_; }
  [[nodiscard]] std::uint64_t faults_applied() const { return applied_; }
  [[nodiscard]] std::uint64_t faults_cleared() const { return cleared_; }

 private:
  void fire(const FaultSpec& spec, FaultPhase phase);
  [[nodiscard]] Hooks& hooks_for(FaultKind kind) {
    return hooks_[static_cast<std::size_t>(kind)];
  }

  sim::Simulator& sim_;
  std::array<Hooks, kFaultKindCount> hooks_;
  std::vector<sim::EventHandle> pending_;
  std::vector<FaultEvent> trace_;
  int active_ = 0;
  std::uint64_t applied_ = 0;
  std::uint64_t cleared_ = 0;
};

}  // namespace efd::fault
