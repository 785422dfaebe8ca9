#include "src/fault/injector.hpp"

#include <cassert>

#include "src/obs/obs.hpp"

namespace efd::fault {

FaultInjector::~FaultInjector() {
  for (sim::EventHandle& h : pending_) h.cancel();
}

void FaultInjector::set_hooks(FaultKind kind, Hooks hooks) {
  hooks_for(kind) = std::move(hooks);
}

void FaultInjector::install(const FaultPlan& plan) {
  // Reserve up front: firing a scheduled fault then appends to the trace
  // without allocating (slack absorbs a few recovery records per fault).
  trace_.reserve(trace_.size() + 2 * plan.size() + 64);
  pending_.reserve(pending_.size() + 2 * plan.size());
  for (const FaultSpec& spec : plan.specs()) {
    assert(spec.onset >= sim_.now() && "fault onset is in the simulator's past");
    pending_.push_back(
        sim_.at(spec.onset, [this, spec] { fire(spec, FaultPhase::kApply); }));
    pending_.push_back(sim_.at(spec.onset + spec.duration, [this, spec] {
      fire(spec, FaultPhase::kClear);
    }));
  }
}

void FaultInjector::fire(const FaultSpec& spec, FaultPhase phase) {
  trace_.push_back({sim_.now(), spec.kind, phase, spec.target, spec.severity});
  Hooks& hooks = hooks_for(spec.kind);
  if (phase == FaultPhase::kApply) {
    ++applied_;
    ++active_;
    EFD_COUNTER_INC("fault.injector.applied");
    if (hooks.apply) hooks.apply(spec, sim_.now());
  } else {
    ++cleared_;
    --active_;
    EFD_COUNTER_INC("fault.injector.cleared");
    if (hooks.clear) hooks.clear(spec, sim_.now());
  }
}

void FaultInjector::record(FaultPhase phase, FaultKind kind, int target,
                           double severity) {
  trace_.push_back({sim_.now(), kind, phase, target, severity});
  EFD_COUNTER_INC("fault.injector.recovery_events");
}

std::string FaultInjector::trace_lines() const {
  std::string out;
  out.reserve(trace_.size() * 64);
  for (const FaultEvent& e : trace_) {
    out += to_line(e);
    out += '\n';
  }
  return out;
}

}  // namespace efd::fault
