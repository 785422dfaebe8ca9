#include "src/fault/fault.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

namespace efd::fault {

const char* to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::kPlcBlackout: return "plc_blackout";
    case FaultKind::kWifiJam: return "wifi_jam";
    case FaultKind::kBoardBlackout: return "board_blackout";
    case FaultKind::kBoardBrownout: return "board_brownout";
    case FaultKind::kLinkPartition: return "link_partition";
  }
  return "?";
}

const char* to_string(FaultPhase phase) {
  switch (phase) {
    case FaultPhase::kApply: return "apply";
    case FaultPhase::kClear: return "clear";
    case FaultPhase::kTrip: return "trip";
    case FaultPhase::kHalfOpen: return "half_open";
    case FaultPhase::kRecover: return "recover";
  }
  return "?";
}

std::string to_line(const FaultEvent& e) {
  // %.17g round-trips doubles exactly, so the rendering is byte-stable for
  // any severity a plan or Rng can produce.
  char buf[128];
  std::snprintf(buf, sizeof(buf), "%" PRId64 " %s %s target=%d sev=%.17g",
                e.t.ns(), to_string(e.kind), to_string(e.phase), e.target,
                e.severity);
  return buf;
}

FaultPlan& FaultPlan::add(const FaultSpec& spec) {
  // Keep sorted by onset; equal onsets keep insertion order so composing a
  // plan is deterministic regardless of how it was assembled.
  const auto it = std::upper_bound(
      specs_.begin(), specs_.end(), spec,
      [](const FaultSpec& a, const FaultSpec& b) { return a.onset < b.onset; });
  specs_.insert(it, spec);
  return *this;
}

sim::Time FaultPlan::end() const {
  sim::Time last{};
  for (const FaultSpec& s : specs_) last = std::max(last, s.onset + s.duration);
  return last;
}

FaultPlan FaultPlan::random_campus_storm(sim::Rng rng,
                                         const CampusStormConfig& cfg) {
  FaultPlan plan;
  const auto draw = [&](FaultKind kind, int n, int n_targets) {
    for (int i = 0; i < n && n_targets > 0; ++i) {
      FaultSpec s;
      s.onset = sim::Time{rng.uniform_int(cfg.start.ns(), cfg.horizon.ns() - 1)};
      s.duration = sim::Time{
          rng.uniform_int(cfg.min_duration.ns(), cfg.max_duration.ns())};
      s.kind = kind;
      s.target = static_cast<int>(rng.uniform_int(0, n_targets - 1));
      s.severity = kind == FaultKind::kBoardBrownout
                       ? rng.uniform(cfg.min_severity, cfg.max_severity)
                       : (kind == FaultKind::kBoardBlackout ? 1.0 : 0.0);
      plan.add(s);
    }
  };
  // Fixed draw order (blackouts, brownouts, partitions) keeps the plan a
  // pure function of (rng seed, config).
  draw(FaultKind::kBoardBlackout, cfg.n_blackouts, cfg.n_boards);
  draw(FaultKind::kBoardBrownout, cfg.n_brownouts, cfg.n_boards);
  draw(FaultKind::kLinkPartition, cfg.n_partitions, cfg.n_links);
  return plan;
}

}  // namespace efd::fault
