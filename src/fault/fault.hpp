#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/sim/rng.hpp"
#include "src/sim/time.hpp"

namespace efd::fault {

/// The fault taxonomy (DESIGN.md §10). Each kind maps onto one of the
/// failure modes the paper observes and a program runs: PLC links collapse
/// under appliance impulsive noise and tone-map invalidation (§5-§6), WiFi
/// degrades under interference (§4), and at campus and NAN scale boards
/// lose power and cut crossings (§15).
enum class FaultKind : std::uint8_t {
  /// Appliance surge on the mains: PB decodes fail at `severity`
  /// probability (1.0 = total blackout) and tone maps are invalidated,
  /// forcing a ROBO re-sound when the surge clears.
  kPlcBlackout,
  /// Interferer burst on the WiFi channel: receiver SNR drops by
  /// `severity` dB for the duration (large values kill even MCS0).
  kWifiJam,
  /// Campus fault domain (DESIGN.md §15): a whole distribution board loses
  /// power — every station on it goes dark, its media stop decoding and
  /// boundary ingress is dropped until the fault clears. `target` is the
  /// board index; `severity` is unused (a blackout is total).
  kBoardBlackout,
  /// Campus fault domain: a board browns out — its mains keep (barely)
  /// working while PB decodes additionally fail with probability
  /// `severity`. `target` is the board index.
  kBoardBrownout,
  /// Campus fault domain: a boundary link between two boards is severed
  /// (backhoe through the backbone, bridge radio knocked out). `target` is
  /// the campus topology's link index; both endpoint boards observe the
  /// same apply/clear instants. `severity` is unused.
  kLinkPartition,
};

/// Number of FaultKind values; sizes the injector's per-kind hook table.
inline constexpr std::size_t kFaultKindCount = 5;

[[nodiscard]] const char* to_string(FaultKind kind);

/// One scheduled fault: (onset, duration, kind, target, severity).
/// `target` is hook-defined — a medium index, station id, or interface
/// index, whatever the installed hook for `kind` expects.
struct FaultSpec {
  sim::Time onset{};
  sim::Time duration{};
  FaultKind kind = FaultKind::kPlcBlackout;
  int target = 0;
  double severity = 1.0;
};

/// Lifecycle phase of a fault/recovery trace record. kApply/kClear come
/// from the injector itself; the rest are recovery-side events recorded by
/// the failover machinery (health-monitor transitions).
enum class FaultPhase : std::uint8_t {
  kApply,     ///< fault onset took effect
  kClear,     ///< fault duration elapsed, effect removed
  kTrip,      ///< a health monitor opened (interface declared dead)
  kHalfOpen,  ///< reprobe succeeded once, trial traffic allowed
  kRecover,   ///< monitor closed again (interface declared live)
};

[[nodiscard]] const char* to_string(FaultPhase phase);

/// One record of the fault/recovery event trace. The trace is the
/// determinism contract: identical seed + identical plan must produce a
/// byte-identical sequence of these (see FaultInjector::trace_lines).
struct FaultEvent {
  sim::Time t{};
  FaultKind kind = FaultKind::kPlcBlackout;
  FaultPhase phase = FaultPhase::kApply;
  int target = 0;
  double severity = 0.0;

  bool operator==(const FaultEvent&) const = default;
};

/// Fixed-format rendering ("<ns> <kind> <phase> target=<n> sev=<x>"); used
/// by the byte-identical trace comparisons.
[[nodiscard]] std::string to_line(const FaultEvent& e);

/// An ordered set of faults to inject, composable declaratively or drawn
/// from a seeded Rng. Specs are kept sorted by (onset, insertion order) so
/// the injector's schedule — and therefore the event trace — is a pure
/// function of the plan.
class FaultPlan {
 public:
  FaultPlan& add(const FaultSpec& spec);

  /// Convenience composers.
  FaultPlan& blackout(sim::Time onset, sim::Time duration, int target = 0,
                      double severity = 1.0) {
    return add({onset, duration, FaultKind::kPlcBlackout, target, severity});
  }
  FaultPlan& wifi_jam(sim::Time onset, sim::Time duration, int target = 0,
                      double severity_db = 40.0) {
    return add({onset, duration, FaultKind::kWifiJam, target, severity_db});
  }
  FaultPlan& board_blackout(sim::Time onset, sim::Time duration, int board) {
    return add({onset, duration, FaultKind::kBoardBlackout, board, 1.0});
  }
  FaultPlan& board_brownout(sim::Time onset, sim::Time duration, int board,
                            double severity = 0.5) {
    return add({onset, duration, FaultKind::kBoardBrownout, board, severity});
  }
  FaultPlan& link_partition(sim::Time onset, sim::Time duration, int link) {
    return add({onset, duration, FaultKind::kLinkPartition, link, 0.0});
  }

  [[nodiscard]] const std::vector<FaultSpec>& specs() const { return specs_; }
  [[nodiscard]] bool empty() const { return specs_.empty(); }
  [[nodiscard]] std::size_t size() const { return specs_.size(); }

  /// Time at which the last fault has cleared.
  [[nodiscard]] sim::Time end() const;

  /// Parameters for a seeded campus-scale storm over the fault-domain
  /// kinds (DESIGN.md §15): board blackouts/brownouts draw targets in
  /// [0, n_boards), link partitions in [0, n_links).
  struct CampusStormConfig {
    sim::Time start = sim::milliseconds(20);
    sim::Time horizon = sim::milliseconds(150);  ///< onsets in [start, horizon)
    sim::Time min_duration = sim::milliseconds(10);
    sim::Time max_duration = sim::milliseconds(60);
    int n_blackouts = 2;
    int n_brownouts = 2;
    int n_partitions = 2;
    int n_boards = 1;
    int n_links = 0;   ///< 0 draws no partitions regardless of n_partitions
    double min_severity = 0.3;  ///< brownout PB-error floor
    double max_severity = 0.8;
  };

  /// Draw a campus fault-domain storm from a seeded Rng: the same seed +
  /// config always yields the same plan (and therefore the same injector
  /// trace).
  [[nodiscard]] static FaultPlan random_campus_storm(sim::Rng rng,
                                                     const CampusStormConfig& cfg);

 private:
  std::vector<FaultSpec> specs_;
};

}  // namespace efd::fault
