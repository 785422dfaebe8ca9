#pragma once

#include <cstdint>
#include <functional>

#include "src/sim/rng.hpp"
#include "src/sim/simulator.hpp"

namespace efd::fault {

/// Circuit-breaker health monitor for one interface (DESIGN.md §10).
///
/// States: closed (healthy, probing at `probe_interval`), open (tripped
/// after `trip_threshold` consecutive failures; reprobes with exponential
/// backoff plus deterministic jitter), half-open (one probe succeeded;
/// `recovery_successes` consecutive successes close the breaker again, any
/// failure re-opens it with a deeper backoff).
///
/// Probing is pluggable: each probe calls `probe(nonce)` and the subject
/// must answer via on_probe_result(nonce, ok) before `probe_timeout`, or
/// the probe counts as a failure.
///
/// Determinism: all timing lives on the simulator clock and the reprobe
/// jitter comes from the seeded Rng handed in at construction, so a given
/// (seed, fault schedule) replays the exact transition sequence. Steady
/// state (closed, probes succeeding) performs no heap allocation: the
/// probe/timeout events use inline captures and all bookkeeping is in
/// fixed-size members (pinned by fault_test).
class HealthMonitor {
 public:
  enum class State : std::uint8_t { kClosed, kOpen, kHalfOpen };

  struct Config {
    sim::Time probe_interval = sim::milliseconds(100);
    sim::Time probe_timeout = sim::milliseconds(40);
    /// Consecutive probe failures (timeouts or failed answers) that trip
    /// the breaker open.
    int trip_threshold = 3;
    /// Reprobe backoff while open: initial delay, growth factor, cap.
    sim::Time backoff_initial = sim::milliseconds(200);
    double backoff_factor = 2.0;
    sim::Time backoff_max = sim::seconds(5);
    /// Jitter fraction added to each backoff (drawn from the seeded Rng;
    /// decorrelates reprobe storms across members, stays reproducible).
    double jitter_frac = 0.1;
    /// Consecutive half-open successes required to close again.
    int recovery_successes = 2;
  };

  using ProbeFn = std::function<void(std::uint64_t nonce)>;
  using StateListener = std::function<void(State state, sim::Time t)>;

  HealthMonitor(sim::Simulator& simulator, sim::Rng rng, Config config,
                ProbeFn probe);
  HealthMonitor(const HealthMonitor&) = delete;
  HealthMonitor& operator=(const HealthMonitor&) = delete;
  /// Disarms pending probe/timeout events — their callbacks capture `this`.
  ~HealthMonitor() { stop(); }

  /// Invoked on every state transition, after internal bookkeeping.
  void set_listener(StateListener listener) { listener_ = std::move(listener); }

  /// Begin probing (first probe after one probe_interval). Idempotent.
  void start();
  /// Cancel all pending probe activity. Idempotent; start() rearms.
  void stop();

  /// Probe answer path. Stale nonces (a late echo racing the timeout that
  /// already failed it) are counted and ignored.
  void on_probe_result(std::uint64_t nonce, bool ok);

  [[nodiscard]] State state() const { return state_; }
  /// True when the scheduler should carry traffic on this member (closed);
  /// half-open allows probes only, so it reads as not healthy.
  [[nodiscard]] bool healthy() const { return state_ == State::kClosed; }

  [[nodiscard]] std::uint64_t probes_sent() const { return probes_sent_; }
  [[nodiscard]] std::uint64_t probes_failed() const { return probes_failed_; }
  [[nodiscard]] std::uint64_t stale_results() const { return stale_results_; }
  [[nodiscard]] std::uint64_t trips() const { return trips_; }
  [[nodiscard]] std::uint64_t recoveries() const { return recoveries_; }
  [[nodiscard]] int consecutive_failures() const { return consecutive_failures_; }
  /// Current reprobe-backoff stage; clamped to the stage whose delay first
  /// reaches backoff_max, so repeated probe timeouts while the breaker is
  /// already open cannot deepen it unboundedly.
  [[nodiscard]] int backoff_stage() const { return backoff_stage_; }

 private:
  void send_probe();
  void on_probe_timeout();
  void on_failure();
  void on_success();
  void transition(State next);
  /// (Re)arm the next probe after `delay`, replacing any pending one.
  void arm_next(sim::Time delay);
  [[nodiscard]] sim::Time reprobe_backoff();
  /// Deepen the reprobe backoff one stage, saturating at max_backoff_stage_.
  void deepen_backoff();

  sim::Simulator& sim_;
  mutable sim::Rng rng_;
  Config cfg_;
  ProbeFn probe_;
  StateListener listener_;

  State state_ = State::kClosed;
  bool running_ = false;
  bool outstanding_ = false;   ///< a probe is in flight
  std::uint64_t nonce_ = 0;    ///< nonce of the in-flight probe
  int consecutive_failures_ = 0;
  int recovery_streak_ = 0;
  int backoff_stage_ = 0;
  int max_backoff_stage_ = 0;  ///< first stage whose delay hits backoff_max

  sim::EventHandle next_;      ///< next scheduled probe
  sim::EventHandle timeout_;   ///< in-flight probe's deadline

  std::uint64_t probes_sent_ = 0;
  std::uint64_t probes_failed_ = 0;
  std::uint64_t stale_results_ = 0;
  std::uint64_t trips_ = 0;
  std::uint64_t recoveries_ = 0;
};

[[nodiscard]] const char* to_string(HealthMonitor::State state);

}  // namespace efd::fault
