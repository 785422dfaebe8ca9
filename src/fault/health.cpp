#include "src/fault/health.hpp"

#include <algorithm>
#include <cmath>

#include "src/obs/obs.hpp"

namespace efd::fault {

const char* to_string(HealthMonitor::State state) {
  switch (state) {
    case HealthMonitor::State::kClosed: return "closed";
    case HealthMonitor::State::kOpen: return "open";
    case HealthMonitor::State::kHalfOpen: return "half_open";
  }
  return "?";
}

HealthMonitor::HealthMonitor(sim::Simulator& simulator, sim::Rng rng, Config config,
                             ProbeFn probe)
    : sim_(simulator), rng_(rng), cfg_(config), probe_(std::move(probe)) {
  // First stage whose delay saturates at backoff_max; deepen_backoff()
  // clamps here so an open breaker's repeated probe timeouts cannot grow
  // the stage (and pow()'s argument) without bound.
  double delay_ns = static_cast<double>(cfg_.backoff_initial.ns());
  const double max_ns = static_cast<double>(cfg_.backoff_max.ns());
  while (delay_ns < max_ns && cfg_.backoff_factor > 1.0 &&
         max_backoff_stage_ < 64) {
    delay_ns *= cfg_.backoff_factor;
    ++max_backoff_stage_;
  }
}

void HealthMonitor::start() {
  if (running_) return;
  running_ = true;
  arm_next(cfg_.probe_interval);
}

void HealthMonitor::stop() {
  running_ = false;
  next_.cancel();
  timeout_.cancel();
  outstanding_ = false;
}

void HealthMonitor::arm_next(sim::Time delay) {
  next_.cancel();
  next_ = sim_.after(delay, [this] { send_probe(); });
}

void HealthMonitor::send_probe() {
  if (!running_) return;
  ++nonce_;
  outstanding_ = true;
  ++probes_sent_;
  EFD_COUNTER_INC("fault.health.probes");
  // Arm the deadline before issuing the probe: a probe that completes
  // synchronously (loopback stubs) must find its timeout to cancel.
  timeout_ = sim_.after(cfg_.probe_timeout, [this] { on_probe_timeout(); });
  probe_(nonce_);
}

void HealthMonitor::on_probe_timeout() {
  if (!outstanding_) return;
  outstanding_ = false;
  EFD_COUNTER_INC("fault.health.probe_timeouts");
  on_failure();
}

void HealthMonitor::on_probe_result(std::uint64_t nonce, bool ok) {
  if (!outstanding_ || nonce != nonce_) {
    // A late echo racing the timeout that already counted it as a failure.
    ++stale_results_;
    EFD_COUNTER_INC("fault.health.stale_results");
    return;
  }
  outstanding_ = false;
  timeout_.cancel();
  if (ok) {
    on_success();
  } else {
    on_failure();
  }
}

void HealthMonitor::deepen_backoff() {
  backoff_stage_ = std::min(backoff_stage_ + 1, max_backoff_stage_);
}

sim::Time HealthMonitor::reprobe_backoff() {
  double base_ns = static_cast<double>(cfg_.backoff_initial.ns()) *
                   std::pow(cfg_.backoff_factor, backoff_stage_);
  base_ns = std::min(base_ns, static_cast<double>(cfg_.backoff_max.ns()));
  const double jitter_ns = base_ns * cfg_.jitter_frac * rng_.uniform();
  return sim::Time{static_cast<std::int64_t>(base_ns + jitter_ns)};
}

void HealthMonitor::transition(State next) {
  state_ = next;
  if (listener_) listener_(next, sim_.now());
}

void HealthMonitor::on_failure() {
  ++consecutive_failures_;
  recovery_streak_ = 0;
  ++probes_failed_;
  EFD_COUNTER_INC("fault.health.failures");
  switch (state_) {
    case State::kClosed:
      if (consecutive_failures_ >= cfg_.trip_threshold) {
        ++trips_;
        backoff_stage_ = 0;
        EFD_COUNTER_INC("fault.health.trips");
        transition(State::kOpen);
        arm_next(reprobe_backoff());
      } else if (running_) {
        arm_next(cfg_.probe_interval);
      }
      break;
    case State::kHalfOpen:
      // A trial failure re-opens the breaker with a deeper backoff.
      deepen_backoff();
      EFD_COUNTER_INC("fault.health.reopen");
      transition(State::kOpen);
      arm_next(reprobe_backoff());
      break;
    case State::kOpen:
      deepen_backoff();
      arm_next(reprobe_backoff());
      break;
  }
}

void HealthMonitor::on_success() {
  consecutive_failures_ = 0;
  const auto close = [this] {
    backoff_stage_ = 0;
    recovery_streak_ = 0;
    ++recoveries_;
    EFD_COUNTER_INC("fault.health.recoveries");
    transition(State::kClosed);
    if (running_) arm_next(cfg_.probe_interval);
  };
  switch (state_) {
    case State::kClosed:
      if (running_) arm_next(cfg_.probe_interval);
      break;
    case State::kOpen:
      recovery_streak_ = 1;
      if (recovery_streak_ >= cfg_.recovery_successes) {
        close();
      } else {
        transition(State::kHalfOpen);
        arm_next(cfg_.probe_interval);
      }
      break;
    case State::kHalfOpen:
      ++recovery_streak_;
      if (recovery_streak_ >= cfg_.recovery_successes) {
        close();
      } else {
        arm_next(cfg_.probe_interval);
      }
      break;
  }
}

}  // namespace efd::fault
