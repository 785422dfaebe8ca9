#pragma once

// GatewayFailover — deterministic per-crossing failover state for a campus
// gateway (DESIGN.md §15). A distribution board reaches each neighbor over
// one boundary crossing whose primary path is either the powerline backbone
// or a WiFi roof bridge. When a fault partitions the crossing, traffic
// fails over to the fallback path if the crossing has one (a severed WiFi
// bridge falls back to the shared powerline backbone — the paper's
// media-diversity argument at building scale); a crossing with no fallback
// goes down and its traffic is dropped deterministically. Restoration fails
// traffic back to the primary.
//
// The machine is driven exclusively by fault-injector hooks on the board's
// own simulator clock, so its transition sequence — and every counter — is
// a pure function of the fault plan, independent of shard count.

#include <cstdint>
#include <functional>
#include <vector>

#include "src/sim/time.hpp"

namespace efd::hybrid {

class GatewayFailover {
 public:
  enum class Path : std::uint8_t {
    kPrimary,   ///< crossing healthy, primary medium carries traffic
    kFallback,  ///< partitioned, but rerouted over the fallback medium
    kDown,      ///< partitioned with no fallback: traffic is dropped
  };

  /// Invoked after every path change with (crossing index, new path, when).
  using Listener = std::function<void(int crossing, Path path, sim::Time t)>;

  /// `has_fallback[i]` declares whether crossing i can reroute when
  /// partitioned (true for WiFi bridges backed by the powerline backbone).
  explicit GatewayFailover(std::vector<bool> has_fallback)
      : has_fallback_(std::move(has_fallback)),
        path_(has_fallback_.size(), Path::kPrimary) {}

  void set_listener(Listener listener) { listener_ = std::move(listener); }

  [[nodiscard]] Path path(int crossing) const {
    return path_[static_cast<std::size_t>(crossing)];
  }
  /// True when the crossing can carry traffic at all (primary or fallback).
  [[nodiscard]] bool usable(int crossing) const {
    return path(crossing) != Path::kDown;
  }
  /// True when the crossing's traffic is rerouted over the fallback.
  [[nodiscard]] bool rerouted(int crossing) const {
    return path(crossing) == Path::kFallback;
  }

  /// Fault onset: the crossing's primary path is severed.
  void on_partition(int crossing, sim::Time t) {
    auto& p = path_[static_cast<std::size_t>(crossing)];
    const Path next = has_fallback_[static_cast<std::size_t>(crossing)]
                          ? Path::kFallback
                          : Path::kDown;
    if (p == next) return;
    p = next;
    if (next == Path::kFallback) ++failovers_;
    if (listener_) listener_(crossing, next, t);
  }

  /// Fault cleared: the primary path carries traffic again.
  void on_restore(int crossing, sim::Time t) {
    auto& p = path_[static_cast<std::size_t>(crossing)];
    if (p == Path::kPrimary) return;
    if (p == Path::kFallback) ++failbacks_;
    p = Path::kPrimary;
    if (listener_) listener_(crossing, Path::kPrimary, t);
  }

  /// Account one packet dropped at a kDown crossing.
  void record_drop() { ++drops_; }

  [[nodiscard]] std::uint64_t failovers() const { return failovers_; }
  [[nodiscard]] std::uint64_t failbacks() const { return failbacks_; }
  [[nodiscard]] std::uint64_t drops() const { return drops_; }

 private:
  std::vector<bool> has_fallback_;
  std::vector<Path> path_;
  Listener listener_;
  std::uint64_t failovers_ = 0;
  std::uint64_t failbacks_ = 0;
  std::uint64_t drops_ = 0;
};

[[nodiscard]] const char* to_string(GatewayFailover::Path path);

}  // namespace efd::hybrid
