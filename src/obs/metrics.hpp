#pragma once

// efd::obs — low-overhead process-wide metrics (DESIGN.md §8).
//
// A MetricsRegistry of named counters and fixed-bucket histograms. Both
// kinds merge by addition, so a snapshot is the same whatever the thread
// count or the order the threads wrote in. Writes go to lock-free
// thread-local shards (relaxed atomics on thread-private cache lines), so
// ParallelRunner workers never contend; snapshot() merges all shards ever
// created. Call sites resolve a name to a
// stable id once (function-local static) and then pay one enabled-flag load
// plus one relaxed fetch_add per update.
//
// Three cost tiers:
//  - EFD_OBS_ENABLED=0 at compile time: the EFD_* macros (obs.hpp) expand to
//    nothing — zero instructions, zero allocations.
//  - compiled in, runtime-disabled (set_enabled(false) or EFD_OBS=0 in the
//    environment): one relaxed atomic bool load + branch per call site.
//  - enabled: + one relaxed RMW on a thread-local shard.

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#ifndef EFD_OBS_ENABLED
#define EFD_OBS_ENABLED 1
#endif

namespace efd::obs {

/// Fixed shard geometry: ids are slots in per-thread arrays, so registration
/// beyond the capacity is dropped (id -1, updates become no-ops) rather than
/// reallocating shards under concurrent writers.
inline constexpr int kMaxCounters = 192;
inline constexpr int kMaxHistograms = 64;
/// Power-of-two buckets: bucket 0 holds v < 1, bucket i >= 1 holds
/// [2^(i-1), 2^i). Cheap to compute (bit_width, no libm) and wide enough for
/// the occupancy/size/index distributions the simulator records.
inline constexpr int kHistogramBuckets = 32;

struct CounterId { int index = -1; };
struct HistogramId { int index = -1; };

/// One thread's private slice of every metric. Heap-allocated on first use
/// per thread, owned (and retained after thread exit) by the registry so
/// completed workers' counts survive into the merge.
struct Shard {
  std::array<std::atomic<std::uint64_t>, kMaxCounters> counters{};
  std::array<std::atomic<std::uint64_t>, kMaxHistograms> histo_count{};
  std::array<std::atomic<double>, kMaxHistograms> histo_sum{};
  std::array<std::array<std::atomic<std::uint64_t>, kHistogramBuckets>,
             kMaxHistograms>
      histo_buckets{};
};

struct HistogramData {
  std::uint64_t count = 0;
  double sum = 0.0;
  std::array<std::uint64_t, kHistogramBuckets> buckets{};

  [[nodiscard]] double mean() const {
    return count == 0 ? 0.0 : sum / static_cast<double>(count);
  }
};

/// Point-in-time merge of all shards, sorted by name (deterministic for a
/// deterministic workload — the tests diff two runs' snapshots).
struct MetricsSnapshot {
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, HistogramData>> histograms;

  [[nodiscard]] std::uint64_t counter(std::string_view name) const;
  [[nodiscard]] const HistogramData* histogram(std::string_view name) const;

  /// Render as a JSON object: {"counters": {...},
  /// "histograms": {name: {count, sum, buckets}}}. `indent` spaces prefix
  /// every line after the first, so the block nests inside another document
  /// (the bench JSON embeds it this way). A non-empty `profile_json` (an
  /// already-rendered JSON object, see ProfileSnapshot::to_json) is embedded
  /// verbatim as a trailing "profile" key — snapshot_json() passes the
  /// profiler's fold so every exported snapshot carries the flamegraph.
  [[nodiscard]] std::string to_json(int indent = 0,
                                    std::string_view profile_json = {}) const;
};

class MetricsRegistry {
 public:
  static MetricsRegistry& instance();

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Resolve (registering on first use) a metric name. Cold path — call
  /// sites cache the result in a function-local static. Returns index -1
  /// when the shard capacity for the kind is exhausted; updates through a
  /// -1 id are silently dropped.
  CounterId counter_id(std::string_view name);
  HistogramId histogram_id(std::string_view name);

  /// Merge every shard into one snapshot: counter and histogram cells sum.
  [[nodiscard]] MetricsSnapshot snapshot() const;

  /// Zero every cell of every shard (registered names are kept, ids remain
  /// valid). Tests use this to isolate workloads inside one process.
  void reset();

  /// The calling thread's shard, created and registered on first use.
  Shard& shard();

 private:
  MetricsRegistry() = default;

  /// Registered name -> shard slot, per kind. Transparent, so looking up
  /// an already registered name allocates nothing.
  struct NameHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };
  using NameIndex = std::unordered_map<std::string, int, NameHash, std::equal_to<>>;

  mutable std::mutex mutex_;
  NameIndex counter_index_;
  NameIndex histogram_index_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

namespace detail {
extern std::atomic<bool> g_enabled;
/// Append `s` to a JSON string body, escaping quotes and backslashes (metric
/// and profile scope names are the only strings either exporter writes).
void append_escaped(std::string& out, std::string_view s);
Shard& make_shard();
extern thread_local Shard* t_shard;
}  // namespace detail

/// Runtime master switch. Initialized from the EFD_OBS environment variable
/// (anything but "0" enables); flippable at runtime for A/B overhead runs.
[[nodiscard]] inline bool enabled() {
  return detail::g_enabled.load(std::memory_order_relaxed);
}
void set_enabled(bool on);

[[nodiscard]] inline Shard& this_thread_shard() {
  Shard* s = detail::t_shard;
  return s != nullptr ? *s : detail::make_shard();
}

// --- Hot-path update primitives (the EFD_* macros land here) --------------

inline void counter_add(CounterId id, std::uint64_t v = 1) {
  if (!enabled() || id.index < 0) return;
  this_thread_shard()
      .counters[static_cast<std::size_t>(id.index)]
      .fetch_add(v, std::memory_order_relaxed);
}

/// Bucket index for a histogram observation (see kHistogramBuckets).
[[nodiscard]] inline int histogram_bucket(double v) {
  if (!(v >= 1.0)) return 0;  // also catches NaN
  constexpr double kMaxExact = 9.0e18;  // below 2^63; larger -> top bucket
  if (v >= kMaxExact) return kHistogramBuckets - 1;
  const int w = std::bit_width(static_cast<std::uint64_t>(v));
  return w < kHistogramBuckets ? w : kHistogramBuckets - 1;
}

inline void histogram_observe(HistogramId id, double v) {
  if (!enabled() || id.index < 0) return;
  Shard& s = this_thread_shard();
  const auto i = static_cast<std::size_t>(id.index);
  s.histo_count[i].fetch_add(1, std::memory_order_relaxed);
  s.histo_sum[i].fetch_add(v, std::memory_order_relaxed);
  s.histo_buckets[i][static_cast<std::size_t>(histogram_bucket(v))].fetch_add(
      1, std::memory_order_relaxed);
}

/// Convenience: full-registry snapshot rendered as JSON (the exporter the
/// bench JsonReporter and efd_cli consume).
[[nodiscard]] std::string snapshot_json(int indent = 0);

}  // namespace efd::obs
