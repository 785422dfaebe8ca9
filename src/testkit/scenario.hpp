#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/grid/appliance.hpp"
#include "src/net/packet.hpp"
#include "src/sim/time.hpp"

namespace efd::testkit {

/// A fully explicit, value-type description of one randomized experiment:
/// everything a simulation world needs, and nothing that cannot be printed,
/// mutated by the shrinker, or rebuilt bit-identically from the struct
/// alone. `ScenarioGen` draws these from a seed; `ScenarioWorld`
/// materializes them; the invariant/diff/determinism layers consume them.
struct Scenario {
  struct Cable {
    int a = 0;
    int b = 0;
    double length_m = 5.0;
    double extra_loss_db = 0.0;
  };

  struct ApplianceSpec {
    grid::ApplianceType type = grid::ApplianceType::kPhoneCharger;
    int outlet = 0;
    std::uint64_t seed = 0;
  };

  struct StationSpec {
    net::StationId id = 0;
    int outlet = 0;
  };

  struct TrafficSpec {
    enum class Kind { kSaturatedUdp, kProbes };
    Kind kind = Kind::kSaturatedUdp;
    int src = 0;  ///< index into `stations`
    int dst = 0;  ///< index into `stations`; -1 = broadcast (probes only)
    double rate_mbps = 100.0;       ///< offered load for kSaturatedUdp
    double probe_interval_ms = 100.0;
    int burst_count = 1;
    int packet_bytes = 1470;
    int priority = 1;               ///< CA0..CA3
  };

  /// Parameters of the randomized hybrid-layer harness (reorder buffer and
  /// capacity scheduler are fuzzed directly; they do not need the PLC
  /// world).
  struct HybridFuzz {
    int n_interfaces = 2;
    std::vector<double> capacities_mbps;  ///< size n_interfaces
    int n_packets = 200;
    double loss_prob = 0.0;
    double dup_prob = 0.0;
    double reorder_jitter_ms = 5.0;  ///< max per-packet delivery jitter
    double gap_timeout_ms = 40.0;
  };

  /// Parameters of the randomized NAN diversity/relay harnesses: the
  /// first-wins dedup session (per-packet duplication across two tagged
  /// interfaces), its redundancy accounting, and the relay planner's
  /// random link graph. Plain values only — drawn AFTER every other field
  /// so adding them left all previous scenario draws byte-identical.
  struct NanFuzz {
    int n_transformers = 3;
    int stations_per_transformer = 4;
    int mode = 3;              ///< DiversityMode index (0..3)
    double p_remote = 0.2;
    double gap_timeout_ms = 30.0;
    int n_reports = 80;        ///< packets through the diversity harness
    double dup_jitter_ms = 4.0;  ///< max skew between the two copies
    double connect_etx = 3.0;
    double max_link_etx = 8.0;
    int max_hops = 3;
    int relay_nodes = 6;       ///< stations in the relay fuzz graph
    double relay_edge_prob = 0.6;
  };

  std::uint64_t gen_seed = 0;  ///< seed of the generator that produced this
  std::uint64_t index = 0;     ///< scenario index within the generator

  // --- Grid -----------------------------------------------------------------
  int n_outlets = 2;
  std::vector<Cable> cables;
  std::vector<ApplianceSpec> appliances;

  // --- PHY / network --------------------------------------------------------
  bool hpav500 = false;
  int tone_map_slots = 6;
  bool beacons = false;
  double fault_pb_error = 0.0;  ///< PlcMedium::set_fault_pb_error level
  std::uint64_t world_seed = 1;

  // --- Stations / traffic ---------------------------------------------------
  std::vector<StationSpec> stations;
  std::vector<TrafficSpec> traffic;
  double start_hours = 12.0;    ///< simulated start, hours since Monday 00:00
  double duration_s = 0.25;     ///< traffic duration

  HybridFuzz hybrid;
  NanFuzz nan;

  [[nodiscard]] sim::Time start_time() const { return sim::hours(start_hours); }
  [[nodiscard]] sim::Time duration() const { return sim::seconds(duration_s); }

  /// One-line-per-field human-readable rendering, stable across runs; this
  /// is what a failing proptest prints so the scenario can be rebuilt from
  /// the log alone.
  [[nodiscard]] std::string describe() const;
};

/// Draws random scenarios from a single seed. `generate(i)` is a pure
/// function of (seed, i): the same pair always yields the same scenario, on
/// any thread, which is what lets the proptest sweep fan out through
/// testbed::ParallelRunner without perturbing results.
class ScenarioGen {
 public:
  explicit ScenarioGen(std::uint64_t seed) : seed_(seed) {}

  [[nodiscard]] std::uint64_t seed() const { return seed_; }
  [[nodiscard]] Scenario generate(std::uint64_t index) const;

 private:
  std::uint64_t seed_;
};

/// One generation of shrink candidates: strictly simpler variants of `s`
/// (fewer appliances, fewer flows, fewer outlets, shorter duration, fewer
/// stations), most aggressive first. Every candidate is structurally valid.
[[nodiscard]] std::vector<Scenario> shrink_candidates(const Scenario& s);

/// Greedy minimisation: repeatedly replace `s` by the first candidate that
/// still fails `fails`, until no candidate fails or `max_steps` shrink
/// steps were taken. `fails` must be deterministic (same scenario -> same
/// verdict); the result is a locally minimal failing scenario.
[[nodiscard]] Scenario shrink(Scenario s,
                              const std::function<bool(const Scenario&)>& fails,
                              int max_steps = 256);

}  // namespace efd::testkit
