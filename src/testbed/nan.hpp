#pragma once

// NanWorld — a neighborhood-area network built onto the sharded event
// engine: one transformer cell = one engine cell, holding the LV drop-line
// PowerGrid, a PlcChannel/PlcNetwork for the meters, and a parallel
// WifiNetwork mirroring the same stations (the diversity partner). Meters
// report to their transformer's data concentrator; a run-wide DiversityMode
// selects how each report travels:
//
//   kPlcOnly / kWifiOnly — single-medium baselines;
//   kLoadBalance         — the paper's §7.4 capacity-proportional split;
//   kDiversity           — per-packet duplication on BOTH media with
//                          first-wins dedup at the concentrator (per-meter
//                          sequence-keyed ReorderBuffer; the losing copy is
//                          suppressed and accounted, Sung & Evans style).
//
// Meters whose direct PLC link to the concentrator is below the
// connectivity threshold get a multi-hop relay path over intermediate
// meters (hybrid::RelayPlanner fed with core::predicted_u_etx costs from
// the channel's own SNR physics — ABB's multi-interface NAN routing).
// Cross-transformer reports ride the MV feeder runs / feeder-head WiFi
// crossings as BoundaryEvents, so every digest is byte-identical across
// EFD_SHARDS, faults included. The engine wiring, boundary handling, fault
// wiring, checkpoint/restore and result tail are the shared CellWorld
// scaffold (cell_world.hpp).

#include <cstdint>
#include <memory>
#include <vector>

#include "src/fault/fault.hpp"
#include "src/grid/nan.hpp"
#include "src/hybrid/routing.hpp"
#include "src/net/packet.hpp"
#include "src/sim/time.hpp"
#include "src/testbed/cell_world.hpp"

namespace efd::testbed {

/// Run-wide transport mode for meter reports.
enum class DiversityMode : std::uint8_t {
  kPlcOnly,
  kWifiOnly,
  kLoadBalance,
  kDiversity,
};

[[nodiscard]] const char* to_string(DiversityMode mode);

/// The shared engine and fault fields come from CellRunConfig; fault
/// plans target a transformer index, or a topology link for kLinkPartition.
struct NanRunConfig : CellRunConfig {
  grid::NanConfig nan;
  DiversityMode mode = DiversityMode::kDiversity;
  /// Mean spacing of per-transformer report ticks (each offers one report).
  sim::Time report_interval = sim::milliseconds(4);
  /// Probability a report targets a meter behind a neighboring transformer
  /// (one boundary crossing; the NAN does not route multi-cell).
  double p_remote = 0.2;
  /// First-wins dedup / resequencing gap timeout at the concentrator.
  sim::Time gap_timeout = sim::milliseconds(30);
  /// Multi-hop PLC relaying for below-threshold meters. max_hops=1 turns
  /// relaying off (only the direct link is a 1-hop path).
  bool relay_enabled = true;
  hybrid::RelayPlanner::Config relay;
};

struct NanResult : CellResult {
  std::uint64_t offered = 0;           ///< reports generated at meters
  std::uint64_t offered_remote = 0;    ///< subset bound for another cell
  std::uint64_t delivered = 0;         ///< reports landed at own concentrator
  std::uint64_t delivered_remote = 0;  ///< reports landed across a crossing
  std::uint64_t queue_drops = 0;

  // Redundancy-vs-throughput accounting (diversity mode).
  std::uint64_t dup_copies = 0;     ///< redundant copies actually enqueued
  std::uint64_t dup_bytes = 0;      ///< bytes those copies cost
  std::uint64_t wins_plc = 0;       ///< reports whose PLC copy arrived first
  std::uint64_t wins_wifi = 0;
  std::uint64_t suppressed = 0;     ///< losing copies dropped by the dedup
  std::uint64_t stragglers = 0;     ///< late copies of abandoned gaps

  // Relay accounting.
  std::uint64_t relay_meters = 0;   ///< meters planned onto a relay path
  std::uint64_t relay_forwards = 0; ///< store-and-forward hops executed
  int relay_hops_max = 0;           ///< longest planned path (links)

  int n_transformers = 0;
  /// Per-transformer digest stream values, in transformer order.
  std::vector<std::uint64_t> transformer_digests;
};

/// The NAN on the CellWorld scaffold: one transformer per cell. It keeps
/// the report tick, the PLC/WiFi transports, dedup, relay planning and the
/// load-balance scheduler; a partitioned crossing always drops (a feeder
/// run has no second medium).
class NanWorld : public CellWorld {
 public:
  explicit NanWorld(const NanRunConfig& cfg);

  [[nodiscard]] NanResult result() const;

 private:
  struct TransformerWorld;

  NanWorld(const NanRunConfig& cfg, grid::NanTopology topo);

  std::unique_ptr<Cell> make_cell(int t) override;
  void tick(Cell& c) override;
  void arrive(Cell& c, net::Packet& p, std::uint32_t kind) override;
  void fold_counters(const Cell& c, sim::Fnv1a64& f) const override;
  void plan_relays(TransformerWorld& tw);
  bool send_plc(TransformerWorld& tw, int meter_k, const net::Packet& p);
  bool send_wifi(TransformerWorld& tw, int meter_k, const net::Packet& p);

  NanRunConfig cfg_;
  grid::NanTopology topo_;
};

/// Build, run and summarize one NAN in a single call.
[[nodiscard]] NanResult run_nan(const NanRunConfig& cfg);

}  // namespace efd::testbed
