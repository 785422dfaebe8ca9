#pragma once

// CampusWorld — a multi-board campus built onto the sharded event engine
// (DESIGN.md §14, §15). One distribution board = one engine cell: the
// board's PowerGrid, PlcChannel and PlcNetwork (plus, at WiFi-bridge
// endpoints, a small WifiNetwork) live entirely inside the cell, touched
// only by the shard thread that owns it. The ONLY cross-board interaction
// is a BoundaryEvent through a gateway station, so the campus digest is
// byte-identical for every EFD_SHARDS value — the property the scale bench
// and the sharded tier-1 tests pin. The engine wiring, boundary handling,
// fault wiring and result tail are the shared CellWorld scaffold
// (cell_world.hpp); this file adds the campus traffic and transport.
//
// Fault domains (DESIGN.md §15): a CampusRunConfig may carry a FaultPlan
// over the board-level kinds (kBoardBlackout / kBoardBrownout /
// kLinkPartition). Each board gets its own FaultInjector scheduled on the
// board's cell clock at absolute plan times, so the per-board fault traces
// and digests stay byte-identical across any shard count. Partitioned WiFi
// bridges fail over to the powerline backbone through a per-board
// hybrid::GatewayFailover; partitioned backbone crossings drop traffic
// deterministically.

#include <cstdint>
#include <memory>
#include <vector>

#include "src/fault/fault.hpp"
#include "src/grid/campus.hpp"
#include "src/net/packet.hpp"
#include "src/sim/time.hpp"
#include "src/testbed/cell_world.hpp"

namespace efd::testbed {

/// The shared engine and fault fields (n_shards, duration, faults,
/// mailbox_capacity, watchdog_budget_ns) come from CellRunConfig; fault
/// plans target a board index, or a topology link for kLinkPartition.
struct CampusRunConfig : CellRunConfig {
  grid::CampusConfig campus;
  /// Mean spacing of per-board traffic ticks (each offers one packet).
  sim::Time traffic_interval = sim::milliseconds(4);
  /// Probability a generated packet targets a neighboring board (one
  /// boundary crossing; the campus does not route multi-hop).
  double p_remote = 0.3;
  /// Model WiFi-bridge crossings as a real local WiFi hop (AP -> roof
  /// radio) before the boundary event; false posts straight from the PLC
  /// gateway.
  bool with_wifi = true;
};

struct CampusResult : CellResult {
  std::uint64_t packets_local = 0;     ///< offered, intra-board
  std::uint64_t packets_remote = 0;    ///< offered, cross-board
  std::uint64_t delivered = 0;         ///< handed to a destination station
  int n_boards = 0;
  /// Per-board digest stream values, in board order — the fault-domain
  /// determinism artifact (byte-identical across shard counts).
  std::vector<std::uint64_t> board_digests;
};

/// The campus on the CellWorld scaffold: one board per cell. It keeps the
/// traffic tick and the WiFi bridge hop (building AP -> roof radio); a
/// partitioned bridge falls back to the powerline backbone.
class CampusWorld : public CellWorld {
 public:
  explicit CampusWorld(const CampusRunConfig& cfg);

  [[nodiscard]] CampusResult result() const;

 private:
  struct BoardWorld;

  CampusWorld(const CampusRunConfig& cfg, grid::CampusTopology topo);

  std::unique_ptr<Cell> make_cell(int b) override;
  void tick(Cell& c) override;
  void arrive(Cell& c, net::Packet& p, std::uint32_t kind) override;
  void fold_counters(const Cell& c, sim::Fnv1a64& f) const override;
  /// Egress half of a crossing: forward `p` (flow marks the final station)
  /// out of `bw`, over the WiFi hop when the crossing is a bridge.
  void egress(BoardWorld& bw, const net::Packet& p);

  CampusRunConfig cfg_;
  grid::CampusTopology topo_;
};

/// Build, run and summarize one campus in a single call.
[[nodiscard]] CampusResult run_campus(const CampusRunConfig& cfg);

}  // namespace efd::testbed
