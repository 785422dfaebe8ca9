#pragma once

// CellWorld — the scaffold under the campus (campus.hpp) and the NAN
// (nan.hpp), DESIGN.md §14.5. One topology cell (a distribution board, a
// transformer) is one engine cell; cells meet only through BoundaryEvents
// over the topology links. The scaffold owns the engine, each cell's
// crossings and boundary-arrival handler, egress and the boundary post,
// fault wiring, the tick chain, run and the result tail. A world is built
// once, run and read; to replay a run, build a new world from the same
// config. A world derives its cell type from Cell and keeps its traffic and
// transport: media and rx handlers (lambdas over the concrete cell), the
// tick, landing decoded arrivals, and folding its own counters into the
// world digest. Every digest's fold order is part of the contract.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/fault/fault.hpp"
#include "src/fault/injector.hpp"
#include "src/grid/campus.hpp"
#include "src/hybrid/gateway.hpp"
#include "src/net/packet.hpp"
#include "src/plc/channel.hpp"
#include "src/plc/network.hpp"
#include "src/sim/fnv1a.hpp"
#include "src/sim/rng.hpp"
#include "src/sim/sharded.hpp"
#include "src/sim/time.hpp"
#include "src/wifi/network.hpp"

namespace efd::testbed {

/// Run-config fields every cell world shares.
struct CellRunConfig {
  int n_shards = 1;
  sim::Time duration = sim::milliseconds(200);
  /// Fault plan over the cell kinds (kPlcBlackout, kWifiJam, kBoardBlackout,
  /// kBoardBrownout target a cell index; kLinkPartition a topology link
  /// index). Empty = fault-free; the fault-free digest ignores fault wiring.
  fault::FaultPlan faults;
};

/// Result fields every cell world reports the same way.
struct CellResult {
  /// Order-exact fold of every cell's digest stream and counters, combined
  /// in cell order. Invariant across shard counts, EFD_SIMD legs and
  /// split run_until calls.
  std::uint64_t digest = 0;
  std::uint64_t events = 0;            ///< engine events across all shards
  std::uint64_t boundary_posted = 0;
  std::uint64_t boundary_delivered = 0;
  int n_shards = 0;
  std::vector<sim::ShardedSimulator::ShardStats> shards;
  /// max/mean of per-shard busy wall time; 1.0 = perfectly balanced.
  double load_balance = 1.0;

  /// Concatenated per-cell fault/recovery traces in cell order; empty on
  /// fault-free runs. Byte-identical across shard counts.
  std::string fault_trace;
  std::uint64_t fault_events = 0;      ///< trace records across all cells
  std::uint64_t dead_drops = 0;        ///< ingress dropped at dead cells
  std::uint64_t partition_drops = 0;   ///< egress dropped at kDown crossings
  std::uint64_t failovers = 0;         ///< bridge -> backbone reroutes
  std::uint64_t failbacks = 0;         ///< primary-path restorations
  std::uint64_t mailbox_peak = 0;      ///< high-water boundary-mailbox depth
};

class CellWorld {
 public:
  virtual ~CellWorld() = default;
  // Cell callbacks hold the world's address.
  CellWorld(const CellWorld&) = delete;
  CellWorld& operator=(const CellWorld&) = delete;

  /// Advance every cell through the configured duration.
  void run();
  /// Advance through `end` (inclusive); callable repeatedly with
  /// increasing horizons — run() is run_until(duration).
  void run_until(sim::Time end);

  [[nodiscard]] sim::ShardedSimulator& engine() { return *engine_; }

 protected:
  /// What the scaffold takes from a world's topology and traffic.
  struct Setup {
    int n_cells = 1;
    std::vector<grid::BoundaryLink> links;  ///< board_a/board_b are cells
    sim::Time tick_interval{};  ///< mean spacing of a cell's ticks
    const char* build_scope = "";  ///< profile scope names
    const char* run_scope = "";
  };

  /// One end of a boundary link, seen from the cell that owns it.
  struct Crossing {
    int neighbor = 0;
    grid::BoundaryKind kind = grid::BoundaryKind::kPlcBackbone;
    std::int64_t lookahead_ns = 0;
    int link = -1;  ///< index into the links; kLinkPartition targets it
  };

  /// What the scaffold touches in one cell. After build() only the shard
  /// thread executing the cell touches any of it.
  struct Cell {
    virtual ~Cell() = default;

    int index = 0;
    grid::PowerGrid grid;
    std::unique_ptr<plc::PlcChannel> channel;
    std::unique_ptr<plc::PlcNetwork> plc;
    std::unique_ptr<wifi::WifiNetwork> wifi;  ///< null where a cell has none
    sim::Rng rng{0};  ///< tick jitter and traffic draws

    /// Fault-domain state (null on fault-free runs).
    std::unique_ptr<fault::FaultInjector> injector;
    std::unique_ptr<hybrid::GatewayFailover> failover;
    bool dead = false;             ///< blacked out right now
    std::uint64_t dead_drops = 0;  ///< boundary ingress dropped while dead
    std::uint64_t queue_drops = 0; ///< packets a full queue refused

    /// Order-exact fold of deliveries, egress posts and boundary arrivals,
    /// mixed the instant they happen (the steady state stays
    /// allocation-free).
    sim::Fnv1a64 digest;

    /// Fold the delivery of `p` to station `at` into the digest stream.
    void fold_delivery(int at, const net::Packet& p, sim::Time when) {
      digest.mix(at);
      digest.mix(p.flow_id);
      digest.mix(static_cast<std::uint64_t>(p.seq));
      digest.mix(when.ns());
    }
  };

  /// Boundary event kinds: which medium carried the crossing.
  static constexpr std::uint32_t kKindBackbone = 0;
  static constexpr std::uint32_t kKindBridge = 1;

  /// `bridge_fallback` is the world's policy for a partitioned WiFi-bridge
  /// crossing: reroute it over the backbone (true) or drop (false).
  CellWorld(const CellRunConfig& run, Setup setup, bool bridge_fallback);

  /// Build every cell: make_cell, then the arrival handler, the fault
  /// wiring and the first tick. The world's constructor calls it, once.
  void build();

  /// Egress half of a crossing to `dst_cell`: a partitioned crossing with
  /// no fallback drops `p`; otherwise the PLC egress is counted and the
  /// boundary event posted. With `bridge_hop`, an un-rerouted WiFi-bridge
  /// crossing posts nothing and returns true: the caller carries `p` over
  /// its local WiFi hop and calls post_crossing when the frame clears.
  bool egress(Cell& c, const net::Packet& p, int dst_cell, bool bridge_hop = false);
  /// Post `p` over the crossing to `dst_cell`; the post joins c's digest.
  void post_crossing(Cell& c, const net::Packet& p, int dst_cell);

  /// Fill the shared result fields; `cell_digests` receives the per-cell
  /// digest streams in cell order.
  void fill_result(CellResult& r, std::vector<std::uint64_t>& cell_digests) const;

  [[nodiscard]] const std::vector<Crossing>& crossings(int cell) const {
    return crossings_[static_cast<std::size_t>(cell)];
  }
  [[nodiscard]] const std::vector<std::unique_ptr<Cell>>& cells() const {
    return cells_;
  }

  /// Construct cell `c` with its grid, media, stations and rx handlers.
  virtual std::unique_ptr<Cell> make_cell(int c) = 0;
  /// One traffic tick of `c` (the next tick is already scheduled).
  virtual void tick(Cell& c) = 0;
  /// Land a decoded boundary arrival of event kind `kind` in live cell `c`.
  virtual void arrive(Cell& c, net::Packet& p, std::uint32_t kind) = 0;
  /// Fold the world's own counters of `c` into the world digest, after the
  /// cell index and digest stream.
  virtual void fold_counters(const Cell& c, sim::Fnv1a64& f) const = 0;

 private:
  void wire_faults(Cell& c);
  void schedule_tick(Cell& c);
  [[nodiscard]] int crossing_to(const Cell& c, int dst_cell) const;
  /// True when crossing `ci` of `c` is a WiFi bridge carrying its own
  /// traffic (not rerouted over the backbone by a partition).
  [[nodiscard]] bool bridged(const Cell& c, int ci) const;
  [[nodiscard]] std::uint64_t world_digest() const;

  CellRunConfig run_;
  Setup setup_;
  bool bridge_fallback_ = false;
  std::vector<std::vector<Crossing>> crossings_;  ///< per cell
  std::unique_ptr<sim::ShardedSimulator> engine_;
  std::vector<std::unique_ptr<Cell>> cells_;
};

}  // namespace efd::testbed
