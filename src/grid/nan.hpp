#pragma once

// Neighborhood-area-network (NAN) topology for the sharded engine: a
// smart-grid distribution feeder instead of an office floor. Each MV/LV
// transformer serves a cluster of household meters over long LV drop
// lines; transformers along one feeder are chained by the MV feeder run
// (PLC backbone over hundreds of meters), and adjacent feeders are stitched
// by point-to-point WiFi at their head ends. This is the deployment shape
// of the smart-grid diversity literature (Sung & Evans' PLC+wireless
// testbed; ABB's multi-interface NAN simulation): links are long, lossy and
// tree-shaped, which is what makes per-packet duplication and multi-hop
// PLC relaying worth their overhead.

#include <cstdint>
#include <vector>

#include "src/grid/campus.hpp"
#include "src/grid/power_grid.hpp"
#include "src/sim/time.hpp"

namespace efd::grid {

struct NanConfig {
  int n_meters = 120;
  int meters_per_transformer = 12;
  int transformers_per_feeder = 4;
  /// Communicating stations per transformer cell (concentrator + the
  /// metered endpoints that actually report); capped by the meter count.
  int stations_per_transformer = 6;
  std::uint64_t seed = 1;
};

/// Deterministic NAN generator, the feeder-shaped sibling of
/// `CampusTopology`: a NAN drops into `ShardedSimulator` exactly like a
/// campus — one cell per transformer, boundary crossings with
/// physics-derived lookahead. Transformer-local structure comes from a per-transformer
/// forked Rng stream, so it never depends on shard count or threads.
class NanTopology {
 public:
  [[nodiscard]] static NanTopology generate(const NanConfig& cfg);

  [[nodiscard]] int n_transformers() const { return n_transformers_; }
  /// Crossings reuse the campus BoundaryLink: board_a/board_b are
  /// transformer indices here.
  [[nodiscard]] const std::vector<BoundaryLink>& links() const { return links_; }

  /// Meters hanging off this transformer's LV side (the last transformer
  /// takes the remainder of cfg.n_meters).
  [[nodiscard]] int meters_on_transformer(int transformer) const;

  /// Communicating stations in this transformer cell (concentrator
  /// included), capped by the meter count.
  [[nodiscard]] int stations_on_transformer(int transformer) const;

  /// Outlet index (within the transformer cell) where station `k` plugs in;
  /// station 0 sits at outlet 0, the transformer's data concentrator — it
  /// is the cell's boundary gateway.
  [[nodiscard]] int station_outlet(int transformer, int k) const;

  /// Populate `grid` with this transformer's LV side: meter outlets along
  /// long daisy-chained drop lines, and a household appliance population.
  void build_transformer_grid(int transformer, PowerGrid& grid) const;

  /// Conservative delivery-time bound for one crossing, the NAN analogue
  /// of CampusTopology::derive_lookahead: concentrators are slower
  /// store-and-forward hops than office gateways, and feeder-run rates sag
  /// faster with attenuation. Strictly positive by construction.
  [[nodiscard]] static sim::Time derive_lookahead(BoundaryKind kind, double length_m,
                                                  double budget_db);

 private:
  NanConfig cfg_;
  int n_transformers_ = 0;
  std::vector<BoundaryLink> links_;
};

}  // namespace efd::grid
