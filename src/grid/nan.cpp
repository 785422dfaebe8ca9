#include "src/grid/nan.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <string>

#include "src/sim/rng.hpp"

namespace efd::grid {

namespace {

constexpr double kPlcNsPerMeter = 5.6;
constexpr double kWifiNsPerMeter = 3.34;

/// Minimum frame a concentrator must fully receive before forwarding.
constexpr double kMinFrameBits = 64.0 * 8.0;

/// Concentrator processing floors: a NAN data concentrator batches,
/// decodes and re-frames — slower than an office gateway, which buys the
/// conservative protocol even more lookahead per crossing.
constexpr std::int64_t kPlcConcentratorFloorNs = 900'000;
constexpr std::int64_t kWifiConcentratorFloorNs = 500'000;

}  // namespace

sim::Time NanTopology::derive_lookahead(BoundaryKind kind, double length_m,
                                        double budget_db) {
  const bool plc = kind == BoundaryKind::kPlcBackbone;
  const double prop_ns = (plc ? kPlcNsPerMeter : kWifiNsPerMeter) * length_m;
  // Feeder runs are long and noisy: the usable forwarding rate sags faster
  // with attenuation than a campus riser, and bottoms out lower.
  const double rate_mbps =
      std::clamp((plc ? 120.0 : 100.0) - 1.5 * budget_db, 2.0, 120.0);
  const double ser_ns = kMinFrameBits / rate_mbps * 1e3;
  const std::int64_t floor_ns =
      plc ? kPlcConcentratorFloorNs : kWifiConcentratorFloorNs;
  return sim::Time{floor_ns + static_cast<std::int64_t>(prop_ns + ser_ns)};
}

NanTopology NanTopology::generate(const NanConfig& cfg) {
  assert(cfg.n_meters >= 1);
  assert(cfg.meters_per_transformer >= 1);
  assert(cfg.transformers_per_feeder >= 1);

  NanTopology t;
  t.cfg_ = cfg;
  t.n_transformers_ =
      (cfg.n_meters + cfg.meters_per_transformer - 1) / cfg.meters_per_transformer;

  // MV feeder runs: consecutive transformers of one feeder share the
  // medium-voltage cable — hundreds of meters of it, with the budgets that
  // make the far meters' direct links marginal (the relay workload).
  // Feeder-head WiFi: adjacent feeders' head-end transformers carry a
  // point-to-point radio — the diversity partner where one medium alone is
  // not dependable enough for meter data.
  t.links_ = chain_crossings(t.n_transformers_, cfg.transformers_per_feeder,
                             sim::Rng{cfg.seed}.fork(0x4A6E17),
                             {80.0, 300.0, 55.0, 75.0}, {100.0, 400.0, 65.0, 80.0},
                             derive_lookahead);
  return t;
}

int NanTopology::meters_on_transformer(int transformer) const {
  const int first = transformer * cfg_.meters_per_transformer;
  return std::min(cfg_.meters_per_transformer, cfg_.n_meters - first);
}

int NanTopology::stations_on_transformer(int transformer) const {
  return std::min(cfg_.stations_per_transformer,
                  meters_on_transformer(transformer));
}

int NanTopology::station_outlet(int transformer, int k) const {
  const int meters = meters_on_transformer(transformer);
  const int stations = stations_on_transformer(transformer);
  assert(k >= 0 && k < stations);
  return k * meters / stations;
}

void NanTopology::build_transformer_grid(int transformer, PowerGrid& grid) const {
  // Transformer-local structure comes from a per-transformer fork, so the
  // grid a cell gets never depends on which shard (or thread) builds it.
  sim::Rng rng =
      sim::Rng{cfg_.seed}.fork(0x4EED00 + static_cast<std::uint64_t>(transformer));
  const int meters = meters_on_transformer(transformer);

  for (int i = 0; i < meters; ++i) {
    grid.add_node("t" + std::to_string(transformer) + "m" + std::to_string(i));
  }

  // Outlet 0 is the concentrator at the transformer. Drop lines mostly
  // daisy-chain meter to meter along the lateral — long LV spans, far
  // longer than office room-to-room runs — with the occasional direct tap
  // back at the transformer and lumped joint losses at splice boxes.
  for (int i = 1; i < meters; ++i) {
    const int parent = rng.bernoulli(0.15) ? 0 : i - 1;
    const double length = rng.uniform(35.0, 110.0);
    const double extra = rng.bernoulli(0.2) ? rng.uniform(2.0, 6.0) : 0.0;
    grid.add_cable(parent, i, length, extra);
  }

  // Household appliance population behind the meters: duty-cycled
  // compressors, impulsive kitchen loads and plenty of unterminated stubs.
  static constexpr ApplianceType kPalette[] = {
      ApplianceType::kFridge,       ApplianceType::kFridge,
      ApplianceType::kMicrowave,    ApplianceType::kCoffeeMachine,
      ApplianceType::kLightBank,    ApplianceType::kPhoneCharger,
      ApplianceType::kHvac,         ApplianceType::kMonitor,
      ApplianceType::kPassiveStub,  ApplianceType::kPassiveStub,
  };
  constexpr int kPaletteSize = static_cast<int>(std::size(kPalette));
  for (int i = 0; i < meters; ++i) {
    if (rng.bernoulli(0.25)) continue;  // vacant / de-energized drop
    const auto pick = static_cast<std::size_t>(
        rng.uniform_int(0, kPaletteSize - 1));
    const std::uint64_t seed =
        cfg_.seed ^ (static_cast<std::uint64_t>(transformer) << 22) ^
        static_cast<std::uint64_t>(i);
    grid.add_appliance(make_appliance(kPalette[pick], i, seed));
  }
}

}  // namespace efd::grid
