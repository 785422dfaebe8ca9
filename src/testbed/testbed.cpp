#include "src/testbed/testbed.hpp"

#include <cassert>
#include <cmath>

namespace efd::testbed {

namespace {

struct Pos { double x, y; };

/// Approximate floor positions from Fig. 2 (70 m x 40 m office floor;
/// board B2 serves the left wing, B1 the right wing).
constexpr Pos kPositions[Testbed::kStations] = {
    /* 0*/ {37, 25}, /* 1*/ {32, 15}, /* 2*/ {44, 25}, /* 3*/ {49, 35},
    /* 4*/ {53, 25}, /* 5*/ {58, 35}, /* 6*/ {53, 5},  /* 7*/ {46, 5},
    /* 8*/ {60, 5},  /* 9*/ {65, 15}, /*10*/ {68, 35}, /*11*/ {69, 25},
    /*12*/ {6, 26},  /*13*/ {10, 32}, /*14*/ {12, 26}, /*15*/ {16, 32},
    /*16*/ {22, 32}, /*17*/ {18, 26}, /*18*/ {26, 28},
};

}  // namespace

std::pair<double, double> station_position(net::StationId id) {
  assert(id >= 0 && id < Testbed::kStations);
  const Pos& p = kPositions[static_cast<std::size_t>(id)];
  return {p.x, p.y};
}

bool on_board_b1(net::StationId id) { return id <= 11; }

Testbed::Testbed(sim::Simulator& simulator, Config config)
    : sim_(simulator), cfg_(config) {
  build_grid();
  hpav_ = build_plc_stack(plc::PhyParams::hpav(), 0x0aULL);
  if (cfg_.with_hpav500) {
    hpav500_ = build_plc_stack(plc::PhyParams::hpav500(), 0x500ULL);
  }

  sim::Rng rng{cfg_.seed};
  wifi_ = std::make_unique<wifi::WifiNetwork>(sim_, rng.fork(0x31f1ULL));
  // The concrete core between the wings: no cross-wing WiFi link survives
  // it, matching the paper's observation that every WiFi-connected pair is
  // also PLC-connected (§4.1).
  wifi_->channel().add_wall(30.0, 28.0);
  for (net::StationId id = 0; id < kStations; ++id) {
    const auto [x, y] = station_position(id);
    wifi_->add_station(id, x, y);
  }
}

void Testbed::build_grid() {
  sim::Rng rng{cfg_.seed ^ 0x9219ULL};
  std::uint64_t seed_counter = cfg_.seed;
  const auto next_seed = [&] { return ++seed_counter * 0x9e3779b97f4a7c15ULL; };

  // --- Nodes: boards, corridor junctions, station outlets ----------------
  const int b1 = grid_.add_node("board-B1");
  const int b2 = grid_.add_node("board-B2");
  const int basement = grid_.add_node("basement");

  // Right wing (B1): a long corridor trunk with four junction boxes.
  const int j1 = grid_.add_node("B1-J1");
  const int j2 = grid_.add_node("B1-J2");
  const int j3 = grid_.add_node("B1-J3");
  const int j4 = grid_.add_node("B1-J4");
  grid_.add_cable(b1, j1, 20.0);
  grid_.add_cable(j1, j2, 18.0);
  grid_.add_cable(j2, j3, 16.0);
  // J4 hangs off a sub-panel: lumped insertion loss makes the far cluster
  // reachable but poor (the "30-100 m can be good or bad" regime of Fig. 7).
  grid_.add_cable(j3, j4, 20.0, 6.0);

  // Left wing (B2): a shorter trunk with three junction boxes.
  const int k1 = grid_.add_node("B2-K1");
  const int k2 = grid_.add_node("B2-K2");
  const int k3 = grid_.add_node("B2-K3");
  grid_.add_cable(b2, k1, 12.0);
  grid_.add_cable(k1, k2, 14.0);
  grid_.add_cable(k2, k3, 16.0, 4.0);

  // Inter-board basement run: electrically present but heavily attenuated
  // (>200 m plus two panel crossings) — cross-board PLC is hopeless (§3.1).
  grid_.add_cable(b1, basement, 100.0, 25.0);
  grid_.add_cable(basement, b2, 100.0, 25.0);

  // Station outlets: (junction, branch length). Layout tuned so intra-
  // network cable distances span ~15-95 m.
  struct OutletSpec { int junction; double branch_m; };
  const OutletSpec specs[kStations] = {
      /* 0*/ {j4, 6.0},  /* 1*/ {j4, 9.0},  /* 2*/ {j4, 4.0},  /* 3*/ {j3, 5.0},
      /* 4*/ {j3, 3.0},  /* 5*/ {j2, 3.0},  /* 6*/ {j2, 7.0},  /* 7*/ {j3, 8.0},
      /* 8*/ {j2, 4.0},  /* 9*/ {j1, 6.0},  /*10*/ {j1, 4.0},  /*11*/ {j1, 2.0},
      /*12*/ {k1, 6.0},  /*13*/ {k1, 3.0},  /*14*/ {k2, 7.0},  /*15*/ {k2, 2.0},
      /*16*/ {k3, 4.0},  /*17*/ {k2, 5.0},  /*18*/ {k3, 8.0},
  };
  outlets_.resize(kStations);
  for (int s = 0; s < kStations; ++s) {
    const int node = grid_.add_node("outlet-" + std::to_string(s));
    grid_.add_cable(specs[s].junction, node, specs[s].branch_m);
    outlets_[static_cast<std::size_t>(s)] = node;
  }

  // --- Appliances ---------------------------------------------------------
  using grid::ApplianceType;
  // A workstation + monitor at every station outlet (it is an office).
  for (int s = 0; s < kStations; ++s) {
    const int node = outlets_[static_cast<std::size_t>(s)];
    grid_.add_appliance(make_appliance(ApplianceType::kWorkstation, node, next_seed()));
    grid_.add_appliance(make_appliance(ApplianceType::kMonitor, node, next_seed()));
  }
  // Lighting circuits on every junction: the whole wing's lights switch off
  // at 21:00 sharp (the Fig. 12 step).
  for (int j : {j1, j2, j3, j4, k1, k2, k3}) {
    grid_.add_appliance(make_appliance(ApplianceType::kLightBank, j, next_seed()));
  }
  // Kitchen cluster near J2 (right wing): fridge + microwave + coffee
  // machine — the heavy, noisy, low-impedance loads that create asymmetry
  // for the stations plugged nearby (5, 6, 8).
  const int kitchen = grid_.add_node("kitchen");
  grid_.add_cable(j2, kitchen, 3.0);
  grid_.add_appliance(make_appliance(ApplianceType::kFridge, kitchen, next_seed()));
  grid_.add_appliance(make_appliance(ApplianceType::kMicrowave, kitchen, next_seed()));
  grid_.add_appliance(make_appliance(ApplianceType::kCoffeeMachine, kitchen, next_seed()));
  // Kitchenette in the left wing near K3.
  const int kitchenette = grid_.add_node("kitchenette");
  grid_.add_cable(k3, kitchenette, 2.0);
  grid_.add_appliance(make_appliance(ApplianceType::kCoffeeMachine, kitchenette, next_seed()));
  grid_.add_appliance(make_appliance(ApplianceType::kFridge, kitchenette, next_seed()));
  // Print rooms.
  grid_.add_appliance(make_appliance(ApplianceType::kPrinter, j3, next_seed()));
  grid_.add_appliance(make_appliance(ApplianceType::kPrinter, k2, next_seed()));
  // HVAC fan-coils at the boards.
  grid_.add_appliance(make_appliance(ApplianceType::kHvac, b1, next_seed()));
  grid_.add_appliance(make_appliance(ApplianceType::kHvac, b2, next_seed()));
  // A few phone chargers left plugged in around the floor.
  for (int s : {1, 4, 9, 13, 16}) {
    grid_.add_appliance(make_appliance(ApplianceType::kPhoneCharger,
                                       outlets_[static_cast<std::size_t>(s)],
                                       next_seed()));
  }
  // Structural wiring stubs: unterminated branch lines at junction boxes.
  // They create static multipath notches around the clock, so link quality
  // differences persist at night (§6.2's night traces still show bad links
  // in the tens of Mb/s). The far J4/K3 clusters get the worst wiring.
  for (int j : {j2, j3, k2}) {
    grid_.add_appliance(make_appliance(ApplianceType::kPassiveStub, j, next_seed()));
  }
  for (int j : {j4, k3}) {
    grid_.add_appliance(make_appliance(ApplianceType::kPassiveStub, j, next_seed()));
    grid_.add_appliance(make_appliance(ApplianceType::kPassiveStub, j, next_seed()));
  }
}

Testbed::PlcStack Testbed::build_plc_stack(const plc::PhyParams& phy,
                                           std::uint64_t salt) {
  PlcStack stack;
  stack.channel = std::make_unique<plc::PlcChannel>(grid_, phy);
  for (int s = 0; s < kStations; ++s) {
    stack.channel->attach_station(s, outlets_[static_cast<std::size_t>(s)]);
  }
  sim::Rng rng{cfg_.seed ^ salt};
  stack.net_b1 = std::make_unique<plc::PlcNetwork>(sim_, *stack.channel,
                                                   rng.fork(1));
  stack.net_b2 = std::make_unique<plc::PlcNetwork>(sim_, *stack.channel,
                                                   rng.fork(2));
  for (int s = 0; s < kStations; ++s) {
    if (on_board_b1(s)) {
      stack.net_b1->add_station(s, outlets_[static_cast<std::size_t>(s)]);
    } else {
      stack.net_b2->add_station(s, outlets_[static_cast<std::size_t>(s)]);
    }
  }
  stack.net_b1->set_cco(11);
  stack.net_b2->set_cco(15);
  return stack;
}

plc::PlcChannel& Testbed::plc_channel(PlcGeneration g) {
  if (g == PlcGeneration::kHpav) return *hpav_.channel;
  assert(cfg_.with_hpav500 && "testbed built without the HPAV500 stack");
  return *hpav500_.channel;
}

plc::PlcNetwork& Testbed::plc_network_of(net::StationId id, PlcGeneration g) {
  PlcStack& stack = g == PlcGeneration::kHpav ? hpav_ : hpav500_;
  assert(stack.net_b1 && "testbed built without this PLC stack");
  return on_board_b1(id) ? *stack.net_b1 : *stack.net_b2;
}

plc::PlcStation& Testbed::plc_station(net::StationId id, PlcGeneration g) {
  return plc_network_of(id, g).station(id);
}

bool Testbed::same_plc_network(net::StationId a, net::StationId b) const {
  return on_board_b1(a) == on_board_b1(b);
}

std::vector<std::pair<net::StationId, net::StationId>> Testbed::plc_links() const {
  std::vector<std::pair<net::StationId, net::StationId>> links;
  for (int a = 0; a < kStations; ++a) {
    for (int b = 0; b < kStations; ++b) {
      if (a != b && same_plc_network(a, b)) links.emplace_back(a, b);
    }
  }
  return links;
}

std::vector<std::pair<net::StationId, net::StationId>> Testbed::all_pairs() const {
  std::vector<std::pair<net::StationId, net::StationId>> pairs;
  for (int a = 0; a < kStations; ++a) {
    for (int b = 0; b < kStations; ++b) {
      if (a != b) pairs.emplace_back(a, b);
    }
  }
  return pairs;
}

double Testbed::floor_distance_m(net::StationId a, net::StationId b) const {
  const auto [ax, ay] = station_position(a);
  const auto [bx, by] = station_position(b);
  return std::hypot(ax - bx, ay - by);
}

}  // namespace efd::testbed
