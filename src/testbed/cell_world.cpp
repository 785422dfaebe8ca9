#include "src/testbed/cell_world.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

#include "src/obs/obs.hpp"

namespace efd::testbed {

CellWorld::CellWorld(const CellRunConfig& run, Setup setup, bool bridge_fallback)
    : run_(run), setup_(std::move(setup)), bridge_fallback_(bridge_fallback) {
  sim::ShardedSimulator::Config ec;
  ec.n_cells = setup_.n_cells;
  ec.n_shards = run_.n_shards;
  crossings_.resize(static_cast<std::size_t>(setup_.n_cells));
  for (std::size_t li = 0; li < setup_.links.size(); ++li) {
    const grid::BoundaryLink& l = setup_.links[li];
    ec.links.push_back({l.board_a, l.board_b, l.lookahead});
    ec.links.push_back({l.board_b, l.board_a, l.lookahead});
    const auto link = static_cast<int>(li);
    crossings_[static_cast<std::size_t>(l.board_a)].push_back(
        {l.board_b, l.kind, l.lookahead.ns(), link});
    crossings_[static_cast<std::size_t>(l.board_b)].push_back(
        {l.board_a, l.kind, l.lookahead.ns(), link});
  }
  ec.mailbox_capacity = run_.mailbox_capacity;
  ec.watchdog.budget_ns = run_.watchdog_budget_ns;
  engine_ = std::make_unique<sim::ShardedSimulator>(std::move(ec));
}

void CellWorld::build() {
  EFD_PROF_SCOPE(setup_.build_scope);
  cells_.clear();
  cells_.reserve(static_cast<std::size_t>(setup_.n_cells));

  for (int c = 0; c < setup_.n_cells; ++c) {
    std::unique_ptr<Cell> cell = make_cell(c);
    assert(cell->index == c);
    Cell* w = cell.get();
    engine_->set_cell_handler(c, [this, w](const sim::BoundaryEvent& e,
                                           sim::Simulator&) {
      // Fold the arrival stream before acting on it: (t, src, payload) in
      // delivery order is exactly what conservative sync must make
      // grouping-invariant.
      w->digest.mix(e.t_ns);
      w->digest.mix(e.src_cell);
      w->digest.mix(static_cast<std::uint64_t>(e.kind));
      w->digest.mix(e.a);
      w->digest.mix(e.b);
      w->digest.mix(e.c);
      if (w->dead) {
        // The arrival is folded (it crossed the boundary either way) but a
        // blacked-out cell has nothing powered to hand it to.
        ++w->dead_drops;
        return;
      }
      net::Packet p;
      p.flow_id = static_cast<int>(e.b >> 32);
      p.seq = static_cast<std::uint32_t>(e.b & 0xffffffffu);
      p.size_bytes = e.bytes;
      p.created = sim::Time{static_cast<std::int64_t>(e.c)};
      p.priority = 1;
      arrive(*w, p, e.kind);
    });

    if (!run_.faults.empty()) wire_faults(*cell);
    schedule_tick(*cell);
    cells_.push_back(std::move(cell));
  }
}

void CellWorld::wire_faults(Cell& c) {
  // Slice the world-wide plan into this cell's specs: cell-targeted kinds
  // stay on their cell; a link partition lands on BOTH endpoint cells (each
  // schedules the same apply/clear instants on its own cell clock, so both
  // sides observe the cut simultaneously in sim time).
  fault::FaultPlan local;
  for (const fault::FaultSpec& s : run_.faults.specs()) {
    if (s.kind == fault::FaultKind::kLinkPartition) {
      if (s.target < 0 || s.target >= static_cast<int>(setup_.links.size())) {
        continue;
      }
      const grid::BoundaryLink& l = setup_.links[static_cast<std::size_t>(s.target)];
      if (l.board_a == c.index || l.board_b == c.index) local.add(s);
    } else if (s.target == c.index) {
      local.add(s);
    }
  }

  // A severed WiFi bridge may fall back to the shared powerline backbone
  // (the world's policy); a severed backbone crossing has no second medium
  // and goes down.
  const std::vector<Crossing>& xs = crossings(c.index);
  std::vector<bool> has_fallback;
  for (const Crossing& x : xs) {
    has_fallback.push_back(bridge_fallback_ && x.kind == grid::BoundaryKind::kWifiBridge);
  }
  c.failover = std::make_unique<hybrid::GatewayFailover>(std::move(has_fallback));

  if (local.empty()) return;

  Cell* w = &c;
  c.injector = std::make_unique<fault::FaultInjector>(engine_->cell_sim(c.index));
  c.failover->set_listener(
      [w, &xs](int crossing, hybrid::GatewayFailover::Path path, sim::Time) {
        // Recovery-side trace: reroutes/downs record as trips, primary
        // restoration as recovery; severity 1 = fallback carried traffic.
        const int link = xs[static_cast<std::size_t>(crossing)].link;
        if (path == hybrid::GatewayFailover::Path::kPrimary) {
          w->injector->record(fault::FaultPhase::kRecover,
                              fault::FaultKind::kLinkPartition, link);
        } else {
          w->injector->record(
              fault::FaultPhase::kTrip, fault::FaultKind::kLinkPartition, link,
              path == hybrid::GatewayFailover::Path::kFallback ? 1.0 : 0.0);
        }
      });

  const auto set_pb_error = [w](double p) { w->plc->medium().set_fault_pb_error(p); };
  const auto set_jamming = [w](double db) {
    if (w->wifi) w->wifi->medium().set_jamming_db(db);
  };
  const fault::FaultInjector::Hooks pb_error{
      [=](const fault::FaultSpec& s, sim::Time) { set_pb_error(s.severity); },
      [=](const fault::FaultSpec&, sim::Time) { set_pb_error(0.0); }};
  c.injector->set_hooks(fault::FaultKind::kPlcBlackout, pb_error);
  c.injector->set_hooks(fault::FaultKind::kBoardBrownout, pb_error);
  c.injector->set_hooks(
      fault::FaultKind::kWifiJam,
      {[=](const fault::FaultSpec& s, sim::Time) { set_jamming(s.severity); },
       [=](const fault::FaultSpec&, sim::Time) { set_jamming(0.0); }});
  c.injector->set_hooks(
      fault::FaultKind::kBoardBlackout,
      {[=](const fault::FaultSpec&, sim::Time) {
         w->dead = true;
         set_pb_error(1.0);
         set_jamming(200.0);
       },
       [=](const fault::FaultSpec&, sim::Time) {
         w->dead = false;
         set_pb_error(0.0);
         set_jamming(0.0);
       }});
  const auto for_link = [w, &xs](int link, auto&& fn) {
    for (std::size_t ci = 0; ci < xs.size(); ++ci) {
      if (xs[ci].link == link) fn(*w->failover, static_cast<int>(ci));
    }
  };
  c.injector->set_hooks(
      fault::FaultKind::kLinkPartition,
      {[=](const fault::FaultSpec& s, sim::Time t) {
         for_link(s.target, [t](auto& f, int ci) { f.on_partition(ci, t); });
       },
       [=](const fault::FaultSpec& s, sim::Time t) {
         for_link(s.target, [t](auto& f, int ci) { f.on_restore(ci, t); });
       }});

  c.injector->install(local);
}

void CellWorld::schedule_tick(Cell& c) {
  const auto jitter = static_cast<std::int64_t>(
      static_cast<double>(setup_.tick_interval.ns()) * c.rng.uniform(0.6, 1.4));
  Cell* w = &c;
  engine_->cell_sim(c.index).after_inline(sim::Time{jitter}, [this, w] {
    schedule_tick(*w);
    tick(*w);
  });
}

int CellWorld::crossing_to(const Cell& c, int dst_cell) const {
  const std::vector<Crossing>& xs = crossings(c.index);
  const auto it = std::find_if(xs.begin(), xs.end(), [dst_cell](const Crossing& x) {
    return x.neighbor == dst_cell;
  });
  assert(it != xs.end() && "remote flow targets a non-neighbor");
  return static_cast<int>(it - xs.begin());
}

bool CellWorld::bridged(const Cell& c, int ci) const {
  return crossings(c.index)[static_cast<std::size_t>(ci)].kind ==
             grid::BoundaryKind::kWifiBridge &&
         !(c.failover && c.failover->rerouted(ci));
}

bool CellWorld::egress(Cell& c, const net::Packet& p, int dst_cell, bool bridge_hop) {
  const int ci = crossing_to(c, dst_cell);
  if (c.failover && !c.failover->usable(ci)) {
    // Partitioned crossing with no fallback medium: deterministic drop.
    c.failover->record_drop();
    return false;
  }
  c.plc->record_boundary_egress();
  if (bridge_hop && bridged(c, ci)) return true;
  post_crossing(c, p, dst_cell);
  return false;
}

void CellWorld::post_crossing(Cell& c, const net::Packet& p, int dst_cell) {
  const int ci = crossing_to(c, dst_cell);
  const sim::Time now = engine_->cell_sim(c.index).now();
  sim::BoundaryEvent e;
  e.t_ns = now.ns() + crossings(c.index)[static_cast<std::size_t>(ci)].lookahead_ns;
  e.src_cell = c.index;
  e.dst_cell = dst_cell;
  // A bridge crossing rerouted by a partition travels the backbone: the
  // destination hands it straight to its mains instead of its AP.
  e.kind = bridged(c, ci) ? kKindBridge : kKindBackbone;
  e.bytes = static_cast<std::uint32_t>(p.size_bytes);
  e.a = (static_cast<std::uint64_t>(static_cast<std::uint32_t>(p.src)) << 32) |
        static_cast<std::uint32_t>(p.dst);
  e.b = (static_cast<std::uint64_t>(static_cast<std::uint32_t>(p.flow_id))
         << 32) |
        p.seq;
  e.c = static_cast<std::uint64_t>(p.created.ns());
  // Egress leaves the cell's digest stream too: the post time is a pure
  // function of cell-local evolution, so it is grouping-invariant.
  c.digest.mix(e.t_ns);
  c.digest.mix(e.dst_cell);
  c.digest.mix(e.b);
  engine_->post(e);
}

void CellWorld::run() { run_until(run_.duration); }

void CellWorld::run_until(sim::Time end) {
  EFD_PROF_SCOPE(setup_.run_scope);
  engine_->run_until(end);
}

std::uint64_t CellWorld::world_digest() const {
  sim::Fnv1a64 f;
  for (const auto& c : cells_) {
    f.mix(c->index);
    f.mix(c->digest.h);
    fold_counters(*c, f);
  }
  return f.h;
}

CellCheckpoint CellWorld::checkpoint() const {
  CellCheckpoint cp;
  cp.engine = engine_->checkpoint();
  cp.t = sim::Time{cp.engine.t_ns - 1};  // engine horizons are exclusive
  cp.world_digest = world_digest();
  return cp;
}

bool CellWorld::restore(const CellCheckpoint& cp) {
  reset_and_rebuild();
  engine_->run_until(cp.t);
  return engine_->matches(cp.engine) && world_digest() == cp.world_digest;
}

void CellWorld::reset_and_rebuild() {
  engine_->reset();
  build();
}

void CellWorld::fill_result(CellResult& r,
                            std::vector<std::uint64_t>& cell_digests) const {
  r.digest = world_digest();
  r.n_shards = engine_->n_shards();
  r.events = engine_->events_dispatched();
  r.shards = engine_->shard_stats();

  // Fault-domain accounting rides outside the world digest, so the
  // fault-free digest is bit-for-bit independent of fault wiring.
  cell_digests.reserve(cells_.size());
  for (const auto& c : cells_) {
    cell_digests.push_back(c->digest.h);
    r.dead_drops += c->dead_drops;
    if (c->injector) {
      r.fault_events += c->injector->trace().size();
      r.fault_trace += c->injector->trace_lines();
    }
    if (c->failover) {
      r.failovers += c->failover->failovers();
      r.failbacks += c->failover->failbacks();
      r.partition_drops += c->failover->drops();
    }
  }
  r.mailbox_peak = engine_->mailbox_peak_occupancy();

  std::int64_t busy_max = 0;
  std::int64_t busy_sum = 0;
  for (const auto& s : r.shards) {
    r.boundary_posted += s.boundary_posted;
    r.boundary_delivered += s.boundary_delivered;
    r.backpressure_waits += s.backpressure_waits;
    busy_max = std::max(busy_max, s.busy_ns);
    busy_sum += s.busy_ns;
  }
  if (!r.shards.empty() && busy_sum > 0) {
    const double mean = static_cast<double>(busy_sum) /
                        static_cast<double>(r.shards.size());
    r.load_balance = static_cast<double>(busy_max) / mean;
  }
}

}  // namespace efd::testbed
