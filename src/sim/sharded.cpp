#include "src/sim/sharded.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <exception>
#include <limits>
#include <mutex>
#include <optional>
#include <string>
#include <thread>

#include "src/core/env.hpp"
#include "src/obs/obs.hpp"
#include "src/sim/fnv1a.hpp"

namespace efd::sim {

namespace {

constexpr std::int64_t kForever = std::numeric_limits<std::int64_t>::max();

[[nodiscard]] std::int64_t wall_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

ShardedSimulator::ShardedSimulator(Config cfg) : cfg_(std::move(cfg)) {
  assert(cfg_.n_cells >= 1);
  n_shards_ = std::clamp(cfg_.n_shards, 1, cfg_.n_cells);

  const auto n = static_cast<std::size_t>(cfg_.n_cells);
  shard_of_.resize(n);
  for (int c = 0; c < cfg_.n_cells; ++c) {
    shard_of_[static_cast<std::size_t>(c)] = block_shard(c, cfg_.n_cells, n_shards_);
  }

  shards_.reserve(static_cast<std::size_t>(n_shards_));
  for (int s = 0; s < n_shards_; ++s) {
    shards_.push_back(std::make_unique<Shard>());
  }
  for (int c = 0; c < cfg_.n_cells; ++c) {
    shards_[static_cast<std::size_t>(shard_of(c))]->cells.push_back(c);
  }

  handlers_.resize(n);
  stats_.resize(static_cast<std::size_t>(n_shards_));
  link_index_.assign(n * n, -1);
  mail_.reserve(cfg_.links.size());

  for (std::size_t li = 0; li < cfg_.links.size(); ++li) {
    const Link& l = cfg_.links[li];
    assert(l.src >= 0 && l.src < cfg_.n_cells);
    assert(l.dst >= 0 && l.dst < cfg_.n_cells);
    assert(l.src != l.dst && "a cell does not link to itself");
    assert(l.lookahead > Time{} && "conservative sync needs lookahead > 0");
    assert(link_index_[static_cast<std::size_t>(l.src) * n +
                       static_cast<std::size_t>(l.dst)] < 0 &&
           "duplicate directed link");
    link_index_[static_cast<std::size_t>(l.src) * n +
                static_cast<std::size_t>(l.dst)] = static_cast<int>(li);
    mail_.push_back(std::make_unique<ShardMailbox>());

    Shard& dst_shard = *shards_[static_cast<std::size_t>(shard_of(l.dst))];
    dst_shard.inbound.push_back(Inbound{static_cast<int>(li), l.src, l.dst,
                                        shard_of(l.src) != shard_of(l.dst)});
    if (shard_of(l.src) != shard_of(l.dst)) {
      shards_[static_cast<std::size_t>(shard_of(l.src))]->out_inter.emplace_back(
          static_cast<int>(li), shard_of(l.dst));
    }
  }

  for (const auto& shard : shards_) {
    Shard& s = *shard;
    // Deterministic arrival-merge order: arrivals at an equal timestamp are
    // consumed in (src_cell, dst_cell) order, independent of the grouping.
    std::sort(s.inbound.begin(), s.inbound.end(),
              [](const Inbound& a, const Inbound& b) {
                if (a.src_cell != b.src_cell) return a.src_cell < b.src_cell;
                return a.dst_cell < b.dst_cell;
              });
    std::int64_t intra = 0;
    for (const Inbound& in : s.inbound) {
      const std::int64_t la = cfg_.links[static_cast<std::size_t>(in.link)]
                                  .lookahead.ns();
      if (in.inter) {
        const int src_shard = shard_of(in.src_cell);
        auto it = std::find_if(s.horizon_terms.begin(), s.horizon_terms.end(),
                               [&](const auto& t) { return t.first == src_shard; });
        if (it == s.horizon_terms.end()) {
          s.horizon_terms.emplace_back(src_shard, la);
        } else {
          it->second = std::min(it->second, la);
        }
      } else {
        intra = intra == 0 ? la : std::min(intra, la);
      }
    }
    s.lookahead_intra_ns = intra;
  }
}

int ShardedSimulator::block_shard(int cell, int n_cells, int n_shards) {
  const int k = std::clamp(n_shards, 1, n_cells);
  return static_cast<int>(static_cast<std::int64_t>(cell) * k / n_cells);
}

void ShardedSimulator::set_cell_handler(int cell, CellHandler handler) {
  handlers_[static_cast<std::size_t>(cell)] = std::move(handler);
}

void ShardedSimulator::post(const BoundaryEvent& e) {
  const auto n = static_cast<std::size_t>(cfg_.n_cells);
  const int li = link_index_[static_cast<std::size_t>(e.src_cell) * n +
                             static_cast<std::size_t>(e.dst_cell)];
  assert(li >= 0 && "post over an undeclared boundary link");
  assert(e.t_ns >= cell_sim(e.src_cell).now().ns() +
                       cfg_.links[static_cast<std::size_t>(li)].lookahead.ns() &&
         "boundary event violates the link's lookahead");
  mail_[static_cast<std::size_t>(li)]->push(e);
  ++stats_[static_cast<std::size_t>(shard_of(e.src_cell))].boundary_posted;
  EFD_COUNTER_INC("sim.shard.boundary_posted");
}

std::int64_t ShardedSimulator::safe_target(const Shard& s,
                                           std::int64_t end_exclusive_ns) const {
  std::int64_t target = end_exclusive_ns;
  for (const auto& [src_shard, la] : s.horizon_terms) {
    const std::int64_t h = shards_[static_cast<std::size_t>(src_shard)]
                               ->horizon.load(std::memory_order_acquire);
    if (h == kForever) continue;  // aborting shard: stop holding us back
    target = std::min(target, h + la);
  }
  return target;
}

void ShardedSimulator::throw_stall(int shard) const {
  const int stalled = stalled_shard_.load(std::memory_order_relaxed);
  std::string msg = "sharded run aborted (shard " + std::to_string(shard) + ")";
  if (stalled >= 0) {
    msg += ": watchdog declared shard " + std::to_string(stalled) +
           " stalled (no horizon/beat progress within the wall-clock budget)";
  } else {
    msg += ": abort requested";
  }
  throw ShardStallError(msg);
}

void ShardedSimulator::run_window(int shard, Shard& s, std::int64_t target_ns) {
  Simulator& sim = s.sim;
  ShardStats& st = stats_[static_cast<std::size_t>(shard)];
  for (;;) {
    if (abort_.load(std::memory_order_relaxed)) throw_stall(shard);
    s.beats.fetch_add(1, std::memory_order_relaxed);
    // Earliest visible arrival strictly below the window bound.
    std::int64_t arrival = kForever;
    for (const Inbound& in : s.inbound) {
      const BoundaryEvent* e = mail_[static_cast<std::size_t>(in.link)]->peek();
      if (e != nullptr && e->t_ns < target_ns && e->t_ns < arrival) {
        arrival = e->t_ns;
      }
    }
    // Local events may post intra-shard boundary events; lookahead bounds
    // how soon those can land, so advance in chunks of the intra lookahead
    // and rescan. Without intra links the chunk spans the whole window.
    const std::int64_t clock = sim.now().ns();
    const std::int64_t intra_bound =
        s.lookahead_intra_ns > 0 ? clock + s.lookahead_intra_ns : kForever;
    const std::int64_t bound = std::min({arrival, target_ns, intra_bound});
    sim.run_until(Time{bound - 1});
    if (arrival == bound && arrival < target_ns) {
      // Boundary arrivals fire BEFORE local events at the same instant, in
      // inbound (src_cell, dst_cell) order, FIFO within a mailbox.
      sim.advance_to(Time{arrival});
      for (const Inbound& in : s.inbound) {
        ShardMailbox& m = *mail_[static_cast<std::size_t>(in.link)];
        while (const BoundaryEvent* e = m.peek()) {
          if (e->t_ns != arrival) break;
          handlers_[static_cast<std::size_t>(e->dst_cell)](*e, sim);
          ++st.boundary_delivered;
          EFD_COUNTER_INC("sim.shard.boundary_delivered");
          m.pop();
        }
      }
      continue;
    }
    if (bound >= target_ns) break;
  }
}

void ShardedSimulator::wait_backpressure(Shard& s, ShardStats& st,
                                         std::int64_t horizon_ns,
                                         std::int64_t end_exclusive_ns) {
  // Runs AFTER this shard published horizon_ns, so every consumer below can
  // reach horizon_ns regardless of what we do here. Stalling only while the
  // consumer's horizon is strictly behind ours keeps the protocol live: the
  // globally minimal shard never stalls, and its progress unblocks the rest.
  for (const auto& [li, consumer] : s.out_inter) {
    ShardMailbox& m = *mail_[static_cast<std::size_t>(li)];
    while (m.occupancy() > cfg_.mailbox_capacity) {
      const std::int64_t ch = shards_[static_cast<std::size_t>(consumer)]
                                  ->horizon.load(std::memory_order_acquire);
      if (ch >= horizon_ns || ch >= end_exclusive_ns || ch == kForever) break;
      if (abort_.load(std::memory_order_relaxed)) return;  // drain, don't hang
      ++st.backpressure_waits;
      EFD_COUNTER_INC("sim.shard.backpressure_waits");
      s.beats.fetch_add(1, std::memory_order_relaxed);
      const std::int64_t t0 = wall_ns();
      std::this_thread::yield();
      st.wait_ns += wall_ns() - t0;
    }
  }
}

void ShardedSimulator::run_shard(int shard, std::int64_t end_exclusive_ns) {
  EFD_PROF_SCOPE("shard.run");
  Shard& s = *shards_[static_cast<std::size_t>(shard)];
  ShardStats& st = stats_[static_cast<std::size_t>(shard)];
  std::int64_t horizon = s.horizon.load(std::memory_order_relaxed);
  while (horizon < end_exclusive_ns) {
    if (abort_.load(std::memory_order_relaxed)) throw_stall(shard);
    const std::int64_t target = safe_target(s, end_exclusive_ns);
    if (target <= horizon) {
      const std::int64_t t0 = wall_ns();
      std::this_thread::yield();
      st.wait_ns += wall_ns() - t0;
      continue;
    }
    const std::int64_t t0 = wall_ns();
    run_window(shard, s, target);
    st.busy_ns += wall_ns() - t0;
    ++st.windows;
    s.heap_depth.store(s.sim.pending_events(), std::memory_order_relaxed);
    horizon = target;
    s.horizon.store(target, std::memory_order_release);
    if (cfg_.mailbox_capacity > 0) {
      wait_backpressure(s, st, horizon, end_exclusive_ns);
    }
  }
  // An abort raised during the final window (a cell event calling
  // request_abort, or the watchdog firing late) must still fail the run —
  // the loop condition above is already false by the time it lands.
  if (abort_.load(std::memory_order_relaxed)) throw_stall(shard);
  st.events_dispatched = s.sim.events_dispatched();
}

void ShardedSimulator::watch(const std::stop_token& st,
                             std::int64_t end_exclusive_ns) {
  const std::int64_t budget = cfg_.watchdog.budget_ns;
  const std::int64_t poll = std::max<std::int64_t>(cfg_.watchdog.poll_ns, 1'000'000);
  struct Last {
    std::int64_t horizon = 0;
    std::uint64_t beats = 0;
    std::int64_t progressed_at = 0;
  };
  std::vector<Last> last(static_cast<std::size_t>(n_shards_));
  const std::int64_t start = wall_ns();
  for (int i = 0; i < n_shards_; ++i) {
    Shard& s = *shards_[static_cast<std::size_t>(i)];
    last[static_cast<std::size_t>(i)] = {
        s.horizon.load(std::memory_order_acquire),
        s.beats.load(std::memory_order_relaxed), start};
  }
  while (!st.stop_requested()) {
    // Sleep in small slices so request_stop() is honored promptly.
    std::int64_t slept = 0;
    while (slept < poll && !st.stop_requested()) {
      const std::int64_t slice = std::min<std::int64_t>(poll - slept, 10'000'000);
      std::this_thread::sleep_for(std::chrono::nanoseconds(slice));
      slept += slice;
    }
    if (st.stop_requested()) return;
    const std::int64_t now = wall_ns();
    bool all_done = true;
    for (int i = 0; i < n_shards_; ++i) {
      Shard& s = *shards_[static_cast<std::size_t>(i)];
      Last& l = last[static_cast<std::size_t>(i)];
      const std::int64_t h = s.horizon.load(std::memory_order_acquire);
      const std::uint64_t b = s.beats.load(std::memory_order_relaxed);
      if (h >= end_exclusive_ns) continue;  // this shard already finished
      all_done = false;
      if (h != l.horizon || b != l.beats) {
        l = {h, b, now};
      } else if (now - l.progressed_at > budget) {
        stalled_shard_.store(i, std::memory_order_relaxed);
        EFD_COUNTER_INC("sim.shard.watchdog_stalls");
        dump_stall_diagnostics(end_exclusive_ns);
        abort_.store(true, std::memory_order_relaxed);
        return;
      }
    }
    if (all_done) return;
  }
}

void ShardedSimulator::dump_stall_diagnostics(
    std::int64_t end_exclusive_ns) const {
  const int stalled = stalled_shard_.load(std::memory_order_relaxed);
  std::fprintf(stderr,
               "[efd] shard watchdog: shard %d made no progress within %.3fs "
               "(run target %" PRId64 " ns); per-shard state:\n",
               stalled, static_cast<double>(cfg_.watchdog.budget_ns) / 1e9,
               end_exclusive_ns);
  std::uint64_t stalled_inbox = 0;
  for (int i = 0; i < n_shards_; ++i) {
    const Shard& s = *shards_[static_cast<std::size_t>(i)];
    std::uint64_t inbox = 0;
    for (const Inbound& in : s.inbound) {
      if (in.inter) inbox += mail_[static_cast<std::size_t>(in.link)]->occupancy();
    }
    std::uint64_t outbox = 0;
    for (const auto& [li, consumer] : s.out_inter) {
      outbox += mail_[static_cast<std::size_t>(li)]->occupancy();
    }
    if (i == stalled) stalled_inbox = inbox;
    std::fprintf(stderr,
                 "[efd]   shard %d: horizon=%" PRId64 "ns beats=%" PRIu64
                 " heap_depth=%" PRIu64 " inbox=%" PRIu64 " outbox=%" PRIu64
                 " cells=%zu%s\n",
                 i, s.horizon.load(std::memory_order_acquire),
                 s.beats.load(std::memory_order_relaxed),
                 s.heap_depth.load(std::memory_order_relaxed), inbox, outbox,
                 s.cells.size(), i == stalled ? "  <-- stalled" : "");
  }
  if (stalled >= 0) {
    const Shard& s = *shards_[static_cast<std::size_t>(stalled)];
    EFD_GAUGE_SET("sim.shard.stall.shard", stalled);
    EFD_GAUGE_SET("sim.shard.stall.horizon_ns",
                  s.horizon.load(std::memory_order_acquire));
    EFD_GAUGE_SET("sim.shard.stall.heap_depth",
                  static_cast<std::int64_t>(
                      s.heap_depth.load(std::memory_order_relaxed)));
    EFD_GAUGE_SET("sim.shard.stall.inbox",
                  static_cast<std::int64_t>(stalled_inbox));
  }
}

void ShardedSimulator::run_until(Time end) {
  const std::int64_t endx = end.ns() + 1;
  abort_.store(false, std::memory_order_relaxed);
  stalled_shard_.store(-1, std::memory_order_relaxed);
  EFD_GAUGE_SET("sim.shard.count", n_shards_);
  std::exception_ptr first_error;
  std::mutex error_mutex;
  {
    std::optional<std::jthread> dog;
    if (cfg_.watchdog.budget_ns > 0) {
      dog.emplace([this, endx](const std::stop_token& st) { watch(st, endx); });
    }
    if (n_shards_ == 1) {
      try {
        run_shard(0, endx);
      } catch (...) {
        first_error = std::current_exception();
      }
    } else {
      std::vector<std::jthread> pool;
      pool.reserve(static_cast<std::size_t>(n_shards_));
      for (int i = 0; i < n_shards_; ++i) {
        pool.emplace_back([&, i] {
          try {
            run_shard(i, endx);
          } catch (...) {
            {
              const std::scoped_lock lock(error_mutex);
              if (!first_error) first_error = std::current_exception();
            }
            // Release neighbors waiting on this shard's horizon so the run
            // drains instead of deadlocking; the error is rethrown below.
            shards_[static_cast<std::size_t>(i)]->horizon.store(
                kForever, std::memory_order_release);
          }
        });
      }
    }  // shard jthreads join here
    if (dog) dog->request_stop();
  }  // watchdog joins here
  std::uint64_t peak = 0;
  for (const auto& m : mail_) peak = std::max(peak, m->peak_occupancy());
  EFD_GAUGE_SET("sim.shard.mailbox_peak", static_cast<std::int64_t>(peak));
  if (first_error) std::rethrow_exception(first_error);
}

std::uint64_t ShardedSimulator::events_dispatched() const {
  std::uint64_t total = 0;
  for (const auto& s : shards_) total += s->sim.events_dispatched();
  return total;
}

std::uint64_t ShardedSimulator::mailbox_peak_occupancy() const {
  std::uint64_t peak = 0;
  for (const auto& m : mail_) peak = std::max(peak, m->peak_occupancy());
  return peak;
}

EngineCheckpoint ShardedSimulator::checkpoint() const {
  EngineCheckpoint cp;
  cp.n_cells = cfg_.n_cells;
  cp.n_shards = n_shards_;
  cp.t_ns = kForever;
  cp.shards.reserve(static_cast<std::size_t>(n_shards_));
  std::vector<std::pair<std::int64_t, std::uint64_t>> pend;
  for (const auto& shard : shards_) {
    const Shard& s = *shard;
    ShardCheckpoint sc;
    sc.horizon_ns = s.horizon.load(std::memory_order_acquire);
    sc.now_ns = s.sim.now().ns();
    sc.dispatched = s.sim.events_dispatched();
    sc.sequence = s.sim.sequence();
    sc.pending = s.sim.pending_events();
    pend.clear();
    s.sim.visit_pending([&pend](std::int64_t t_ns, std::uint64_t seq) {
      pend.emplace_back(t_ns, seq);
    });
    std::sort(pend.begin(), pend.end());
    Fnv1a64 f;
    for (const auto& [t_ns, seq] : pend) {
      f.mix(t_ns);
      f.mix(seq);
    }
    sc.pending_digest = f.h;
    cp.t_ns = std::min(cp.t_ns, sc.horizon_ns);
    cp.shards.push_back(sc);
  }
  cp.mailboxes.reserve(mail_.size());
  for (const auto& m : mail_) {
    MailboxCheckpoint mc;
    mc.pushed = m->total_pushed();
    mc.popped = m->total_popped();
    Fnv1a64 f;
    m->for_each_pending([&f](const BoundaryEvent& e) {
      f.mix(e.t_ns);
      f.mix(static_cast<std::uint64_t>(static_cast<std::uint32_t>(e.src_cell)));
      f.mix(static_cast<std::uint64_t>(static_cast<std::uint32_t>(e.dst_cell)));
      f.mix((static_cast<std::uint64_t>(e.kind) << 32) | e.bytes);
      f.mix(e.a);
      f.mix(e.b);
      f.mix(e.c);
    });
    mc.pending_digest = f.h;
    cp.mailboxes.push_back(mc);
  }
  return cp;
}

void ShardedSimulator::reset() {
  for (auto& shard : shards_) {
    shard->sim.reset();
    shard->horizon.store(0, std::memory_order_relaxed);
    shard->beats.store(0, std::memory_order_relaxed);
    shard->heap_depth.store(0, std::memory_order_relaxed);
  }
  for (auto& m : mail_) m->reset();
  abort_.store(false, std::memory_order_relaxed);
  stalled_shard_.store(-1, std::memory_order_relaxed);
  std::fill(stats_.begin(), stats_.end(), ShardStats{});
  std::fill(handlers_.begin(), handlers_.end(), CellHandler{});
}

int ShardedSimulator::env_shards(int fallback) {
  return core::env_count("EFD_SHARDS", fallback, 1024);
}

}  // namespace efd::sim
