#pragma once

// efd::sim::ShardedSimulator — conservative parallel discrete-event engine
// (DESIGN.md §14).
//
// The simulated world is partitioned into `cells` (the campus layer maps one
// distribution board to one cell). Cells interact ONLY through time-stamped
// BoundaryEvents posted over declared directed links, each with a strictly
// positive lookahead: an event posted while the sender's clock reads `s`
// must be delivered at t >= s + lookahead. Cells are grouped into `shards`
// (contiguous blocks); each shard owns one slab Simulator that interleaves
// the events of all its cells, and runs on its own worker thread.
//
// Synchronization is conservative (Chandy–Misra–Bryant style, without null
// messages): every shard publishes a horizon H — "I have executed everything
// strictly below H, and will never post an event with delivery time below
// H + lookahead" — and advances in windows to
//
//     T = min over inbound inter-shard links (H_source + lookahead)
//
// processing, strictly below T, the deterministic merge of (a) its own
// event queue and (b) boundary arrivals, which are consumed in
// (timestamp, source cell, mailbox FIFO) order and always BEFORE local
// events at an equal timestamp. Because cells share no mutable state and
// the merge rule never depends on the window bounds, every cell observes
// the exact same event sequence for ANY shard count — the digest of a
// sharded run is byte-identical across EFD_SHARDS=1|2|8 (the PR 5
// determinism gate extended to parallel engines).
//
// Fault-tolerance surface (DESIGN.md §15): a wall-clock watchdog flags
// shards that stop making progress (run aborts with ShardStallError instead
// of hanging), mailboxes carry a soft capacity with producer backpressure
// at horizon boundaries, and checkpoint() fingerprints the quiescent engine
// for the reset-and-replay restore protocol.

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <stop_token>
#include <vector>

#include "src/sim/checkpoint.hpp"
#include "src/sim/shard_mailbox.hpp"
#include "src/sim/simulator.hpp"
#include "src/sim/time.hpp"

namespace efd::sim {

/// Thrown (out of run_until) when the watchdog declares a shard stalled or
/// abort was requested mid-run. The engine state is indeterminate afterwards
/// — reset() before reusing it.
class ShardStallError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class ShardedSimulator {
 public:
  /// Directed boundary link between two cells. `lookahead` must be > 0 and
  /// is the conservative bound the whole protocol rests on: it is physical
  /// (backbone propagation plus the minimum store-and-forward time the
  /// crossing's attenuation budget allows), not a tuning knob.
  struct Link {
    int src = 0;
    int dst = 0;
    Time lookahead{};
  };

  /// Watchdog policy: a shard that advances neither its horizon nor its
  /// progress beat within `budget_ns` of wall clock is declared stalled —
  /// diagnostics are dumped (stderr + efd::obs) and the run aborts with
  /// ShardStallError instead of hanging. budget_ns == 0 disables the
  /// watchdog. The beat granularity is one engine window chunk, so the
  /// budget must comfortably exceed the wall time of the largest chunk
  /// (milliseconds in practice; CI uses tens of seconds).
  struct WatchdogConfig {
    std::int64_t budget_ns = 0;
    std::int64_t poll_ns = 20'000'000;  ///< sampling period
  };

  struct Config {
    int n_cells = 1;
    /// Requested shard (worker) count; clamped to [1, n_cells]. 1 runs the
    /// identical window protocol inline on the calling thread.
    int n_shards = 1;
    std::vector<Link> links;
    /// Soft per-mailbox capacity (events); 0 = unbounded. A producer whose
    /// outbound inter-shard mailbox exceeds it stalls at its next horizon
    /// boundary — after publishing the horizon, so the consumer can always
    /// drain — until the consumer catches up. Backpressure never reorders
    /// events: digests are identical with any capacity.
    std::size_t mailbox_capacity = 0;
    WatchdogConfig watchdog;
  };

  /// Handler for boundary events arriving at a cell. Runs on the owning
  /// shard's thread with the shard simulator's clock at exactly e.t_ns.
  using CellHandler = std::function<void(const BoundaryEvent& e, Simulator& sim)>;

  explicit ShardedSimulator(Config cfg);

  [[nodiscard]] int n_cells() const { return cfg_.n_cells; }
  [[nodiscard]] int n_shards() const { return n_shards_; }
  [[nodiscard]] int shard_of(int cell) const { return shard_of_[static_cast<std::size_t>(cell)]; }

  /// The engine's cell -> shard split: balanced contiguous blocks, cell c
  /// of n_cells in shard floor(c * k / n_cells), k = n_shards clamped to
  /// [1, n_cells].
  [[nodiscard]] static int block_shard(int cell, int n_cells, int n_shards);

  /// The slab engine executing `cell`. Build the cell's world onto it (and
  /// schedule its initial events) before run_until; during a run only the
  /// owning shard thread may touch it.
  [[nodiscard]] Simulator& cell_sim(int cell) {
    return shards_[static_cast<std::size_t>(shard_of(cell))]->sim;
  }
  [[nodiscard]] Simulator& shard_sim(int shard) {
    return shards_[static_cast<std::size_t>(shard)]->sim;
  }

  void set_cell_handler(int cell, CellHandler handler);

  /// Post a boundary event over the (e.src_cell -> e.dst_cell) link. Must
  /// be called from the source cell's executing shard (or from the main
  /// thread before the first run). Asserts the link exists and that
  /// e.t_ns respects its lookahead.
  void post(const BoundaryEvent& e);

  /// Advance every cell through `end` (inclusive, run_until semantics).
  /// Spawns one worker per shard (n_shards == 1 runs inline); callable
  /// repeatedly with increasing `end`. Throws ShardStallError if the
  /// watchdog aborts the run, or rethrows the first cell exception.
  void run_until(Time end);

  /// Cooperatively abort an in-flight run: every shard throws
  /// ShardStallError at its next window or wait-loop check. Long-running
  /// cell events can poll abort_requested() to bail out early.
  void request_abort() { abort_.store(true, std::memory_order_relaxed); }
  [[nodiscard]] bool abort_requested() const {
    return abort_.load(std::memory_order_relaxed);
  }

  /// Sum of events dispatched by every shard engine. Shard-count-invariant:
  /// the union of per-cell event sequences does not depend on the grouping.
  [[nodiscard]] std::uint64_t events_dispatched() const;

  struct ShardStats {
    std::uint64_t events_dispatched = 0;  ///< engine events this shard ran
    std::uint64_t boundary_posted = 0;    ///< events sent over its out-links
    std::uint64_t boundary_delivered = 0; ///< arrivals handed to its cells
    std::uint64_t windows = 0;            ///< conservative windows executed
    std::uint64_t backpressure_waits = 0; ///< yields spent over mailbox capacity
    std::int64_t busy_ns = 0;             ///< wall time executing (not waiting)
    std::int64_t wait_ns = 0;             ///< wall time blocked on horizons
  };
  [[nodiscard]] const std::vector<ShardStats>& shard_stats() const { return stats_; }

  /// High-water mark of undelivered events over all boundary mailboxes
  /// since construction or the last reset().
  [[nodiscard]] std::uint64_t mailbox_peak_occupancy() const;

  /// Fingerprint the quiescent engine (between run_until calls; never
  /// during a run). See checkpoint.hpp for the restore protocol.
  [[nodiscard]] EngineCheckpoint checkpoint() const;

  /// True when the engine's current fingerprint equals `cp` — the verify
  /// half of reset-and-replay restore.
  [[nodiscard]] bool matches(const EngineCheckpoint& cp) const {
    return checkpoint() == cp;
  }

  /// Drop all engine/mailbox state and return to the as-constructed state:
  /// every shard Simulator reset, every mailbox drained (counters zeroed),
  /// horizons back to zero. Cell worlds must then be rebuilt (their event
  /// chains died with the engines) — the reset-replay gate rebuilds and
  /// expects a byte-identical digest.
  void reset();

  /// EFD_SHARDS from the environment, hardened (core::env_count): unset,
  /// empty, zero, negative or non-numeric values return `fallback`.
  [[nodiscard]] static int env_shards(int fallback = 1);

 private:
  /// Mailbox endpoint of one directed link, in a shard's inbound list.
  /// Inbound lists are sorted by (src, dst) so same-timestamp arrivals are
  /// consumed in a grouping-independent order.
  struct Inbound {
    int link = 0;       ///< index into cfg_.links
    int src_cell = 0;
    int dst_cell = 0;
    bool inter = false; ///< source cell lives in another shard
  };

  struct Shard {
    Simulator sim;
    std::vector<int> cells;
    std::vector<Inbound> inbound;        ///< sorted by (src_cell, dst_cell)
    /// Inter-shard horizon terms: for each source shard with a link into
    /// this shard, the minimum lookahead over those links.
    std::vector<std::pair<int, std::int64_t>> horizon_terms;
    /// Outbound inter-shard links as (link index, consuming shard); the
    /// backpressure check walks these at horizon boundaries.
    std::vector<std::pair<int, int>> out_inter;
    std::int64_t lookahead_intra_ns = 0; ///< min over intra-shard links (0 = none)
    /// Published horizon: everything strictly below has been executed.
    alignas(64) std::atomic<std::int64_t> horizon{0};
    /// Progress beat, bumped once per window chunk and backpressure yield;
    /// the watchdog reads it (with the horizon) to tell "slow" from
    /// "stuck". Relaxed: it carries liveness, not data.
    std::atomic<std::uint64_t> beats{0};
    /// Pending-event depth published at each window boundary, so the
    /// watchdog's diagnostics never touch another thread's Simulator.
    std::atomic<std::uint64_t> heap_depth{0};
  };

  void run_shard(int shard, std::int64_t end_exclusive_ns);
  [[nodiscard]] std::int64_t safe_target(const Shard& s,
                                         std::int64_t end_exclusive_ns) const;
  /// Run one window [sim.now, target): the deterministic local/arrival
  /// merge described in the header comment.
  void run_window(int shard, Shard& s, std::int64_t target_ns);
  /// Soft-capacity stall after a horizon publish (see Config comment).
  void wait_backpressure(Shard& s, ShardStats& st, std::int64_t horizon_ns,
                         std::int64_t end_exclusive_ns);
  [[noreturn]] void throw_stall(int shard) const;
  /// Watchdog thread body: samples horizons/beats every poll_ns and aborts
  /// the run when one shard makes no progress for budget_ns.
  void watch(const std::stop_token& st, std::int64_t end_exclusive_ns);
  void dump_stall_diagnostics(std::int64_t end_exclusive_ns) const;

  Config cfg_;
  int n_shards_ = 1;
  std::vector<int> shard_of_;                      ///< cell -> shard
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<std::unique_ptr<ShardMailbox>> mail_; ///< one per cfg_.links entry
  std::vector<int> link_index_;                    ///< src*n_cells+dst -> link (-1)
  std::vector<CellHandler> handlers_;              ///< one per cell
  std::vector<ShardStats> stats_;
  std::atomic<bool> abort_{false};
  std::atomic<int> stalled_shard_{-1};
};

}  // namespace efd::sim
