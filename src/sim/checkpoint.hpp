#pragma once

// Deterministic checkpoints of the sharded event engine (DESIGN.md §15).
//
// Engine events are type-erased closures, so a checkpoint cannot serialize
// the queue itself. Instead it captures a *fingerprint* of the quiescent
// engine — per-shard clocks/counters plus an order-independent FNV-1a
// digest of the pending (time, seq) set, and per-mailbox counters plus a
// FIFO-order digest of undelivered boundary events. Restore is
// reset-and-replay: rebuild the world, replay deterministically to the
// checkpoint time, then verify the replayed engine produces the *same*
// fingerprint. The byte form (to_bytes/from_bytes) carries a trailing
// digest of its own payload, so a truncated or corrupted checkpoint is
// rejected instead of silently "verifying".

#include <cstdint>
#include <vector>

namespace efd::sim {

/// Fingerprint of one shard's slab Simulator at a horizon.
struct ShardCheckpoint {
  std::int64_t horizon_ns = 0;   ///< published conservative horizon
  std::int64_t now_ns = 0;       ///< engine clock
  std::uint64_t dispatched = 0;  ///< events dispatched since construction
  std::uint64_t sequence = 0;    ///< FIFO sequence counter
  std::uint64_t pending = 0;     ///< events still queued
  std::uint64_t pending_digest = 0;  ///< FNV over sorted (t, seq) pairs

  bool operator==(const ShardCheckpoint&) const = default;
};

/// Fingerprint of one directed boundary mailbox.
struct MailboxCheckpoint {
  std::uint64_t pushed = 0;
  std::uint64_t popped = 0;
  std::uint64_t pending_digest = 0;  ///< FNV over undelivered events, FIFO order

  bool operator==(const MailboxCheckpoint&) const = default;
};

/// Fingerprint of the whole engine, taken quiescently (between run_until
/// calls). ShardedSimulator::checkpoint() produces one;
/// ShardedSimulator::matches() re-derives and compares after a replay.
struct EngineCheckpoint {
  std::int64_t t_ns = 0;  ///< exclusive horizon the run reached
  std::int32_t n_cells = 0;
  std::int32_t n_shards = 0;
  std::vector<ShardCheckpoint> shards;
  std::vector<MailboxCheckpoint> mailboxes;

  bool operator==(const EngineCheckpoint&) const = default;

  /// Order-exact FNV-1a fold of every field; two engines with equal
  /// digest() are byte-identical at the fingerprint granularity.
  [[nodiscard]] std::uint64_t digest() const;

  /// Serialize as little-endian u64 words: magic, header, shard records,
  /// mailbox records, then an FNV-1a digest of all preceding bytes.
  [[nodiscard]] std::vector<std::uint8_t> to_bytes() const;

  /// Parse and verify bytes produced by to_bytes(). Returns false (leaving
  /// `out` untouched) on bad magic, short/oversized payload, or digest
  /// mismatch.
  [[nodiscard]] static bool from_bytes(const std::vector<std::uint8_t>& bytes,
                                       EngineCheckpoint& out);
};

}  // namespace efd::sim
