#include "src/sim/checkpoint.hpp"

#include "src/sim/fnv1a.hpp"

namespace efd::sim {

std::uint64_t EngineCheckpoint::digest() const {
  Fnv1a64 f;
  f.mix(t_ns);
  f.mix(static_cast<std::uint64_t>(n_cells));
  f.mix(static_cast<std::uint64_t>(n_shards));
  f.mix(static_cast<std::uint64_t>(shards.size()));
  for (const ShardCheckpoint& s : shards) {
    f.mix(s.horizon_ns);
    f.mix(s.now_ns);
    f.mix(s.dispatched);
    f.mix(s.sequence);
    f.mix(s.pending);
    f.mix(s.pending_digest);
  }
  f.mix(static_cast<std::uint64_t>(mailboxes.size()));
  for (const MailboxCheckpoint& m : mailboxes) {
    f.mix(m.pushed);
    f.mix(m.popped);
    f.mix(m.pending_digest);
  }
  return f.h;
}

}  // namespace efd::sim
