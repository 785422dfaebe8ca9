#include "src/sim/checkpoint.hpp"

#include <cstring>

#include "src/sim/fnv1a.hpp"

namespace efd::sim {

namespace {

constexpr std::uint64_t kMagic = 0x454644434b505431ULL;  // "EFDCKPT1"

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

[[nodiscard]] std::uint64_t get_u64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}

[[nodiscard]] std::uint64_t digest_bytes(const std::uint8_t* p, std::size_t n) {
  Fnv1a64 f;
  f.mix_bytes(p, n);
  return f.h;
}

}  // namespace

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

std::vector<std::uint8_t> EngineCheckpoint::to_bytes() const {
  std::vector<std::uint8_t> out;
  out.reserve(8 * (6 + 6 * shards.size() + 3 * mailboxes.size()));
  put_u64(out, kMagic);
  put_u64(out, static_cast<std::uint64_t>(t_ns));
  put_u64(out, static_cast<std::uint64_t>(n_cells));
  put_u64(out, static_cast<std::uint64_t>(n_shards));
  put_u64(out, shards.size());
  put_u64(out, mailboxes.size());
  for (const ShardCheckpoint& s : shards) {
    put_u64(out, static_cast<std::uint64_t>(s.horizon_ns));
    put_u64(out, static_cast<std::uint64_t>(s.now_ns));
    put_u64(out, s.dispatched);
    put_u64(out, s.sequence);
    put_u64(out, s.pending);
    put_u64(out, s.pending_digest);
  }
  for (const MailboxCheckpoint& m : mailboxes) {
    put_u64(out, m.pushed);
    put_u64(out, m.popped);
    put_u64(out, m.pending_digest);
  }
  put_u64(out, digest_bytes(out.data(), out.size()));
  return out;
}

bool EngineCheckpoint::from_bytes(const std::vector<std::uint8_t>& bytes,
                                  EngineCheckpoint& out) {
  constexpr std::size_t kHeader = 8 * 6;
  if (bytes.size() < kHeader + 8 || bytes.size() % 8 != 0) return false;
  const std::size_t payload = bytes.size() - 8;
  if (get_u64(bytes.data() + payload) != digest_bytes(bytes.data(), payload)) {
    return false;
  }
  if (get_u64(bytes.data()) != kMagic) return false;

  EngineCheckpoint cp;
  cp.t_ns = static_cast<std::int64_t>(get_u64(bytes.data() + 8));
  cp.n_cells = static_cast<std::int32_t>(get_u64(bytes.data() + 16));
  cp.n_shards = static_cast<std::int32_t>(get_u64(bytes.data() + 24));
  const std::uint64_t n_shard_recs = get_u64(bytes.data() + 32);
  const std::uint64_t n_mail_recs = get_u64(bytes.data() + 40);
  // Bound the counts before the size arithmetic so a forged header cannot
  // overflow it into a "consistent" payload length.
  if (n_shard_recs > (1u << 24) || n_mail_recs > (1u << 24)) return false;
  if (payload != kHeader + 8 * (6 * n_shard_recs + 3 * n_mail_recs)) return false;

  const std::uint8_t* p = bytes.data() + kHeader;
  cp.shards.resize(n_shard_recs);
  for (ShardCheckpoint& s : cp.shards) {
    s.horizon_ns = static_cast<std::int64_t>(get_u64(p)); p += 8;
    s.now_ns = static_cast<std::int64_t>(get_u64(p)); p += 8;
    s.dispatched = get_u64(p); p += 8;
    s.sequence = get_u64(p); p += 8;
    s.pending = get_u64(p); p += 8;
    s.pending_digest = get_u64(p); p += 8;
  }
  cp.mailboxes.resize(n_mail_recs);
  for (MailboxCheckpoint& m : cp.mailboxes) {
    m.pushed = get_u64(p); p += 8;
    m.popped = get_u64(p); p += 8;
    m.pending_digest = get_u64(p); p += 8;
  }
  out = std::move(cp);
  return true;
}

}  // namespace efd::sim
