#include "src/net/sources.hpp"

#include <atomic>
#include <cassert>

namespace efd::net {

namespace {
// Atomic because the parallel sweeps emit packets from several threads at
// once: a plain counter could hand one thread an id it had already used,
// and PLC reassembly keyed by that id would then drop a packet.
std::uint64_t next_packet_id() {
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}
}  // namespace

UdpSource::UdpSource(sim::Simulator& simulator, Interface& interface, Config config)
    : sim_(simulator), interface_(interface), config_(config) {
  assert(config_.rate_bps > 0.0);
  assert(config_.packet_bytes > 0);
}

void UdpSource::run(sim::Time at, sim::Time until) {
  until_ = until;
  stopped_ = false;
  pending_ = sim_.at_inline(at, [this] { emit(); });
}

void UdpSource::emit() {
  if (stopped_ || sim_.now() >= until_) return;
  Packet p;
  p.id = next_packet_id();
  p.flow_id = config_.flow_id;
  p.seq = seq_++;
  p.size_bytes = config_.packet_bytes;
  p.src = config_.src;
  p.dst = config_.dst;
  p.created = sim_.now();
  p.priority = config_.priority;
  ++offered_;
  if (!interface_.enqueue(p)) ++dropped_;
  const double pkt_seconds =
      static_cast<double>(config_.packet_bytes) * 8.0 / config_.rate_bps;
  pending_ = sim_.after_inline(sim::seconds(pkt_seconds), [this] { emit(); });
}

ProbeSource::ProbeSource(sim::Simulator& simulator, Interface& interface, Config config)
    : sim_(simulator), interface_(interface), config_(config) {
  assert(config_.burst_count >= 1);
  assert(config_.interval.ns() > 0);
}

void ProbeSource::run(sim::Time at, sim::Time until) {
  until_ = until;
  stopped_ = false;
  pending_ = sim_.at_inline(at, [this] { emit(); });
}

void ProbeSource::resume(sim::Time at, sim::Time until) { run(at, until); }

void ProbeSource::emit() {
  if (stopped_ || sim_.now() >= until_) return;
  for (int i = 0; i < config_.burst_count; ++i) {
    Packet p;
    p.id = next_packet_id();
    p.flow_id = config_.flow_id;
    p.seq = seq_++;
    p.size_bytes = config_.packet_bytes;
    p.src = config_.src;
    p.dst = config_.dst;
    p.created = sim_.now();
    p.priority = config_.priority;
    if (interface_.enqueue(p)) ++sent_;
  }
  pending_ = sim_.after_inline(config_.interval, [this] { emit(); });
}

}  // namespace efd::net
