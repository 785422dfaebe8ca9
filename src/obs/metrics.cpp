#include "src/obs/metrics.hpp"

#include "src/obs/profile.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>

namespace efd::obs {

namespace detail {

namespace {
bool env_enabled() {
  const char* env = std::getenv("EFD_OBS");
  return env == nullptr || std::string_view(env) != "0";
}
}  // namespace

std::atomic<bool> g_enabled{env_enabled()};
thread_local Shard* t_shard = nullptr;

Shard& make_shard() { return MetricsRegistry::instance().shard(); }

void append_escaped(std::string& out, std::string_view s) {
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
}

}  // namespace detail

void set_enabled(bool on) {
  detail::g_enabled.store(on, std::memory_order_relaxed);
}

MetricsRegistry& MetricsRegistry::instance() {
  static MetricsRegistry* registry = new MetricsRegistry();  // never destroyed
  return *registry;
}

Shard& MetricsRegistry::shard() {
  if (detail::t_shard != nullptr) return *detail::t_shard;
  const std::scoped_lock lock(mutex_);
  shards_.push_back(std::make_unique<Shard>());
  detail::t_shard = shards_.back().get();
  return *detail::t_shard;
}

namespace {

template <typename Index>
int register_name(std::string_view name, Index& index, int capacity,
                  const char* kind) {
  if (const auto it = index.find(name); it != index.end()) return it->second;
  const int id = static_cast<int>(index.size());
  if (id >= capacity) {
    static std::atomic<bool> warned{false};
    if (!warned.exchange(true)) {
      std::fprintf(stderr,
                   "efd::obs: %s capacity (%d) exhausted; '%.*s' dropped\n",
                   kind, capacity, static_cast<int>(name.size()), name.data());
    }
    return -1;
  }
  index.emplace(name, id);
  return id;
}

}  // namespace

CounterId MetricsRegistry::counter_id(std::string_view name) {
  const std::scoped_lock lock(mutex_);
  return CounterId{register_name(name, counter_index_, kMaxCounters, "counter")};
}

HistogramId MetricsRegistry::histogram_id(std::string_view name) {
  const std::scoped_lock lock(mutex_);
  return HistogramId{
      register_name(name, histogram_index_, kMaxHistograms, "histogram")};
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  const std::scoped_lock lock(mutex_);
  MetricsSnapshot snap;
  snap.counters.reserve(counter_index_.size());
  for (const auto& [name, id] : counter_index_) {
    const auto i = static_cast<std::size_t>(id);
    std::uint64_t total = 0;
    for (const auto& s : shards_) {
      total += s->counters[i].load(std::memory_order_relaxed);
    }
    snap.counters.emplace_back(name, total);
  }
  snap.histograms.reserve(histogram_index_.size());
  for (const auto& [name, id] : histogram_index_) {
    const auto i = static_cast<std::size_t>(id);
    HistogramData h;
    for (const auto& s : shards_) {
      h.count += s->histo_count[i].load(std::memory_order_relaxed);
      h.sum += s->histo_sum[i].load(std::memory_order_relaxed);
      for (int b = 0; b < kHistogramBuckets; ++b) {
        h.buckets[static_cast<std::size_t>(b)] +=
            s->histo_buckets[i][static_cast<std::size_t>(b)].load(
                std::memory_order_relaxed);
      }
    }
    snap.histograms.emplace_back(name, h);
  }
  const auto by_name = [](const auto& a, const auto& b) {
    return a.first < b.first;
  };
  std::sort(snap.counters.begin(), snap.counters.end(), by_name);
  std::sort(snap.histograms.begin(), snap.histograms.end(), by_name);
  return snap;
}

void MetricsRegistry::reset() {
  const std::scoped_lock lock(mutex_);
  for (const auto& s : shards_) {
    for (auto& c : s->counters) c.store(0, std::memory_order_relaxed);
    for (auto& c : s->histo_count) c.store(0, std::memory_order_relaxed);
    for (auto& v : s->histo_sum) v.store(0.0, std::memory_order_relaxed);
    for (auto& row : s->histo_buckets) {
      for (auto& b : row) b.store(0, std::memory_order_relaxed);
    }
  }
}

std::uint64_t MetricsSnapshot::counter(std::string_view name) const {
  for (const auto& [n, v] : counters) {
    if (n == name) return v;
  }
  return 0;
}

const HistogramData* MetricsSnapshot::histogram(std::string_view name) const {
  for (const auto& [n, v] : histograms) {
    if (n == name) return &v;
  }
  return nullptr;
}

namespace {

void append_double(std::string& out, double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  out += buf;
}

}  // namespace

std::string MetricsSnapshot::to_json(int indent,
                                     std::string_view profile_json) const {
  const std::string pad(static_cast<std::size_t>(indent), ' ');
  std::string out = "{\n";
  out += pad + "  \"counters\": {";
  for (std::size_t i = 0; i < counters.size(); ++i) {
    out += i == 0 ? "\n" : ",\n";
    out += pad + "    \"";
    detail::append_escaped(out, counters[i].first);
    out += "\": " + std::to_string(counters[i].second);
  }
  out += counters.empty() ? "},\n" : "\n" + pad + "  },\n";
  out += pad + "  \"histograms\": {";
  for (std::size_t i = 0; i < histograms.size(); ++i) {
    out += i == 0 ? "\n" : ",\n";
    const auto& [name, h] = histograms[i];
    out += pad + "    \"";
    detail::append_escaped(out, name);
    out += "\": {\"count\": " + std::to_string(h.count) + ", \"sum\": ";
    append_double(out, h.sum);
    // Only non-empty buckets, as {"le_exp": count}: key i means v < 2^i.
    out += ", \"buckets\": {";
    bool first = true;
    for (int b = 0; b < kHistogramBuckets; ++b) {
      const std::uint64_t n = h.buckets[static_cast<std::size_t>(b)];
      if (n == 0) continue;
      if (!first) out += ", ";
      first = false;
      out += "\"" + std::to_string(b) + "\": " + std::to_string(n);
    }
    out += "}}";
  }
  if (profile_json.empty()) {
    out += histograms.empty() ? "}\n" : "\n" + pad + "  }\n";
  } else {
    out += histograms.empty() ? "},\n" : "\n" + pad + "  },\n";
    out += pad + "  \"profile\": ";
    out += profile_json;
    out += "\n";
  }
  out += pad + "}";
  return out;
}

std::string snapshot_json(int indent) {
#if EFD_OBS_ENABLED
  // Embedding is conditional on the compile-time tier, not the runtime
  // switch: an EFD_OBS_ENABLED=0 build must not pull ProfileRegistry out of
  // the archive (the CI compile-out leg asserts no profiler symbols), while
  // a runtime-disabled profiler still reports {"enabled": false, ...} so
  // consumers can tell "off" from "absent".
  const std::string profile =
      ProfileRegistry::instance().snapshot().to_json(indent + 2);
  return MetricsRegistry::instance().snapshot().to_json(indent, profile);
#else
  return MetricsRegistry::instance().snapshot().to_json(indent);
#endif
}

}  // namespace efd::obs
