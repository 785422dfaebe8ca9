#include "src/obs/profile.hpp"

#include "src/obs/metrics.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace efd::obs {

namespace prof_detail {

namespace {
bool env_enabled() {
  const char* env = std::getenv("EFD_PROF");
  return env == nullptr || std::string_view(env) != "0";
}
}  // namespace

std::atomic<bool> g_enabled{env_enabled()};
thread_local ProfShard* t_shard = nullptr;

ProfShard& make_shard() { return ProfileRegistry::instance().shard(); }

}  // namespace prof_detail

void set_prof_enabled(bool on) {
  prof_detail::g_enabled.store(on, std::memory_order_relaxed);
}

std::int64_t prof_now_ns() {
  using clock = std::chrono::steady_clock;
  static const clock::time_point epoch = clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(clock::now() -
                                                              epoch)
      .count();
}

ProfileRegistry& ProfileRegistry::instance() {
  static ProfileRegistry* registry = new ProfileRegistry();  // never destroyed
  return *registry;
}

ProfShard& ProfileRegistry::shard() {
  if (prof_detail::t_shard != nullptr) return *prof_detail::t_shard;
  const std::scoped_lock lock(mutex_);
  shards_.push_back(std::make_unique<ProfShard>());
  prof_detail::t_shard = shards_.back().get();
  return *prof_detail::t_shard;
}

namespace {

/// Scan `parent`'s child list (or the root list) for `name` — pointer
/// equality first (all call sites pass literals or the static dispatch-table
/// names, so this is the common hit), content equality as the fallback that
/// merges equal literals from different TUs.
std::int32_t find_child(const ProfShard& s, std::int32_t parent,
                        const char* name) {
  std::int32_t i = parent < 0
                       ? s.root_head.load(std::memory_order_acquire)
                       : s.cells[static_cast<std::size_t>(parent)]
                             .first_child.load(std::memory_order_acquire);
  while (i >= 0) {
    const auto& c = s.cells[static_cast<std::size_t>(i)];
    if (c.name == name || std::strcmp(c.name, name) == 0) return i;
    i = c.next_sibling.load(std::memory_order_acquire);
  }
  return -1;
}

}  // namespace

std::int32_t ProfileRegistry::find_or_create(ProfShard& s, std::int32_t parent,
                                             const char* name) {
  const std::scoped_lock lock(mutex_);
  // Re-scan under the lock: another enter() on this thread cannot race us,
  // but the lock-free scan above may have run before a concurrent snapshot
  // settled; cheap and keeps the invariant in one place.
  const std::int32_t found = find_child(s, parent, name);
  if (found >= 0) return found;
  if (s.n_cells >= kMaxProfNodes) {
    static std::atomic<bool> warned{false};
    if (!warned.exchange(true)) {
      std::fprintf(stderr,
                   "efd::obs: profile cell capacity (%d) exhausted; "
                   "'%s' dropped\n",
                   kMaxProfNodes, name);
    }
    s.dropped.fetch_add(1, std::memory_order_relaxed);
    return -1;
  }
  const std::int32_t idx = s.n_cells++;
  auto& cell = s.cells[static_cast<std::size_t>(idx)];
  cell.name = name;
  cell.parent = parent;
  // Publish at the head of the sibling list with a release store so the
  // name/parent writes above are visible to lock-free readers.
  auto& head = parent < 0
                   ? s.root_head
                   : s.cells[static_cast<std::size_t>(parent)].first_child;
  cell.next_sibling.store(head.load(std::memory_order_relaxed),
                          std::memory_order_relaxed);
  head.store(idx, std::memory_order_release);
  return idx;
}

std::int32_t ProfileRegistry::enter(ProfShard& s, const char* name,
                                    std::int64_t start_ns) {
  const std::int32_t depth = s.depth.load(std::memory_order_relaxed);
  if (depth >= kMaxProfDepth) {
    s.dropped.fetch_add(1, std::memory_order_relaxed);
    return -1;
  }
  const std::int32_t parent =
      depth == 0 ? -1
                 : s.stack[static_cast<std::size_t>(depth - 1)].cell.load(
                       std::memory_order_relaxed);
  std::int32_t cell = find_child(s, parent, name);
  if (cell < 0) cell = find_or_create(s, parent, name);
  if (cell < 0) return -1;  // pool exhausted
  auto& frame = s.stack[static_cast<std::size_t>(depth)];
  frame.cell.store(cell, std::memory_order_relaxed);
  frame.start_ns.store(start_ns, std::memory_order_relaxed);
  s.depth.store(depth + 1, std::memory_order_release);
  return cell;
}

void ProfileRegistry::leave(ProfShard& s, std::int32_t cell,
                            std::int64_t start_ns, std::int64_t end_ns) {
  // Pop before accumulating: a snapshot racing this exit either sees the
  // open frame (elapsed-so-far) or the accumulated total, never both.
  const std::int32_t depth = s.depth.load(std::memory_order_relaxed);
  if (depth > 0) s.depth.store(depth - 1, std::memory_order_release);
  auto& c = s.cells[static_cast<std::size_t>(cell)];
  c.total_ns.fetch_add(end_ns - start_ns, std::memory_order_relaxed);
  c.count.fetch_add(1, std::memory_order_relaxed);
}

namespace {

/// Mutable fold node keyed by name content under one parent.
ProfileNode* fold_child(ProfileNode& parent, const char* name) {
  for (auto& c : parent.children) {
    if (c.name == name) return &c;
  }
  parent.children.emplace_back();
  parent.children.back().name = name;
  return &parent.children.back();
}

struct ShardFold {
  const ProfShard* shard;
  int thread;
  std::vector<std::int64_t> open_extra_ns;  // per-cell still-open elapsed
};

void fold_level(ProfileNode& into, const ShardFold& f, std::int32_t head) {
  for (std::int32_t i = head; i >= 0;) {
    const auto& cell = f.shard->cells[static_cast<std::size_t>(i)];
    const std::int64_t total =
        cell.total_ns.load(std::memory_order_relaxed) +
        f.open_extra_ns[static_cast<std::size_t>(i)];
    const std::uint64_t count = cell.count.load(std::memory_order_relaxed);
    if (total != 0 || count != 0) {
      ProfileNode* node = fold_child(into, cell.name);
      node->total_ns += total;
      node->count += count;
      node->threads.push_back({f.thread, total, count});
      fold_level(*node, f,
                 cell.first_child.load(std::memory_order_acquire));
    }
    i = cell.next_sibling.load(std::memory_order_acquire);
  }
}

void finalize(ProfileNode& node) {
  std::sort(node.children.begin(), node.children.end(),
            [](const ProfileNode& a, const ProfileNode& b) {
              return a.name < b.name;
            });
  std::int64_t children_ns = 0;
  for (auto& c : node.children) {
    finalize(c);
    children_ns += c.total_ns;
  }
  node.self_ns = std::max<std::int64_t>(0, node.total_ns - children_ns);
}

}  // namespace

ProfileSnapshot ProfileRegistry::snapshot() const {
  const std::scoped_lock lock(mutex_);
  const std::int64_t now = prof_now_ns();
  ProfileSnapshot snap;
  snap.enabled = prof_enabled();
  snap.threads = static_cast<int>(shards_.size());
  snap.root.name = "(root)";
  std::int64_t max_thread_top_ns = 0;
  for (std::size_t t = 0; t < shards_.size(); ++t) {
    const ProfShard& s = *shards_[t];
    snap.dropped += s.dropped.load(std::memory_order_relaxed);
    ShardFold f{&s, static_cast<int>(t),
                std::vector<std::int64_t>(
                    static_cast<std::size_t>(kMaxProfNodes), 0)};
    // Credit still-open frames with their elapsed-so-far: this is what makes
    // the bench root total track wall clock while the outermost scope is
    // still alive at snapshot (bench::run's root scope), and what makes
    // unbalanced usage degrade gracefully instead of vanishing.
    const std::int32_t depth = s.depth.load(std::memory_order_acquire);
    for (std::int32_t j = 0; j < depth; ++j) {
      const auto& frame = s.stack[static_cast<std::size_t>(j)];
      const std::int32_t cell = frame.cell.load(std::memory_order_relaxed);
      const std::int64_t start =
          frame.start_ns.load(std::memory_order_relaxed);
      if (cell >= 0 && now > start) {
        f.open_extra_ns[static_cast<std::size_t>(cell)] += now - start;
      }
    }
    fold_level(snap.root, f, s.root_head.load(std::memory_order_acquire));
    std::int64_t top_ns = 0;
    for (std::int32_t i = s.root_head.load(std::memory_order_acquire); i >= 0;
         i = s.cells[static_cast<std::size_t>(i)].next_sibling.load(
             std::memory_order_acquire)) {
      top_ns += s.cells[static_cast<std::size_t>(i)].total_ns.load(
                    std::memory_order_relaxed) +
                f.open_extra_ns[static_cast<std::size_t>(i)];
    }
    snap.cpu_total_ns += top_ns;
    max_thread_top_ns = std::max(max_thread_top_ns, top_ns);
  }
  // The synthetic root reports the busiest single thread, not the CPU sum:
  // with the main thread's outermost scope covering the run this is the
  // wall clock; worker threads only widen cpu_total_ns.
  snap.root.total_ns = max_thread_top_ns;
  finalize(snap.root);
  return snap;
}

void ProfileRegistry::reset() {
  const std::scoped_lock lock(mutex_);
  const std::int64_t now = prof_now_ns();
  for (const auto& s : shards_) {
    for (std::int32_t i = 0; i < s->n_cells; ++i) {
      auto& c = s->cells[static_cast<std::size_t>(i)];
      c.total_ns.store(0, std::memory_order_relaxed);
      c.count.store(0, std::memory_order_relaxed);
    }
    s->dropped.store(0, std::memory_order_relaxed);
    // Re-base open frames so scopes straddling the reset only report the
    // post-reset portion of their period.
    const std::int32_t depth = s->depth.load(std::memory_order_acquire);
    for (std::int32_t j = 0; j < depth; ++j) {
      s->stack[static_cast<std::size_t>(j)].start_ns.store(
          now, std::memory_order_relaxed);
    }
  }
}

const ProfileNode* ProfileSnapshot::find(std::string_view path) const {
  const ProfileNode* node = &root;
  while (!path.empty()) {
    const std::size_t slash = path.find('/');
    const std::string_view head = path.substr(0, slash);
    path = slash == std::string_view::npos ? std::string_view{}
                                           : path.substr(slash + 1);
    const ProfileNode* next = nullptr;
    for (const auto& c : node->children) {
      if (c.name == head) {
        next = &c;
        break;
      }
    }
    if (next == nullptr) return nullptr;
    node = next;
  }
  return node;
}

namespace {

void append_node(std::string& out, const ProfileNode& node,
                 const std::string& pad) {
  out += "{\n";
  out += pad + "  \"name\": \"";
  detail::append_escaped(out, node.name);
  out += "\",\n";
  out += pad + "  \"count\": " + std::to_string(node.count) + ",\n";
  out += pad + "  \"total_ns\": " + std::to_string(node.total_ns) + ",\n";
  out += pad + "  \"self_ns\": " + std::to_string(node.self_ns) + ",\n";
  out += pad + "  \"threads\": [";
  for (std::size_t i = 0; i < node.threads.size(); ++i) {
    const auto& t = node.threads[i];
    if (i != 0) out += ", ";
    out += "{\"thread\": " + std::to_string(t.thread) +
           ", \"total_ns\": " + std::to_string(t.total_ns) +
           ", \"count\": " + std::to_string(t.count) + "}";
  }
  out += "],\n";
  out += pad + "  \"children\": [";
  for (std::size_t i = 0; i < node.children.size(); ++i) {
    out += i == 0 ? "\n" : ",\n";
    out += pad + "    ";
    append_node(out, node.children[i], pad + "    ");
  }
  out += node.children.empty() ? "]\n" : "\n" + pad + "  ]\n";
  out += pad + "}";
}

}  // namespace

std::string ProfileSnapshot::to_json(int indent) const {
  const std::string pad(static_cast<std::size_t>(indent), ' ');
  std::string out = "{\n";
  out += pad + "  \"enabled\": " + std::string(enabled ? "true" : "false") +
         ",\n";
  out += pad + "  \"threads\": " + std::to_string(threads) + ",\n";
  out += pad + "  \"dropped\": " + std::to_string(dropped) + ",\n";
  out += pad + "  \"cpu_total_ns\": " + std::to_string(cpu_total_ns) + ",\n";
  out += pad + "  \"root\": ";
  append_node(out, root, pad + "  ");
  out += "\n" + pad + "}";
  return out;
}

}  // namespace efd::obs
