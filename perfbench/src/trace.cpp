#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <mutex>
#include <vector>

namespace perfbench::trace {

namespace detail {
std::atomic<bool> g_enabled{false};
}

namespace {

// Spans kept in the logs across all threads (~5 MB, a ~15 MB trace
// file); later spans are still aggregated, only their records dropped.
constexpr std::size_t kLogCap = std::size_t{1} << 17;

struct Record {
  const char* name;
  std::uint64_t id;
  std::int64_t start;
  std::int64_t end;
  std::int32_t parent;  // index into the same thread's log, -1 = root
};

struct Frame {
  const char* name;
  std::uint64_t id;
  std::int64_t start;
  std::int64_t child_ns;
  std::int32_t log_index;  // -1 when the record was dropped
};

struct ThreadLog {
  std::uint32_t tid = 0;
  std::vector<Record> log;
  std::vector<Frame> stack;
  std::vector<std::pair<const char*, Totals>> totals;

  Totals& slot(const char* name) {
    for (auto& [n, t] : totals) {
      if (n == name) return t;
    }
    totals.emplace_back(name, Totals{});
    return totals.back().second;
  }
};

std::mutex g_mutex;
// Owned here, not by the threads, so logs outlive the threads that
// wrote them.  Guarded by g_mutex.
std::vector<std::unique_ptr<ThreadLog>> g_logs;
std::atomic<std::uint64_t> g_next_id{1};
std::atomic<std::size_t> g_logged{0};
std::atomic<std::uint64_t> g_dropped{0};

std::uint64_t next_id() noexcept {
  return g_next_id.fetch_add(1, std::memory_order_relaxed);
}

ThreadLog& local() {
  thread_local ThreadLog* log = nullptr;
  if (log == nullptr) {
    std::lock_guard lock(g_mutex);
    g_logs.push_back(std::make_unique<ThreadLog>());
    log = g_logs.back().get();
    log->tid = static_cast<std::uint32_t>(g_logs.size());
  }
  return *log;
}

}  // namespace

void enable(bool on) { detail::g_enabled.store(on, std::memory_order_relaxed); }

void Span::open(const char* name, std::uint64_t id) {
  ThreadLog& t = local();
  const Frame* parent = t.stack.empty() ? nullptr : &t.stack.back();
  if (id == kFreshId || (id == 0 && parent == nullptr)) {
    id = next_id();
  } else if (id == 0) {
    id = parent->id;
  }
  std::int32_t index = -1;
  if (g_logged.fetch_add(1, std::memory_order_relaxed) < kLogCap) {
    index = static_cast<std::int32_t>(t.log.size());
    t.log.push_back(
        {name, id, 0, 0, parent != nullptr ? parent->log_index : -1});
  } else {
    g_dropped.fetch_add(1, std::memory_order_relaxed);
  }
  open_ = true;
  // Read the clock last so bookkeeping is charged to the parent.
  t.stack.push_back({name, id, now_ns(), 0, index});
  if (index >= 0) t.log[static_cast<std::size_t>(index)].start =
      t.stack.back().start;
}

void Span::close() {
  const std::int64_t end = now_ns();
  ThreadLog& t = local();
  const Frame f = t.stack.back();
  t.stack.pop_back();
  const std::int64_t dur = end - f.start;
  Totals& s = t.slot(f.name);
  ++s.count;
  s.total_ns += dur;
  s.self_ns += dur - f.child_ns;
  if (!t.stack.empty()) t.stack.back().child_ns += dur;
  if (f.log_index >= 0) t.log[static_cast<std::size_t>(f.log_index)].end = end;
}

std::map<std::string, Totals> totals() {
  std::lock_guard lock(g_mutex);
  std::map<std::string, Totals> out;
  for (const auto& log : g_logs) {
    for (const auto& [name, t] : log->totals) {
      Totals& o = out[name];
      o.count += t.count;
      o.total_ns += t.total_ns;
      o.self_ns += t.self_ns;
    }
  }
  return out;
}

std::uint64_t dropped() { return g_dropped.load(std::memory_order_relaxed); }

bool write_chrome_trace(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard lock(g_mutex);
  std::int64_t origin = INT64_MAX;
  for (const auto& log : g_logs) {
    for (const Record& r : log->log) origin = std::min(origin, r.start);
  }
  std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[", f);
  bool first = true;
  for (const auto& log : g_logs) {
    for (const Record& r : log->log) {
      if (r.end == 0) continue;  // still open when the run ended
      std::fprintf(f,
                   "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                   "\"parent\":%d}}",
                   first ? "" : ",", r.name, log->tid,
                   static_cast<double>(r.start - origin) / 1e3,
                   static_cast<double>(r.end - r.start) / 1e3,
                   static_cast<unsigned long long>(r.id), r.parent);
      first = false;
    }
  }
  std::fprintf(f, "\n],\"otherData\":{\"dropped_spans\":%llu}}\n",
               static_cast<unsigned long long>(dropped()));
  return std::fclose(f) == 0;
}

}  // namespace perfbench::trace
