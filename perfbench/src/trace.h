// Spans recorded by the benchmark around its calls into each layer.
//
// A span has a name, start, end, parent and id; spans opened while
// another is open on the same thread are its children and inherit its
// id, so the spans of one synthesis pass, one campaign or one request
// share an id.  Recording is off unless enable(true) was called: a
// disabled Span costs one relaxed load and a branch.
//
// Every thread keeps its spans in its own log (registered once under a
// mutex, then lock-free) plus a per-name aggregate of count, total and
// self time.  Self time is the span's duration minus the time covered
// by its direct children, computed as each child closes.  Logs are kept
// in memory up to a cap and written out by write_chrome_trace() when
// the run ends; aggregates always cover every span.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>

namespace perfbench {

[[nodiscard]] inline std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace trace {

struct Totals {
  std::uint64_t count = 0;
  std::int64_t total_ns = 0;
  std::int64_t self_ns = 0;
};

namespace detail {
extern std::atomic<bool> g_enabled;
}

[[nodiscard]] inline bool enabled() noexcept {
  return detail::g_enabled.load(std::memory_order_relaxed);
}

// Turns recording on or off.  Call between phases, never while spans
// are open on another thread.
void enable(bool on);

// Span id argument: draw a fresh id even below an enclosing span (one
// request inside a connection's loop).
inline constexpr std::uint64_t kFreshId = ~std::uint64_t{0};

// Per-name totals merged over every thread, for spans closed so far.
[[nodiscard]] std::map<std::string, Totals> totals();

// Chrome trace-event JSON ("X" events; args carry id and parent) of the
// logged spans.  Returns false if the file cannot be written.
bool write_chrome_trace(const std::string& path);

// Spans dropped from the log because it was full (still aggregated).
[[nodiscard]] std::uint64_t dropped();

class Span {
 public:
  // `name` must be a string literal (stored by pointer).  `id` 0
  // inherits the enclosing span's id, or draws a fresh one at the root;
  // kFreshId always draws a fresh one.
  explicit Span(const char* name, std::uint64_t id = 0) {
    if (enabled()) open(name, id);
  }
  ~Span() {
    if (open_) close();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  void open(const char* name, std::uint64_t id);
  void close();
  bool open_ = false;
};

}  // namespace trace
}  // namespace perfbench
