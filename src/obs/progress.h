// Progress heartbeat for long solves.
//
// An LEP n=6 solve runs for minutes with no output; the heartbeat
// turns that silence into periodic single-line JSONL records on stderr
// (or any FILE*), emitted from the hot loops that already know the
// interesting numbers — the explore wave loop and the fixpoint round
// loop call tick() with keys interned, zones allocated and the current
// round, and the heartbeat adds elapsed wall time and peak RSS:
//
//   {"tigat_hb": 3, "elapsed_s": 12.402, "phase": "fixpoint",
//    "keys": 81234, "zones": 220101, "round": 17, "rss_mb": 512.3}
//
// tick() is rate-limited to the configured period with one relaxed
// atomic load + a clock read when armed and a plain false branch when
// not, so it can sit inside per-wave/per-round code unconditionally.
// The FIRST tick after enable() emits immediately and the solver emits
// a final record when it finishes, so even sub-second solves with
// --progress produce at least one line.  emit() under a mutex — loops
// calling tick() concurrently produce interleaved records, never torn
// lines.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdio>

namespace tigat::obs {

class Progress {
 public:
  static Progress& instance();

  // The longest period a command-line flag may ask for: a day.
  static constexpr double kMaxPeriodSeconds = 24 * 3600.0;

  // Arms the heartbeat: at most one record per `period_seconds`, to
  // `out` (default stderr).  Period 0 emits on every tick.
  void enable(double period_seconds, std::FILE* out = stderr);
  void disable();
  [[nodiscard]] bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

  // Rate-limited record; call freely from wave/round loops.  Pass the
  // best currently-known figures; 0 is printed as 0, not suppressed.
  void tick(const char* phase, std::uint64_t keys, std::uint64_t zones,
            std::uint64_t round);

  // Unconditional record (no rate limit) — the solver's final "done"
  // line, guaranteeing at least one record per enabled solve.
  void emit(const char* phase, std::uint64_t keys, std::uint64_t zones,
            std::uint64_t round);

  // Campaign-phase heartbeat: same stream, same rate limit, but the
  // figures a long `--runs=N` campaign cares about — runs completed,
  // retries spent and the running verdict tallies:
  //
  //   {"tigat_hb": 7, "elapsed_s": 41.1, "phase": "campaign",
  //    "runs": 120, "total": 500, "retries": 3, "fails": 1,
  //    "inconclusive": 2, "rss_mb": 96.4}
  //
  // The campaign engine ticks after every run and emits one final
  // "campaign-done" record, mirroring the solver's contract that an
  // enabled heartbeat always produces at least one line.
  void tick_campaign(std::uint64_t runs_done, std::uint64_t runs_total,
                     std::uint64_t retries, std::uint64_t fails,
                     std::uint64_t inconclusive);
  void emit_campaign(const char* phase, std::uint64_t runs_done,
                     std::uint64_t runs_total, std::uint64_t retries,
                     std::uint64_t fails, std::uint64_t inconclusive);

  // Serve-phase heartbeat (tigat-serve): connection and request
  // throughput figures the daemon's supervisor watches:
  //
  //   {"tigat_hb": 9, "elapsed_s": 60.0, "phase": "serve",
  //    "connections": 8, "requests": 7201234, "errors": 0,
  //    "rss_mb": 42.1}
  //
  // The daemon ticks from its accept/worker loops and emits one final
  // "serve-done" record on shutdown, mirroring the solver/campaign
  // contract that an enabled heartbeat always produces at least one
  // line.
  void tick_serve(std::uint64_t connections, std::uint64_t requests,
                  std::uint64_t errors);
  void emit_serve(const char* phase, std::uint64_t connections,
                  std::uint64_t requests, std::uint64_t errors);

 private:
  Progress();
  struct Impl;
  Impl* impl_;  // never freed (process-lifetime singleton)
  std::atomic<bool> enabled_{false};
};

inline Progress& progress() { return Progress::instance(); }

}  // namespace tigat::obs
