// Byte accounting for the symbolic data structures.
//
// Table 1 of the paper reports the memory consumed by strategy
// generation.  Rather than sampling the process RSS (noisy, allocator
// dependent) the library keeps exact counters of the bytes held by
// zones, federations and symbolic-state tables.  Each counted structure
// reports its bytes from its constructor/destructor; `peak()` gives the
// high-water mark that the benchmark harness prints.
//
// The zone layer constructs and destroys zones on every solver worker,
// millions of times per solve, so it does not touch the shared counter
// per zone: zone_meter_add/zone_meter_sub add to a signed pending delta
// owned by the calling thread, and only that delta reaches the shared
// zone_memory() meter.  A thread flushes its delta
//   * when the delta's magnitude reaches kZoneMeterGranule (64 KiB);
//   * at the end of every ThreadPool job it took part in (run_chunks);
//   * at thread exit;
//   * whenever it calls zone_memory(), before the caller sees the meter.
// So zone_memory() is exact whenever no other thread holds a delta —
// in particular at every job boundary of the solving pipeline — and
// inside a job a reader's current() is off by less than
// (threads − 1) × kZoneMeterGranule, the other workers' unflushed
// deltas.  The peak only sees flushed values: it can miss a transient
// high of less than threads × kZoneMeterGranule.
//
// The shared count is signed and clamped at zero only when it is read.
// A thread may free zones another thread allocated but has not flushed
// yet, which drives the shared count below the true total until that
// thread flushes; clamping each update at zero there would lose those
// bytes for good.  The same holds for reset() while zones are alive:
// their later destruction shows as a negative count that reads as 0,
// so reset only where nothing is being solved.
//
// MemoryMeter itself is a plain pair of relaxed atomics: the counts
// are statistics, not synchronisation.  `peak` is maintained with a
// CAS loop and is exact up to the usual concurrent-high-water caveat
// (two simultaneous `add`s may each observe the pre-update peak; the
// final value still bounds every individually observed `current`).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace tigat::util {

class MemoryMeter {
 public:
  void add(std::size_t bytes) noexcept {
    apply(static_cast<std::int64_t>(bytes));
  }
  void sub(std::size_t bytes) noexcept {
    apply(-static_cast<std::int64_t>(bytes));
  }
  // Adds a signed delta (a thread's pending zone bytes).
  void apply(std::int64_t delta) noexcept {
    const std::int64_t now =
        current_.fetch_add(delta, std::memory_order_relaxed) + delta;
    if (delta <= 0) return;
    std::int64_t peak = peak_.load(std::memory_order_relaxed);
    while (now > peak &&
           !peak_.compare_exchange_weak(peak, now, std::memory_order_relaxed)) {
    }
  }

  // Both clamp at zero (see the file comment).
  [[nodiscard]] std::size_t current() const noexcept {
    return clamp(current_.load(std::memory_order_relaxed));
  }
  [[nodiscard]] std::size_t peak() const noexcept {
    return clamp(peak_.load(std::memory_order_relaxed));
  }

  // Forgets the history; used between benchmark cells.
  void reset() noexcept {
    current_.store(0, std::memory_order_relaxed);
    peak_.store(0, std::memory_order_relaxed);
  }
  // Keeps the live bytes but restarts the high-water mark from them.
  void reset_peak() noexcept {
    peak_.store(static_cast<std::int64_t>(current()),
                std::memory_order_relaxed);
  }

 private:
  static std::size_t clamp(std::int64_t v) noexcept {
    return v < 0 ? 0 : static_cast<std::size_t>(v);
  }

  std::atomic<std::int64_t> current_{0};
  std::atomic<std::int64_t> peak_{0};
};

// Process-wide meter used by the zone layer.  Flushes the calling
// thread's pending zone bytes first, so a thread always sees its own.
MemoryMeter& zone_memory() noexcept;

// A thread's pending delta is flushed once its magnitude reaches this.
inline constexpr std::int64_t kZoneMeterGranule = 64 * 1024;

namespace detail {
struct ZonePending {
  std::int64_t bytes = 0;
  // Set once the thread has registered its exit flush; until then (and
  // again during thread teardown) every update flushes at once.
  bool armed = false;
};
extern thread_local constinit ZonePending zone_pending;
void zone_meter_settle() noexcept;
}  // namespace detail

// The zone layer's per-object accounting (see the file comment).
inline void zone_meter_add(std::size_t bytes) noexcept {
  detail::ZonePending& p = detail::zone_pending;
  p.bytes += static_cast<std::int64_t>(bytes);
  if (!p.armed || p.bytes >= kZoneMeterGranule) detail::zone_meter_settle();
}
inline void zone_meter_sub(std::size_t bytes) noexcept {
  detail::ZonePending& p = detail::zone_pending;
  p.bytes -= static_cast<std::int64_t>(bytes);
  if (!p.armed || p.bytes <= -kZoneMeterGranule) detail::zone_meter_settle();
}

// Flushes the calling thread's pending zone bytes into zone_memory().
void flush_zone_meter() noexcept;

// Process high-water RSS from the OS (0 where unsupported).  The
// counters above measure the zone layer exactly; this measures
// everything — keys, edges, allocator overhead — and is what the
// bench harness reports alongside them.
std::size_t peak_rss_bytes() noexcept;

double to_mebibytes(std::size_t bytes) noexcept;

}  // namespace tigat::util
