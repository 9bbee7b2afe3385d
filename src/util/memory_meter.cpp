#include "util/memory_meter.h"

#include <utility>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

namespace tigat::util {

namespace {

// Trivially destructible, so it stays usable during static destruction
// (zones freed by static objects still flush into it).
MemoryMeter& shared_zone_meter() noexcept {
  static MemoryMeter meter;
  return meter;
}

// Flushes a thread's pending bytes when the thread exits.  Constructed
// on the thread's first zone update; once destroyed, `armed` stays
// false and every later update of the dying thread flushes at once.
struct ExitFlush {
  ExitFlush() noexcept { detail::zone_pending.armed = true; }
  ~ExitFlush() {
    detail::zone_pending.armed = false;
    flush_zone_meter();
  }
};

}  // namespace

namespace detail {

thread_local constinit ZonePending zone_pending;

void zone_meter_settle() noexcept {
  if (!zone_pending.armed) {
    thread_local ExitFlush exit_flush;
    (void)exit_flush;
  }
  flush_zone_meter();
}

}  // namespace detail

void flush_zone_meter() noexcept {
  const std::int64_t bytes = std::exchange(detail::zone_pending.bytes, 0);
  if (bytes != 0) shared_zone_meter().apply(bytes);
}

MemoryMeter& zone_memory() noexcept {
  flush_zone_meter();
  return shared_zone_meter();
}

std::size_t peak_rss_bytes() noexcept {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage ru {};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
#if defined(__APPLE__)
  return static_cast<std::size_t>(ru.ru_maxrss);  // bytes on macOS
#else
  return static_cast<std::size_t>(ru.ru_maxrss) * 1024;  // KiB on Linux
#endif
#else
  return 0;
#endif
}

double to_mebibytes(std::size_t bytes) noexcept {
  return static_cast<double>(bytes) / (1024.0 * 1024.0);
}

}  // namespace tigat::util
