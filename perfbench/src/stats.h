// Order statistics over raw samples kept in memory.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

namespace perfbench {

// Nearest-rank percentile (q in [0, 1]) of unsorted samples; 0 if empty.
inline double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  const auto rank =
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  const std::size_t at = std::min(v.size() - 1, rank == 0 ? 0 : rank - 1);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(at),
                   v.end());
  return v[at];
}

inline double median(const std::vector<double>& v) {
  return percentile(v, 0.5);
}

inline std::vector<double> to_us(const std::vector<std::int64_t>& ns) {
  std::vector<double> out;
  out.reserve(ns.size());
  for (const std::int64_t x : ns) out.push_back(static_cast<double>(x) / 1e3);
  return out;
}

// Latency percentiles of consecutive chunks of `chunk` samples from
// ns[begin, end); a trailing partial chunk is dropped unless it is the
// only one.
inline void chunk_percentiles(const std::vector<std::int64_t>& ns,
                              std::size_t begin, std::size_t end,
                              std::size_t chunk, std::vector<double>& p50_us,
                              std::vector<double>& p99_us) {
  if (begin < end && end - begin < chunk) chunk = end - begin;
  for (std::size_t at = begin; at + chunk <= end; at += chunk) {
    std::vector<double> us;
    us.reserve(chunk);
    for (std::size_t i = at; i < at + chunk; ++i) {
      us.push_back(static_cast<double>(ns[i]) / 1e3);
    }
    p50_us.push_back(percentile(us, 0.50));
    p99_us.push_back(percentile(us, 0.99));
  }
}

}  // namespace perfbench
