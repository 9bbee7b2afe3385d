// A small fork-join worker pool for the solving pipeline.
//
// The only primitive is `parallel_for`: split an index range into
// chunks and let every thread — the caller included — steal chunks
// from a shared atomic cursor until the range is drained.  Chunk
// stealing gives dynamic load balancing (zone workloads are wildly
// uneven: one key's pred_t may cost 1000× its neighbour's) without any
// per-task allocation.
//
// Determinism contract: parallel_for assigns *work*, never *results*.
// Callers write each index's result into a preallocated slot and merge
// serially in index order afterwards; with that discipline the output
// is bit-identical for any worker count, which the game solver relies
// on (see game/solver.cpp) and tests/solver_determinism_test.cpp
// checks.
//
// Exceptions thrown by the body are caught, the remaining chunks are
// drained without running the body, and the first exception is
// rethrown on the calling thread once the range is complete — so
// ExplorationLimit and friends propagate exactly as in serial code.
//
// Every participating thread flushes its pending zone-memory bytes
// (util/memory_meter.h) before its share of a job ends, so the meter
// is exact again when parallel_for returns.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace tigat::util {

class ThreadPool {
 public:
  // `threads` counts total workers including the calling thread;
  // 0 means hardware_concurrency().  `threads <= 1` spawns nothing and
  // parallel_for degenerates to a plain loop.
  explicit ThreadPool(unsigned threads = 0);
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;
  ~ThreadPool();

  // The most threads a command-line flag may ask for (--threads,
  // --clients): far above any core count, far below what exhausts a
  // process's thread limit.
  static constexpr unsigned kMaxThreads = 1024;

  // Total threads that participate in a parallel_for (callers + pool).
  [[nodiscard]] unsigned worker_count() const noexcept {
    return static_cast<unsigned>(workers_.size()) + 1;
  }

  // Runs body(begin, end) over disjoint chunks covering [0, n), each at
  // most `grain` wide.  Blocks until every chunk completed.  Not
  // reentrant (the body must not call parallel_for on the same pool).
  // `label` (a string literal, or nullptr for none) names the job in
  // the obs trace: each participating thread records one span covering
  // its share of the chunks.
  void parallel_for(std::size_t n, std::size_t grain,
                    const std::function<void(std::size_t, std::size_t)>& body,
                    const char* label = nullptr);

  [[nodiscard]] static unsigned hardware_threads() noexcept;

 private:
  void worker_loop();
  void run_chunks();

  std::vector<std::thread> workers_;

  std::mutex mutex_;
  std::condition_variable wake_;       // workers: a new job was posted
  std::condition_variable finished_;   // caller: all items completed
  bool stop_ = false;
  std::uint64_t epoch_ = 0;  // bumped per job so late wakers never rerun one
  std::size_t acked_ = 0;    // workers done with the current epoch

  // Current job.  The fields are written under mutex_ when a job is
  // posted and read by workers after they observe the new epoch under
  // the same mutex; parallel_for does not return (and thus cannot
  // repost) until every worker acked the epoch from inside the lock.
  const std::function<void(std::size_t, std::size_t)>* body_ = nullptr;
  const char* label_ = nullptr;  // trace span name for the current job
  std::size_t n_ = 0;
  std::size_t grain_ = 1;
  std::atomic<std::size_t> cursor_{0};  // next unclaimed index
  std::atomic<bool> aborted_{false};    // a body threw; skip remaining
  std::exception_ptr error_;            // first body exception (mutex_)
};

}  // namespace tigat::util
